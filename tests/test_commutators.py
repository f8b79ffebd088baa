import numpy as np
import pytest

from scatterlab.clusters import ClusterId, TWO_CLUSTERS
from scatterlab.commutators import (
    ConjugateSpec,
    FULL_A,
    analytic_commutator_apply,
    apply_dilation,
    commutator_form,
    continuum_edge,
    mourre_report,
    second_commutator_form,
    sqrt_lemma_eval,
)
from scatterlab.errors import (
    BoundaryConcentrationError,
    HypothesisError,
    QuadratureError,
    SpectralWindowError,
)
from scatterlab.experiments import admissible_random_state
from scatterlab.lattice import WaveFunction, gaussian_packet, make_grid
from scatterlab.model import default_model, free_model
from scatterlab.operators import (
    HamiltonianSpec,
    free_symbol,
    poschl_teller,
    quadratic_symbol,
)
from scatterlab.spectral import ThresholdTable, dense_spectrum


def test_dilation_annihilates_even_real_state():
    grid = make_grid(1, 256, 16.0)
    psi = gaussian_packet(grid, 0.0, 0.0, 1.5)
    val = psi.inner(apply_dilation(psi))
    assert abs(val) <= 1e-10


def test_dilation_splits_into_internal_external():
    grid = make_grid(2, 128, 24.0)
    psi = gaussian_packet(grid, 0.0, (0.5, 0.7), 1.5)
    for a in TWO_CLUSTERS:
        full = apply_dilation(psi, FULL_A)
        internal = apply_dilation(psi, ConjugateSpec("internal", a))
        external = apply_dilation(psi, ConjugateSpec("external", a))
        assert (full - internal - external).norm() <= 1e-10 * psi.norm()


def test_dilation_gaussian_quadrature_oracle():
    # <psi, A^2 psi> for the unit Gaussian: A psi = -i(1/2 - x^2) psi, so the
    # value is <x^4> - <x^2> + 1/4 = 3/4 - 1/2 + 1/4 = 1/2
    grid = make_grid(1, 512, 16.0)
    x = grid.positions()
    psi = WaveFunction(grid, (np.pi ** -0.25) * np.exp(-x ** 2 / 2.0) + 0j)
    apsi = apply_dilation(psi)
    value = apsi.inner(apsi).real
    fine = np.linspace(-16, 16, 200001)
    target = np.trapezoid(((fine ** 2 - 0.5) * np.pi ** -0.25 * np.exp(-fine ** 2 / 2)) ** 2,
                          fine)
    assert value == pytest.approx(target, abs=1e-6)
    assert value == pytest.approx(0.5, abs=1e-6)


def test_dilation_boundary_precondition():
    grid = make_grid(1, 128, 8.0)
    psi = gaussian_packet(grid, 6.9, 0.0, 1.0)
    with pytest.raises(BoundaryConcentrationError):
        apply_dilation(psi)
    apply_dilation(psi, boundary_tol=1.0)


def test_free_commutator_form_value():
    grid = make_grid(2, 128, 24.0)
    psi = gaussian_packet(grid, 0.0, (1.0, 2.0), 2.0)
    h0 = HamiltonianSpec(free_symbol(), ())
    form = commutator_form(psi, h0, FULL_A)
    # 2 p0^2 + |k0| = 4 up to the packet-width corrections
    spread = 2.0 / (2.0 * 2.0 ** 2)
    assert form == pytest.approx(4.0 + spread, abs=0.05)


def test_virial_on_eigenvector():
    grid = make_grid(1, 256, 16.0)
    h = HamiltonianSpec(quadratic_symbol(1.0), ((poschl_teller(2.0, 1.0), "internal"),))
    res = dense_spectrum(h, grid, 1)
    psi = res.eigenvectors[0]
    form = commutator_form(psi, h, FULL_A)
    from scatterlab.operators import apply_hamiltonian
    bound = 1e-6 * apply_hamiltonian(psi, h).norm() * apply_dilation(psi).norm()
    assert abs(form) <= bound


def test_form_reality_of_analytic_route():
    grid = make_grid(1, 256, 32.0)
    rng = np.random.default_rng(5)
    model = default_model()
    psi = admissible_random_state(grid, rng, (2.2,))
    applied = analytic_commutator_apply(psi, "subsystem:(xy)(0)", model)
    val = psi.inner(applied)
    assert abs(val.imag) <= 1e-9 * max(1.0, abs(val))


def test_free_formula_reduces_to_multiplier():
    grid = make_grid(2, 64, 16.0)
    psi = gaussian_packet(grid, 0.0, (0.8, 1.1), 2.0)
    out = analytic_commutator_apply(psi, "free", free_model())
    k = grid.momentum_mesh()
    ref = np.fft.ifftn((2.0 * k[0] ** 2 + np.abs(k[1])) * np.fft.fftn(psi.values))
    assert np.max(np.abs(out.values - ref)) <= 1e-12


def test_fibered_pair_singular_mode_average():
    # at q = s the singular factor takes the mean of its one-sided limits, 0
    grid = make_grid(1, 64, 8.0)
    s = float(grid.momenta()[3])  # exact lattice momentum
    model = default_model()
    x = grid.positions()
    k3 = grid.momenta()[3]
    mode = WaveFunction(grid, np.exp(1j * k3 * x))
    out = analytic_commutator_apply(mode, "fibered:(xy)(0)", model, s=s)
    # on the singular mode the multiplier part reduces to q^2/2 + s q/2 + 0
    expected_multiplier = 0.5 * s ** 2 + 0.5 * s * s
    # V23 acts on the grid coordinate u as V23(2u): the field is 2u V23'(2u)
    fld = 2.0 * x * model.v23.derivative(2.0 * x)
    expected = expected_multiplier * mode.values - fld * mode.values
    assert np.max(np.abs(out.values - expected)) <= 1e-10


def test_second_commutator_free_positive():
    grid = make_grid(1, 256, 32.0)
    rng = np.random.default_rng(6)
    psi = admissible_random_state(grid, rng, (1.8,))
    val = second_commutator_form(psi, ClusterId.PHOTON_FREE, free_model())
    assert val >= 0.0


def test_second_commutator_nested_path():
    grid = make_grid(1, 256, 32.0)
    rng = np.random.default_rng(7)
    model = default_model()
    psi = admissible_random_state(grid, rng, (2.0,))
    direct = second_commutator_form(psi, ClusterId.PHOTON_FREE, model)
    cpsi = analytic_commutator_apply(psi, "subsystem:(y)(x0)", model)
    nested = -2.0 * cpsi.inner(apply_dilation(psi)).imag
    scale = max(1.0, abs(direct))
    assert abs(direct - nested) <= 1e-6 * scale


def test_second_commutator_relative_bound_scan():
    # empirical relative bound: |<C>| <= const <(p^2 + 1)> over a random suite
    grid = make_grid(1, 256, 32.0)
    rng = np.random.default_rng(8)
    model = default_model()
    worst = 0.0
    for _ in range(20):
        psi = admissible_random_state(grid, rng, (rng.uniform(1.0, 2.5),))
        val = abs(second_commutator_form(psi, ClusterId.PHOTON_FREE, model))
        k = grid.momenta()
        hat = np.fft.fftn(psi.values, norm="ortho")
        denom = float(np.sum((k ** 2 + 1.0) * np.abs(hat) ** 2) * grid.measure)
        worst = max(worst, val / denom)
    assert worst < 10.0


def test_sqrt_lemma_values():
    for k in (0.01, 0.1, 1.0, 2.0, 10.0):
        assert sqrt_lemma_eval(k, 1e-8) == pytest.approx(k, rel=1e-6)
    assert sqrt_lemma_eval(0.0) == 0.0


def test_sqrt_lemma_budget_error():
    with pytest.raises(QuadratureError) as err:
        sqrt_lemma_eval(1.0, tol=1e-15, max_evals=20)
    assert err.value.achieved is not None


def test_continuum_edge_branches():
    assert continuum_edge(0.25) == pytest.approx(0.0625)
    assert continuum_edge(2.0) == pytest.approx(1.75)
    assert continuum_edge(0.5) == pytest.approx(0.25)
    assert continuum_edge(-0.5) == pytest.approx(0.25)
    # edge never exceeds s^2 (the guard used by dispersion scans)
    for s in np.linspace(-3, 3, 61):
        assert continuum_edge(s) <= s * s + 1e-15


def test_mourre_report_guards():
    table = ThresholdTable({a: np.array([]) for a in TWO_CLUSTERS})
    grid = make_grid(2, 32, 16.0)
    model = free_model()
    with pytest.raises(HypothesisError):
        mourre_report(0.0, (-0.1, 0.1), model, grid, table, samples=1)
    with pytest.raises(SpectralWindowError):
        mourre_report(0.05, (-0.01, 0.2), model, grid, table, samples=1)
    with pytest.raises(HypothesisError):
        mourre_report(1.0, (0.2, 1.8), model, grid, table, samples=1)


def test_eigenstate_not_deflated_flags_virial():
    # an injected eigenstate gives a vanishing form, the virial signature
    grid = make_grid(1, 256, 16.0)
    h = HamiltonianSpec(quadratic_symbol(1.0), ((poschl_teller(2.0, 1.0), "internal"),))
    res = dense_spectrum(h, grid, 1)
    form = commutator_form(res.eigenvectors[0], h, FULL_A)
    assert abs(form) < 1e-8
