import numpy as np
import pytest

from scatterlab import commutators
from scatterlab.clusters import ClusterId, TWO_CLUSTERS
from scatterlab.commutators import (
    analytic_commutator_apply,
    apply_dilation,
    check_boundary_concentration,
    commutator_form,
    continuum_edge,
    mourre_report,
    sqrt_lemma_eval,
)
from scatterlab.errors import (
    BoundaryConcentrationError,
    ClusterError,
    GridError,
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


def _refuse(*args, **kwargs):
    raise AssertionError("filtered or solved before the tolerance was checked")


@pytest.mark.parametrize("tol", [np.nan, 2.0, 0.0], ids=["nan", "above-one", "zero"])
@pytest.mark.parametrize("caller", ["check_boundary_concentration", "apply_dilation",
                                    "commutator_form", "mourre_report"])
def test_every_boundary_tol_caller_rejects_a_tolerance_outside_the_unit_interval(
        monkeypatch, caller, tol):
    # the guard raises when mass > tol, so a NaN tolerance or one >= 1 switched
    # it off: this packet carries 0.72 of its mass outside 0.8 L and passed
    monkeypatch.setattr(commutators, "spectral_filter", _refuse)
    monkeypatch.setattr(commutators, "localized_eigenvectors", _refuse)
    psi = gaussian_packet(make_grid(1, 128, 8.0), 6.9, 0.0, 1.0)
    table = ThresholdTable({a: np.array([]) for a in TWO_CLUSTERS})
    calls = {
        "check_boundary_concentration": lambda: check_boundary_concentration(psi, tol),
        "apply_dilation": lambda: apply_dilation(psi, boundary_tol=tol),
        "commutator_form": lambda: commutator_form(
            psi, HamiltonianSpec(quadratic_symbol(1.0), ()), boundary_tol=tol),
        "mourre_report": lambda: mourre_report(1.0, (0.9, 1.1), free_model(),
                                               make_grid(2, 32, 8.0), table, samples=1,
                                               boundary_tol=tol),
    }
    with pytest.raises(GridError, match=r"boundary_tol must lie in \(0, 1\]"):
        calls[caller]()


def test_free_commutator_form_value():
    grid = make_grid(2, 128, 24.0)
    psi = gaussian_packet(grid, 0.0, (1.0, 2.0), 2.0)
    h0 = HamiltonianSpec(free_symbol(), ())
    form = commutator_form(psi, h0)
    # 2 p0^2 + |k0| = 4 up to the packet-width corrections
    spread = 2.0 / (2.0 * 2.0 ** 2)
    assert form == pytest.approx(4.0 + spread, abs=0.05)


def test_virial_on_eigenvector():
    grid = make_grid(1, 256, 16.0)
    h = HamiltonianSpec(quadratic_symbol(1.0), ((poschl_teller(2.0, 1.0), "internal"),))
    res = dense_spectrum(h, grid, 1)
    psi = res.eigenvectors[0]
    form = commutator_form(psi, h)
    from scatterlab.operators import apply_hamiltonian
    bound = 1e-6 * apply_hamiltonian(psi, h).norm() * apply_dilation(psi).norm()
    assert abs(form) <= bound


def test_form_reality_of_analytic_route():
    grid = make_grid(1, 256, 32.0)
    rng = np.random.default_rng(5)
    model = default_model()
    psi = admissible_random_state(grid, rng, (2.2,))
    applied = analytic_commutator_apply(psi, ClusterId.PAIR_FREE, model)
    val = psi.inner(applied)
    assert abs(val.imag) <= 1e-9 * max(1.0, abs(val))


def test_free_formula_reduces_to_multiplier():
    grid = make_grid(2, 64, 16.0)
    psi = gaussian_packet(grid, 0.0, (0.8, 1.1), 2.0)
    out = analytic_commutator_apply(psi, ClusterId.TOGETHER, free_model())
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
    out = analytic_commutator_apply(mode, ClusterId.PAIR_FREE, model, s)
    # on the singular mode the multiplier part reduces to q^2/2 + s q/2 + 0
    expected_multiplier = 0.5 * s ** 2 + 0.5 * s * s
    # V23 acts on the grid coordinate u as V23(2u): the field is 2u V23'(2u)
    fld = 2.0 * x * model.v23.derivative(2.0 * x)
    expected = expected_multiplier * mode.values - fld * mode.values
    assert np.max(np.abs(out.values - expected)) <= 1e-10


@pytest.mark.parametrize("particles, cluster", [
    (1, "(y)(x0)"), (1, ClusterId.ALL_FREE), (2, ClusterId.ALL_FREE),
    (1, ClusterId.TOGETHER), (2, ClusterId.PHOTON_FREE), (2, ClusterId.PAIR_FREE),
], ids=["not-a-cluster", "all-free-1d", "all-free-2d", "together-1d", "photon-free-2d",
        "pair-free-2d"])
def test_commutator_formula_outside_its_grid_is_rejected(particles, cluster):
    psi = gaussian_packet(make_grid(particles, 32, 8.0), 0.0, (0.0,) * particles, 1.0)
    with pytest.raises(ClusterError):
        analytic_commutator_apply(psi, cluster, default_model(), 0.3)


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
    form = commutator_form(res.eigenvectors[0], h)
    assert abs(form) < 1e-8
