import dataclasses
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import scatterlab.spectral as spectral
from scatterlab.clusters import ClusterId, TWO_CLUSTERS
from scatterlab.commutators import continuum_edge
from scatterlab.errors import SolverError, SpectralWindowError
from scatterlab.experiments import (
    PAIR_REFERENCE_GRID,
    THRESHOLD_GRID,
    dynamics_model,
    pair_sector_hamiltonian,
)
from scatterlab.lattice import gaussian_packet, make_grid, random_state
from scatterlab.model import ThreeBodyModel, default_model
from scatterlab.operators import (
    DispersionSymbol,
    GridOperator,
    HamiltonianSpec,
    SymbolTerm,
    absolute_symbol,
    free_symbol,
    poschl_teller,
    quadratic_symbol,
    zero_potential,
)
from scatterlab.spectral import (
    ARPACK_MATVEC_LIMIT,
    ThresholdTable,
    _smooth_window,
    chebyshev_window_coefficients,
    deflate_against,
    dense_spectrum,
    dispersion_scan,
    distance_to_threshold,
    iterative_lowest,
    localized_eigenvectors,
    spectral_filter,
    threshold_table,
)

# frozen from the dense oracle on (1/4)q^2 + (1/2)|q| - 2 sech^2(2u) at N=512,
# 2L=64; the fiber-versus-sector oracle in test_model.py shows this operator is
# the (xy)(0) subsystem
PAIR_GROUND = -0.6356531555643167


@pytest.fixture(scope="module")
def grid512():
    return make_grid(1, 512, 32.0)


def test_dense_free_multiplier_eigenvalues():
    grid = make_grid(1, 64, 8.0)
    h = HamiltonianSpec(quadratic_symbol(1.0), ())
    res = dense_spectrum(h, grid, 10)
    lattice = np.sort(grid.momenta() ** 2)[:10]
    assert np.allclose(res.eigenvalues, lattice, atol=1e-10)
    # +-k degeneracy pairs up
    assert res.eigenvalues[1] == pytest.approx(res.eigenvalues[2], abs=1e-12)


def test_dense_absolute_symbol_eigenvalues():
    grid = make_grid(1, 64, 8.0)
    h = HamiltonianSpec(absolute_symbol(1.0), ())
    res = dense_spectrum(h, grid, 8)
    lattice = np.sort(np.abs(grid.momenta()))[:8]
    assert np.allclose(res.eigenvalues, lattice, atol=1e-10)


def test_dense_poschl_teller_ground(grid512):
    # depth 2, width 1 binds at exactly -1 in the continuum
    h = HamiltonianSpec(quadratic_symbol(1.0), ((poschl_teller(2.0, 1.0), "internal"),))
    res = dense_spectrum(h, make_grid(1, 256, 16.0), 2)
    assert res.eigenvalues[0] == pytest.approx(-1.0, abs=5e-3)
    assert res.residuals[0] < 1e-9


def test_dense_rejects_large_grid():
    grid = make_grid(2, 128, 16.0)
    with pytest.raises(SolverError):
        dense_spectrum(HamiltonianSpec(free_symbol(), ()), grid, 1)


def test_dense_orthonormal_eigenvectors(grid512):
    h = default_model().subsystem(ClusterId.PAIR_FREE)
    res = dense_spectrum(h, make_grid(1, 128, 16.0), 5)
    for i in range(5):
        for j in range(5):
            want = 1.0 if i == j else 0.0
            got = res.eigenvectors[i].inner(res.eigenvectors[j])
            assert abs(got - want) < 1e-8


def test_iterative_matches_dense(grid512):
    h = default_model().subsystem(ClusterId.PHOTON_FREE)
    dense = dense_spectrum(h, grid512, 8)
    it = iterative_lowest(h, grid512, 3, tol=1e-10)
    # single-vector Lanczos may undercount a degenerate pair, so require the
    # ground state to match and every Ritz value to be a dense eigenvalue
    assert it.eigenvalues[0] == pytest.approx(dense.eigenvalues[0], abs=1e-8)
    for lam in it.eigenvalues:
        assert np.min(np.abs(dense.eigenvalues - lam)) < 1e-7


@pytest.mark.parametrize("count", [-1, 0, 15, 16, 17])
def test_iterative_lowest_rejects_a_count_out_of_range(count):
    # one bound on both routes: real dsaupd would accept 15 = n - 1, complex znaupd not
    grid = make_grid(1, 16, 4.0)
    model = default_model()
    for h in (model.subsystem(ClusterId.PHOTON_FREE), pair_sector_hamiltonian(model, 0.2)):
        with pytest.raises(SolverError):
            iterative_lowest(h, grid, count)


def test_iterative_lowest_reaches_the_largest_count_on_both_routes():
    grid = make_grid(1, 16, 4.0)
    model = default_model()
    for h in (model.subsystem(ClusterId.PHOTON_FREE), pair_sector_hamiltonian(model, 0.2)):
        res = iterative_lowest(h, grid, grid.size - 2)
        dense = dense_spectrum(h, grid, grid.size)
        assert np.allclose(res.eigenvalues, dense.eigenvalues[:grid.size - 2], atol=1e-8)


def test_iterative_lowest_wraps_arpack_no_convergence(monkeypatch):
    def stalled(op, k, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0),
                                  np.empty((op.shape[0], 0)))

    monkeypatch.setattr(spectral, "eigsh", stalled)
    with pytest.raises(SolverError, match="No convergence"):
        iterative_lowest(default_model().subsystem(ClusterId.PHOTON_FREE),
                         make_grid(1, 64, 8.0), 2)


# the 16 lowest eigenvalues lie within 2e-9 of each other, far below the
# spectral width, so no restart converges
_UNRESOLVABLE_SOLVE = textwrap.dedent("""
    import json, time
    from scatterlab import spectral
    from scatterlab.errors import SolverError
    from scatterlab.lattice import make_grid
    from scatterlab.operators import DispersionSymbol, HamiltonianSpec, SymbolTerm

    h = HamiltonianSpec(DispersionSymbol((SymbolTerm("quadratic", 0.332, 0.628, 0),
                                          SymbolTerm("quadratic", 1e-10, 0.0, 1))))
    apply, applies = spectral.apply_hamiltonian, []
    spectral.apply_hamiltonian = lambda wf, op: applies.append(1) or apply(wf, op)
    start = time.perf_counter()
    try:
        spectral.iterative_lowest(h, make_grid(2, 16, 8.0), 3)
        error = None
    except SolverError as exc:
        error = str(exc)
    print(json.dumps([time.perf_counter() - start, len(applies), error]))
""")


def test_iterative_lowest_gives_up_on_an_unresolvable_cluster_within_its_budget():
    # one BLAS thread in a child process: ARPACK's BLAS threads would otherwise
    # compete with whatever else runs on the machine, and the time bound with them
    src = str(Path(spectral.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", _UNRESOLVABLE_SOLVE], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    seconds, applies, error = json.loads(run.stdout)
    assert error is not None and "did not converge" in error
    assert seconds < 5.0
    assert applies == ARPACK_MATVEC_LIMIT


def test_localized_eigenvectors_keep_the_bound_state_and_deflation_removes_it():
    h = default_model().subsystem(ClusterId.PHOTON_FREE)
    grid = make_grid(1, 256, 32.0)
    (found,) = localized_eigenvectors(h, grid, 4, window=(-1.1, -0.9))
    assert found[0] == pytest.approx(-1.0, abs=1e-9)
    # three box modes lie in this window, but none is localized
    assert localized_eigenvectors(h, grid, 4, window=(-0.5, 0.5)) == []
    psi = gaussian_packet(grid, 0.0, 0.0, 2.0)
    vec = found[1]
    assert abs(vec.inner(psi)) > 0.95
    assert abs(vec.inner(deflate_against(psi, [vec]))) <= 1e-12


def _solved_hamiltonians():
    """Every Hamiltonian the checks and the benchmark solve, with its expected
    arithmetic, and an off-centre well under a shifted symbol, which has no PT symmetry."""
    grid1, grid2 = make_grid(*THRESHOLD_GRID), make_grid(2, 128, 48.0)
    ref_grid = make_grid(*PAIR_REFERENCE_GRID)
    yield "free", HamiltonianSpec(free_symbol(), ()), grid2, "real"
    shifted = quadratic_symbol(0.25, shift=0.3) + absolute_symbol(0.5, shift=-0.3)
    off_centre = ((poschl_teller(2.0, 1.0, 0.3), "internal"),)
    yield "off-centre-well", HamiltonianSpec(shifted, off_centre), grid1, "complex"
    for name, model in (("default", default_model()), ("dynamics", dynamics_model())):
        yield f"{name}-full", model.full(), grid2, "real"
        for a in TWO_CLUSTERS:
            yield f"{name}-subsystem-{a}", model.subsystem(a), grid1, "real"
        for s in (-1.0, -0.3, 0.0, 0.05, 0.7):
            for a in (ClusterId.PHOTON_FREE, ClusterId.ELECTRON_FREE):
                yield f"{name}-reduced-{a}-{s}", model.reduced(a, s), grid1, "real"
            if s != 0.0:
                # V23 is even, so the shifted (xy)(0) operators commute with PT
                yield (f"{name}-reduced-{ClusterId.PAIR_FREE}-{s}",
                       model.reduced(ClusterId.PAIR_FREE, s), grid1, "pt-real")
                yield (f"{name}-pair-sector-{s}", pair_sector_hamiltonian(model, s), ref_grid,
                       "pt-real")


def _arithmetic(op):
    """The arithmetic ``dense_spectrum`` solves the operator in."""
    if op.even_symbol:
        return "real"
    return "pt-real" if op.even_potential else "complex"


@pytest.mark.parametrize("ham, grid, arithmetic", [pytest.param(h, g, a, id=label)
                                                   for label, h, g, a in _solved_hamiltonians()])
def test_even_symbol_picks_the_real_route(ham, grid, arithmetic):
    assert _arithmetic(GridOperator(ham, grid)) == arithmetic


def test_fiber_shift_law(grid512):
    model = default_model()
    grid = make_grid(1, 256, 16.0)
    base = dense_spectrum(model.subsystem(ClusterId.PHOTON_FREE), grid, 5)
    for s in (0.5, 1.0):
        shifted = dense_spectrum(model.reduced(ClusterId.PHOTON_FREE, s), grid, 5)
        assert np.allclose(shifted.eigenvalues, base.eigenvalues + abs(s), atol=1e-9)


def test_reduced_electron_free_constant_shift():
    model = default_model()
    h = model.reduced(ClusterId.ELECTRON_FREE, 0.3)
    consts = [t.coefficient for t in h.symbol.terms if t.kind == "constant"]
    assert consts == [pytest.approx(0.09)]


def test_thresholds_no_potential():
    z = zero_potential()
    model = ThreeBodyModel(v12=z, v13=z, v23=z)
    table = threshold_table(model, make_grid(1, 256, 16.0))
    assert np.allclose(table.thresholds, [0.0])


def test_thresholds_single_well():
    z = zero_potential()
    model = ThreeBodyModel(v12=poschl_teller(2.0, 1.0), v13=z, v23=z)
    table = threshold_table(model, make_grid(1, 256, 16.0))
    assert len(table.thresholds) == 2
    assert table.thresholds[0] == pytest.approx(-1.0, abs=5e-3)
    assert table.thresholds[1] == 0.0


def test_thresholds_two_wells(grid512):
    z = zero_potential()
    model = ThreeBodyModel(v12=poschl_teller(2.0, 1.0), v13=z,
                           v23=poschl_teller(2.0, 1.0))
    table = threshold_table(model, grid512)
    assert len(table.thresholds) == 3
    assert table.thresholds[0] == pytest.approx(-1.0, abs=5e-3)
    assert table.thresholds[1] == pytest.approx(-0.6357, abs=5e-3)


def test_distance_to_threshold_piecewise():
    table = ThresholdTable({ClusterId.PHOTON_FREE: np.array([-1.0]),
                            ClusterId.ELECTRON_FREE: np.array([]),
                            ClusterId.PAIR_FREE: np.array([])})
    # distance to the nearest lower threshold of the cluster holding {-1, 0}
    assert table.distance(-0.4, ClusterId.PHOTON_FREE) == pytest.approx(0.6)
    # below every threshold: the fallback constant
    assert table.distance(-1.5, ClusterId.PHOTON_FREE) == pytest.approx(1.0)
    # at a threshold: zero
    assert table.distance(-1.0, ClusterId.PHOTON_FREE) == 0.0
    assert table.distance(0.0, ClusterId.PHOTON_FREE) == 0.0
    # for E < 0 the empty clusters fall back to b
    assert distance_to_threshold(-0.4, table) == pytest.approx(0.6)


def test_distance_invariant_under_thresholds_above():
    base = ThresholdTable({ClusterId.PHOTON_FREE: np.array([-1.0]),
                           ClusterId.ELECTRON_FREE: np.array([]),
                           ClusterId.PAIR_FREE: np.array([])})
    more = ThresholdTable({ClusterId.PHOTON_FREE: np.array([-1.0, -0.2]),
                           ClusterId.ELECTRON_FREE: np.array([]),
                           ClusterId.PAIR_FREE: np.array([])})
    # adding a threshold above E leaves d(E) alone
    assert distance_to_threshold(-0.4, base) == distance_to_threshold(-0.4, more)


def test_threshold_table_rejects_nonnegative():
    with pytest.raises(SolverError):
        ThresholdTable({ClusterId.PHOTON_FREE: np.array([0.5])})


def test_dispersion_scan_structure(grid512):
    model = default_model()
    curve = dispersion_scan(model, make_grid(1, 256, 16.0), (0.0, 0.1, -0.1))
    assert curve.lambdas[np.where(curve.s_values == 0.0)[0][0]] == curve.lambda0
    assert abs(curve.linear_coefficient) < 1e-2
    assert not curve.flagged.any()


def test_dispersion_scan_takes_lanczos_past_the_dense_limit(monkeypatch, grid512):
    svals = (0.0, 0.1, -0.1)
    dense = dispersion_scan(default_model(), grid512, svals)
    monkeypatch.setattr(spectral, "DENSE_LIMIT", 256)
    lanczos = dispersion_scan(default_model(), grid512, svals)
    assert np.max(np.abs(lanczos.lambdas - dense.lambdas)) <= 1e-8
    assert np.max(lanczos.residuals) <= 1e-8
    assert np.array_equal(lanczos.flagged, dense.flagged)


def test_dispersion_scan_guards_against_the_lattice_continuum():
    # off the momentum lattice the fiber symbol's grid minimum (0.0256 at
    # s = 0.05) lies far above the closed-form edge s^2 = 0.0025; the bound
    # fiber at +0.0104 sits between the two and stays in the fit
    shallow = ThreeBodyModel(*(poschl_teller(0.3, 1.0),) * 3)
    grid = make_grid(1, 256, 32.0)
    small = np.pi / grid.half_extent
    curve = dispersion_scan(shallow, grid, (0.0, small, -small, 0.05))
    lam = curve.lambdas[curve.s_values == 0.05][0]
    assert continuum_edge(0.05) < lam < 0.0256
    assert not curve.flagged.any()


def test_threshold_table_matches_the_pair_ground_state(grid512):
    table = threshold_table(default_model(), grid512)
    assert table.per_cluster[ClusterId.PAIR_FREE][0] == pytest.approx(PAIR_GROUND, abs=1e-10)


def test_threshold_table_rejects_an_uncertified_eigenpair(monkeypatch):
    def inflated(ham, grid, count):
        res = dense_spectrum(ham, grid, count)
        return dataclasses.replace(res, residuals=res.residuals + 1e-6)

    monkeypatch.setattr(spectral, "dense_spectrum", inflated)
    with pytest.raises(SolverError, match=r"cluster \(y\)\(x0\)"):
        threshold_table(default_model(), make_grid(1, 128, 16.0))


def test_dispersion_scan_solves_each_fiber_once(monkeypatch):
    import scatterlab.spectral as spectral

    calls = []

    def counting(ham, grid, count):
        calls.append(ham)
        return dense_spectrum(ham, grid, count)

    monkeypatch.setattr(spectral, "dense_spectrum", counting)
    dispersion_scan(default_model(), make_grid(1, 128, 16.0), (0.0, 0.1, -0.1))
    # s = 0 serves both lambda0 and its own fiber
    assert len(calls) == 3


def test_spectral_filter_eigenstate_inside():
    grid = make_grid(1, 128, 16.0)
    h = HamiltonianSpec(quadratic_symbol(1.0), ((poschl_teller(2.0, 1.0), "internal"),))
    res = dense_spectrum(h, grid, 1)
    lam = res.eigenvalues[0]
    window = (lam - 0.2, lam + 0.2)
    out = spectral_filter(res.eigenvectors[0], h, window)
    assert out.norm() >= 0.999
    twice = spectral_filter(out, h, window)
    assert (twice - out).norm() <= 1e-3


def test_spectral_filter_eigenstate_outside():
    grid = make_grid(1, 128, 16.0)
    h = HamiltonianSpec(quadratic_symbol(1.0), ((poschl_teller(2.0, 1.0), "internal"),))
    res = dense_spectrum(h, grid, 1)
    lam = res.eigenvalues[0]
    out = spectral_filter(res.eigenvectors[0], h, (lam + 1.0, lam + 1.4))
    assert out.norm() <= 1e-3


def test_spectral_filter_free_masking_oracle():
    # free case: the exact filter is a mask on the momentum lattice
    grid = make_grid(1, 128, 16.0)
    h = HamiltonianSpec(quadratic_symbol(1.0), ())
    rng = np.random.default_rng(9)
    psi = random_state(grid, rng)
    window = (0.5, 1.5)
    out = spectral_filter(psi, h, window)
    hat = np.fft.fftn(out.values, norm="ortho")
    m = grid.momenta() ** 2
    widened = (m > window[0] - 0.2) & (m < window[1] + 0.2)
    outside = np.sqrt(np.sum(np.abs(hat[~widened]) ** 2) * grid.measure)
    assert outside <= 1e-4 * psi.norm()


def test_spectral_filter_window_above_range_rejected():
    grid = make_grid(1, 64, 8.0)
    h = HamiltonianSpec(absolute_symbol(1.0), ())
    psi = random_state(grid, np.random.default_rng(10))
    with pytest.raises(SpectralWindowError):
        spectral_filter(psi, h, (1e6, 2e6))


@pytest.mark.parametrize("ripple, transition", [
    (0.0, 0.1), (1.0, 0.1), (2.0, 0.1), (np.nan, 0.1),
    (1e-6, 0.0), (1e-6, -0.1), (1e-6, np.inf), (1e-6, np.nan),
], ids=["ripple-zero", "ripple-one", "ripple-two", "ripple-nan", "transition-zero",
        "transition-negative", "transition-inf", "transition-nan"])
def test_spectral_filter_rejects_bad_parameters_before_applying_h(monkeypatch, ripple,
                                                                   transition):
    # zero divided, NaN or a ripple above 1 failed in int(), and a negative
    # transition filtered to a function that is zero everywhere
    def refuse(*args, **kwargs):
        raise AssertionError("applied H before the parameters were checked")

    monkeypatch.setattr(GridOperator, "apply", refuse)
    psi = random_state(make_grid(1, 64, 8.0), np.random.default_rng(12))
    h = HamiltonianSpec(absolute_symbol(1.0), ())
    with pytest.raises(SpectralWindowError, match="target_ripple|transition_fraction"):
        spectral_filter(psi, h, (0.5, 1.5), target_ripple=ripple, transition_fraction=transition)


def test_spectral_filter_window_below_spectrum_annihilates():
    grid = make_grid(1, 128, 16.0)
    h = HamiltonianSpec(absolute_symbol(1.0), ())
    psi = random_state(grid, np.random.default_rng(11))
    out = spectral_filter(psi, h, (-2.0, -1.0), target_ripple=1e-9)
    assert out.norm() <= 1e-8


def test_dispersion_scan_flags_fiber_near_edge():
    # a shallow well barely binds; at larger s the fiber ground state rides
    # the continuum edge and must be flagged out of the fit
    from scatterlab.model import ThreeBodyModel
    from scatterlab.operators import poschl_teller
    shallow = ThreeBodyModel(v12=poschl_teller(0.3, 1.0), v13=poschl_teller(0.3, 1.0),
                             v23=poschl_teller(0.3, 1.0))
    grid = make_grid(1, 256, 32.0)
    # the small-s fibers sit on lattice momenta, where the kink of |q - s|
    # falls on the lattice and the shallow state stays bound in this box
    small = np.pi / grid.half_extent
    curve = dispersion_scan(shallow, grid, (0.0, small, -small, 1.5, -1.5))
    big = np.abs(curve.s_values) > 1.0
    assert curve.flagged[big].all()
    assert not curve.flagged[~big].any()


@pytest.mark.parametrize("degree", [32, 257, 1600])
def test_chebyshev_coefficients_equal_the_cosine_sum(degree):
    lo, hi, e_lo, e_hi, width = -3.0, 9.0, -0.45, -0.15, 0.03
    n = degree + 1
    theta = np.pi * (np.arange(n) + 0.5) / n
    f = _smooth_window(0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(theta), e_lo, e_hi, width)
    expected = np.array([2.0 / n * np.sum(f * np.cos(k * theta)) for k in range(n)])
    expected[0] *= 0.5
    coef = chebyshev_window_coefficients(e_lo, e_hi, width, lo, hi, degree)
    assert np.max(np.abs(coef - expected)) <= 1e-13


def test_chebyshev_coefficients_take_linear_memory():
    chebyshev_window_coefficients(-0.45, -0.15, 0.03, -3.0, 9.0, 8)  # imports scipy.fft
    tracemalloc.start()
    try:
        chebyshev_window_coefficients(-0.45, -0.15, 0.03, -3.0, 9.0, 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 ** 2
