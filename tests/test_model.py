import numpy as np
import pytest

from scatterlab.clusters import ClusterId
from scatterlab.errors import PotentialError
from scatterlab.lattice import WaveFunction, make_grid
from scatterlab.model import default_model, free_model
from scatterlab.operators import apply_hamiltonian
from scatterlab.spectral import dense_spectrum


def test_full_hamiltonian_structure():
    h = default_model().full()
    kinds = sorted(t.kind for t in h.symbol.terms)
    assert kinds == ["absolute", "quadratic"]
    tags = [tag for _, tag in h.potentials]
    assert tags == ["x", "y", "x-y"]


def test_truncated_drops_intercluster():
    model = default_model()
    h = model.truncated(ClusterId.PHOTON_FREE)
    assert [tag for _, tag in h.potentials] == ["x"]
    inter = model.intercluster(ClusterId.PHOTON_FREE)
    assert sorted(tag for _, tag in inter) == ["x-y", "y"]
    assert model.truncated(ClusterId.ALL_FREE).potentials == ()
    assert len(model.truncated(ClusterId.TOGETHER).potentials) == 3


def test_subsystem_symbols():
    # h_a is the fiber at s = 0: its symbol is the bare internal kinetic energy
    model = default_model()
    grid = make_grid(1, 64, 8.0)
    q = grid.momenta()
    expected = {ClusterId.PHOTON_FREE: q ** 2, ClusterId.ELECTRON_FREE: np.abs(q),
                ClusterId.PAIR_FREE: 0.25 * q ** 2 + 0.5 * np.abs(q)}
    for a, symbol in expected.items():
        assert np.array_equal(model.subsystem(a).symbol.on_grid(grid), symbol), a


def test_reduced_pair_shifts():
    model = default_model()
    s = 0.37
    h = model.reduced(ClusterId.PAIR_FREE, s)
    quad = [t for t in h.symbol.terms if t.kind == "quadratic"][0]
    absl = [t for t in h.symbol.terms if t.kind == "absolute"][0]
    assert quad.shift == pytest.approx(s)       # (1/4)(q + s)^2
    assert absl.shift == pytest.approx(-s)      # (1/2)|q - s|


def test_reduced_photon_free_constant_is_abs_s():
    model = default_model()
    for s in (0.5, -0.5):
        h = model.reduced(ClusterId.PHOTON_FREE, s)
        consts = [t.coefficient for t in h.symbol.terms if t.kind == "constant"]
        assert consts == [pytest.approx(0.5)]


def test_model_boundary_validation():
    model = default_model()
    model.validate_for(make_grid(1, 128, 16.0))
    with pytest.raises(PotentialError):
        model.validate_for(make_grid(1, 32, 4.0))


def test_free_model_is_zero():
    m = free_model()
    grid = make_grid(1, 64, 8.0)
    x = grid.positions()
    for pot in (m.v12, m.v13, m.v23):
        assert np.all(pot.value(x) == 0.0)


def _sector_eigenvalues(ham, grid2, label, phase, count):
    """Lowest eigenvalues of ``ham`` on the span of the states phase * [label == j].

    The states are orthogonal with equal norms, and the sector they span is
    invariant under ``ham``, so the matrix of ``ham`` in them is the sector.
    """
    n = grid2.points_per_axis
    mat = np.empty((n, n), dtype=np.complex128)
    for j in range(n):
        col = apply_hamiltonian(WaveFunction(grid2, np.where(label == j, phase, 0.0)), ham)
        weighted = (np.conj(phase) * col.values).ravel()
        mat[:, j] = (np.bincount(label.ravel(), weighted.real, n)
                     + 1j * np.bincount(label.ravel(), weighted.imag, n)) / n
    assert np.allclose(mat, mat.conj().T, atol=1e-12)
    return np.linalg.eigvalsh(mat)[:count]


@pytest.mark.parametrize("a", [ClusterId.PHOTON_FREE, ClusterId.ELECTRON_FREE,
                               ClusterId.PAIR_FREE])
def test_fibers_are_the_momentum_sectors_of_the_truncated_hamiltonian(a):
    # the fiber H_a(s) must have the spectrum of the truncated two-particle H_a
    # restricted to external momentum s; only the lattice fold of the pair's
    # (p, k) = ((q + s)/2, (s - q)/2) at the Nyquist edge separates the two
    model = default_model()
    n, L = 64, 16.0
    grid2 = make_grid(2, n, L)
    x, y = grid2.position_mesh()
    index = np.rint((x + L) / grid2.spacing).astype(int)
    jndex = np.rint((y + L) / grid2.spacing).astype(int)
    for s in (0.0, 2 * np.pi / L, -2 * np.pi / L, 4 * np.pi / L):
        if a is ClusterId.PHOTON_FREE:      # external y, internal x
            label, phase, grid1 = index, np.exp(1j * s * y), make_grid(1, n, L)
        elif a is ClusterId.ELECTRON_FREE:  # external x, internal y
            label, phase, grid1 = jndex, np.exp(1j * s * x), make_grid(1, n, L)
        else:                               # external (x + y)/2, internal u = (x - y)/2
            label = (index - jndex) % n
            phase, grid1 = np.exp(0.5j * s * (x + y)), make_grid(1, n, L / 2.0)
        sector = _sector_eigenvalues(model.truncated(a), grid2, label, phase, 3)
        fiber = dense_spectrum(model.reduced(a, s), grid1, 3).eigenvalues
        assert np.max(np.abs(fiber - sector)) <= 1e-7, (a, s)
