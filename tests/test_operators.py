import numpy as np
import pytest

from scatterlab.errors import GridError, PotentialError
from scatterlab.lattice import WaveFunction, make_grid, random_state
from scatterlab.operators import (
    HamiltonianSpec,
    absolute_symbol,
    apply_hamiltonian,
    check_boundary_decay,
    constant_symbol,
    free_symbol,
    gaussian_well,
    poschl_teller,
    potential_field,
    quadratic_symbol,
    zero_potential,
)


@pytest.fixture
def grid1():
    return make_grid(1, 64, 8.0)


def _mode(grid, index):
    """Exact lattice Fourier mode with momentum k = momenta()[index]."""
    x = grid.positions()
    k = grid.momenta()[index]
    vals = np.exp(1j * k * x) / np.sqrt(2 * grid.half_extent)
    return WaveFunction(grid, vals), k


def test_identity_symbol(grid1):
    psi = random_state(grid1, np.random.default_rng(0))
    out = apply_hamiltonian(psi, HamiltonianSpec(constant_symbol(1.0)))
    assert (out - psi).norm() <= 1e-12


def test_mode_is_eigenvector_of_multiplier(grid1):
    psi, k = _mode(grid1, 5)
    out = apply_hamiltonian(psi, HamiltonianSpec(absolute_symbol(1.0)))
    assert (out - psi.scaled(abs(k))).norm() <= 1e-12 * psi.norm()


def test_unimodular_symbol_preserves_norm(grid1):
    # constant symbol of modulus one: trivial but pins the Parseval bookkeeping
    psi = random_state(grid1, np.random.default_rng(1))
    out = apply_hamiltonian(psi, HamiltonianSpec(constant_symbol(-1.0)))
    assert out.norm() == pytest.approx(psi.norm(), abs=1e-12)


def test_multiplier_self_adjoint(grid1):
    rng = np.random.default_rng(2)
    sym = quadratic_symbol(0.25) + absolute_symbol(0.5)
    for _ in range(5):
        phi = random_state(grid1, rng)
        psi = random_state(grid1, rng)
        a = phi.inner(apply_hamiltonian(psi, HamiltonianSpec(sym)))
        b = psi.inner(apply_hamiltonian(phi, HamiltonianSpec(sym)))
        assert a == pytest.approx(np.conj(b), abs=1e-10)


def test_zero_potential_reduces_to_multiplier(grid1):
    psi = random_state(grid1, np.random.default_rng(3))
    h = HamiltonianSpec(quadratic_symbol(1.0), ((zero_potential(), "internal"),))
    out = apply_hamiltonian(psi, h)
    ref = apply_hamiltonian(psi, HamiltonianSpec(quadratic_symbol(1.0)))
    assert (out - ref).norm() == 0.0


def test_hamiltonian_pointwise_on_mode():
    grid = make_grid(2, 32, 16.0)
    x = grid.positions()
    k = grid.momenta()
    X, Y = grid.position_mesh()
    kx, ky = k[3], k[5]
    vals = np.exp(1j * (kx * X + ky * Y))
    psi = WaveFunction(grid, vals)
    pot = poschl_teller(2.0, 1.0)
    h = HamiltonianSpec(quadratic_symbol(1.0, axis=0), ((pot, "x"),))
    out = apply_hamiltonian(psi, h)
    expected = (kx ** 2 + pot.value(X)) * vals
    assert np.max(np.abs(out.values - expected)) <= 1e-10


def test_hamiltonian_self_adjoint_random():
    grid = make_grid(2, 32, 16.0)
    rng = np.random.default_rng(4)
    model_h = HamiltonianSpec(free_symbol(), (
        (poschl_teller(2.0, 1.0), "x"),
        (gaussian_well(1.0, 1.5), "y"),
        (poschl_teller(0.5, 1.0), "x-y"),
    ))
    psi = random_state(grid, rng)
    val = psi.inner(apply_hamiltonian(psi, model_h))
    assert abs(val.imag) < 1e-10 * psi.norm() ** 2


def test_chart_consistency_pair_momentum():
    # multiplying by the pair's external momentum p_a = p + k in Fourier space
    # acts on a lattice mode exactly as the number kx + ky
    grid = make_grid(2, 32, 16.0)
    X, Y = grid.position_mesh()
    k = grid.momenta()
    kx, ky = k[4], k[7]
    psi = WaveFunction(grid, np.exp(1j * (kx * X + ky * Y)))
    K0, K1 = grid.momentum_mesh()
    pa_psi = WaveFunction(grid, np.fft.ifftn((K0 + K1) * np.fft.fftn(psi.values)))
    expected = psi.scaled(kx + ky)
    assert (pa_psi - expected).norm() <= 1e-10 * psi.norm()


def test_coordinate_tag_validation():
    grid1 = make_grid(1, 16, 8.0)
    h = HamiltonianSpec(quadratic_symbol(1.0), ((poschl_teller(1.0, 1.0), "x"),))
    psi = random_state(grid1, np.random.default_rng(5))
    with pytest.raises(GridError):
        apply_hamiltonian(psi, h)
    grid2 = make_grid(2, 16, 8.0)
    h2 = HamiltonianSpec(free_symbol(), ((poschl_teller(1.0, 1.0), "internal"),))
    psi2 = random_state(grid2, np.random.default_rng(6))
    with pytest.raises(GridError):
        apply_hamiltonian(psi2, h2)


def test_symbol_dimension_mismatch(grid1):
    psi = random_state(grid1, np.random.default_rng(7))
    with pytest.raises(GridError):
        apply_hamiltonian(psi, HamiltonianSpec(absolute_symbol(1.0, axis=1)))


def test_potential_closed_form_derivatives():
    u = np.linspace(-3, 3, 41)
    h = 1e-6
    for pot in (poschl_teller(2.0, 1.3, 0.2), gaussian_well(1.5, 0.9, -0.4)):
        fd = (pot.value(u + h) - pot.value(u - h)) / (2 * h)
        assert np.max(np.abs(fd - pot.derivative(u))) < 1e-7


def test_boundary_decay_guard():
    g_small = make_grid(1, 32, 4.0)   # sech^2 at |x| = 4 is far above 1e-10
    with pytest.raises(PotentialError):
        check_boundary_decay(poschl_teller(2.0, 1.0), g_small)
    g_big = make_grid(1, 64, 16.0)
    check_boundary_decay(poschl_teller(2.0, 1.0), g_big)


def test_potential_decay_on_boundary_shell():
    grid = make_grid(1, 128, 16.0)
    x = grid.positions()
    shell = np.abs(x) >= 0.98 * grid.half_extent
    for pot in (poschl_teller(2.0, 1.0), gaussian_well(3.0, 1.0)):
        assert np.max(np.abs(pot.value(x[shell]))) < 1e-10 * pot.strength


def test_minimal_image_potential_field():
    grid = make_grid(2, 32, 8.0)
    pot = gaussian_well(1.0, 1.0)
    h = HamiltonianSpec(free_symbol(), ((pot, "x-y"),))
    field = potential_field(grid, h)
    X, Y = grid.position_mesh()
    # at (7, -7) the difference 14 wraps to -2
    i = np.argmin(np.abs(grid.positions() - 7.0))
    j = np.argmin(np.abs(grid.positions() + 7.0))
    assert field[i, j] == pytest.approx(pot.value(np.array([-2.0]))[0])


@pytest.mark.parametrize("pot", [
    poschl_teller(2.0, 1.0, 0.3),
    gaussian_well(1.5, 0.7, -0.2),
    poschl_teller(0.0, 1.0, 0.5),  # a zero-depth well is zero without being the "zero" family
    zero_potential(),
])
def test_dilated_potential_evaluates_at_scaled_argument(pot):
    u = np.linspace(-3.0, 3.0, 61)
    d = pot.dilated(2.0)
    assert np.allclose(d.value(u), pot.value(2.0 * u), atol=1e-14)
    assert np.allclose(d.derivative(u), 2.0 * pot.derivative(2.0 * u), atol=1e-12)
    # u d/du is dilation invariant, so the virial field only moves its argument
    assert np.allclose(d.virial_field(u), pot.virial_field(2.0 * u), atol=1e-12)
