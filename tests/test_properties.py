"""Property tests of the grid operator on small random Hamiltonians.

Symbols are random sums of quadratic, absolute and constant terms (shifts
included); potentials are random Poschl-Teller or Gaussian wells on every
coordinate the grid offers.  The hypothesis profile in conftest.py keeps the
examples deterministic.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from scatterlab.lattice import WaveFunction, make_grid
from scatterlab.operators import (
    DispersionSymbol,
    GridOperator,
    HamiltonianSpec,
    SymbolTerm,
    apply_hamiltonian,
    gaussian_well,
    poschl_teller,
)
from scatterlab.propagation import _Stepper
from scatterlab.spectral import dense_spectrum

GRIDS = (make_grid(1, 32, 6.0), make_grid(1, 64, 8.0), make_grid(2, 8, 4.0),
         make_grid(2, 16, 6.0))
TAGS = {1: ("internal",), 2: ("x", "y", "x-y")}

wells = st.builds(
    lambda family, strength, width, center: family(strength, width, center),
    st.sampled_from((poschl_teller, gaussian_well)),
    st.floats(0.0, 3.0), st.floats(0.5, 2.0), st.floats(-1.0, 1.0),
)


@st.composite
def cases(draw, grids=GRIDS):
    """A grid and a random Hamiltonian on it."""
    grid = draw(st.sampled_from(grids))
    terms = draw(st.lists(st.builds(
        SymbolTerm,
        kind=st.sampled_from(("quadratic", "absolute", "constant")),
        coefficient=st.floats(0.0, 2.0),
        shift=st.floats(-1.0, 1.0),
        axis=st.integers(0, grid.axes - 1),
    ), min_size=1, max_size=3))
    potentials = draw(st.lists(st.tuples(wells, st.sampled_from(TAGS[grid.particles])),
                               max_size=2))
    return grid, HamiltonianSpec(DispersionSymbol(tuple(terms)), tuple(potentials))


def _states(grid, seed, count=None):
    rng = np.random.default_rng(seed)
    shape = grid.shape if count is None else (count, *grid.shape)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _norm(grid, values):
    return np.sqrt(grid.measure * np.sum(np.abs(values) ** 2))


@given(cases(), st.integers(0, 2 ** 32 - 1))
def test_grid_operator_is_hermitian(case, seed):
    grid, ham = case
    op = GridOperator(ham, grid)
    phi, psi = _states(grid, seed, 2)
    h_phi, h_psi = op.apply(phi), op.apply(psi)
    lhs = grid.measure * np.vdot(phi, h_psi)
    rhs = grid.measure * np.vdot(psi, h_phi)
    scale = _norm(grid, phi) * _norm(grid, h_psi) + _norm(grid, psi) * _norm(grid, h_phi)
    assert abs(lhs - np.conj(rhs)) <= 1e-12 * scale


@given(cases(), st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
def test_stacked_apply_equals_per_state_apply(case, seed, count):
    grid, ham = case
    stack = _states(grid, seed, count)
    out = GridOperator(ham, grid).apply(stack)
    for i in range(count):
        single = apply_hamiltonian(WaveFunction(grid, stack[i].copy()), ham)
        assert np.array_equal(out[i], single.values)


@given(cases(grids=GRIDS[:3]))
def test_dense_spectrum_equals_column_by_column_assembly(case):
    grid, ham = case
    n = grid.size
    mat = np.empty((n, n), dtype=np.complex128)
    basis = np.zeros(n, dtype=np.complex128)
    for j in range(n):
        basis[j] = 1.0
        column = apply_hamiltonian(WaveFunction(grid, basis.reshape(grid.shape).copy()), ham)
        mat[:, j] = column.values.reshape(-1)
        basis[j] = 0.0
    mat = (mat + mat.conj().T) / 2.0
    count = 4
    res = dense_spectrum(ham, grid, count)
    assert np.array_equal(res.eigenvalues, np.linalg.eigh(mat)[0][:count])


@given(cases(), st.integers(0, 2 ** 32 - 1), st.floats(-0.5, 0.5).filter(lambda dt: dt != 0))
def test_strang_step_preserves_the_norm(case, seed, dt):
    grid, ham = case
    values = _states(grid, seed)
    stepped = _Stepper(GridOperator(ham, grid), dt).step(values)
    assert abs(_norm(grid, stepped) - _norm(grid, values)) <= 1e-12 * _norm(grid, values)
