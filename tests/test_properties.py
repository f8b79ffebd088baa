"""Property tests of the grid operator and its eigensolvers on small random Hamiltonians.

Symbols are random sums of quadratic, absolute and constant terms (shifts
included); potentials are random Poschl-Teller or Gaussian wells on every
coordinate the grid offers.  Shifted and unshifted symbols, and centred and
off-centre wells, together reach every arithmetic route of the dense and
Lanczos solvers: real symmetric for an even symbol, real symmetric in a
PT-invariant basis for a shifted symbol with an even potential (dense only;
its eigenvectors must satisfy psi(-x) = conj psi(x)), and complex Hermitian
otherwise.  The dense subset solve is checked against a full ``eigh``, and
the one-axis H-apply and Strang step against the same kernels on
``fftn``/``ifftn``.  The H-apply, the Strang step
and the Chebyshev recurrence are checked never to write into their input.
The cluster chart is checked to be invertible on random points, and ``.dswf``
dumps to round-trip bit for bit and to reject cut or padded files.  The
hypothesis profile in conftest.py keeps the examples deterministic.
"""

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given
from hypothesis import strategies as st

from scatterlab.clusters import CHART, ClusterId, cluster_coordinates, cluster_count
from scatterlab.errors import GridError, SolverError
from scatterlab.lattice import WaveFunction, make_grid, read_wavefunction, write_wavefunction
from scatterlab.operators import (
    DispersionSymbol,
    GridOperator,
    HamiltonianSpec,
    SymbolTerm,
    _Stepper,
    apply_hamiltonian,
    gaussian_well,
    poschl_teller,
)
from scatterlab.spectral import (
    _clenshaw_apply,
    chebyshev_window_coefficients,
    dense_spectrum,
    iterative_lowest,
)

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


def _max_abs_norm(grid, values):
    """sqrt(measure * size) * max|values|, a bound on ``_norm`` that squares no tiny value."""
    return np.sqrt(grid.measure * grid.size) * np.max(np.abs(values))


@given(cases(), st.integers(0, 2 ** 32 - 1))
@example((make_grid(1, 32, 6.0),
          HamiltonianSpec(DispersionSymbol((SymbolTerm("quadratic", 1.89e-214),)), ())), 0)
@example((make_grid(1, 32, 6.0),
          HamiltonianSpec(DispersionSymbol((SymbolTerm("quadratic", 5e-324, 1.0),)), ())), 0)
def test_grid_operator_is_hermitian(case, seed):
    grid, ham = case
    op = GridOperator(ham, grid)
    phi, psi = _states(grid, seed, 2)
    h_phi, h_psi = op.apply(phi), op.apply(psi)
    lhs = grid.measure * np.vdot(phi, h_psi)
    rhs = grid.measure * np.vdot(psi, h_phi)
    scale = (_max_abs_norm(grid, phi) * _max_abs_norm(grid, h_psi)
             + _max_abs_norm(grid, psi) * _max_abs_norm(grid, h_phi))
    # below the normal range rounding is absolute: each product in the two
    # inner products may lose one subnormal unit, times the state entry it holds
    floor = (grid.measure * grid.size * (np.max(np.abs(phi)) + np.max(np.abs(psi)))
             * np.finfo(float).smallest_subnormal)
    assert abs(lhs - np.conj(rhs)) <= 1e-12 * scale + floor


@given(cases(), st.integers(0, 2 ** 32 - 1), st.integers(1, 4))
def test_stacked_apply_equals_per_state_apply(case, seed, count):
    grid, ham = case
    stack = _states(grid, seed, count)
    out = GridOperator(ham, grid).apply(stack)
    for i in range(count):
        single = apply_hamiltonian(WaveFunction(grid, stack[i].copy()), ham)
        assert np.array_equal(out[i], single.values)


def _assembled(grid, ham):
    """The symmetrized complex matrix of H, one apply per lattice basis vector."""
    n = grid.size
    mat = np.empty((n, n), dtype=np.complex128)
    basis = np.zeros(n, dtype=np.complex128)
    for j in range(n):
        basis[j] = 1.0
        column = apply_hamiltonian(WaveFunction(grid, basis.reshape(grid.shape).copy()), ham)
        mat[:, j] = column.values.reshape(-1)
        basis[j] = 0.0
    return (mat + mat.conj().T) / 2.0


def _even(grid, ham):
    """True when the spec's symbol takes the same values at k and -k on the lattice.

    That is "no non-constant term is shifted", save for shifts too small to
    move any lattice value (such as 3.6e-216).
    """
    mesh = grid.momentum_mesh()
    return np.array_equal(ham.symbol.evaluate(mesh), ham.symbol.evaluate(tuple(-k for k in mesh)))


def _mirror_index(grid):
    """Flat index of the lattice point -j mod N on every axis, the mirror x -> -x."""
    j = (-np.arange(grid.points_per_axis)) % grid.points_per_axis
    return np.ravel_multi_index(np.meshgrid(*([j] * grid.axes), indexing="ij"),
                                grid.shape).reshape(-1)


def _even_potential(grid, ham):
    """True when the spec's potential takes the same values at x and -x on the lattice."""
    field = GridOperator(ham, grid).potential.reshape(-1)
    return np.array_equal(field, field[_mirror_index(grid)])


@given(cases(grids=GRIDS[:3]))
def test_dense_spectrum_equals_column_by_column_assembly(case):
    grid, ham = case
    mat = _assembled(grid, ham)
    count = 4
    # with an even symbol H is real symmetric and the dense route runs real eigh;
    # with an even potential alone it runs real eigh on H in a PT-invariant basis
    if _even(grid, ham):
        mat = mat.real
    elif _even_potential(grid, ham):
        m = _mirror_index(grid)
        mat = mat.real - (mat.imag[:, m] - mat.imag[m, :]) / 2.0
    reference = scipy.linalg.eigh(mat, subset_by_index=[0, count - 1])[0]
    res = dense_spectrum(ham, grid, count)
    assert np.array_equal(res.eigenvalues, reference)


@given(cases(), st.sampled_from((1, 4, None)))
def test_dense_subset_solve_matches_the_full_eigh(case, count):
    grid, ham = case
    count = count or grid.size
    full_values, full_vectors = np.linalg.eigh(_assembled(grid, ham))
    res = dense_spectrum(ham, grid, count)
    radius = np.max(np.abs(full_values))
    assert np.max(np.abs(res.eigenvalues - full_values[:count])) <= 1e-12 * radius
    # unit columns; inside a degenerate eigenspace only the span is determined
    vecs = np.array([v.values.reshape(-1) for v in res.eigenvectors]).T * np.sqrt(grid.measure)
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(count))) <= 1e-10
    assert np.max(res.residuals) <= 1e-10 * max(1.0, radius)
    gap = full_values[count] - full_values[count - 1] if count < grid.size else np.inf
    if gap > 1e-3 * max(1.0, radius):  # the lowest `count` pairs span a well-defined subspace
        ref = full_vectors[:, :count]
        assert np.max(np.abs(vecs @ vecs.conj().T - ref @ ref.conj().T)) <= 1e-8


@given(cases(grids=tuple(g for g in GRIDS if g.axes == 1)), st.integers(0, 2 ** 32 - 1),
       st.floats(0.001, 0.5))
def test_one_axis_kernels_equal_the_n_d_fft_kernels(case, seed, dt):
    grid, ham = case
    op = GridOperator(ham, grid)

    def apply_fftn(values):
        out = np.fft.fftn(values, axes=(-1,), norm="ortho")
        out *= op.symbol
        np.fft.ifftn(out, axes=(-1,), norm="ortho", out=out)
        if np.any(op.potential):
            out += op.potential * values
        return out

    def step_fftn(stepper, values):
        out = stepper.half_v * values
        np.fft.fftn(out, out=out)
        out *= stepper.kinetic
        np.fft.ifftn(out, out=out)
        return np.multiply(stepper.half_v, out, out=out)

    one, stack = _states(grid, seed), _states(grid, seed, 3)
    assert np.array_equal(op.apply(one), apply_fftn(one))
    assert np.array_equal(op.apply(stack), apply_fftn(stack))
    for z in (1j * dt, dt):
        stepper = _Stepper(op, z)
        assert np.array_equal(stepper.step(one), step_fftn(stepper, one))


@given(cases(grids=(GRIDS[1], GRIDS[3])))
def test_dense_and_lanczos_eigenvalues_agree(case):
    grid, ham = case
    dense = dense_spectrum(ham, grid, grid.size).eigenvalues
    try:
        ritz = iterative_lowest(ham, grid, 3, tol=1e-10).eigenvalues
    except SolverError:
        # ARPACK may give up only where Lanczos cannot resolve the lowest
        # eigenvalues: a cluster flat next to the spectral width, H = 0 included
        assert dense[3] - dense[0] <= 1e-6 * (dense[-1] - dense[0])
        return
    for lam in ritz:
        assert np.min(np.abs(dense - lam)) < 1e-7


@given(cases(grids=(GRIDS[1], GRIDS[3])))
def test_real_and_complex_dense_eigenvalues_agree(case):
    grid, ham = case
    terms = tuple(replace(t, shift=0.0) for t in ham.symbol.terms)
    ham = replace(ham, symbol=DispersionSymbol(terms))
    complex_route = np.linalg.eigh(_assembled(grid, ham))[0]
    real_route = dense_spectrum(ham, grid, grid.size).eigenvalues
    radius = np.max(np.abs(complex_route))
    assert np.max(np.abs(real_route - complex_route)) <= 1e-12 * radius


@given(cases(grids=(GRIDS[1], GRIDS[3])))
def test_pt_real_dense_route_matches_the_complex_eigh(case):
    grid, ham = case
    assume(not _even(grid, ham))
    ham = replace(ham, potentials=tuple((replace(pot, center=0.0), tag)
                                        for pot, tag in ham.potentials))
    complex_route = np.linalg.eigh(_assembled(grid, ham))[0]
    res = dense_spectrum(ham, grid, grid.size)
    radius = np.max(np.abs(complex_route))
    assert np.max(np.abs(res.eigenvalues - complex_route)) <= 1e-12 * radius
    vecs = np.array([v.values.reshape(-1) for v in res.eigenvectors]).T * np.sqrt(grid.measure)
    assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(grid.size))) <= 1e-10
    assert np.max(res.residuals) <= 1e-10 * max(1.0, radius)
    # PT-symmetric eigenvectors: psi(-x) = conj psi(x)
    assert np.max(np.abs(vecs[_mirror_index(grid)] - vecs.conj())) <= 1e-12


@st.composite
def symbol_cases(draw):
    """A grid and a random symbol whose evenness is plain from its terms.

    Coefficients are positive, shifts are zero or at least 0.01 in size, and
    each kind appears at most once per axis, so no two shifted terms cancel.
    """
    grid = draw(st.sampled_from(GRIDS))
    terms = draw(st.lists(st.builds(
        SymbolTerm,
        kind=st.sampled_from(("quadratic", "absolute", "constant")),
        coefficient=st.floats(0.1, 2.0),
        shift=st.one_of(st.just(0.0), st.floats(0.01, 1.0), st.floats(-1.0, -0.01)),
        axis=st.integers(0, grid.axes - 1),
    ), min_size=1, max_size=6, unique_by=lambda t: (t.kind, t.axis)))
    return grid, HamiltonianSpec(DispersionSymbol(tuple(terms)))


@given(symbol_cases())
def test_even_symbol_means_no_shifted_term(case):
    grid, ham = case
    unshifted = all(t.kind == "constant" or t.shift == 0.0 for t in ham.symbol.terms)
    assert GridOperator(ham, grid).even_symbol is unshifted


@given(cases(), st.integers(0, 2 ** 32 - 1), st.floats(-0.5, 0.5).filter(lambda dt: dt != 0))
def test_strang_step_preserves_the_norm(case, seed, dt):
    grid, ham = case
    values = _states(grid, seed)
    stepped = _Stepper(GridOperator(ham, grid), 1j * dt).step(values)
    assert abs(_norm(grid, stepped) - _norm(grid, values)) <= 1e-12 * _norm(grid, values)


@given(cases(), st.integers(0, 2 ** 32 - 1), st.floats(0.001, 0.5))
def test_backward_strang_step_inverts_a_forward_step(case, seed, dt):
    grid, ham = case
    op = GridOperator(ham, grid)
    values = _states(grid, seed)
    there_and_back = _Stepper(op, -1j * dt).step(_Stepper(op, 1j * dt).step(values))
    assert _norm(grid, there_and_back - values) <= 1e-12 * _norm(grid, values)


@given(cases(), st.integers(0, 2 ** 32 - 1), st.floats(0.001, 0.5))
def test_no_kernel_writes_into_its_input(case, seed, dt):
    grid, ham = case
    op = GridOperator(ham, grid)
    lo, hi = op.bounds()
    lo, hi = lo - 1.0, hi + 1.0
    coef = chebyshev_window_coefficients(lo + 0.5, lo + 1.5, 0.1, lo, hi, 16)
    kernels = (op.apply, _Stepper(op, 1j * dt).step, _Stepper(op, dt).step,
               lambda v: _clenshaw_apply(op, v, coef, lo, hi))
    values = _states(grid, seed)
    for kernel in kernels:
        given_values = values.copy()  # writable, as ARPACK's workspace vectors are
        kernel(given_values)
        assert np.array_equal(given_values, values)


DUMP_GRIDS = (make_grid(1, 8, 2.0), make_grid(1, 16, 3.0), make_grid(2, 8, 4.0))


@st.composite
def dumps(draw):
    """A grid and amplitudes of any bit pattern: NaN, infinities and -0.0 included."""
    grid = draw(st.sampled_from(DUMP_GRIDS))
    parts = draw(st.lists(st.floats(), min_size=2 * grid.size, max_size=2 * grid.size))
    return WaveFunction(grid, np.array(parts).view(np.complex128).reshape(grid.shape))


@given(dumps(), st.binary(min_size=1, max_size=40))
def test_dswf_dump_round_trips_and_rejects_cut_or_padded_files(wf, tail):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "state.dswf"
        write_wavefunction(path, wf)
        raw = path.read_bytes()
        back = read_wavefunction(path)
        assert back.grid == wf.grid
        assert back.values.tobytes() == wf.values.tobytes()
        for size in range(len(raw)):
            path.write_bytes(raw[:size])
            with pytest.raises(GridError):
                read_wavefunction(path)
        path.write_bytes(raw + tail)
        with pytest.raises(GridError):
            read_wavefunction(path)


@given(st.sampled_from(list(ClusterId)), st.floats(-1e300, 1e300), st.floats(-1e300, 1e300))
def test_cluster_chart_is_invertible(a, x, y):
    external, internal = cluster_coordinates(a, (x, y))
    assert len(external) + len(internal) == 2
    assert cluster_count(a) == 1 + len(external)
    values = dict(zip(CHART[a][0] + CHART[a][1], internal + external))
    if "x+y" in values:
        s, d = values["x+y"], values["x-y"]
        values = {"x": 0.5 * (s + d), "y": 0.5 * (s - d)}
    scale = max(abs(x), abs(y))
    assert abs(values["x"] - x) <= 1e-12 * scale
    assert abs(values["y"] - y) <= 1e-12 * scale
