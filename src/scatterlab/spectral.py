"""Eigenvalue computation, thresholds, fibered dispersion scans, and filtering.

Two solver routes: a dense oracle (grid operator assembled column by column
and handed to LAPACK's MRRR solver, which computes only the lowest ``count``
eigenpairs; feasible up to 4096 lattice sites), and a Lanczos subspace route
via scipy for grids past the dense limit.  The dense route is the reference
all other numbers are checked against; for a Hermitian matrix each returned
eigenvalue lies within its residual ||H psi - lambda psi|| of the spectrum,
which is how thresholds are certified.  Every route builds one
:class:`~scatterlab.operators.GridOperator` and applies H through
:func:`~scatterlab.operators.apply_hamiltonian`, one state per call.

The dense and Lanczos routes run in real arithmetic when the operator's
symbol is even (``GridOperator.even_symbol``), which holds whenever no
non-constant symbol term is shifted: the full and subsystem Hamiltonians, the
(y)(x0) and (x)(y0) fibers at any s, and the (xy)(0) fiber at s = 0.  The
potentials are real, so H is then a real symmetric matrix: the dense route
calls real ``eigh`` and the Lanczos route runs ARPACK's symmetric ``dsaupd``.
When only the potential is even (``GridOperator.even_potential``, as the even
V23 makes the (xy)(0) fibers at s != 0), H commutes with PT, parity composed
with complex conjugation, and the dense route solves it as a real symmetric
matrix in a PT-invariant basis: three arithmetic routes in all.  Every other
operator is solved as complex Hermitian.  Residuals always use the complex apply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from .clusters import ClusterId, TWO_CLUSTERS
from .errors import SolverError, SpectralWindowError
from .lattice import GridSpec, WaveFunction
from .model import ThreeBodyModel
from .operators import GridOperator, HamiltonianSpec, apply_hamiltonian, mirrored

DENSE_LIMIT = 4096

# H-applies one ARPACK run may spend before it gives up: at least 10x the most
# any check or benchmark solve takes (840, the k = 40 deflation on 128^2)
ARPACK_MATVEC_LIMIT = 10_000

# matching tolerance for "E is a threshold", and the largest residual a threshold
# eigenpair may carry; the dense residuals on THRESHOLD_GRID stay below 3.3e-13
THRESHOLD_MATCH_TOL = 1e-9

# d(E) below every threshold (the constant b); any positive value is admissible
GAP_BELOW_THRESHOLDS = 1.0


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues with eigenvectors and residuals ||H psi - lambda psi||."""

    eigenvalues: np.ndarray
    eigenvectors: tuple[WaveFunction, ...]
    residuals: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.eigenvalues) < -1e-12):
            raise SolverError("eigenvalues not ascending")


def _eigen_result(op: GridOperator, evals: np.ndarray, evecs: np.ndarray, columns) -> EigenResult:
    """Eigenpairs from the unit ``columns`` of ``evecs``, with ||H psi - lambda psi||."""
    grid = op.grid
    scale = 1.0 / np.sqrt(grid.measure)  # unit columns -> unit grid norm
    vectors = tuple(WaveFunction(grid, evecs[:, j].reshape(grid.shape) * scale) for j in columns)
    residuals = np.array([(apply_hamiltonian(v, op) - v.scaled(lam)).norm()
                          for v, lam in zip(vectors, evals)])
    return EigenResult(evals, vectors, residuals)


def dense_spectrum(ham: HamiltonianSpec, grid: GridSpec, count: int) -> EigenResult:
    """Lowest ``count`` eigenpairs of the exact grid operator.

    The matrix is assembled by applying the Hamiltonian to every lattice basis
    vector, H e_j into row j, and symmetrized against roundoff; LAPACK's MRRR
    solver (``scipy.linalg.eigh`` with ``subset_by_index``) then computes only
    the lowest ``count`` eigenpairs, overwriting the matrix.  When the symbol
    is even (:attr:`GridOperator.even_symbol`: no non-constant symbol term is
    shifted), H is real symmetric: only the real part of each row is kept and
    real ``eigh`` runs on half the memory.  When only the potential is even
    (:attr:`GridOperator.even_potential`), real ``eigh`` runs on H in the
    PT-invariant basis e^{-i pi/4} (e_j + i e_{-j}) / sqrt 2, the matrix
    Re H - (Im H[:, m] - Im H[m, :]) / 2 with m the mirror j -> -j, and the
    eigenvectors satisfy psi(-x) = conj psi(x).  Otherwise the matrix is
    complex Hermitian.
    """
    op = GridOperator(ham, grid)
    n = grid.size
    if n > DENSE_LIMIT:
        raise SolverError(f"grid has {n} sites > {DENSE_LIMIT}; use iterative_lowest instead")
    if not 1 <= count <= n:
        raise SolverError(f"count must be in [1, {n}]")
    real = op.even_symbol
    mat = np.empty((n, n), dtype=np.float64 if real else np.complex128)
    basis = np.zeros(n, dtype=np.complex128)
    for j in range(n):  # WaveFunction freezes a reshaped view, so basis stays writable
        basis[j] = 1.0
        row = apply_hamiltonian(WaveFunction(grid, basis.reshape(grid.shape)), op).values.ravel()
        mat[j] = row.real if real else row
        basis[j] = 0.0
    mat = (mat.T + (mat if real else mat.conj())) / 2.0  # conj() of a real matrix is a copy
    pt = not real and op.even_potential
    if pt:
        m = mirrored(np.arange(n).reshape(grid.shape)).ravel()
        mat = mat.real - (mat.imag[:, m] - mat.imag[m, :]) / 2.0
    evals, evecs = scipy.linalg.eigh(mat, subset_by_index=[0, count - 1], overwrite_a=True)
    if pt:  # e^{-i pi/4} / sqrt 2 = (1 - i) / 2 exactly
        evecs = ((evecs + evecs[m]) + 1j * (evecs[m] - evecs)) / 2.0
    return _eigen_result(op, evals, evecs, range(count))


def iterative_lowest(ham: HamiltonianSpec, grid: GridSpec, count: int,
                     tol: float = 1e-9, seed: int = 7) -> EigenResult:
    """Lowest ``count`` eigenpairs, 1 <= count <= grid.size - 2, by ARPACK.

    The matrix-free grid operator runs as symmetric Lanczos (``dsaupd``) on
    real vectors when the symbol is even (:attr:`GridOperator.even_symbol`),
    and as complex Arnoldi (``znaupd``) otherwise.  A count out of range, a
    run that has not converged within ``ARPACK_MATVEC_LIMIT`` H-applies and
    any other ARPACK failure raise :class:`SolverError`.
    """
    n = grid.size
    if not 1 <= count <= n - 2:
        raise SolverError(f"count must be in [1, {n - 2}]")
    op = GridOperator(ham, grid)
    real = op.even_symbol
    applies = 0

    def matvec(v):
        nonlocal applies
        applies += 1
        if applies > ARPACK_MATVEC_LIMIT:
            raise SolverError(f"ARPACK did not converge within {ARPACK_MATVEC_LIMIT} H-applies")
        hv = apply_hamiltonian(WaveFunction(grid, v.reshape(grid.shape)), op).values.reshape(-1)
        return hv.real if real else hv

    lin_op = LinearOperator((n, n), dtype=np.float64 if real else np.complex128, matvec=matvec)
    v0 = np.random.default_rng(seed).standard_normal(n)
    try:
        # every restart costs at least one matvec, so the apply budget binds first
        evals, evecs = eigsh(lin_op, k=count, which="SA", tol=tol, v0=v0,
                             maxiter=ARPACK_MATVEC_LIMIT)
    except ArpackError as exc:  # no convergence, or H v0 = 0 for the zero operator
        raise SolverError(f"ARPACK failed on the grid operator: {exc}") from exc
    order = np.argsort(evals)
    return _eigen_result(op, evals[order], evecs, order)


@dataclass(frozen=True)
class ThresholdTable:
    """Negative subsystem eigenvalues per 2-cluster decomposition, plus zero.

    E matches a threshold within ``THRESHOLD_MATCH_TOL``; below every
    threshold the gap function takes the value ``GAP_BELOW_THRESHOLDS``.
    """

    per_cluster: dict[ClusterId, np.ndarray]

    def __post_init__(self):
        for a, eigs in self.per_cluster.items():
            if np.any(np.asarray(eigs) >= 0):
                raise SolverError(f"cluster {a} stores a nonnegative threshold eigenvalue")

    def cluster_thresholds(self, a: ClusterId) -> np.ndarray:
        return np.sort(np.append(np.asarray(self.per_cluster.get(a, ())), 0.0))

    @property
    def thresholds(self) -> np.ndarray:
        vals = [0.0]
        for eigs in self.per_cluster.values():
            vals.extend(np.asarray(eigs).tolist())
        return np.unique(np.array(vals))

    def distance(self, E: float, a: ClusterId) -> float:
        taus = self.cluster_thresholds(a)
        if np.any(np.abs(taus - E) <= THRESHOLD_MATCH_TOL):
            return 0.0
        if E < taus[0]:
            return GAP_BELOW_THRESHOLDS
        below = taus[taus < E]
        return float(E - below[-1])

    def is_threshold(self, E: float) -> bool:
        return bool(np.any(np.abs(self.thresholds - E) <= THRESHOLD_MATCH_TOL))

    def require_clear(self, window) -> None:
        """Raise :class:`SpectralWindowError` if the closed window holds a threshold."""
        e_lo, e_hi = window
        for tau in self.thresholds:
            if e_lo <= tau <= e_hi:
                raise SpectralWindowError(f"window ({e_lo}, {e_hi}) contains the threshold {tau}")


def distance_to_threshold(E: float, table: ThresholdTable) -> float:
    """d(E) = min over 2-cluster decompositions of the per-cluster gap."""
    return min(table.distance(E, a) for a in TWO_CLUSTERS)


def threshold_table(model: ThreeBodyModel, grid: GridSpec) -> ThresholdTable:
    """Collect the negative eigenvalues of every subsystem Hamiltonian.

    Dense diagonalization on the one-particle grid.  Each negative eigenvalue
    lies within its residual of the subsystem spectrum, so a residual above
    ``THRESHOLD_MATCH_TOL`` raises :class:`SolverError`.
    """
    if grid.particles != 1:
        raise SolverError("threshold_table runs subsystem problems on a one-particle grid")
    per: dict[ClusterId, np.ndarray] = {}
    for a in TWO_CLUSTERS:
        try:
            res = dense_spectrum(model.subsystem(a), grid, min(grid.size, 12))
        except SolverError as exc:
            raise SolverError(f"threshold solve failed for cluster {a}: {exc}") from exc
        negative = res.eigenvalues < -1e-6
        worst = float(np.max(res.residuals[negative], initial=0.0))
        if worst > THRESHOLD_MATCH_TOL:
            raise SolverError(f"threshold residual {worst:.3e} of cluster {a} exceeds "
                              f"{THRESHOLD_MATCH_TOL:.0e}")
        per[a] = res.eigenvalues[negative]
    return ThresholdTable(per)


@dataclass(frozen=True)
class DispersionCurve:
    """Ground-state energy of the pair cluster (xy)(0) along the external momentum."""

    s_values: np.ndarray
    lambdas: np.ndarray
    residuals: np.ndarray
    flagged: np.ndarray           # True where the fiber hit the continuum guard
    lambda0: float
    quad_coefficient: float
    linear_coefficient: float
    max_deviation: float          # max |lambda(s) - s^2 - lambda0| over kept fibers


def quadratic_fit(s_values, lambdas) -> np.ndarray:
    """Least-squares coefficients (a, b, c) of lambda(s) ~ a + b s + c s^2."""
    s_values = np.asarray(s_values, dtype=float)
    A = np.vstack([np.ones_like(s_values), s_values, s_values ** 2]).T
    coef, *_ = np.linalg.lstsq(A, np.asarray(lambdas, dtype=float), rcond=None)
    return coef


def dispersion_scan(model: ThreeBodyModel, grid: GridSpec, s_values) -> DispersionCurve:
    """Scan the pair-cluster fibers and fit lambda(s) against 1, s, s^2.

    Fibers are solved densely up to ``DENSE_LIMIT`` sites and by Lanczos past
    it.  A fiber whose ground energy comes within a tenth of the gap lambda0
    to the minimum of its own symbol on the grid, the bottom of its lattice
    continuum, is flagged and excluded from the fit.
    """
    a = ClusterId.PAIR_FREE
    s_values = np.asarray(sorted(float(s) for s in np.atleast_1d(s_values)))
    lams = np.empty_like(s_values)
    resids = np.empty_like(s_values)
    flagged = np.zeros(s_values.shape, dtype=bool)

    def solve(s: float) -> tuple[float, float]:
        h = model.reduced(a, s)
        solver = dense_spectrum if grid.size <= DENSE_LIMIT else iterative_lowest
        res = solver(h, grid, 1)
        return float(res.eigenvalues[0]), float(res.residuals[0])

    lam0, res0 = solve(0.0)
    for i, s in enumerate(s_values):
        lams[i], resids[i] = (lam0, res0) if s == 0.0 else solve(s)
        edge = float(model.reduced(a, s).symbol.on_grid(grid).min())
        margin = 0.1 * max(edge - lam0, 1e-12)
        if lams[i] > edge - margin:
            flagged[i] = True

    keep = ~flagged
    if np.count_nonzero(keep) < 3:
        raise SolverError("too few fibers below the continuum edge to fit the dispersion")
    coef = quadratic_fit(s_values[keep], lams[keep])
    dev = float(np.max(np.abs(lams[keep] - s_values[keep] ** 2 - lam0)))
    return DispersionCurve(
        s_values=s_values, lambdas=lams, residuals=resids, flagged=flagged,
        lambda0=lam0, quad_coefficient=float(coef[2]), linear_coefficient=float(coef[1]),
        max_deviation=dev,
    )


def _smooth_window(E, e_lo, e_hi, width):
    from scipy.special import erf

    return 0.25 * (1.0 + erf((E - e_lo) / width)) * (1.0 + erf((e_hi - E) / width))


def chebyshev_window_coefficients(e_lo: float, e_hi: float, width: float,
                                  lo: float, hi: float, degree: int) -> np.ndarray:
    """Chebyshev coefficients of the smoothed indicator on [lo, hi]."""
    n = degree + 1
    theta = np.pi * (np.arange(n) + 0.5) / n
    xc = np.cos(theta)
    E = 0.5 * (hi + lo) + 0.5 * (hi - lo) * xc
    f = _smooth_window(E, e_lo, e_hi, width)
    # imported here: scipy.fft adds 0.1 s and 5 MB to every process that imports
    # the package, and only filters need it
    from scipy.fft import dct
    # c_k = (2/n) sum_j f_j cos(k theta_j), a type-2 DCT: O(n log n) time, O(n) memory
    c = dct(f, type=2) / n
    c[0] *= 0.5
    return c


def _clenshaw_apply(op: GridOperator, values: np.ndarray, coef: np.ndarray,
                    lo: float, hi: float) -> np.ndarray:
    """sum_k coef[k] T_k(X) values, X = (2H - hi - lo)/(hi - lo), by the Clenshaw recurrence.

    Each hop and each recurrence step accumulates into the array the hop
    allocates; ``values`` and the previous iterates are only read.
    """
    center = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)

    def hop(v):
        out = center * v
        np.subtract(apply_hamiltonian(WaveFunction(op.grid, v), op).values, out, out=out)
        out /= half
        return out

    b1 = np.zeros_like(values)
    b2 = np.zeros_like(values)
    for c in coef[:0:-1]:
        b = hop(b1)
        b *= 2.0
        b += c * values
        b -= b2
        b1, b2 = b, b1
    out = hop(b1)
    out += coef[0] * values
    out -= b2
    return out


def spectral_filter(wf: WaveFunction, ham: HamiltonianSpec, window: tuple[float, float],
                    target_ripple: float = 1e-6,
                    transition_fraction: float = 0.1) -> WaveFunction:
    """The filtered state: a smoothed spectral window, a polynomial in H applied by Clenshaw.

    The target is an erf-smoothed indicator of ``window`` with transition
    width ``transition_fraction`` of the window width, Chebyshev-expanded over
    the hull of the grid operator's spectral range and the window, to the
    lowest degree (at least 32) whose truncation stays below
    ``target_ripple``.  Windows entirely above the operator range are
    rejected; windows below it are legitimate and simply annihilate.  The
    filter kernel spreads over a position scale of order 1/width, which must
    fit inside the box.  A ripple outside (0, 1) or a transition fraction
    that is not finite and positive raises :class:`SpectralWindowError`
    before H is applied.
    """
    e_lo, e_hi = float(window[0]), float(window[1])
    if not e_lo < e_hi:
        raise SpectralWindowError(f"window ({e_lo}, {e_hi}) is empty")
    if not 0.0 < target_ripple < 1.0:
        raise SpectralWindowError(f"target_ripple must lie in (0, 1), got {target_ripple}")
    if not 0.0 < transition_fraction < np.inf:
        raise SpectralWindowError(
            f"transition_fraction must be finite and positive, got {transition_fraction}")
    op = GridOperator(ham, wf.grid)
    lo_op, hi_op = op.bounds()
    if e_lo > hi_op:
        raise SpectralWindowError(
            f"window ({e_lo}, {e_hi}) lies above the grid operator range "
            f"[{lo_op:.3g}, {hi_op:.3g}]"
        )
    width = transition_fraction * (e_hi - e_lo)
    lo = min(lo_op, e_lo - 6.0 * width) - 0.02 * (hi_op - lo_op)
    hi = hi_op + 0.02 * (hi_op - lo_op)
    # erf-type smoothness: coefficients fall like exp(-(n pi width / span)^2 / 2)
    span = hi - lo
    degree = int(np.ceil(span / (np.pi * width) * np.sqrt(2.0 * np.log(1.0 / target_ripple))))
    degree = max(degree, 32)
    coef = chebyshev_window_coefficients(e_lo, e_hi, width, lo, hi, degree)
    return WaveFunction(wf.grid, _clenshaw_apply(op, wf.values, coef, lo, hi))


def deflate_against(wf: WaveFunction, vectors) -> WaveFunction:
    """Remove, one after another, the components of ``wf`` along the given orthonormal vectors."""
    values = wf.values
    for other in vectors:
        values = values - other.values * (wf.grid.measure * np.vdot(other.values, values))
    return WaveFunction(wf.grid, values)


def localized_eigenvectors(ham: HamiltonianSpec, grid: GridSpec, count: int,
                           window: tuple[float, float] | None = None
                           ) -> list[tuple[float, WaveFunction]]:
    """Bound-state-like low eigenvectors of the grid operator.

    Box-discretized continuum modes are extended across the lattice; genuine
    bound states decay.  Only eigenvectors with less than 1e-4 of their mass
    outside half the box (and inside the window, when given) are returned.
    The dense route is reserved for small grids; a handful of low modes on a
    big grid is Lanczos territory (seed 11).
    """
    if grid.size <= 1024:
        res = dense_spectrum(ham, grid, count)
    else:
        res = iterative_lowest(ham, grid, count, seed=11)
    out = []
    for lam, vec in zip(res.eigenvalues, res.eigenvectors):
        if window is not None and not (window[0] <= lam <= window[1]):
            continue
        if vec.boundary_mass(0.5) < 1e-4:
            out.append((float(lam), vec))
    return out
