"""Eigenvalue computation, thresholds, fibered dispersion scans, and filtering.

Three solver routes: a dense oracle (grid operator assembled column by column
and handed to LAPACK, feasible up to 4096 lattice sites), an imaginary-time
Rayleigh-quotient descent with deflation, and a Lanczos subspace route via
scipy for grids past the dense limit.  The dense route is the reference all
other numbers are checked against.  Every route builds one
:class:`~scatterlab.operators.GridOperator` and applies H through
:func:`~scatterlab.operators.apply_hamiltonian`, one state per call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

from .clusters import ClusterId, TWO_CLUSTERS
from .errors import SolverError, SpectralWindowError
from .lattice import GridSpec, WaveFunction, gaussian_packet
from .model import ThreeBodyModel
from .operators import GridOperator, HamiltonianSpec, apply_hamiltonian

DENSE_LIMIT = 4096

# matching tolerance for "E is a threshold", set by the dense-oracle residual floor
THRESHOLD_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class EigenResult:
    """Ascending eigenvalues with eigenvectors and residuals ||H psi - lambda psi||."""

    eigenvalues: np.ndarray
    eigenvectors: tuple[WaveFunction, ...]
    residuals: np.ndarray
    method: str
    tol: float

    def __post_init__(self):
        if np.any(np.diff(self.eigenvalues) < -1e-12):
            raise SolverError("eigenvalues not ascending")


def project_out(values: np.ndarray, vectors, measure: float) -> np.ndarray:
    """Remove, one after another, the components along orthonormal WaveFunctions."""
    for other in vectors:
        values = values - other.values * (measure * np.vdot(other.values, values))
    return values


def _eigen_result(op: GridOperator, evals: np.ndarray, evecs: np.ndarray, columns,
                  method: str, tol: float) -> EigenResult:
    """Eigenpairs from the unit ``columns`` of ``evecs``, with ||H psi - lambda psi||."""
    grid = op.grid
    scale = 1.0 / np.sqrt(grid.measure)  # unit columns -> unit grid norm
    vectors = tuple(WaveFunction(grid, evecs[:, j].reshape(grid.shape) * scale) for j in columns)
    residuals = np.array([(apply_hamiltonian(v, op) - v.scaled(lam)).norm()
                          for v, lam in zip(vectors, evals)])
    return EigenResult(evals, vectors, residuals, method=method, tol=tol)


def dense_spectrum(ham: HamiltonianSpec, grid: GridSpec, count: int) -> EigenResult:
    """Lowest ``count`` eigenpairs of the exact grid operator.

    The matrix is assembled by applying the Hamiltonian to every lattice basis
    vector, then symmetrized against roundoff and diagonalized.
    """
    op = GridOperator(ham, grid)
    n = grid.size
    if n > DENSE_LIMIT:
        raise SolverError(
            f"grid has {n} sites > {DENSE_LIMIT}; use iterative_lowest or "
            "ground_state_imag_time instead"
        )
    if not 1 <= count <= n:
        raise SolverError(f"count must be in [1, {n}]")
    mat = np.empty((n, n), dtype=np.complex128)
    basis = np.zeros(n, dtype=np.complex128)
    for j in range(n):  # WaveFunction freezes a reshaped view, so basis stays writable
        basis[j] = 1.0
        column = apply_hamiltonian(WaveFunction(grid, basis.reshape(grid.shape)), op)
        mat[:, j] = column.values.ravel()
        basis[j] = 0.0
    mat = (mat + mat.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(mat)
    return _eigen_result(op, evals[:count], evecs, range(count), "dense", 1e-9)


def iterative_lowest(ham: HamiltonianSpec, grid: GridSpec, count: int,
                     tol: float = 1e-9, seed: int = 7) -> EigenResult:
    """Lowest eigenpairs via Lanczos on the matrix-free grid operator."""
    op = GridOperator(ham, grid)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(grid.size)
    lin_op = LinearOperator((grid.size, grid.size), dtype=np.complex128,
                            matvec=lambda v: apply_hamiltonian(
                                WaveFunction(grid, v.reshape(grid.shape)), op).values.reshape(-1))
    evals, evecs = eigsh(lin_op, k=count, which="SA", tol=tol, v0=v0, maxiter=5000)
    order = np.argsort(evals)
    return _eigen_result(op, evals[order], evecs, order, "iterative-subspace", tol)


def _krylov_polish(op: GridOperator, vals: np.ndarray, deflate, dim: int = 32):
    """Rayleigh-Ritz in the Krylov space of the current iterate.

    The split flow converges to a dt-dependent fixed point, so its residual
    plateaus; a small subspace solve around the plateau vector removes the
    splitting bias without touching the operator.
    """
    grid = op.grid
    basis, hbasis = [], []
    w = vals / np.sqrt(grid.measure * np.sum(np.abs(vals) ** 2))
    for _ in range(dim):
        w = project_out(w, deflate, grid.measure)
        for _pass in range(2):  # reorthogonalize; one pass loses the small components
            for b in basis:
                w = w - b * (grid.measure * np.vdot(b, w))
        nrm = np.sqrt(grid.measure * np.sum(np.abs(w) ** 2))
        if nrm < 1e-13:
            break
        w = w / nrm
        basis.append(w)
        w = apply_hamiltonian(WaveFunction(grid, w), op).values
        hbasis.append(w)
    if not basis:
        raise SolverError("imaginary-time flow collapsed; all mass deflated away")
    basis = np.array(basis)
    hmat = grid.measure * (basis.reshape(len(basis), -1).conj()
                           @ np.array(hbasis).reshape(len(basis), -1).T)
    hmat = (hmat + hmat.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(hmat)
    out = project_out(np.tensordot(evecs[:, 0], basis, axes=1), deflate, grid.measure)
    nrm = np.sqrt(grid.measure * np.sum(np.abs(out) ** 2))
    return out / nrm, float(evals[0])


def ground_state_imag_time(ham: HamiltonianSpec, grid: GridSpec, tol: float = 1e-8,
                           deflate: tuple[WaveFunction, ...] = (),
                           dt0: float = 0.2, max_steps: int = 40000,
                           initial: WaveFunction | None = None) -> EigenResult:
    """Variational ground state by split-step imaginary-time descent.

    Runs the Strang-split flow exp(-dt V/2) exp(-dt m(P)) exp(-dt V/2) with
    renormalization, halving dt when the residual stagnates, and finishing
    each plateau with a Rayleigh-Ritz polish in the Krylov space of the
    iterate.  Orthogonalizing against ``deflate`` after every step reaches
    excited states.  Converged when ||H psi - lambda psi|| <= tol * (1 + |lambda|).
    """
    op = GridOperator(ham, grid)
    if tol <= 0:
        raise SolverError("tol must be positive")
    if initial is None:
        psi = gaussian_packet(grid, 0.0, 0.0, max(1.0, grid.half_extent / 8.0))
    else:
        psi = initial.normalized()

    def residual_of(values):
        hv = apply_hamiltonian(WaveFunction(grid, values), op).values
        lam = (grid.measure * np.vdot(values, hv)).real
        return lam, float(np.sqrt(grid.measure * np.sum(np.abs(hv - lam * values) ** 2)))

    def converged(values, lam, res):
        return EigenResult(np.array([lam]), (WaveFunction(grid, values),), np.array([res]),
                           method="imaginary-time", tol=tol)

    def factors(dt):
        return np.exp(-0.5 * dt * op.potential), np.exp(-dt * op.symbol)

    dt = dt0
    best = np.inf
    since_improve = 0
    vals = project_out(psi.values, deflate, grid.measure)
    step = 0
    half, kin = factors(dt)
    while step < max_steps:
        for _ in range(10):
            vals = half * np.fft.ifftn(kin * np.fft.fftn(half * vals))
            vals = project_out(vals, deflate, grid.measure)
            nrm = np.sqrt(grid.measure * np.sum(np.abs(vals) ** 2))
            if nrm == 0.0 or not np.isfinite(nrm):
                raise SolverError("imaginary-time flow collapsed; all mass deflated away")
            vals = vals / nrm
        step += 10
        lam, res = residual_of(vals)
        if res <= tol * (1.0 + abs(lam)):
            return converged(vals, lam, res)
        if res < 0.98 * best:
            best = res
            since_improve = 0
            continue
        since_improve += 1
        if since_improve < 5:
            continue
        # plateau at the splitting bias: restarted subspace polish until the
        # target is met or the polish itself stalls, then descend with dt/2
        stalled = False
        for _ in range(60):
            vals, _ = _krylov_polish(op, vals, deflate)
            prev = res
            lam, res = residual_of(vals)
            if res <= tol * (1.0 + abs(lam)):
                return converged(vals, lam, res)
            if res > 0.7 * prev:
                stalled = True
                break
        best = min(best, res)
        since_improve = 0
        if stalled:
            dt = dt / 2.0
            if dt < 1e-4:
                raise SolverError(
                    f"imaginary-time flow stagnated at residual {res:.3e} "
                    f"(target {tol * (1.0 + abs(lam)):.3e})",
                    best_residual=res,
                )
            half, kin = factors(dt)
    raise SolverError(
        f"imaginary-time flow did not converge within {max_steps} steps "
        f"(best residual {best:.3e})",
        best_residual=best,
    )


@dataclass(frozen=True)
class ThresholdTable:
    """Negative subsystem eigenvalues per 2-cluster decomposition, plus zero.

    ``b`` is the value the gap function takes below every threshold; any
    positive constant is admissible.
    """

    per_cluster: dict[ClusterId, np.ndarray]
    b: float = 1.0
    match_tol: float = THRESHOLD_MATCH_TOL

    def __post_init__(self):
        if self.b <= 0:
            raise SolverError("the fallback constant b must be positive")
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
        if np.any(np.abs(taus - E) <= self.match_tol):
            return 0.0
        if E < taus[0]:
            return self.b
        below = taus[taus < E]
        return float(E - below[-1])

    def is_threshold(self, E: float) -> bool:
        return bool(np.any(np.abs(self.thresholds - E) <= self.match_tol))

    def require_clear(self, window) -> None:
        """Raise :class:`SpectralWindowError` if the closed window holds a threshold."""
        e_lo, e_hi = window
        for tau in self.thresholds:
            if e_lo <= tau <= e_hi:
                raise SpectralWindowError(f"window ({e_lo}, {e_hi}) contains the threshold {tau}")


def distance_to_threshold(E: float, table: ThresholdTable) -> float:
    """d(E) = min over 2-cluster decompositions of the per-cluster gap."""
    return min(table.distance(E, a) for a in TWO_CLUSTERS)


def threshold_table(model: ThreeBodyModel, grid: GridSpec, tol: float = 1e-8,
                    b: float = 1.0, cross_check: bool = True) -> ThresholdTable:
    """Collect the negative eigenvalues of every subsystem Hamiltonian.

    Dense diagonalization on the one-particle grid, cross-checked against the
    imaginary-time route when requested.
    """
    if grid.particles != 1:
        raise SolverError("threshold_table runs subsystem problems on a one-particle grid")
    per: dict[ClusterId, np.ndarray] = {}
    for a in TWO_CLUSTERS:
        h = model.subsystem(a)
        try:
            count = min(grid.size, 12)
            res = dense_spectrum(h, grid, count)
        except SolverError as exc:
            raise SolverError(f"threshold solve failed for cluster {a}: {exc}") from exc
        negatives = res.eigenvalues[res.eigenvalues < -1e-6]
        if cross_check and negatives.size:
            # the cross-check confirms the route, not the digits; shallow
            # states have tiny gaps where the variational flow crawls
            cc_tol = max(tol, 1e-6)
            ground = ground_state_imag_time(h, grid, tol=cc_tol)
            if abs(ground.eigenvalues[0] - negatives[0]) > 10 * cc_tol * (1 + abs(negatives[0])):
                raise SolverError(
                    f"threshold cross-check failed for cluster {a}: dense "
                    f"{negatives[0]:.9f} vs imaginary-time {ground.eigenvalues[0]:.9f}"
                )
        per[a] = negatives
    return ThresholdTable(per, b=b)


@dataclass(frozen=True)
class DispersionCurve:
    """Ground-state energy of the pair cluster along the external momentum."""

    cluster: ClusterId
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


def dispersion_scan(model: ThreeBodyModel, grid: GridSpec, s_values,
                    tol: float = 1e-8, guard_fraction: float = 0.1) -> DispersionCurve:
    """Scan the pair-cluster fibers and fit lambda(s) against 1, s, s^2.

    Fibers whose ground energy comes within ``guard_fraction`` of the
    closed-form continuum edge are flagged and excluded from the fit.
    """
    from .commutators import continuum_edge  # local import to avoid a cycle

    a = ClusterId.PAIR_FREE
    s_values = np.asarray(sorted(float(s) for s in np.atleast_1d(s_values)))
    lams = np.empty_like(s_values)
    resids = np.empty_like(s_values)
    flagged = np.zeros(s_values.shape, dtype=bool)

    def solve(s: float) -> tuple[float, float]:
        h = model.reduced(a, s)
        if grid.size <= DENSE_LIMIT:
            res = dense_spectrum(h, grid, 1)
        else:
            res = ground_state_imag_time(h, grid, tol=tol)
        return float(res.eigenvalues[0]), float(res.residuals[0])

    lam0, res0 = solve(0.0)
    for i, s in enumerate(s_values):
        lams[i], resids[i] = (lam0, res0) if s == 0.0 else solve(s)
        edge = continuum_edge(s)
        margin = guard_fraction * max(edge - lam0, 1e-12)
        if lams[i] > edge - margin:
            flagged[i] = True

    keep = ~flagged
    if np.count_nonzero(keep) < 3:
        raise SolverError("too few fibers below the continuum edge to fit the dispersion")
    coef = quadratic_fit(s_values[keep], lams[keep])
    dev = float(np.max(np.abs(lams[keep] - s_values[keep] ** 2 - lam0)))
    return DispersionCurve(
        cluster=a, s_values=s_values, lambdas=lams, residuals=resids, flagged=flagged,
        lambda0=lam0, quad_coefficient=float(coef[2]), linear_coefficient=float(coef[1]),
        max_deviation=dev,
    )


def _smooth_window(E, e_lo, e_hi, width):
    from scipy.special import erf

    return 0.25 * (1.0 + erf((E - e_lo) / width)) * (1.0 + erf((e_hi - E) / width))


@dataclass(frozen=True)
class FilterInfo:
    degree: int
    bounds: tuple[float, float]
    transition_width: float
    idempotence_defect: float | None = None


def chebyshev_window_coefficients(e_lo: float, e_hi: float, width: float,
                                  lo: float, hi: float, degree: int) -> np.ndarray:
    """Chebyshev coefficients of the smoothed indicator on [lo, hi]."""
    n = degree + 1
    theta = np.pi * (np.arange(n) + 0.5) / n
    xc = np.cos(theta)
    E = 0.5 * (hi + lo) + 0.5 * (hi - lo) * xc
    f = _smooth_window(E, e_lo, e_hi, width)
    # type-1 DCT by direct cosine sums; n is a few thousand at most
    ks = np.arange(n)
    c = (2.0 / n) * np.cos(np.outer(ks, theta)) @ f
    c[0] *= 0.5
    return c


def _clenshaw_apply(op: GridOperator, values: np.ndarray, coef: np.ndarray,
                    lo: float, hi: float) -> np.ndarray:
    center = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)

    def hop(v):
        return (apply_hamiltonian(WaveFunction(op.grid, v), op).values - center * v) / half

    b1 = np.zeros_like(values)
    b2 = np.zeros_like(values)
    for c in coef[:0:-1]:
        b1, b2 = c * values + 2.0 * hop(b1) - b2, b1
    return coef[0] * values + hop(b1) - b2


def spectral_filter(wf: WaveFunction, ham: HamiltonianSpec, window: tuple[float, float],
                    sharpness: int | None = None, return_info: bool = False,
                    target_ripple: float = 1e-6, transition_fraction: float = 0.1):
    """Polynomial smoothed spectral window applied through repeated H applies.

    The target is an erf-smoothed indicator of ``window`` with transition
    width ``transition_fraction`` of the window width, Chebyshev-expanded over
    the hull of the grid operator's spectral range and the window.
    ``sharpness`` overrides the automatic polynomial degree.  Windows entirely
    above the operator range are rejected; windows below it are legitimate and
    simply annihilate.  The filter kernel spreads over a position scale of
    order 1/width, which must fit inside the box.
    """
    e_lo, e_hi = float(window[0]), float(window[1])
    if not e_lo < e_hi:
        raise SpectralWindowError(f"window ({e_lo}, {e_hi}) is empty")
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
    if sharpness is None:
        # erf-type smoothness: coefficients fall like exp(-(n pi width / span)^2 / 2)
        span = hi - lo
        degree = int(np.ceil(span / (np.pi * width) * np.sqrt(2.0 * np.log(1.0 / target_ripple))))
        degree = max(degree, 32)
    else:
        degree = int(sharpness)
        if degree < 1:
            raise SpectralWindowError("sharpness must be a positive integer")
    coef = chebyshev_window_coefficients(e_lo, e_hi, width, lo, hi, degree)
    out_vals = _clenshaw_apply(op, wf.values, coef, lo, hi)
    out = WaveFunction(wf.grid, out_vals)
    if not return_info:
        return out
    twice = _clenshaw_apply(op, out_vals, coef, lo, hi)
    defect = WaveFunction(wf.grid, twice - out_vals).norm()
    info = FilterInfo(degree=degree, bounds=(lo, hi), transition_width=width,
                      idempotence_defect=defect)
    return out, info


def deflate_against(wf: WaveFunction, vectors) -> WaveFunction:
    """Remove the components of ``wf`` along the given orthonormal vectors."""
    return WaveFunction(wf.grid, project_out(wf.values, vectors, wf.grid.measure))


def localized_eigenvectors(ham: HamiltonianSpec, grid: GridSpec, count: int,
                           window: tuple[float, float] | None = None,
                           boundary_fraction: float = 0.5,
                           boundary_mass_tol: float = 1e-4,
                           seed: int = 11) -> list[tuple[float, WaveFunction]]:
    """Bound-state-like low eigenvectors of the grid operator.

    Box-discretized continuum modes are extended across the lattice; genuine
    bound states decay.  Only eigenvectors with boundary mass below the
    tolerance (and inside the window, when given) are returned.  The dense
    route is reserved for small grids; a handful of low modes on a big grid
    is Lanczos territory.
    """
    if grid.size <= 1024:
        res = dense_spectrum(ham, grid, count)
    else:
        res = iterative_lowest(ham, grid, count, seed=seed)
    out = []
    for lam, vec in zip(res.eigenvalues, res.eigenvectors):
        if window is not None and not (window[0] <= lam <= window[1]):
            continue
        if vec.boundary_mass(boundary_fraction) < boundary_mass_tol:
            out.append((float(lam), vec))
    return out
