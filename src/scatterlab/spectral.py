"""Eigenvalue computation, thresholds, fibered dispersion scans, and filtering.

Three solver routes: a dense oracle (grid operator assembled column by column
and handed to LAPACK, feasible up to 4096 lattice sites), an imaginary-time
Rayleigh-quotient descent with deflation, and a Lanczos subspace route via
scipy for grids past the dense limit.  The dense route is the reference all
other numbers are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

from .clusters import ClusterId, TWO_CLUSTERS
from .errors import SolverError, SpectralWindowError
from .lattice import GridSpec, WaveFunction, gaussian_packet
from .model import ThreeBodyModel
from .operators import HamiltonianSpec, apply_hamiltonian, potential_field, symbol_range

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


def _residual(ham: HamiltonianSpec, wf: WaveFunction, lam: float) -> float:
    h = apply_hamiltonian(wf, ham)
    return (h - wf.scaled(lam)).norm()


def dense_spectrum(ham: HamiltonianSpec, grid: GridSpec, count: int) -> EigenResult:
    """Lowest ``count`` eigenpairs of the exact grid operator.

    The matrix is assembled by applying the Hamiltonian to every lattice basis
    vector, then symmetrized against roundoff and diagonalized.
    """
    ham.validate_for(grid)
    n = grid.size
    if n > DENSE_LIMIT:
        raise SolverError(
            f"grid has {n} sites > {DENSE_LIMIT}; use iterative_lowest or "
            "ground_state_imag_time instead"
        )
    if not 1 <= count <= n:
        raise SolverError(f"count must be in [1, {n}]")
    mat = np.empty((n, n), dtype=np.complex128)
    basis = np.zeros(grid.shape, dtype=np.complex128)
    flat = basis.reshape(-1)
    for j in range(n):
        flat[j] = 1.0
        col = apply_hamiltonian(WaveFunction(grid, basis.copy()), ham)
        mat[:, j] = col.values.reshape(-1)
        flat[j] = 0.0
    mat = (mat + mat.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(mat)
    evals = evals[:count]
    scale = 1.0 / np.sqrt(grid.measure)  # unit columns -> unit grid norm
    vectors = tuple(
        WaveFunction(grid, evecs[:, j].reshape(grid.shape) * scale) for j in range(count)
    )
    residuals = np.array([_residual(ham, v, lam) for v, lam in zip(vectors, evals)])
    return EigenResult(evals, vectors, residuals, method="dense", tol=1e-9)


def _as_linear_operator(ham: HamiltonianSpec, grid: GridSpec) -> LinearOperator:
    def matvec(v):
        wf = WaveFunction(grid, np.asarray(v, dtype=np.complex128).reshape(grid.shape))
        return apply_hamiltonian(wf, ham).values.reshape(-1)

    return LinearOperator((grid.size, grid.size), matvec=matvec, dtype=np.complex128)


def iterative_lowest(ham: HamiltonianSpec, grid: GridSpec, count: int,
                     tol: float = 1e-9, seed: int = 7) -> EigenResult:
    """Lowest eigenpairs via Lanczos on the matrix-free grid operator."""
    ham.validate_for(grid)
    rng = np.random.default_rng(seed)
    v0 = rng.standard_normal(grid.size)
    evals, evecs = eigsh(_as_linear_operator(ham, grid), k=count, which="SA",
                         tol=tol, v0=v0, maxiter=5000)
    order = np.argsort(evals)
    evals = evals[order]
    scale = 1.0 / np.sqrt(grid.measure)
    vectors = tuple(
        WaveFunction(grid, evecs[:, j].reshape(grid.shape) * scale) for j in order
    )
    residuals = np.array([_residual(ham, v, lam) for v, lam in zip(vectors, evals)])
    return EigenResult(evals, vectors, residuals, method="iterative-subspace", tol=tol)


def _krylov_polish(ham: HamiltonianSpec, grid: GridSpec, vals: np.ndarray,
                   project, dim: int = 32):
    """Rayleigh-Ritz in the Krylov space of the current iterate.

    The split flow converges to a dt-dependent fixed point, so its residual
    plateaus; a small subspace solve around the plateau vector removes the
    splitting bias without touching the operator.
    """
    basis, hbasis = [], []
    w = vals / np.sqrt(grid.measure * np.sum(np.abs(vals) ** 2))
    for _ in range(dim):
        w = project(w)
        for _pass in range(2):  # reorthogonalize; one pass loses the small components
            for b in basis:
                w = w - b * (grid.measure * np.vdot(b, w))
        nrm = np.sqrt(grid.measure * np.sum(np.abs(w) ** 2))
        if nrm < 1e-13:
            break
        w = w / nrm
        basis.append(w)
        w = apply_hamiltonian(WaveFunction(grid, w.copy()), ham).values
        hbasis.append(w)
    if not basis:
        raise SolverError("imaginary-time flow collapsed; all mass deflated away")
    basis = np.array(basis)
    hmat = grid.measure * (basis.reshape(len(basis), -1).conj()
                           @ np.array(hbasis).reshape(len(basis), -1).T)
    hmat = (hmat + hmat.conj().T) / 2.0
    evals, evecs = np.linalg.eigh(hmat)
    out = project(np.tensordot(evecs[:, 0], basis, axes=1))
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
    ham.validate_for(grid)
    if tol <= 0:
        raise SolverError("tol must be positive")
    if initial is None:
        psi = gaussian_packet(grid, 0.0, 0.0, max(1.0, grid.half_extent / 8.0))
    else:
        psi = initial.normalized()

    m = ham.symbol.on_grid(grid)
    v = potential_field(grid, ham)

    def project(values):
        for other in deflate:
            values = values - other.values * (grid.measure * np.vdot(other.values, values))
        return values

    def residual_of(values):
        wf = WaveFunction(grid, values.copy())
        hv = apply_hamiltonian(wf, ham)
        lam = wf.inner(hv).real
        return wf, lam, (hv - wf.scaled(lam)).norm()

    dt = dt0
    best = np.inf
    since_improve = 0
    vals = project(psi.values.copy())
    step = 0
    while step < max_steps:
        half = np.exp(-0.5 * dt * v)
        kin = np.exp(-dt * m)
        for _ in range(10):
            vals = half * np.fft.ifftn(kin * np.fft.fftn(half * vals))
            vals = project(vals)
            nrm = np.sqrt(grid.measure * np.sum(np.abs(vals) ** 2))
            if nrm == 0.0 or not np.isfinite(nrm):
                raise SolverError("imaginary-time flow collapsed; all mass deflated away")
            vals = vals / nrm
        step += 10
        wf, lam, res = residual_of(vals)
        if res <= tol * (1.0 + abs(lam)):
            return EigenResult(np.array([lam]), (wf,), np.array([res]),
                               method="imaginary-time", tol=tol)
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
            vals, _ = _krylov_polish(ham, grid, vals, project)
            prev = res
            wf, lam, res = residual_of(vals)
            if res <= tol * (1.0 + abs(lam)):
                return EigenResult(np.array([lam]), (wf,), np.array([res]),
                                   method="imaginary-time", tol=tol)
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

    def g_value(self, a: ClusterId) -> float:
        """G_a = inf of the cluster's thresholds (eigenvalues and zero)."""
        return float(self.cluster_thresholds(a)[0])

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

    lam0, _ = solve(0.0)
    for i, s in enumerate(s_values):
        lams[i], resids[i] = solve(s)
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


def _clenshaw_apply(ham: HamiltonianSpec, grid: GridSpec, values: np.ndarray,
                    coef: np.ndarray, lo: float, hi: float) -> np.ndarray:
    center = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)

    def hop(v):
        return (apply_hamiltonian(WaveFunction(grid, v), ham).values - center * v) / half

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
    ham.validate_for(wf.grid)
    lo_op, hi_op = symbol_range(wf.grid, ham)
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
    out_vals = _clenshaw_apply(ham, wf.grid, wf.values, coef, lo, hi)
    out = WaveFunction(wf.grid, out_vals)
    if not return_info:
        return out
    twice = _clenshaw_apply(ham, wf.grid, out_vals, coef, lo, hi)
    defect = WaveFunction(wf.grid, twice - out_vals).norm()
    info = FilterInfo(degree=degree, bounds=(lo, hi), transition_width=width,
                      idempotence_defect=defect)
    return out, info


def deflate_against(wf: WaveFunction, vectors) -> WaveFunction:
    """Remove the components of ``wf`` along the given orthonormal vectors."""
    vals = wf.values.copy()
    for other in vectors:
        vals = vals - other.values * (wf.grid.measure * np.vdot(other.values, vals))
    return WaveFunction(wf.grid, vals)


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
