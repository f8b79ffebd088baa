"""Dilation generators, commutator quadratic forms, and positivity reports.

The conjugate operator is the dilation generator A = (P.X + X.P)/2, applied
with the momentum factor spectral and the position factor pointwise.  The
commutator [H, iA] is never assembled as a matrix; its quadratic form is
evaluated from two inner products, and the closed-form right-hand sides of
the first and second commutators are applied directly as multiplier plus
multiplication operators for cross-checking.

Position weights on a periodic lattice see the sawtooth jump at the box edge,
so every X-weighted operation requires the state to be concentrated away from
the boundary.  The default tolerance is strict; callers handling states with
slow power-law tails (the |k|-kinetic subsystems) may relax it explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clusters import ClusterId, cluster_count, require_two_cluster
from .errors import (
    BoundaryConcentrationError,
    ClusterError,
    HypothesisError,
    QuadratureError,
)
from .lattice import GridSpec, WaveFunction, random_state
from .model import ThreeBodyModel
from .operators import HamiltonianSpec, apply_hamiltonian
from .spectral import (
    ThresholdTable,
    deflate_against,
    distance_to_threshold,
    localized_eigenvectors,
    spectral_filter,
)

DEFAULT_BOUNDARY_TOL = 1e-8


@dataclass(frozen=True)
class ConjugateSpec:
    """Which dilation generator: the full A, or the internal/external part A^a, A_a."""

    scope: str = "full"
    cluster: ClusterId | None = None

    def __post_init__(self):
        if self.scope not in ("full", "internal", "external"):
            raise ClusterError(f"unknown conjugate scope {self.scope!r}")
        if self.scope != "full" and self.cluster is not None:
            if cluster_count(self.cluster) == 2:
                return
            if self.cluster in (ClusterId.TOGETHER, ClusterId.ALL_FREE):
                return
            raise ClusterError("scoped conjugate requires a valid cluster")


FULL_A = ConjugateSpec("full")


def _conjugate_pairs(grid: GridSpec, spec: ConjugateSpec):
    """Canonical (position field, momentum multiplier) pairs the generator sums over.

    For the pair cluster the canonical internal/external momenta are
    (p -+ k)/2 against x -+ y, so that A^a + A_a reproduces the full A exactly.
    """
    mesh = grid.position_mesh()
    kmesh = grid.momentum_mesh()
    if grid.particles == 1:
        # on a one-particle grid every scope reduces to the lattice dilation
        return [(mesh[0], kmesh[0])]
    full = [(mesh[0], kmesh[0]), (mesh[1], kmesh[1])]
    if spec.scope == "full":
        return full
    a = spec.cluster
    if a is None:
        raise ClusterError("scoped conjugate on a two-particle grid needs a cluster")
    if a is ClusterId.TOGETHER:
        return full if spec.scope == "internal" else []
    if a is ClusterId.ALL_FREE:
        return full if spec.scope == "external" else []
    require_two_cluster(a)
    if a is ClusterId.PHOTON_FREE:
        internal = [(mesh[0], kmesh[0])]
        external = [(mesh[1], kmesh[1])]
    elif a is ClusterId.ELECTRON_FREE:
        internal = [(mesh[1], kmesh[1])]
        external = [(mesh[0], kmesh[0])]
    else:  # PAIR_FREE
        internal = [(grid.wrap(mesh[0] - mesh[1]), 0.5 * (kmesh[0] - kmesh[1]))]
        external = [(grid.wrap(mesh[0] + mesh[1]), 0.5 * (kmesh[0] + kmesh[1]))]
    return internal if spec.scope == "internal" else external


def check_boundary_concentration(wf: WaveFunction, tol: float = DEFAULT_BOUNDARY_TOL) -> float:
    mass = wf.boundary_mass(0.8)
    if mass > tol:
        raise BoundaryConcentrationError(
            f"state carries {mass:.3e} of its mass outside 0.8 L; X.P is not "
            f"compatible with wraparound (tolerance {tol:.1e})",
            boundary_mass=mass,
        )
    return mass


def apply_dilation(wf: WaveFunction, spec: ConjugateSpec = FULL_A,
                   boundary_tol: float = DEFAULT_BOUNDARY_TOL) -> WaveFunction:
    """Apply (1/2)(P.X + X.P) over the coordinates selected by ``spec``."""
    check_boundary_concentration(wf, boundary_tol)
    out = np.zeros(wf.grid.shape, dtype=np.complex128)
    for pos, mom in _conjugate_pairs(wf.grid, spec):
        xpsi = pos * wf.values
        term1 = np.fft.ifftn(mom * np.fft.fftn(xpsi))
        term2 = pos * np.fft.ifftn(mom * np.fft.fftn(wf.values))
        out = out + 0.5 * (term1 + term2)
    return WaveFunction(wf.grid, out)


def commutator_form(wf: WaveFunction, ham: HamiltonianSpec,
                    spec: ConjugateSpec = FULL_A,
                    boundary_tol: float = DEFAULT_BOUNDARY_TOL) -> float:
    """Quadratic form <psi, [H, iA] psi> = -2 Im <H psi, A psi>.

    The inner product conjugates its first argument; with H and A both
    Hermitian lattice operators the value is real by construction, and it
    vanishes on exact eigenvectors of H (the virial identity).
    """
    apsi = apply_dilation(wf, spec, boundary_tol)
    hpsi = apply_hamiltonian(wf, ham)
    return -2.0 * hpsi.inner(apsi).imag


def _apply_momentum_array(wf: WaveFunction, marr: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(marr * np.fft.fftn(wf.values))


COMMUTATOR_FORMULAS = (
    "free", "full",
    "subsystem:(y)(x0)", "subsystem:(x)(y0)", "subsystem:(xy)(0)",
    "fibered:(y)(x0)", "fibered:(x)(y0)", "fibered:(xy)(0)",
)


def analytic_commutator_apply(wf: WaveFunction, which: str, model: ThreeBodyModel,
                              s: float | None = None) -> WaveFunction:
    """Apply the closed-form first-commutator operator named by ``which``.

    Two-particle formulas ("free", "full") use the full conjugate A:
    2 p^2 + |k| minus the sum of x^a . grad I^a terms.  One-particle
    "subsystem" formulas are the internal commutators [h_a, i A^a].  The
    "fibered" formulas are the fibers of [H_a, iA] at external momentum s:
    for (y)(x0) and (x)(y0) the external coordinate contributes the constants
    |s| and 2 s^2; for (xy)(0) the formula is the internal commutator
    [H_a(s), i A^a], whose singular mode q = s takes the mean of its one-sided
    limits (numpy's sign convention at zero).  V23 acts on the (xy)(0) grid
    coordinate u as V23(2u), so its potential term is u d/du V23(2u), which is
    w V23'(w) at w = 2u.
    """
    grid = wf.grid
    if which == "free":
        if grid.particles != 2:
            raise ClusterError("the free formula lives on the two-particle grid")
        k = grid.momentum_mesh()
        marr = 2.0 * k[0] ** 2 + np.abs(k[1])
        return WaveFunction(grid, _apply_momentum_array(wf, marr))
    if which == "full":
        if grid.particles != 2:
            raise ClusterError("the full formula lives on the two-particle grid")
        k = grid.momentum_mesh()
        x, y = grid.position_mesh()
        w = grid.wrap(x - y)
        marr = 2.0 * k[0] ** 2 + np.abs(k[1])
        fld = (x * model.v12.derivative(x) + y * model.v13.derivative(y)
               + w * model.v23.derivative(w))
        return WaveFunction(grid, _apply_momentum_array(wf, marr) - fld * wf.values)

    try:
        kind, name = which.split(":")
        a = ClusterId(name)
    except ValueError as exc:
        raise ClusterError(f"unknown commutator formula {which!r}") from exc
    require_two_cluster(a)
    if grid.particles != 1:
        raise ClusterError("subsystem and fibered formulas live on one-particle grids")
    if kind == "fibered" and s is None:
        raise ClusterError("fibered formulas need the external momentum s")

    q = grid.momentum_mesh()[0]
    u = grid.position_mesh()[0]
    if a is ClusterId.PHOTON_FREE:
        marr = 2.0 * q ** 2
        fld = u * model.v12.derivative(u)
        const = abs(s) if kind == "fibered" else 0.0
    elif a is ClusterId.ELECTRON_FREE:
        marr = np.abs(q)
        fld = u * model.v13.derivative(u)
        const = 2.0 * s * s if kind == "fibered" else 0.0
    else:  # PAIR_FREE
        fld = model.pair_potential().virial_field(u)
        const = 0.0
        if kind == "fibered":
            marr = 0.5 * q ** 2 + 0.5 * s * q + 0.5 * q * np.sign(q - s)
        else:
            marr = 0.5 * q ** 2 + 0.5 * np.abs(q)
    out = _apply_momentum_array(wf, marr) - fld * wf.values
    if const:
        out = out + const * wf.values
    return WaveFunction(grid, out)


def second_commutator_form(wf: WaveFunction, cluster: ClusterId,
                           model: ThreeBodyModel) -> float:
    """Quadratic form of the closed-form second commutator [[h_a, iA^a], iA^a].

    (y)(x0): 4 p^2 + x.grad(x.grad V12);  (x)(y0): |k| + y.grad(y.grad V13);
    (xy)(0): q^2 + (1/2)|q| + u.grad(u.grad V23(2u)), u the grid coordinate.
    A boundedness sanity report for the second-commutator hypotheses, not a
    spectral tool.
    """
    require_two_cluster(cluster)
    grid = wf.grid
    if grid.particles != 1:
        raise ClusterError("second commutators are evaluated on the internal grid")
    q = grid.momentum_mesh()[0]
    u = grid.position_mesh()[0]
    if cluster is ClusterId.PHOTON_FREE:
        marr = 4.0 * q ** 2
        fld = model.v12.double_virial_field(u)
    elif cluster is ClusterId.ELECTRON_FREE:
        marr = np.abs(q)
        fld = model.v13.double_virial_field(u)
    else:
        marr = q ** 2 + 0.5 * np.abs(q)
        fld = model.pair_potential().double_virial_field(u)
    cpsi = WaveFunction(grid, _apply_momentum_array(wf, marr) + fld * wf.values)
    return wf.inner(cpsi).real


def _adaptive_simpson(f, a, b, tol, budget):
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, b, fa, fm, fb, whole, tol, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        budget[0] += 2
        if budget[0] > budget[1]:
            raise _BudgetExceeded(whole)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth > 50 or abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return (recurse(a, m, fa, flm, fm, left, tol / 2.0, depth + 1)
                + recurse(m, b, fm, frm, fb, right, tol / 2.0, depth + 1))

    budget[0] += 3
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


class _BudgetExceeded(Exception):
    def __init__(self, partial):
        self.partial = partial


def sqrt_lemma_eval(k: float, tol: float = 1e-8, max_evals: int = 200000) -> float:
    """Evaluate |k| through its resolvent integral representation.

    The integral (1/pi) int_0^inf s^(-1/2) k^2/(s+k^2) ds is split at s = k^2;
    the substitution s = u^2 tames the endpoint on [0, k^2], and s = k^2/t^2
    maps the tail to [0, 1].  Both pieces are integrated adaptively to a
    relative tolerance against |k|.
    """
    if k < 0:
        raise QuadratureError("k must be nonnegative")
    if k == 0.0:
        return 0.0
    # s = u^2 on [0, k^2]:   integrand 2 k^2 / (u^2 + k^2) du on [0, k]
    # s = k^2/t^2 on tail:   integrand 2 k / (1 + t^2) dt on [0, 1]
    budget = [0, max_evals]
    abs_tol = 0.5 * tol * k
    try:
        head = _adaptive_simpson(lambda u: 2.0 * k * k / (u * u + k * k), 0.0, k,
                                 abs_tol, budget)
        tail = _adaptive_simpson(lambda t: 2.0 * k / (1.0 + t * t), 0.0, 1.0,
                                 abs_tol, budget)
    except _BudgetExceeded as exc:
        achieved = abs(exc.partial / np.pi - k) / k
        raise QuadratureError(
            f"quadrature budget exhausted before reaching tol={tol:.1e}",
            achieved=achieved,
        ) from exc
    return (head + tail) / np.pi


def continuum_edge(s: float) -> float:
    """Bottom of the pair cluster's fibered continuum at external momentum s.

    The closed form of min_q [(1/4)(q+s)^2 + (1/2)|q-s|]: the kink at q = s
    wins for |s| <= 1/2 giving s^2, the smooth branch wins beyond, giving
    |s| - 1/4.
    """
    s = abs(float(s))
    if s <= 0.5:
        return s * s
    return s - 0.25


@dataclass(frozen=True)
class MourreReport:
    """Sampled commutator positivity on a spectral window.

    A report, not a pass/fail oracle: the localized estimate holds modulo a
    compact remainder, whose finite-grid footprint shows up as the margin.
    """

    E: float
    window: tuple[float, float]
    epsilon: float
    bound: float                  # d(E) - epsilon
    form_values: np.ndarray       # one per unit-norm filtered sample
    deflated_count: int
    violations: int               # samples with form value below the bound
    worst_margin: float           # min(form - bound)
    boundary_masses: np.ndarray
    gap: float                    # d(E) from the threshold table

    @property
    def min_form(self) -> float:
        return float(np.min(self.form_values))


def derive_seed(seed: int, index: int) -> int:
    """Deterministic per-sample seed from (report seed, sample index)."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def mourre_report(E: float, window: tuple[float, float], model: ThreeBodyModel,
                  grid: GridSpec, table: ThresholdTable, samples: int = 20,
                  epsilon: float | None = None, seed: int = 0,
                  conjugate: ConjugateSpec = FULL_A,
                  sharpness: int | None = None,
                  deflation_count: int = 24,
                  boundary_tol: float = 1e-3,
                  hamiltonian: HamiltonianSpec | None = None) -> MourreReport:
    """Sample <psi, [H, iA] psi> over filtered random states near energy E.

    Random states are filtered into the window, the localized (bound-state
    like) eigenvectors of H inside the window are projected out, and the
    commutator form of each unit-norm survivor is compared against the
    predicted bound d(E) - epsilon.
    """
    if samples < 1:
        raise HypothesisError("samples must be >= 1")
    e_lo, e_hi = float(window[0]), float(window[1])
    if not e_lo < E < e_hi:
        raise HypothesisError("E must lie inside the window")
    if table.is_threshold(E):
        raise HypothesisError(f"E = {E} is a threshold; the estimate needs E nonthreshold")
    table.require_clear((e_lo, e_hi))
    gap = distance_to_threshold(E, table)
    if max(E - e_lo, e_hi - E) > gap / 2.0 + 1e-12:
        raise HypothesisError(
            f"window must stay within d(E)/2 = {gap / 2.0:.4g} of E"
        )
    if epsilon is None:
        epsilon = 0.1 * gap
    if not 0.0 < epsilon:
        raise HypothesisError("epsilon must be positive")
    ham = hamiltonian if hamiltonian is not None else model.full()
    bound = gap - epsilon

    eig_in_window = localized_eigenvectors(
        ham, grid, deflation_count, window=(e_lo, e_hi),
    ) if deflation_count > 0 else []
    deflators = [vec for _, vec in eig_in_window]

    def one_sample(i: int):
        rng = np.random.default_rng(derive_seed(seed, i))
        psi = random_state(grid, rng, envelope_sigma=grid.half_extent / 8.0)
        filtered = spectral_filter(psi, ham, (e_lo, e_hi), sharpness=sharpness)
        filtered = deflate_against(filtered, deflators)
        nrm = filtered.norm()
        if nrm < 1e-9:
            return None
        unit = filtered.scaled(1.0 / nrm)
        return (unit.boundary_mass(0.8),
                commutator_form(unit, ham, conjugate, boundary_tol=boundary_tol))

    outcomes = [one_sample(i) for i in range(samples)]
    masses = [m for out in outcomes if out is not None for m in [out[0]]]
    forms = [f for out in outcomes if out is not None for f in [out[1]]]
    if not forms:
        raise HypothesisError("every sample filtered to zero; window misses the spectrum")
    form_values = np.array(forms)
    margins = form_values - bound
    return MourreReport(
        E=E, window=(e_lo, e_hi), epsilon=float(epsilon), bound=float(bound),
        form_values=form_values, deflated_count=len(deflators),
        violations=int(np.sum(margins < 0)), worst_margin=float(np.min(margins)),
        boundary_masses=np.array(masses), gap=float(gap),
    )
