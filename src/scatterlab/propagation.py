"""Strang-split time evolution and the dynamical estimates built on it.

Both split factors are exact complex phases on the lattice, so each step is
unitary to roundoff; accuracy in dt is second order.  The dynamical
experiments (local decay, minimal velocity, channel cutoffs, approximate wave
operators, completeness defect) are compositions of evolution, spectral
filtering, and smoothed position cutoffs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clusters import ClusterId, require_two_cluster
from .errors import BoundaryBreachError, GridError, HypothesisError, SpectralWindowError
from .lattice import GridSpec, WaveFunction
from .model import ThreeBodyModel
from .operators import GridOperator, HamiltonianSpec, apply_hamiltonian
from .spectral import ThresholdTable, deflate_against, spectral_filter

BOUNDARY_SHELL_FRACTION = 0.9
DEFAULT_BOUNDARY_LIMIT = 1e-6


@dataclass(frozen=True)
class TraceSeries:
    """Time-stamped scalar observable with experiment metadata."""

    times: np.ndarray
    values: np.ndarray
    label: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.shape != v.shape:
            raise GridError("trace times and values must have matching shapes")
        if t.size > 1 and np.any(np.diff(t) <= 0):
            raise GridError("trace times must be strictly increasing")
        if not np.all(np.isfinite(v)):
            raise GridError("trace values must be finite")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    def final(self) -> float:
        return float(self.values[-1])


@dataclass(frozen=True)
class PropagatorSpec:
    """Strang-split propagator parameters for a fixed Hamiltonian."""

    ham: HamiltonianSpec
    dt: float
    steps_per_sample: int = 1
    splitting: str = "strang"

    def __post_init__(self):
        if self.dt <= 0:
            raise GridError("dt must be positive")
        if self.splitting != "strang":
            raise GridError(f"unknown splitting {self.splitting!r}")
        if self.steps_per_sample < 1:
            raise GridError("steps_per_sample must be >= 1")


class _Stepper:
    """Cached split-step phases of one grid operator for one dt.

    dt may be negative, which evolves backward in time.
    """

    def __init__(self, op: GridOperator, dt: float):
        self.grid = op.grid
        self.dt = dt
        self.half_v = np.exp(-0.5j * dt * op.potential)
        self.kinetic = np.exp(-1j * dt * op.symbol)

    def step(self, values: np.ndarray) -> np.ndarray:
        out = self.half_v * values
        out = np.fft.ifftn(self.kinetic * np.fft.fftn(out))
        return self.half_v * out


def _steps_for(duration: float, dt: float) -> int:
    steps = int(round(duration / dt))
    if abs(steps * dt - duration) > 1e-9 * max(1.0, abs(duration)):
        raise GridError(f"duration {duration} is not a multiple of dt = {dt}")
    return steps


def _sampled_blocks(steps: int, steps_per_sample: int, dt: float) -> list[tuple[int, float]]:
    """``(steps, t)`` blocks of ``steps_per_sample`` steps; the last may be shorter."""
    ends = [*range(steps_per_sample, steps, steps_per_sample), steps] if steps else []
    return [(end - start, end * dt) for start, end in zip([0] + ends, ends)]


def _march(values: np.ndarray, stepper: _Stepper, blocks, boundary_limit: float,
           sample, reference: float | None = None) -> np.ndarray:
    """Step through ``(steps, t)`` blocks; returns the final amplitudes.

    After each block ``sample(t, values)`` runs, then the breach guard raises
    :class:`BoundaryBreachError` if the mass in the outer tenth of the box
    exceeds ``boundary_limit`` times ``reference``.  ``reference`` is a
    squared-norm scale, by default the initial state's: relative to the
    initial norm, not the current one, so that runs on near-annihilated
    states (empty spectral windows) do not trip on their own roundoff-level
    ripple.  Experiment-level callers pass the overall experiment scale so
    that low-norm channel slivers are judged by what they contribute, not by
    their own size.
    """
    shell = stepper.grid.shell_mask(BOUNDARY_SHELL_FRACTION)
    if reference is None:
        reference = float(np.sum(np.abs(values) ** 2))
    for steps, t in blocks:
        for _ in range(steps):
            values = stepper.step(values)
        sample(t, values)
        bmass = float(np.sum(np.abs(values[shell]) ** 2) / reference) if reference else 0.0
        if bmass > boundary_limit:
            raise BoundaryBreachError(
                f"boundary mass {bmass:.3e} exceeded {boundary_limit:.1e} at t = {t}",
                time=t,
            )
    return values


def _snapshots(values: np.ndarray, stepper: _Stepper, start: float, times,
               boundary_limit: float, reference: float | None = None) -> dict:
    """States at the (monotone) ``times``, marching from ``start``; the stepper's dt is signed."""
    ends = list(times)
    blocks = [(_steps_for(abs(end - t), abs(stepper.dt)), end)
              for t, end in zip([start] + ends, ends)]
    snaps = {}
    _march(values, stepper, blocks, boundary_limit, snaps.__setitem__, reference)
    return snaps


def evolve(wf: WaveFunction, prop: PropagatorSpec, T: float,
           boundary_limit: float = DEFAULT_BOUNDARY_LIMIT,
           observables: tuple[str, ...] = ("norm", "energy")):
    """Propagate to time T, tracing the requested observables.

    Returns ``(psi_T, traces)`` where ``traces`` maps observable names to
    :class:`TraceSeries`.  Observables: "norm", "energy", "center0",
    "center1" (measure-weighted position means).  The run aborts with
    :class:`BoundaryBreachError` if more than ``boundary_limit`` of the mass
    reaches the outer tenth of the box, returning the partial traces on the
    exception.
    """
    grid = wf.grid
    op = GridOperator(prop.ham, grid)
    stepper = _Stepper(op, prop.dt)
    steps = _steps_for(T, prop.dt)
    mesh = grid.position_mesh()

    times = []
    records: dict[str, list[float]] = {name: [] for name in observables}

    def record(t, values):
        times.append(t)
        nsq = grid.measure * np.sum(np.abs(values) ** 2)
        for name in observables:
            if name == "norm":
                records[name].append(float(np.sqrt(nsq)))
            elif name == "energy":
                wfv = WaveFunction(grid, values)
                records[name].append(wfv.inner(apply_hamiltonian(wfv, op)).real)
            elif name.startswith("center"):
                axis = int(name[len("center"):])
                num = grid.measure * np.sum(mesh[axis] * np.abs(values) ** 2)
                records[name].append(float(num / nsq))
            else:
                raise GridError(f"unknown observable {name!r}")

    record(0.0, wf.values)
    try:
        values = _march(wf.values, stepper,
                        _sampled_blocks(steps, prop.steps_per_sample, prop.dt),
                        boundary_limit, record)
    except BoundaryBreachError as exc:
        exc.partial_traces = {
            name: TraceSeries(np.array(times), np.array(vals), name)
            for name, vals in records.items()
        }
        raise
    traces = {
        name: TraceSeries(np.array(times), np.array(vals), name,
                          metadata={"dt": prop.dt, "T": T})
        for name, vals in records.items()
    }
    return WaveFunction(grid, values), traces


@dataclass(frozen=True)
class CutoffSpec:
    """Parameters of the shrinking-region cutoffs F(X^2 / t^(2-eps) < delta).

    ``delta_prime = delta - eps`` is the slightly tightened constant the
    channel cutoffs use; ``mu > 1/2`` is the local-decay weight power; the
    smoothed step is (1 - tanh((u - threshold)/scale))/2 with scale a fixed
    fraction of the threshold.
    """

    delta: float
    eps: float
    mu: float = 0.6
    smoothing_fraction: float = 0.1

    def __post_init__(self):
        if not (self.delta > self.eps > 0):
            raise HypothesisError("need delta > eps > 0")
        if not self.mu > 0.5:
            raise HypothesisError("need mu > 1/2")
        if not 0 < self.smoothing_fraction <= 0.5:
            raise HypothesisError("smoothing fraction must be in (0, 1/2]")

    @property
    def delta_prime(self) -> float:
        return self.delta - self.eps


def smoothed_step_below(u: np.ndarray, threshold: float, scale: float) -> np.ndarray:
    """Smoothed indicator of u < threshold."""
    return 0.5 * (1.0 - np.tanh((u - threshold) / scale))


def shrinking_region_field(grid: GridSpec, t: float, delta: float, eps: float,
                           smoothing_fraction: float = 0.1) -> np.ndarray:
    """F(X^2 / t^(2-eps) < delta) as a multiplication field, t >= 1."""
    if t < 1.0:
        raise HypothesisError("the shrinking-region cutoffs are defined for t >= 1")
    u = grid.radius_sq() / t ** (2.0 - eps)
    return smoothed_step_below(u, delta, smoothing_fraction * delta)


def channel_cutoff(a: ClusterId, t: float, cutoffs: CutoffSpec, grid: GridSpec,
                   convention: str = "internal") -> np.ndarray:
    """Channel cutoff F((x^a)^2 / t^(2-eps) < delta') as a field on the grid.

    The cut acts on the internal coordinate of the decomposition (x, y, or
    x-y); ``convention="external"`` switches to the external coordinate
    (y, x, or x+y) for comparison.
    """
    require_two_cluster(a)
    if grid.particles != 2:
        raise GridError("channel cutoffs live on the two-particle grid")
    if t < 1.0:
        raise HypothesisError("channel cutoffs are defined for t >= 1")
    if convention not in ("internal", "external"):
        raise GridError(f"unknown cutoff convention {convention!r}")
    X, Y = grid.position_mesh()
    internal = {
        ClusterId.PHOTON_FREE: X,
        ClusterId.ELECTRON_FREE: Y,
        ClusterId.PAIR_FREE: grid.wrap(X - Y),
    }
    external = {
        ClusterId.PHOTON_FREE: Y,
        ClusterId.ELECTRON_FREE: X,
        ClusterId.PAIR_FREE: grid.wrap(X + Y),
    }
    coord = internal[a] if convention == "internal" else external[a]
    u = coord ** 2 / t ** (2.0 - cutoffs.eps)
    dp = cutoffs.delta_prime
    return smoothed_step_below(u, dp, cutoffs.smoothing_fraction * dp)


def local_decay_trace(psi0: WaveFunction, ham: HamiltonianSpec, window, mu: float,
                      T: float, dt: float, table: ThresholdTable | None = None,
                      known_eigenvalues=(), allow_eigenvalues: bool = False,
                      sharpness: int | None = None, sample_interval: float = 0.25,
                      filter_ripple: float = 1e-6, filter_transition: float = 0.1,
                      boundary_limit: float = DEFAULT_BOUNDARY_LIMIT) -> TraceSeries:
    """Cumulative weighted-decay integral I(t) for the filtered evolution.

    Filters ``psi0`` into the window and traces the trapezoid cumulative of
    ||<X>^(-mu) psi(t)||^2.  The saturation ratio I(T)/I(T/2) lands in the
    metadata; bounded ratios signal time-integrability, an eigenstate in the
    window drives the ratio to 2.  ``allow_eigenvalues`` bypasses the
    window precondition for negative controls.
    """
    if not mu > 0.5:
        raise HypothesisError("local decay weight needs mu > 1/2")
    if table is not None:
        table.require_clear(window)
    if not allow_eigenvalues:
        for lam in known_eigenvalues:
            if window[0] <= lam <= window[1]:
                raise SpectralWindowError(
                    f"window {tuple(window)} contains the eigenvalue {lam:.6f}; "
                    "local decay needs a window in the continuous spectrum")
    grid = psi0.grid
    psi = spectral_filter(psi0, ham, window, sharpness=sharpness,
                          target_ripple=filter_ripple,
                          transition_fraction=filter_transition)
    nrm = psi.norm()
    if nrm < 1e-12:
        raise SpectralWindowError("filtered state vanished; window misses the spectrum")
    psi = psi.scaled(1.0 / nrm)

    weight_sq = (1.0 + grid.radius_sq()) ** (-mu)
    steps_per_sample = max(1, int(round(sample_interval / dt)))
    stepper = _Stepper(GridOperator(ham, grid), dt)
    steps = _steps_for(T, dt)

    times, w = [], []

    def sample(t, values):
        times.append(t)
        w.append(float(grid.measure * np.sum(weight_sq * np.abs(values) ** 2)))

    sample(0.0, psi.values)
    _march(psi.values, stepper, _sampled_blocks(steps, steps_per_sample, dt),
           boundary_limit, sample)
    times = np.array(times)
    w = np.array(w)
    integral = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(times))])
    series = TraceSeries(times, integral, "local_decay_integral",
                         metadata={"mu": mu, "window": tuple(window), "dt": dt})
    half = integral[np.argmin(np.abs(times - T / 2.0))]
    ratio = float(integral[-1] / half) if half > 0 else np.inf
    series.metadata["saturation_ratio"] = ratio
    return series


def minimal_velocity_trace(psi0: WaveFunction, ham: HamiltonianSpec, window,
                           cutoffs: CutoffSpec, T: float, dt: float, theta: float,
                           sharpness: int | None = None, sample_interval: float = 1.0,
                           skip_filter: bool = False, filter_ripple: float = 1e-6,
                           filter_transition: float = 0.1,
                           boundary_limit: float = DEFAULT_BOUNDARY_LIMIT) -> TraceSeries:
    """Norm of the evolved filtered state inside the shrinking region X^2 < delta t^(2-eps).

    ``theta`` is the commutator positivity constant for the window; the
    estimate only makes sense for delta < theta.  The trace runs over
    t in [1, T].
    """
    if cutoffs.delta >= theta:
        raise HypothesisError(
            f"delta = {cutoffs.delta} must stay below the commutator constant "
            f"theta = {theta} for the window")
    grid = psi0.grid
    psi = psi0 if skip_filter else spectral_filter(
        psi0, ham, window, sharpness=sharpness, target_ripple=filter_ripple,
        transition_fraction=filter_transition)
    nrm = psi.norm()
    if nrm < 1e-12:
        raise SpectralWindowError("filtered state vanished; window misses the spectrum")
    psi = psi.scaled(1.0 / nrm)

    sample_times = [1.0]
    while sample_times[-1] + sample_interval <= T + 1e-9:
        sample_times.append(round(sample_times[-1] + sample_interval, 9))
    snaps = _snapshots(psi.values, _Stepper(GridOperator(ham, grid), dt), 0.0, sample_times,
                       boundary_limit)
    times, vals = [], []
    for t in sample_times:
        F = shrinking_region_field(grid, t, cutoffs.delta, cutoffs.eps,
                                   cutoffs.smoothing_fraction)
        v = snaps[t]
        times.append(t)
        vals.append(float(np.sqrt(grid.measure * np.sum(F ** 2 * np.abs(v) ** 2))))
    return TraceSeries(np.array(times), np.array(vals), "minimal_velocity_norm",
                       metadata={"delta": cutoffs.delta, "eps": cutoffs.eps,
                                 "theta": theta, "window": tuple(window), "dt": dt})


def wave_operator_approx(a: ClusterId, psi0: WaveFunction, model: ThreeBodyModel,
                         window, cutoffs: CutoffSpec, t: float, dt: float,
                         table: ThresholdTable | None = None,
                         sharpness: int | None = None, filter_ripple: float = 1e-6,
                         filter_transition: float = 0.1,
                         convention: str = "internal",
                         boundary_limit: float = DEFAULT_BOUNDARY_LIMIT) -> WaveFunction:
    """Channel-a approximant: filter, evolve to t under H, cut, evolve back under H_a.

    Realizes e^{+i H_a t} F_a e^{-i H t} E_window(H) psi0 at one time; its
    stabilization along a time schedule is the existence statement the
    completeness experiment quantifies.
    """
    require_two_cluster(a)
    if not window[1] < 0:
        raise SpectralWindowError("the channel construction runs at negative energies")
    if table is not None:
        table.require_clear(window)
    grid = psi0.grid
    ham_full = model.full()
    psi = spectral_filter(psi0, ham_full, window, sharpness=sharpness,
                          target_ripple=filter_ripple,
                          transition_fraction=filter_transition)
    if psi.norm() <= 1e-7 * psi0.norm():
        # the window misses the spectrum; the approximant is the (ripple-level)
        # filtered state itself and evolving it would only propagate roundoff
        return psi
    forward = _snapshots(psi.values, _Stepper(GridOperator(ham_full, grid), dt), 0.0, [t],
                         boundary_limit)
    scale = float(np.sum(np.abs(psi.values) ** 2))
    cut = channel_cutoff(a, t, cutoffs, grid, convention=convention) * forward[t]
    back = _snapshots(cut, _Stepper(GridOperator(model.truncated(a), grid), -dt), t, [0.0],
                      boundary_limit, reference=scale)
    return WaveFunction(grid, back[0.0])


def wave_operator_cauchy(a: ClusterId, psi0: WaveFunction, model: ThreeBodyModel,
                         window, cutoffs: CutoffSpec, schedule, dt: float,
                         table: ThresholdTable | None = None,
                         sharpness: int | None = None, filter_ripple: float = 1e-6,
                         filter_transition: float = 0.1,
                         convention: str = "internal",
                         boundary_limit: float = DEFAULT_BOUNDARY_LIMIT) -> TraceSeries:
    """Stabilization of the channel approximants along a time schedule.

    Reports ||phi_a(t_{j+1}) - phi_a(t_j)|| for consecutive schedule times;
    decreasing differences are the numerical footprint of the existence of
    the channel wave operators.
    """
    schedule = sorted(float(t) for t in np.atleast_1d(schedule))
    if len(schedule) < 2:
        raise HypothesisError("the stabilization trace needs at least two times")
    approximants = [
        wave_operator_approx(a, psi0, model, window, cutoffs, t, dt, table=table,
                             sharpness=sharpness, filter_ripple=filter_ripple,
                             filter_transition=filter_transition,
                             convention=convention, boundary_limit=boundary_limit)
        for t in schedule
    ]
    diffs = [
        (approximants[j + 1] - approximants[j]).norm() for j in range(len(schedule) - 1)
    ]
    return TraceSeries(np.array(schedule[1:]), np.array(diffs),
                       "wave_operator_stabilization",
                       metadata={"cluster": str(a), "window": tuple(window), "dt": dt})


def completeness_defect(psi0: WaveFunction, model: ThreeBodyModel, window,
                        cutoffs: CutoffSpec, schedule, dt: float,
                        table: ThresholdTable | None = None,
                        deflate_eigenvectors=(),
                        sharpness: int | None = None, filter_ripple: float = 1e-6,
                        filter_transition: float = 0.1,
                        convention: str = "internal",
                        boundary_limit: float = DEFAULT_BOUNDARY_LIMIT) -> TraceSeries:
    """Defect || e^{-itH} psi - sum_a e^{-itH_a} phi_a || along a time schedule.

    The channel states phi_a come from the approximate wave operators at the
    largest scheduled time (the best approximants), then evolve freely in
    their channels.  ``deflate_eigenvectors`` removes bound-state components
    from the filtered initial state first.
    """
    schedule = sorted(float(t) for t in np.atleast_1d(schedule))
    if not schedule or schedule[0] < 1.0:
        raise HypothesisError("schedule times must be >= 1")
    if not window[1] < 0:
        raise SpectralWindowError("the completeness experiment runs at negative energies")
    if table is not None:
        table.require_clear(window)
    grid = psi0.grid
    ham_full = model.full()
    t_ref = schedule[-1]

    psi = spectral_filter(psi0, ham_full, window, sharpness=sharpness,
                          target_ripple=filter_ripple,
                          transition_fraction=filter_transition)
    psi = deflate_against(psi, deflate_eigenvectors)
    filtered_norm = psi.norm()
    if filtered_norm <= 1e-7 * psi0.norm():
        zero_times = np.array(schedule)
        return TraceSeries(zero_times, np.zeros_like(zero_times), "completeness_defect",
                           metadata={"filtered_norm": filtered_norm,
                                     "window": tuple(window), "dt": dt})

    forward = _snapshots(psi.values, _Stepper(GridOperator(ham_full, grid), dt), 0.0, schedule,
                         boundary_limit)
    scale = float(np.sum(np.abs(psi.values) ** 2))
    channel_norms = {}
    channel_paths = {}
    for a in (ClusterId.PHOTON_FREE, ClusterId.ELECTRON_FREE, ClusterId.PAIR_FREE):
        g = channel_cutoff(a, t_ref, cutoffs, grid, convention=convention) * forward[t_ref]
        channel_norms[str(a)] = float(
            np.sqrt(grid.measure * np.sum(np.abs(g) ** 2)))
        # marching backward through the schedule gives e^{-i tau H_a} phi_a
        # directly; off-channel slivers are tiny, so the breach guard runs
        # against the filtered state's scale rather than each sliver's own
        channel_paths[a] = _snapshots(g, _Stepper(GridOperator(model.truncated(a), grid), -dt),
                                      t_ref, reversed(schedule), boundary_limit,
                                      reference=scale)
    defects = []
    for t in schedule:
        total = np.zeros(grid.shape, dtype=np.complex128)
        for a in channel_paths:
            total = total + channel_paths[a][t]
        defects.append(float(
            np.sqrt(grid.measure * np.sum(np.abs(forward[t] - total) ** 2))))
    meta = {"filtered_norm": filtered_norm, "window": tuple(window), "dt": dt,
            "t_ref": t_ref, "deflated": len(tuple(deflate_eigenvectors))}
    meta.update({f"channel_norm_{k}": v for k, v in channel_norms.items()})
    return TraceSeries(np.array(schedule), np.array(defects), "completeness_defect",
                       metadata=meta)
