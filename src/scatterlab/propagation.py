"""Strang-split time evolution and the dynamical estimates built on it.

Both split factors are exact complex phases on the lattice, so each step is
unitary to roundoff; accuracy in dt is second order.  The step is
:class:`~scatterlab.operators._Stepper` with z = i dt, or z = -i dt for a
backward march.  The dynamical experiments (local decay, minimal velocity,
channel cutoffs, approximate wave operators, completeness defect) are
compositions of evolution, spectral filtering, and smoothed position cutoffs.
Every run steps through one loop, :func:`_march`; the channel experiments
share one construction, :func:`_filtered_forward` (one filter, one march
under H) and :func:`_cut_and_back` (one cut, one march under H_a).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clusters import CHART, TWO_CLUSTERS, ClusterId, require_two_cluster
from .errors import BoundaryBreachError, GridError, HypothesisError, SpectralWindowError
from .lattice import GridSpec, WaveFunction
from .model import ThreeBodyModel
from .operators import (GridOperator, HamiltonianSpec, _Stepper, apply_hamiltonian,
                        coordinate_field)
from .spectral import ThresholdTable, deflate_against, distance_to_threshold, spectral_filter

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


def require_time_step(dt: float) -> None:
    """Raise :class:`GridError` unless ``dt`` is a finite positive time step."""
    if not 0.0 < dt < np.inf:
        raise GridError(f"dt must be finite and positive, got {dt}")


def require_horizon(T: float) -> None:
    """Raise :class:`GridError` unless ``T`` is a finite horizon T >= 0."""
    if not 0.0 <= T < np.inf:
        raise GridError(f"need a finite horizon T >= 0, got {T}")


def require_finite_times(times) -> None:
    """Raise :class:`GridError` unless every time in ``times`` is finite."""
    if not np.all(np.isfinite(times)):
        raise GridError(f"times must be finite, got {list(times)}")


def require_decay_weight(mu: float) -> None:
    """Raise :class:`HypothesisError` unless the local decay weight <X>^(-mu) has mu > 1/2."""
    if not mu > 0.5:
        raise HypothesisError("local decay weight needs mu > 1/2")


@dataclass(frozen=True)
class PropagatorSpec:
    """Strang-split propagator parameters for a fixed Hamiltonian."""

    ham: HamiltonianSpec
    dt: float
    steps_per_sample: int = 1

    def __post_init__(self):
        require_time_step(self.dt)
        if self.steps_per_sample < 1:
            raise GridError("steps_per_sample must be >= 1")


def _steps_for(duration: float, dt: float) -> int:
    steps = int(round(duration / dt))
    if abs(steps * dt - duration) > 1e-9 * max(1.0, abs(duration)):
        raise GridError(f"duration {duration} is not a multiple of dt = {dt}")
    return steps


def _blocks(start: float, times, dt: float) -> list[int]:
    """Steps of dt from ``start`` through each of the monotone ``times`` in turn;
    :class:`GridError` unless every block is a whole number of steps."""
    return [_steps_for(abs(t - prev), dt) for prev, t in zip([start, *times], times)]


def horizon_steps(T: float, dt: float) -> int:
    """Steps of dt to the horizon T; :class:`GridError` unless T is finite, >= 0
    and a whole number of steps."""
    require_horizon(T)
    return _steps_for(T, dt)


def _sample_times(T: float, steps_per_sample: int, dt: float) -> list[float]:
    """Times ``e dt`` after every ``steps_per_sample`` steps of dt and at T."""
    steps = horizon_steps(T, dt)
    ends = [*range(steps_per_sample, steps, steps_per_sample), steps] if steps else []
    return [end * dt for end in ends]


def velocity_sample_times(T: float, sample_interval: float, dt: float) -> list[float]:
    """The minimal-velocity samples 1, 1 + ``sample_interval``, ... up to T >= 1,
    each march block checked to be a whole number of steps of dt."""
    require_finite_times((T,))
    if not T >= 1.0:
        raise HypothesisError(f"the minimal velocity trace runs over [1, T]; T = {T} < 1")
    if not 0.0 < sample_interval < np.inf:
        raise GridError(f"sample_interval must be finite and positive, got {sample_interval}")
    times = [1.0]
    while times[-1] + sample_interval <= T + 1e-9:
        times.append(round(times[-1] + sample_interval, 9))
    _blocks(0.0, times, dt)
    return times


def channel_schedule(times, dt: float) -> list[float]:
    """The channel construction's ``times``, ascending, checked before any filter.

    Each time must be finite, distinct and >= 1, where the channel cutoffs are
    defined, and every march the construction makes, forward through the
    times and back from each of them, a whole number of steps of dt.
    """
    require_time_step(dt)
    require_finite_times(times)
    times = sorted(float(t) for t in np.atleast_1d(times))
    if not times or times[0] < 1.0:
        raise HypothesisError("schedule times must be >= 1")
    if np.any(np.diff(times) <= 0):
        raise GridError("trace times must be strictly increasing")
    _blocks(0.0, times, dt)
    for t in times:
        _steps_for(t, dt)
    return times


def _march(values: np.ndarray, stepper: _Stepper, start: float, times,
           boundary_limit: float, sample, reference: float | None = None) -> np.ndarray:
    """The one stepping loop: from ``start`` through the monotone list ``times``.

    Each block takes the steps of |z| that :func:`_blocks` counts; every
    caller counts them before it filters or steps, so a bad time fails early.
    After each block ``sample(t, values)`` runs, then the breach guard raises
    :class:`BoundaryBreachError` if the mass in the outer tenth of the box
    exceeds ``boundary_limit`` times ``reference``, a squared-norm scale: by
    default the initial state's, so runs on near-annihilated states (empty
    windows) do not trip on their own ripple.  Returns the final amplitudes.
    """
    blocks = _blocks(start, times, abs(stepper.z))
    shell = stepper.grid.shell_mask(BOUNDARY_SHELL_FRACTION)
    if reference is None:
        reference = float(np.sum(np.abs(values) ** 2))
    for steps, t in zip(blocks, times):
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


def _unit_filtered(psi0: WaveFunction, ham: HamiltonianSpec, window,
                   filter_transition: float, skip_filter: bool = False) -> WaveFunction:
    """``psi0`` filtered into ``window`` (unless ``skip_filter``), normalized."""
    psi = psi0 if skip_filter else spectral_filter(
        psi0, ham, window, transition_fraction=filter_transition)
    nrm = psi.norm()
    if nrm < 1e-12:
        raise SpectralWindowError("filtered state vanished; window misses the spectrum")
    return psi.scaled(1.0 / nrm)


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
    sample_times = _sample_times(T, prop.steps_per_sample, prop.dt)
    grid = wf.grid
    op = GridOperator(prop.ham, grid)
    stepper = _Stepper(op, 1j * prop.dt)
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
        values = _march(wf.values, stepper, 0.0, sample_times, boundary_limit, record)
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
    channel cutoffs use; the smoothed step is (1 - tanh((u - threshold)/scale))/2
    with scale a fixed fraction of the threshold.
    """

    delta: float
    eps: float
    smoothing_fraction: float = 0.1

    def __post_init__(self):
        if not (self.delta > self.eps > 0):
            raise HypothesisError("need delta > eps > 0")
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


def channel_cutoff(a: ClusterId, t: float, cutoffs: CutoffSpec, grid: GridSpec) -> np.ndarray:
    """Channel cutoff F((x^a)^2 / t^(2-eps) < delta') as a field on the grid.

    The cut acts on the internal coordinate x^a of the cluster, read from
    the cluster chart, and does not depend on the external coordinate x_a.
    """
    require_two_cluster(a)
    if grid.particles != 2:
        raise GridError("channel cutoffs live on the two-particle grid")
    if t < 1.0:
        raise HypothesisError("channel cutoffs are defined for t >= 1")
    coord = coordinate_field(grid, CHART[a][0][0])
    u = coord ** 2 / t ** (2.0 - cutoffs.eps)
    dp = cutoffs.delta_prime
    return smoothed_step_below(u, dp, cutoffs.smoothing_fraction * dp)


def local_decay_trace(psi0: WaveFunction, ham: HamiltonianSpec, window, mu: float,
                      T: float, dt: float, table: ThresholdTable, known_eigenvalues=(),
                      filter_transition: float = 0.1,
                      boundary_limit: float = DEFAULT_BOUNDARY_LIMIT) -> TraceSeries:
    """Cumulative weighted-decay integral I(t) for the filtered evolution.

    Filters ``psi0`` into the window and traces the trapezoid cumulative of
    ||<X>^(-mu) psi(t)||^2, sampled every 0.25 time units (or every step if
    dt is longer).  The saturation ratio I(T)/I(T/2) lands in the metadata;
    bounded ratios signal time-integrability, an eigenstate in the window
    drives the ratio to 2.  The window must hold no threshold of ``table``
    and none of the ``known_eigenvalues``.
    """
    require_time_step(dt)
    steps_per_sample = max(1, int(round(0.25 / dt)))
    sample_times = _sample_times(T, steps_per_sample, dt)
    require_decay_weight(mu)
    table.require_clear(window)
    for lam in known_eigenvalues:
        if window[0] <= lam <= window[1]:
            raise SpectralWindowError(
                f"window {tuple(window)} contains the eigenvalue {lam:.6f}; "
                "local decay needs a window in the continuous spectrum")
    grid = psi0.grid
    psi = _unit_filtered(psi0, ham, window, filter_transition)

    weight_sq = (1.0 + grid.radius_sq()) ** (-mu)
    stepper = _Stepper(GridOperator(ham, grid), 1j * dt)
    times, w = [], []

    def sample(t, values):
        times.append(t)
        w.append(float(grid.measure * np.sum(weight_sq * np.abs(values) ** 2)))

    sample(0.0, psi.values)
    _march(psi.values, stepper, 0.0, sample_times, boundary_limit, sample)
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
                           cutoffs: CutoffSpec, T: float, dt: float, table: ThresholdTable,
                           sample_interval: float = 1.0, skip_filter: bool = False,
                           filter_transition: float = 0.1,
                           boundary_limit: float = DEFAULT_BOUNDARY_LIMIT) -> TraceSeries:
    """Norm of the evolved filtered state inside the shrinking region X^2 < delta t^(2-eps).

    The window must hold no threshold of ``table``; the commutator constant
    theta is then d(E) at its bottom edge, where d is smallest, and delta < theta.
    The trace samples every ``sample_interval`` over t in [1, T], so T >= 1.
    """
    require_time_step(dt)
    sample_times = velocity_sample_times(T, sample_interval, dt)
    table.require_clear(window)
    theta = distance_to_threshold(window[0], table)
    if cutoffs.delta >= theta:
        raise HypothesisError(
            f"delta = {cutoffs.delta} must stay below the commutator constant "
            f"theta = {theta} for the window")
    grid = psi0.grid
    psi = _unit_filtered(psi0, ham, window, filter_transition, skip_filter)
    vals = []

    def sample(t, values):
        F = shrinking_region_field(grid, t, cutoffs.delta, cutoffs.eps,
                                   cutoffs.smoothing_fraction)
        vals.append(float(np.sqrt(grid.measure * np.sum(F ** 2 * np.abs(values) ** 2))))

    _march(psi.values, _Stepper(GridOperator(ham, grid), 1j * dt), 0.0, sample_times,
           boundary_limit, sample)
    return TraceSeries(np.array(sample_times), np.array(vals), "minimal_velocity_norm",
                       metadata={"delta": cutoffs.delta, "eps": cutoffs.eps,
                                 "theta": theta, "window": tuple(window), "dt": dt})


def _filtered_forward(psi0: WaveFunction, model: ThreeBodyModel, window, times, dt: float,
                      table: ThresholdTable, filter_ripple: float,
                      filter_transition: float, boundary_limit: float,
                      deflate_eigenvectors=()) -> tuple[WaveFunction, dict | None]:
    """``(psi, states)``: after the checks, ``psi`` = E_window(H) psi0, deflated,
    and ``states[t]`` = e^{-itH} psi at the monotone ``times``, from one march.
    ``states`` is None when ``psi`` is at most 1e-7 ||psi0||: the window misses
    the spectrum, and evolving ripple would only propagate roundoff."""
    channel_schedule(times, dt)
    if not window[1] < 0:
        raise SpectralWindowError("the channel construction runs at negative energies")
    table.require_clear(window)
    ham_full = model.full()
    psi = spectral_filter(psi0, ham_full, window, target_ripple=filter_ripple,
                          transition_fraction=filter_transition)
    psi = deflate_against(psi, deflate_eigenvectors)
    if psi.norm() <= 1e-7 * psi0.norm():
        return psi, None
    states = {}
    _march(psi.values, _Stepper(GridOperator(ham_full, psi0.grid), 1j * dt), 0.0, times,
           boundary_limit, states.__setitem__)
    return psi, states


def _cut_and_back(a: ClusterId, t: float, state: np.ndarray, psi: WaveFunction,
                  model: ThreeBodyModel, cutoffs: CutoffSpec, dt: float, times,
                  boundary_limit: float) -> dict:
    """e^{-i(s - t) H_a} F_a(t) ``state`` at the monotone ``times`` s, from one march.

    The breach guard runs against the filtered state ``psi``'s squared norm,
    so tiny off-channel slivers are judged by what they contribute.
    """
    states = {}
    _march(channel_cutoff(a, t, cutoffs, psi.grid) * state,
           _Stepper(GridOperator(model.truncated(a), psi.grid), -1j * dt), t, times,
           boundary_limit, states.__setitem__, float(np.sum(np.abs(psi.values) ** 2)))
    return states


def _approximants(a, psi0, model, window, cutoffs, schedule, dt, table, filter_ripple,
                  filter_transition, boundary_limit) -> list[WaveFunction]:
    """phi_a(t) at each time of the ascending ``schedule``, or the vanished filtered state."""
    require_two_cluster(a)
    psi, forward = _filtered_forward(psi0, model, window, schedule, dt, table, filter_ripple,
                                     filter_transition, boundary_limit)
    if forward is None:
        return [psi] * len(schedule)
    return [WaveFunction(psi.grid, _cut_and_back(a, t, forward[t], psi, model, cutoffs, dt,
                                                 [0.0], boundary_limit)[0.0])
            for t in schedule]


def wave_operator_approx(a: ClusterId, psi0: WaveFunction, model: ThreeBodyModel,
                         window, cutoffs: CutoffSpec, t: float, dt: float,
                         table: ThresholdTable, filter_ripple: float = 1e-6,
                         filter_transition: float = 0.1,
                         boundary_limit: float = DEFAULT_BOUNDARY_LIMIT) -> WaveFunction:
    """Channel-a approximant: filter, evolve to t under H, cut, evolve back under H_a.

    Realizes e^{+i H_a t} F_a e^{-i H t} E_window(H) psi0 at one time, with
    F_a the channel cutoff on the internal coordinate of ``a``: the path of
    :func:`wave_operator_cauchy` on the schedule ``[t]``.  The window must
    be negative and hold no threshold of ``table``.  An empty window
    returns the ripple-level filtered state unevolved.
    """
    return _approximants(a, psi0, model, window, cutoffs, [t], dt, table, filter_ripple,
                         filter_transition, boundary_limit)[0]


def wave_operator_cauchy(a: ClusterId, psi0: WaveFunction, model: ThreeBodyModel,
                         window, cutoffs: CutoffSpec, schedule, dt: float,
                         table: ThresholdTable, filter_transition: float = 0.1,
                         boundary_limit: float = DEFAULT_BOUNDARY_LIMIT) -> TraceSeries:
    """Stabilization of the channel approximants along a time schedule.

    Reports ||phi_a(t_{j+1}) - phi_a(t_j)|| for consecutive schedule times;
    decreasing differences are the numerical footprint of the existence of
    the channel wave operators.  One filter (ripple 1e-6) and one forward
    march serve every time; each phi_a(t) is bit for bit
    :func:`wave_operator_approx` at t, with the same window checks.
    """
    schedule = channel_schedule(schedule, dt)
    if len(schedule) < 2:
        raise HypothesisError("the stabilization trace needs at least two times")
    phis = _approximants(a, psi0, model, window, cutoffs, schedule, dt, table, 1e-6,
                         filter_transition, boundary_limit)
    diffs = [(phis[j + 1] - phis[j]).norm() for j in range(len(schedule) - 1)]
    return TraceSeries(np.array(schedule[1:]), np.array(diffs),
                       "wave_operator_stabilization",
                       metadata={"cluster": str(a), "window": tuple(window), "dt": dt})


def completeness_defect(psi0: WaveFunction, model: ThreeBodyModel, window,
                        cutoffs: CutoffSpec, schedule, dt: float,
                        table: ThresholdTable, deflate_eigenvectors=(),
                        filter_ripple: float = 1e-6, filter_transition: float = 0.1,
                        boundary_limit: float = DEFAULT_BOUNDARY_LIMIT) -> TraceSeries:
    """Defect || e^{-itH} psi - sum_a e^{-itH_a} phi_a || along a time schedule.

    The channel states phi_a come from the approximate wave operators at the
    largest scheduled time (the best approximants), then evolve freely in
    their channels.  ``deflate_eigenvectors`` removes bound-state components
    from the filtered initial state first.  The window must be negative and
    hold no threshold of ``table``.
    """
    schedule = channel_schedule(schedule, dt)
    psi, forward = _filtered_forward(psi0, model, window, schedule, dt, table, filter_ripple,
                                     filter_transition, boundary_limit, deflate_eigenvectors)
    filtered_norm = psi.norm()
    if forward is None:
        return TraceSeries(np.array(schedule), np.zeros(len(schedule)), "completeness_defect",
                           metadata={"filtered_norm": filtered_norm,
                                     "window": tuple(window), "dt": dt})
    t_ref = schedule[-1]
    # marching backward through the schedule gives e^{-i tau H_a} phi_a directly;
    # its first state, at t_ref, is the cut state itself
    paths = {a: _cut_and_back(a, t_ref, forward[t_ref], psi, model, cutoffs, dt,
                              schedule[::-1], boundary_limit) for a in TWO_CLUSTERS}
    defects = [WaveFunction(psi.grid, forward[t] - sum(p[t] for p in paths.values())).norm()
               for t in schedule]
    meta = {"filtered_norm": filtered_norm, "window": tuple(window), "dt": dt,
            "t_ref": t_ref, "deflated": len(tuple(deflate_eigenvectors))}
    meta.update({f"channel_norm_{a!s}": WaveFunction(psi.grid, p[t_ref]).norm()
                 for a, p in paths.items()})
    return TraceSeries(np.array(schedule), np.array(defects), "completeness_defect",
                       metadata=meta)
