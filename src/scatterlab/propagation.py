"""Strang-split time evolution and the dynamical estimates built on it.

Both split factors are exact complex phases on the lattice, so each step is
unitary to roundoff; accuracy in dt is second order.  The step is
:class:`~scatterlab.operators._Stepper` with z = i dt, or z = -i dt for a
backward march.  The dynamical experiments (local decay, minimal velocity,
channel cutoffs, completeness defect) are compositions of evolution, spectral
filtering, and smoothed position cutoffs.  Every run samples at the whole step
marks of one :class:`Schedule` and steps through one loop, :func:`_march`; the
channel decomposition is built from :func:`_filtered_forward` (one filter, one
march under H) and :func:`_cut_and_back` (one cut, one march under H_a per
channel).
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


def require_sample_steps(every) -> None:
    """Raise :class:`GridError` unless ``every`` is a whole number of steps >= 1."""
    if not (isinstance(every, (int, np.integer)) and every >= 1):
        raise GridError(f"steps_per_sample must be an integer >= 1, got {every}")


def require_boundary_limit(limit: float) -> None:
    """Raise :class:`GridError` unless the breach guard's ``limit`` is a mass
    fraction in (0, 1]; a NaN limit would switch the guard off."""
    if not 0.0 < limit <= 1.0:
        raise GridError(f"boundary_limit must lie in (0, 1], got {limit}")


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
        require_sample_steps(self.steps_per_sample)


def _steps_for(duration: float, dt: float) -> int:
    require_time_step(dt)
    steps = int(round(duration / dt))
    if abs(steps * dt - duration) > 1e-9 * max(1.0, abs(duration)):
        raise GridError(f"duration {duration} is not a multiple of dt = {dt}")
    return steps


@dataclass(frozen=True)
class Schedule:
    """Samples at whole step marks m, strictly ascending from 1, at times m dt.

    A run marches from step 0 through the marks.  The constructors are the one
    place a float time becomes steps, one :func:`_steps_for` per block, so a bad
    time fails before any filter or step, and no sample loop runs on floats.
    """

    dt: float
    marks: tuple[int, ...]

    def __post_init__(self):
        require_time_step(self.dt)
        blocks = np.diff((0, *self.marks))
        if blocks.dtype.kind not in "iu" or np.any(blocks < 1):
            raise GridError(f"schedule marks must ascend in whole steps from 1, got {self.marks}")
        object.__setattr__(self, "marks", tuple(map(int, self.marks)))

    @property
    def times(self) -> list[float]:
        return [m * self.dt for m in self.marks]

    @classmethod
    def horizon(cls, T: float, dt: float, every: int) -> Schedule:
        """A sample after every ``every`` steps and at the finite horizon T >= 0."""
        require_sample_steps(every)
        if not 0.0 <= T < np.inf:
            raise GridError(f"need a finite horizon T >= 0, got {T}")
        steps = _steps_for(T, dt)
        return cls(dt, (*range(every, steps, every), steps) if steps else ())

    @classmethod
    def velocity(cls, T: float, interval: float, dt: float) -> Schedule:
        """The minimal-velocity samples 1, 1 + ``interval``, ... up to T >= 1."""
        if not np.isfinite(T):
            raise GridError(f"times must be finite, got {[T]}")
        if not T >= 1.0:
            raise HypothesisError(f"the minimal velocity trace runs over [1, T]; T = {T} < 1")
        if not 0.0 < interval < np.inf:
            raise GridError(f"sample_interval must be finite and positive, got {interval}")
        every = _steps_for(interval, dt)
        if every < 1:
            raise GridError(f"sample_interval {interval} is shorter than dt = {dt}")
        return cls(dt, tuple(range(_steps_for(1.0, dt), int((T + 1e-9) / dt) + 1, every)))

    @classmethod
    def channel(cls, times, dt: float) -> Schedule:
        """The channel construction's ``times``, ascending: each finite, distinct
        and >= 1, where the channel cutoffs are defined."""
        times = sorted(map(float, np.atleast_1d(times)))
        if not np.all(np.isfinite(times)):
            raise GridError(f"times must be finite, got {times}")
        if not times or times[0] < 1.0:
            raise HypothesisError("schedule times must be >= 1")
        if np.any(np.diff(times) <= 0):
            raise GridError("trace times must be strictly increasing")
        return cls(dt, tuple(np.cumsum([_steps_for(t - s, dt)
                                        for s, t in zip([0.0, *times], times)])))


def decay_schedule(T: float, dt: float) -> Schedule:
    """Local decay's samples, every 0.25 time units (or every step if dt is
    longer) and at T; :class:`GridError` unless T/2 is one, where I(T/2) is read."""
    require_time_step(dt)
    schedule = Schedule.horizon(T, dt, max(1, int(round(0.25 / dt))))
    if not schedule.marks or schedule.marks[-1] / 2 not in schedule.marks:
        raise GridError(f"T/2 = {T / 2} is no sample time of the local decay trace")
    return schedule


def _march(values: np.ndarray, stepper: _Stepper, marks, boundary_limit: float, sample,
           reference: float | None = None, start: int = 0) -> np.ndarray:
    """The one stepping loop: from step ``start`` through a :class:`Schedule`'s ``marks``.

    Each block takes |mark - previous| steps of z, forward or backward as z
    says.  After each block ``sample(mark, values)`` runs, then the breach
    guard raises :class:`BoundaryBreachError` if the mass in the outer tenth
    of the box exceeds ``boundary_limit`` times ``reference``, a squared-norm
    scale: by default the initial state's, so runs on near-annihilated states
    (empty windows) do not trip on their own ripple.  Returns the final amplitudes.
    """
    shell = stepper.grid.shell_mask(BOUNDARY_SHELL_FRACTION)
    if reference is None:
        reference = float(np.sum(np.abs(values) ** 2))
    for prev, mark in zip((start, *marks), marks):
        for _ in range(abs(mark - prev)):
            values = stepper.step(values)
        sample(mark, values)
        bmass = float(np.sum(np.abs(values[shell]) ** 2) / reference) if reference else 0.0
        if bmass > boundary_limit:
            t = mark * abs(stepper.z)
            raise BoundaryBreachError(
                f"boundary mass {bmass:.3e} exceeded {boundary_limit:.1e} at t = {t}", time=t)
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
    schedule = Schedule.horizon(T, prop.dt, prop.steps_per_sample)
    require_boundary_limit(boundary_limit)
    grid = wf.grid
    op = GridOperator(prop.ham, grid)
    stepper = _Stepper(op, 1j * prop.dt)
    mesh = grid.position_mesh()

    times = []
    records: dict[str, list[float]] = {name: [] for name in observables}

    def record(mark, values):
        times.append(mark * prop.dt)
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

    record(0, wf.values)
    try:
        values = _march(wf.values, stepper, schedule.marks, boundary_limit, record)
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
    ||<X>^(-mu) psi(t)||^2 on :func:`decay_schedule`, every 0.25 time units (or
    every step if dt is longer).  The saturation ratio I(T)/I(T/2) lands in the
    metadata, with I(T/2) read at half the steps, so T/2 must be a sample;
    bounded ratios signal time-integrability, an eigenstate in the window drives
    the ratio to 2.  The window must hold no threshold of ``table`` and none of
    the ``known_eigenvalues``.
    """
    schedule = decay_schedule(T, dt)
    require_boundary_limit(boundary_limit)
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
    w = []

    def sample(mark, values):
        w.append(float(grid.measure * np.sum(weight_sq * np.abs(values) ** 2)))

    sample(0, psi.values)
    _march(psi.values, stepper, schedule.marks, boundary_limit, sample)
    times, w = np.array([0.0, *schedule.times]), np.array(w)
    integral = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(times))])
    series = TraceSeries(times, integral, "local_decay_integral",
                         metadata={"mu": mu, "window": tuple(window), "dt": dt})
    half = integral[1 + schedule.marks.index(schedule.marks[-1] // 2)]
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
    schedule = Schedule.velocity(T, sample_interval, dt)
    require_boundary_limit(boundary_limit)
    table.require_clear(window)
    theta = distance_to_threshold(window[0], table)
    if cutoffs.delta >= theta:
        raise HypothesisError(
            f"delta = {cutoffs.delta} must stay below the commutator constant "
            f"theta = {theta} for the window")
    grid = psi0.grid
    psi = _unit_filtered(psi0, ham, window, filter_transition, skip_filter)
    vals = []

    def sample(mark, values):
        F = shrinking_region_field(grid, mark * dt, cutoffs.delta, cutoffs.eps,
                                   cutoffs.smoothing_fraction)
        vals.append(float(np.sqrt(grid.measure * np.sum(F ** 2 * np.abs(values) ** 2))))

    _march(psi.values, _Stepper(GridOperator(ham, grid), 1j * dt), schedule.marks,
           boundary_limit, sample)
    return TraceSeries(np.array(schedule.times), np.array(vals), "minimal_velocity_norm",
                       metadata={"delta": cutoffs.delta, "eps": cutoffs.eps,
                                 "theta": theta, "window": tuple(window), "dt": dt})


def _filtered_forward(psi0: WaveFunction, model: ThreeBodyModel, window, schedule: Schedule,
                      table: ThresholdTable, filter_ripple: float,
                      filter_transition: float, boundary_limit: float,
                      deflate_eigenvectors=()) -> tuple[WaveFunction, dict | None]:
    """``(psi, states)``: after the checks, ``psi`` = E_window(H) psi0, deflated, and
    ``states[m]`` = e^{-itH} psi at t = m dt for each mark m of ``schedule``, from one
    march.  ``states`` is None when ``psi`` is at most 1e-7 ||psi0||: the window misses
    the spectrum, and evolving ripple would only propagate roundoff."""
    require_boundary_limit(boundary_limit)
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
    _march(psi.values, _Stepper(GridOperator(ham_full, psi0.grid), 1j * schedule.dt),
           schedule.marks, boundary_limit, states.__setitem__)
    return psi, states


def _cut_and_back(a: ClusterId, mark: int, state: np.ndarray, psi: WaveFunction,
                  model: ThreeBodyModel, cutoffs: CutoffSpec, dt: float, marks,
                  boundary_limit: float) -> dict:
    """{m: e^{-i(s - t) H_a} F_a(t) ``state``} at s = m dt, m in ``marks``, t = ``mark`` dt.

    The breach guard runs against the filtered state ``psi``'s squared norm,
    so tiny off-channel slivers are judged by what they contribute.
    """
    states = {}
    _march(channel_cutoff(a, mark * dt, cutoffs, psi.grid) * state,
           _Stepper(GridOperator(model.truncated(a), psi.grid), -1j * dt), marks,
           boundary_limit, states.__setitem__, float(np.sum(np.abs(psi.values) ** 2)), mark)
    return states


def completeness_defect(psi0: WaveFunction, model: ThreeBodyModel, window,
                        cutoffs: CutoffSpec, schedule, dt: float,
                        table: ThresholdTable, deflate_eigenvectors=(),
                        filter_ripple: float = 1e-6, filter_transition: float = 0.1,
                        boundary_limit: float = DEFAULT_BOUNDARY_LIMIT) -> TraceSeries:
    """Defect || e^{-itH} psi - sum_a e^{-itH_a} phi_a || along a time schedule.

    The channel states phi_a = e^{itH_a} F_a(t) e^{-itH} psi are cut at the
    largest scheduled time t (the best approximants), then evolve freely in
    their channels.  ``deflate_eigenvectors`` removes bound-state components
    from the filtered initial state first.  The window must be negative and
    hold no threshold of ``table``.
    """
    schedule = Schedule.channel(schedule, dt)
    psi, forward = _filtered_forward(psi0, model, window, schedule, table, filter_ripple,
                                     filter_transition, boundary_limit, deflate_eigenvectors)
    filtered_norm, times = psi.norm(), np.array(schedule.times)
    if forward is None:
        return TraceSeries(times, np.zeros(times.size), "completeness_defect",
                           metadata={"filtered_norm": filtered_norm,
                                     "window": tuple(window), "dt": dt})
    ref = schedule.marks[-1]
    # marching backward through the schedule gives e^{-i tau H_a} phi_a directly;
    # its first state, at t_ref, is the cut state itself
    paths = {a: _cut_and_back(a, ref, forward[ref], psi, model, cutoffs, dt,
                              schedule.marks[::-1], boundary_limit) for a in TWO_CLUSTERS}
    defects = [WaveFunction(psi.grid, forward[m] - sum(p[m] for p in paths.values())).norm()
               for m in schedule.marks]
    meta = {"filtered_norm": filtered_norm, "window": tuple(window), "dt": dt,
            "t_ref": ref * dt, "deflated": len(tuple(deflate_eigenvectors))}
    meta.update({f"channel_norm_{a!s}": WaveFunction(psi.grid, p[ref]).norm()
                 for a, p in paths.items()})
    return TraceSeries(times, np.array(defects), "completeness_defect", metadata=meta)
