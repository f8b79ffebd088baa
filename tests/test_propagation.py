import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from scatterlab import propagation
from scatterlab.clusters import TWO_CLUSTERS, ClusterId
from scatterlab.commutators import mourre_report
from scatterlab.errors import (
    BoundaryBreachError,
    GridError,
    HypothesisError,
    SpectralWindowError,
)
from scatterlab.experiments import free_threshold_table
from scatterlab.lattice import WaveFunction, gaussian_packet, make_grid
from scatterlab.model import default_model, free_model
from scatterlab.operators import (
    HamiltonianSpec,
    _Stepper,
    absolute_symbol,
    free_symbol,
    poschl_teller,
    quadratic_symbol,
)
from scatterlab.propagation import (
    DEFAULT_BOUNDARY_LIMIT,
    CutoffSpec,
    PropagatorSpec,
    Schedule,
    TraceSeries,
    channel_cutoff,
    completeness_defect,
    evolve,
    local_decay_trace,
    minimal_velocity_trace,
    shrinking_region_field,
)
from scatterlab.spectral import ThresholdTable, threshold_table


def test_norm_conservation():
    grid = make_grid(1, 256, 32.0)
    h = HamiltonianSpec(quadratic_symbol(1.0), ((poschl_teller(2.0, 1.0), "internal"),))
    psi = gaussian_packet(grid, 0.0, 0.5, 2.0)
    final, traces = evolve(psi, PropagatorSpec(h, dt=0.02), T=2.0)
    drift = np.abs(traces["norm"].values - 1.0)
    assert np.max(drift) <= 1e-10 * traces["norm"].times.size


def test_energy_drift_scales_quadratically():
    grid = make_grid(1, 256, 32.0)
    h = HamiltonianSpec(quadratic_symbol(1.0), ((poschl_teller(2.0, 1.0), "internal"),))

    def drift(dt):
        _, tr = evolve(gaussian_packet(grid, 0.0, 1.2, 2.5),
                       PropagatorSpec(h, dt=dt, steps_per_sample=int(0.2 / dt)), T=2.0)
        e = tr["energy"].values
        return np.max(np.abs(e - e[0]))

    ratio = drift(0.08) / drift(0.04)
    assert 3.2 <= ratio <= 4.8


def test_group_velocities():
    grid = make_grid(1, 512, 64.0)
    electron = HamiltonianSpec(quadratic_symbol(1.0), ())
    psi = gaussian_packet(grid, -25.0, 1.0, 8.0)
    _, tr = evolve(psi, PropagatorSpec(electron, dt=0.05, steps_per_sample=20), T=10.0,
                   observables=("center0",))
    t, c = tr["center0"].times, tr["center0"].values
    speed = np.polyfit(t, c, 1)[0]
    assert speed == pytest.approx(2.0, rel=0.02)

    photon = HamiltonianSpec(absolute_symbol(1.0), ())
    for k0 in (1.5, 3.0):
        psi = gaussian_packet(grid, -20.0, k0, 8.0)
        _, tr = evolve(psi, PropagatorSpec(photon, dt=0.05, steps_per_sample=20), T=10.0,
                       observables=("center0",))
        speed = np.polyfit(tr["center0"].times, tr["center0"].values, 1)[0]
        assert speed == pytest.approx(1.0, rel=0.02)


def test_boundary_breach_carries_partial_trace():
    grid = make_grid(1, 128, 8.0)
    h = HamiltonianSpec(quadratic_symbol(1.0), ())
    psi = gaussian_packet(grid, 0.0, 2.0, 1.0)
    with pytest.raises(BoundaryBreachError) as err:
        evolve(psi, PropagatorSpec(h, dt=0.05), T=10.0)
    assert err.value.time is not None
    assert "norm" in err.value.partial_traces
    assert err.value.partial_traces["norm"].times[-1] <= 10.0
    # the sample that breached is the last one on the partial trace
    assert err.value.partial_traces["norm"].times[-1] == err.value.time


def test_trace_series_validation():
    with pytest.raises(GridError):
        TraceSeries(np.array([0.0, 0.0]), np.array([1.0, 2.0]), "bad")
    with pytest.raises(GridError):
        TraceSeries(np.array([0.0, 1.0]), np.array([np.nan, 2.0]), "bad")


def test_shrinking_region_field_shape():
    grid = make_grid(2, 64, 16.0)
    f = shrinking_region_field(grid, t=1.0, delta=0.2, eps=0.1)
    X, Y = grid.position_mesh()
    inside = np.sqrt(X ** 2 + Y ** 2) < 0.2
    assert np.all(f[inside] > 0.9)
    outside = np.sqrt(X ** 2 + Y ** 2) > 2.0
    assert np.all(f[outside] < 0.05)
    with pytest.raises(HypothesisError):
        shrinking_region_field(grid, t=0.5, delta=0.2, eps=0.1)


def test_channel_cutoff_basic():
    grid = make_grid(2, 64, 16.0)
    cut = CutoffSpec(delta=0.3, eps=0.1)
    f = channel_cutoff(ClusterId.PHOTON_FREE, 1.0, cut, grid)
    X, Y = grid.position_mesh()
    assert np.all(f[np.abs(X) < 0.2] > 0.9)
    assert np.all(f[np.abs(X) > 2.0] < 0.05)
    with pytest.raises(HypothesisError):
        channel_cutoff(ClusterId.PHOTON_FREE, 0.2, cut, grid)


def test_channel_cutoffs_cover_single_channel_configuration():
    grid = make_grid(2, 128, 16.0)
    cut = CutoffSpec(delta=0.3, eps=0.1)
    t = 4.0
    fields = {a: channel_cutoff(a, t, cut, grid) for a in
              (ClusterId.PHOTON_FREE, ClusterId.ELECTRON_FREE, ClusterId.PAIR_FREE)}
    # deep in the photon-free channel: x small, y and x-y large
    i = np.argmin(np.abs(grid.positions() - 0.5))
    j = np.argmin(np.abs(grid.positions() - 12.0))
    assert fields[ClusterId.PHOTON_FREE][i, j] > 0.95
    assert fields[ClusterId.ELECTRON_FREE][i, j] < 0.05
    assert fields[ClusterId.PAIR_FREE][i, j] < 0.05


def test_channel_cutoff_overlap_shrinks():
    grid = make_grid(2, 128, 16.0)
    cut = CutoffSpec(delta=0.11, eps=0.01)
    t = 4.0
    fa = channel_cutoff(ClusterId.PHOTON_FREE, t, cut, grid)
    fb = channel_cutoff(ClusterId.ELECTRON_FREE, t, cut, grid)
    # both cuts keep coordinates below sqrt(0.1 * t^1.99) ~ 1.6; their product
    # is only appreciable near the origin corner
    overlap = np.max(fa * fb)
    assert overlap <= 1.0
    X, Y = grid.position_mesh()
    far = (np.abs(X) > 4) | (np.abs(Y) > 4)
    assert np.max((fa * fb)[far]) < 1e-3


def test_photon_free_cutoff_depends_on_x_alone():
    grid = make_grid(2, 64, 16.0)
    cut = CutoffSpec(delta=0.3, eps=0.1)
    field = channel_cutoff(ClusterId.PHOTON_FREE, 2.0, cut, grid)
    # (y)(x0) cuts on its internal coordinate x (axis 0), never on the external y
    assert np.array_equal(field, np.broadcast_to(field[:, :1], field.shape))
    assert field.max() - field.min() > 0.9


def test_minimal_velocity_requires_hypothesis():
    grid = make_grid(2, 64, 16.0)
    psi = gaussian_packet(grid, 0.0, (0.5, 0.5), 2.0)
    cut = CutoffSpec(delta=0.6, eps=0.1)
    with pytest.raises(HypothesisError):
        minimal_velocity_trace(psi, HamiltonianSpec(free_symbol(), ()), (0.5, 1.5),
                               cut, T=4.0, dt=0.05, table=free_threshold_table())
    # the shrinking-region cutoffs start at t = 1, so T < 1 has no sample to take
    with pytest.raises(HypothesisError, match="T = 0.5 < 1"):
        minimal_velocity_trace(psi, HamiltonianSpec(free_symbol(), ()), (0.5, 1.5),
                               CutoffSpec(delta=0.2, eps=0.1), T=0.5, dt=0.05,
                               table=free_threshold_table())


def _approximants(a, psi0, model, window, cutoffs, times, dt, table, filter_ripple=1e-6,
                  filter_transition=0.1, boundary_limit=DEFAULT_BOUNDARY_LIMIT):
    """Channel approximants phi_a(t) = e^{itH_a} F_a(t) e^{-itH} E_window(H) psi0 at
    each of ``times``, from the channel construction completeness_defect runs: its
    checks, one filter and one forward march, then a back-march to t = 0 from each
    cut.  An empty window gives the ripple-level filtered state unevolved."""
    schedule = Schedule.channel(times, dt)
    psi, forward = propagation._filtered_forward(psi0, model, window, schedule, table,
                                                 filter_ripple, filter_transition,
                                                 boundary_limit)
    if forward is None:
        return [psi] * len(schedule.marks)
    return [WaveFunction(psi.grid, propagation._cut_and_back(
                a, m, forward[m], psi, model, cutoffs, dt, [0], boundary_limit)[0])
            for m in schedule.marks]


def _stabilization(*args, **kwargs):
    """||phi_a(t_{j+1}) - phi_a(t_j)|| along the schedule: differences that
    decrease are the numerical footprint of the channel wave operator's existence."""
    phis = _approximants(*args, **kwargs)
    return np.array([(q - p).norm() for p, q in zip(phis, phis[1:])])


def test_wave_operator_empty_window_free_case():
    grid = make_grid(2, 128, 32.0)
    psi = gaussian_packet(grid, 0.0, (0.5, 0.5), 3.0)
    cut = CutoffSpec(delta=0.2, eps=0.05)
    phi = _approximants(ClusterId.PHOTON_FREE, psi, free_model(), (-0.8, -0.4), cut, (2.0,),
                        dt=0.05, table=free_threshold_table(), filter_ripple=1e-9)[0]
    assert phi.norm() <= 1e-7


def test_completeness_defect_norm_bound():
    # triangle sanity: defect never exceeds ||psi|| (1 + number of channels);
    # the box must hold the filter kernel (extent ~ 1/transition width)
    grid = make_grid(2, 256, 64.0)
    model = default_model()
    psi = gaussian_packet(grid, 0.0, (0.4, 0.4), 3.0)
    cut = CutoffSpec(delta=0.12, eps=0.02)
    # (-0.8, -0.6) holds the model's (xy)(0) threshold -0.6357, but the triangle
    # bound holds on any window, so the free table lets the construction run
    series = completeness_defect(psi, model, (-0.8, -0.6), cut, (2.0, 4.0), dt=0.05,
                                 table=free_threshold_table(), filter_transition=0.25,
                                 boundary_limit=1e-3)
    assert np.all(series.values <= 4.0 * max(series.metadata["filtered_norm"], 1e-30))


def test_wave_operator_requires_negative_window():
    grid = make_grid(2, 64, 16.0)
    psi = gaussian_packet(grid, 0.0, (0.5, 0.5), 2.0)
    cut = CutoffSpec(delta=0.2, eps=0.05)
    with pytest.raises(SpectralWindowError, match="runs at negative energies"):
        completeness_defect(psi, free_model(), (0.5, 1.5), cut, (2.0,), dt=0.05,
                            table=free_threshold_table())


def test_local_decay_window_preconditions():
    from scatterlab.errors import SpectralWindowError
    from scatterlab.spectral import ThresholdTable
    from scatterlab.clusters import TWO_CLUSTERS
    import numpy as np

    grid = make_grid(1, 128, 16.0)
    h = HamiltonianSpec(quadratic_symbol(1.0), ((poschl_teller(2.0, 1.0), "internal"),))
    psi = gaussian_packet(grid, 0.0, 0.8, 2.0)
    table = ThresholdTable({a: np.array([-1.0]) for a in TWO_CLUSTERS})
    with pytest.raises(SpectralWindowError):
        local_decay_trace(psi, h, (-1.2, -0.8), mu=0.6, T=1.0, dt=0.05, table=table)
    with pytest.raises(SpectralWindowError):
        local_decay_trace(psi, h, (0.4, 0.8), mu=0.6, T=1.0, dt=0.05, table=table,
                          known_eigenvalues=(0.5,))


def test_wave_operator_stabilization_trace():
    # the photon-escape approximants settle down along a dyadic schedule
    from scatterlab.experiments import dynamics_model, bound_ground_1d, product_state

    model = dynamics_model()
    table = threshold_table(model, make_grid(1, 256, 32.0))
    grid = make_grid(2, 256, 64.0)
    _, _, xg = bound_ground_1d(model, ClusterId.PHOTON_FREE, 256, 64.0)
    yp = gaussian_packet(make_grid(1, 256, 64.0), 4.0, 0.5, 5.0)
    psi0 = product_state(grid, xg.values, yp.values)
    series = _stabilization(ClusterId.PHOTON_FREE, psi0, model, (-0.7, -0.4),
                            CutoffSpec(delta=0.12, eps=0.02), (2.0, 4.0, 8.0, 16.0),
                            dt=0.05, table=table, filter_transition=0.25,
                            boundary_limit=1e-3)
    assert np.all(np.diff(series) < 0)


def test_one_forward_march_equals_one_march_per_time():
    # the trace filters and marches once; each approximant marches from t = 0 alone
    from scatterlab.experiments import dynamics_model, bound_ground_1d, product_state

    model = dynamics_model()
    table = threshold_table(model, make_grid(1, 256, 32.0))
    grid = make_grid(2, 128, 48.0)
    _, _, xg = bound_ground_1d(model, ClusterId.PHOTON_FREE, 128, 48.0)
    yp = gaussian_packet(make_grid(1, 128, 48.0), 4.0, 0.5, 4.0)
    psi0 = product_state(grid, xg.values, yp.values)
    args = (ClusterId.PHOTON_FREE, psi0, model, (-0.7, -0.4), CutoffSpec(delta=0.12, eps=0.02))
    kwargs = dict(dt=0.05, table=table, filter_transition=0.25, boundary_limit=1e-3)
    schedule = (2.0, 3.0, 4.0)
    series = _stabilization(*args, schedule, **kwargs)
    phis = [_approximants(*args, (t,), **kwargs)[0] for t in schedule]
    assert phis[0].norm() > 0.1
    assert np.array_equal(series, [(phis[j + 1] - phis[j]).norm() for j in range(2)])


def _refuse(*args, **kwargs):
    raise AssertionError("filtered or stepped before the arguments were checked")


@pytest.mark.parametrize("caller", ["mourre_report", "local_decay_trace",
                                    "minimal_velocity_trace", "wave_operator_approx",
                                    "wave_operator_cauchy", "completeness_defect"])
def test_every_window_caller_rejects_a_threshold(monkeypatch, caller):
    monkeypatch.setattr(_Stepper, "step", _refuse)
    monkeypatch.setattr(propagation, "spectral_filter", _refuse)
    table = ThresholdTable({a: np.array([-0.5]) for a in TWO_CLUSTERS})
    window = (-0.6, -0.3)              # holds -0.5; E = -0.4 is no threshold
    grid1, grid2 = make_grid(1, 64, 16.0), make_grid(2, 32, 16.0)
    psi1 = gaussian_packet(grid1, 0.0, 0.5, 2.0)
    psi2 = gaussian_packet(grid2, 0.0, (0.5, 0.5), 2.0)
    h1 = HamiltonianSpec(quadratic_symbol(1.0), ((poschl_teller(2.0, 1.0), "internal"),))
    model = default_model()
    cut = CutoffSpec(delta=0.2, eps=0.05)
    calls = {
        "mourre_report": lambda: mourre_report(-0.4, window, model, grid2, table, samples=1),
        "local_decay_trace": lambda: local_decay_trace(psi1, h1, window, mu=0.6, T=1.0,
                                                       dt=0.05, table=table),
        "minimal_velocity_trace": lambda: minimal_velocity_trace(
            psi2, model.full(), window, cut, T=2.0, dt=0.05, table=table),
        "wave_operator_approx": lambda: _approximants(
            ClusterId.PHOTON_FREE, psi2, model, window, cut, (2.0,), dt=0.05, table=table),
        "wave_operator_cauchy": lambda: _stabilization(
            ClusterId.PHOTON_FREE, psi2, model, window, cut, (2.0, 4.0), dt=0.05,
            table=table),
        "completeness_defect": lambda: completeness_defect(
            psi2, model, window, cut, (2.0, 4.0), dt=0.05, table=table),
    }
    with pytest.raises(SpectralWindowError, match="contains the threshold -0.5"):
        calls[caller]()


def test_require_clear_treats_the_window_as_closed():
    table = ThresholdTable({a: np.array([-0.5]) for a in TWO_CLUSTERS})
    table.require_clear((-0.45, -0.1))
    for window in ((-0.5, -0.4), (-0.7, -0.5), (-0.1, 0.0)):
        with pytest.raises(SpectralWindowError):
            table.require_clear(window)


@pytest.mark.parametrize("caller", ["evolve", "local_decay_trace", "minimal_velocity_trace"])
def test_every_stepping_caller_stops_at_the_boundary(caller):
    # a fast packet in a small box reaches the outer tenth within a few steps
    h = HamiltonianSpec(quadratic_symbol(1.0), ())
    grid1 = make_grid(1, 128, 8.0)
    psi1 = gaussian_packet(grid1, 0.0, 2.0, 1.0)
    runs = {
        "evolve": lambda: evolve(psi1, PropagatorSpec(h, dt=0.05), T=10.0),
        "local_decay_trace": lambda: local_decay_trace(psi1, h, (1.0, 8.0), mu=0.6,
                                                       T=10.0, dt=0.05,
                                                       table=free_threshold_table()),
        "minimal_velocity_trace": lambda: minimal_velocity_trace(
            gaussian_packet(make_grid(2, 64, 8.0), 0.0, (2.0, 2.0), 1.0),
            HamiltonianSpec(free_symbol(), ()), (0.5, 1.5), CutoffSpec(delta=0.2, eps=0.1),
            T=10.0, dt=0.05, table=free_threshold_table(), skip_filter=True),
    }
    with pytest.raises(BoundaryBreachError) as err:
        runs[caller]()
    assert 0.0 < err.value.time < 10.0


def _time_callers(dt=0.05, T=2.0, schedule=(2.0, 4.0), limit=DEFAULT_BOUNDARY_LIMIT):
    """Every stepping entry point on a small grid, each on a window its table
    clears, so that a bad time argument or boundary limit is the call's one fault.
    The wave-operator entries run the channel construction one cut at a time."""
    h = HamiltonianSpec(quadratic_symbol(1.0), ((poschl_teller(2.0, 1.0), "internal"),))
    psi1 = gaussian_packet(make_grid(1, 64, 16.0), 0.0, 0.5, 2.0)
    psi2 = gaussian_packet(make_grid(2, 32, 16.0), 0.0, (0.5, 0.5), 2.0)
    model, cut, window = default_model(), CutoffSpec(delta=0.2, eps=0.05), (-0.45, -0.15)
    table, free = threshold_table(model, make_grid(1, 64, 16.0)), free_threshold_table()
    return {
        "evolve": lambda: evolve(psi1, PropagatorSpec(h, dt=dt), T=T, boundary_limit=limit),
        "local_decay_trace": lambda: local_decay_trace(psi1, h, (0.5, 1.5), mu=0.6, T=T,
                                                       dt=dt, table=free, boundary_limit=limit),
        "minimal_velocity_trace": lambda: minimal_velocity_trace(
            psi2, HamiltonianSpec(free_symbol(), ()), (0.5, 1.5), cut, T=T, dt=dt, table=free,
            boundary_limit=limit),
        "completeness_defect": lambda: completeness_defect(psi2, model, window, cut, schedule,
                                                           dt=dt, table=table,
                                                           boundary_limit=limit),
        "wave_operator_approx": lambda: _approximants(
            ClusterId.PHOTON_FREE, psi2, model, window, cut, schedule[-1:], dt=dt,
            table=table, boundary_limit=limit),
        "wave_operator_cauchy": lambda: _stabilization(
            ClusterId.PHOTON_FREE, psi2, model, window, cut, schedule, dt=dt, table=table,
            boundary_limit=limit),
    }


@pytest.mark.parametrize("dt", [0.0, -0.05, np.nan], ids=["zero", "negative", "nan"])
@pytest.mark.parametrize("caller", ["evolve", "local_decay_trace", "minimal_velocity_trace",
                                    "completeness_defect", "wave_operator_approx",
                                    "wave_operator_cauchy"])
def test_every_stepping_caller_rejects_a_bad_time_step(monkeypatch, caller, dt):
    # a negative dt would march backward, zero divides and NaN never ends a block
    monkeypatch.setattr(_Stepper, "step", _refuse)
    monkeypatch.setattr(propagation, "spectral_filter", _refuse)
    with pytest.raises(GridError, match="dt must be finite and positive"):
        _time_callers(dt=dt)[caller]()


@pytest.mark.parametrize("T", [-1.0, np.inf, np.nan], ids=["negative", "inf", "nan"])
@pytest.mark.parametrize("caller", ["evolve", "local_decay_trace", "minimal_velocity_trace"])
def test_every_horizon_caller_rejects_a_bad_horizon(monkeypatch, caller, T):
    # an infinite horizon overflowed the step count or never ended the sample
    # loop; a negative one filtered and marched forward before failing.  The
    # filter refuses, so a missing check stops the minimal-velocity run early.
    monkeypatch.setattr(_Stepper, "step", _refuse)
    monkeypatch.setattr(propagation, "spectral_filter", _refuse)
    if caller != "minimal_velocity_trace":
        error, match = GridError, "need a finite horizon T >= 0"
    elif T < 0:
        error, match = HypothesisError, "T = -1.0 < 1"
    else:
        error, match = GridError, "times must be finite"
    with pytest.raises(error, match=match):
        _time_callers(T=T)[caller]()


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("caller", ["completeness_defect", "wave_operator_approx",
                                    "wave_operator_cauchy"])
def test_every_schedule_caller_rejects_a_time_that_is_not_finite(monkeypatch, caller, bad):
    monkeypatch.setattr(_Stepper, "step", _refuse)
    monkeypatch.setattr(propagation, "spectral_filter", _refuse)
    with pytest.raises(GridError, match="times must be finite"):
        _time_callers(schedule=(2.0, bad))[caller]()


@pytest.mark.parametrize("caller, times, error, match", [
    ("local_decay_trace", {"T": 2.01}, GridError, "not a multiple of dt"),
    ("completeness_defect", {"schedule": (2.0, 4.01)}, GridError, "not a multiple of dt"),
    ("wave_operator_approx", {"schedule": (2.01,)}, GridError, "not a multiple of dt"),
    ("wave_operator_cauchy", {"schedule": (2.0, 4.01)}, GridError, "not a multiple of dt"),
    ("completeness_defect", {"schedule": (0.5, 2.0)}, HypothesisError, "must be >= 1"),
    ("wave_operator_approx", {"schedule": (0.5,)}, HypothesisError, "must be >= 1"),
    ("wave_operator_cauchy", {"schedule": (0.5, 2.0)}, HypothesisError, "must be >= 1"),
    ("completeness_defect", {"schedule": (2.0, 2.0, 4.0)}, GridError, "strictly increasing"),
    ("wave_operator_cauchy", {"schedule": (2.0, 2.0, 4.0)}, GridError, "strictly increasing"),
    ("local_decay_trace", {"T": 0.0}, GridError, "T/2 = 0.0 is no sample time"),
    ("local_decay_trace", {"T": 0.25}, GridError, "T/2 = 0.125 is no sample time"),
    ("local_decay_trace", {"T": 1.1}, GridError, "T/2 = 0.55 is no sample time"),
    ("evolve", {"limit": np.nan}, GridError, "boundary_limit must lie in"),
    ("local_decay_trace", {"limit": np.nan}, GridError, "boundary_limit must lie in"),
    ("minimal_velocity_trace", {"limit": np.nan}, GridError, "boundary_limit must lie in"),
    ("completeness_defect", {"limit": np.nan}, GridError, "boundary_limit must lie in"),
    ("wave_operator_approx", {"limit": np.nan}, GridError, "boundary_limit must lie in"),
    ("wave_operator_cauchy", {"limit": np.nan}, GridError, "boundary_limit must lie in"),
    ("evolve", {"limit": 0.0}, GridError, "boundary_limit must lie in"),
    ("local_decay_trace", {"limit": -1e-6}, GridError, "boundary_limit must lie in"),
    ("completeness_defect", {"limit": 1.5}, GridError, "boundary_limit must lie in"),
], ids=["local-decay-off-dt", "completeness-off-dt", "approx-off-dt", "cauchy-off-dt",
        "completeness-early", "approx-early", "cauchy-early", "completeness-repeated",
        "cauchy-repeated", "local-decay-T0", "local-decay-half-off-sample",
        "local-decay-half-between-samples", "evolve-nan-limit", "local-decay-nan-limit",
        "min-velocity-nan-limit", "completeness-nan-limit", "approx-nan-limit",
        "cauchy-nan-limit", "evolve-zero-limit", "local-decay-negative-limit",
        "completeness-limit-above-one"])
def test_every_time_argument_is_checked_before_the_filter(monkeypatch, caller, times, error,
                                                          match):
    # each of these filtered, and some marched, before the time failed
    monkeypatch.setattr(_Stepper, "step", _refuse)
    monkeypatch.setattr(propagation, "spectral_filter", _refuse)
    with pytest.raises(error, match=match):
        _time_callers(**times)[caller]()


@pytest.mark.parametrize("interval, match", [
    (0.0, "finite and positive"), (-1.0, "finite and positive"), (np.inf, "finite and positive"),
    (np.nan, "finite and positive"), (0.33, "not a multiple of dt"),
], ids=["zero", "negative", "inf", "nan", "off-dt"])
def test_minimal_velocity_rejects_a_bad_sample_interval(monkeypatch, interval, match):
    # a sample interval <= 0 never ended the sample loop; one that dt does
    # not divide failed after the filter
    monkeypatch.setattr(_Stepper, "step", _refuse)
    monkeypatch.setattr(propagation, "spectral_filter", _refuse)
    psi = gaussian_packet(make_grid(2, 32, 16.0), 0.0, (0.5, 0.5), 2.0)
    with pytest.raises(GridError, match=match):
        minimal_velocity_trace(psi, HamiltonianSpec(free_symbol(), ()), (0.5, 1.5),
                               CutoffSpec(delta=0.2, eps=0.05), T=2.0, dt=0.05,
                               table=free_threshold_table(), sample_interval=interval)


@pytest.mark.parametrize("every", [2.5, np.nan, 0, -3], ids=["fraction", "nan", "zero",
                                                            "negative"])
def test_a_sample_step_count_must_be_a_whole_number_of_steps(every):
    # 2.5 and NaN passed the check and escaped as a TypeError from range inside evolve
    h = HamiltonianSpec(quadratic_symbol(1.0), ())
    with pytest.raises(GridError, match="steps_per_sample must be an integer >= 1"):
        PropagatorSpec(h, dt=0.05, steps_per_sample=every)
    with pytest.raises(GridError, match="steps_per_sample must be an integer >= 1"):
        Schedule.horizon(1.0, 0.05, every)


_TINY_SAMPLE_INTERVAL = textwrap.dedent("""
    import json
    from scatterlab.errors import GridError
    from scatterlab.experiments import free_threshold_table
    from scatterlab.lattice import gaussian_packet, make_grid
    from scatterlab.operators import HamiltonianSpec, free_symbol
    from scatterlab.propagation import CutoffSpec, minimal_velocity_trace

    psi = gaussian_packet(make_grid(2, 32, 16.0), 0.0, (0.5, 0.5), 2.0)
    try:
        minimal_velocity_trace(psi, HamiltonianSpec(free_symbol(), ()), (0.5, 1.5),
                               CutoffSpec(delta=0.2, eps=0.05), T=2.0, dt=0.05,
                               table=free_threshold_table(), sample_interval=1e-10)
        error = None
    except GridError as exc:
        error = str(exc)
    print(json.dumps(error))
""")


def test_a_sample_interval_shorter_than_dt_fails_at_once():
    # the float sample loop rounded each time to 9 decimals, so below about
    # 5e-10 the time stopped advancing and the call never returned
    src = str(Path(propagation.__file__).resolve().parent.parent)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", _TINY_SAMPLE_INTERVAL], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    assert json.loads(run.stdout) == "sample_interval 1e-10 is shorter than dt = 0.05"


def test_every_stepping_caller_takes_the_steps_its_schedule_names(monkeypatch):
    # the forward march runs to the last mark; each channel back-march runs from
    # its cut time to 0 (approximants) or back through the schedule (defect)
    steps, step = [], _Stepper.step

    def counted(self, values):
        steps.append(1)
        return step(self, values)

    monkeypatch.setattr(_Stepper, "step", counted)
    dt, T, times = 0.05, 2.0, (2.0, 4.0)
    channel = Schedule.channel(times, dt).marks
    expected = {
        "evolve": Schedule.horizon(T, dt, 1).marks[-1],
        "local_decay_trace": propagation.decay_schedule(T, dt).marks[-1],
        "minimal_velocity_trace": Schedule.velocity(T, 1.0, dt).marks[-1],
        "completeness_defect": channel[-1] + len(TWO_CLUSTERS) * (channel[-1] - channel[0]),
        "wave_operator_approx": 2 * channel[-1],
        "wave_operator_cauchy": channel[-1] + sum(channel),
    }
    assert expected == {"evolve": 40, "local_decay_trace": 40, "minimal_velocity_trace": 40,
                        "completeness_defect": 200, "wave_operator_approx": 160,
                        "wave_operator_cauchy": 200}
    for caller, run in _time_callers(dt=dt, T=T, schedule=times, limit=1.0).items():
        steps.clear()
        run()
        assert len(steps) == expected[caller], caller
