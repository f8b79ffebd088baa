"""Self-tests of the benchmark harness: span arithmetic, wrapping, failure
accounting and the positivity window.  None of them runs a workload pass.

Run from the root of a checkout: ``python3 -m pytest -q perfbench``.
"""

import json
import os
import sys
import types

import numpy as np
import pytest
import scipy.fft

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import scatterlab as sl  # noqa: E402
from scatterlab import operators, spectral  # noqa: E402
from scatterlab.clusters import ClusterId  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# ------------------------------------------------------------ span arithmetic

def test_self_time_is_duration_minus_union_of_children():
    # root [0, 10] with children [1, 4] and [3, 6] (overlapping: union 5) and
    # [8, 12] (clipped to the root: 2); child 1 holds a grandchild [2, 3]
    starts = [0.0, 1.0, 3.0, 8.0, 2.0]
    ends = [10.0, 4.0, 6.0, 12.0, 3.0]
    parents = [-1, 0, 0, 0, 1]
    own = spans.self_times(starts, ends, parents)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert list(own[2:]) == pytest.approx([3.0, 4.0, 1.0])


def test_tail_percentile_keeps_ten_calls_beyond():
    assert spans.tail_percentile(30000) == 99.9
    assert spans.tail_percentile(1000) == 99.0
    assert spans.tail_percentile(100) == 90.0
    assert spans.tail_percentile(20) == 50.0
    assert spans.tail_percentile(19) is None


def _everything_bound():
    """Every callable bound to a name in scatterlab's modules and the FFT modules."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if (modname == "scatterlab" or modname.startswith("scatterlab.")
                or modname in spans.FFT_MODULES):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(modname, attr)] = value
    return out


def test_applies_go_to_the_innermost_span_and_names_are_restored():
    before = _everything_bound()
    original_apply = operators.apply_hamiltonian
    model = sl.default_model()
    grid = sl.make_grid(1, 32, 8.0)
    h = model.subsystem(ClusterId.PHOTON_FREE)
    psi = sl.gaussian_packet(grid, 0.0, 0.0, 1.0)

    tracer = spans.Tracer("test", 0)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            # the copies imported into other modules are wrapped too
            assert spectral.apply_hamiltonian is not original_apply
            assert sl.apply_hamiltonian is not original_apply
            with tracer.span(spans.ROOT_SPAN):
                sl.dense_spectrum(h, grid, 2)
                sl.apply_hamiltonian(psi, h)
            raise RuntimeError("leaving the block by an exception restores too")

    assert operators.apply_hamiltonian is original_apply
    assert spectral.apply_hamiltonian is original_apply
    assert _everything_bound() == before

    m = spans.layer_metrics(tracer)
    # one column per lattice site plus one residual per returned eigenpair
    assert m["spectral.dense_spectrum.applies"] == grid.size + 2
    assert m["operators.apply_hamiltonian.calls"] == grid.size + 3
    assert m["lattice.fft.calls"] == 2 * (grid.size + 3)
    own = tracer.self_times()
    assert own.sum() == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["trace.glue_s"] < m["trace.wall_s"]


def test_ffts_count_once_whichever_module_the_program_calls(monkeypatch):
    # a program module that imported an FFT function by name
    probe = types.ModuleType("scatterlab._fft_probe")
    probe.fftn = scipy.fft.fftn
    monkeypatch.setitem(sys.modules, probe.__name__, probe)
    before = _everything_bound()
    a = np.ones((8, 8), dtype=complex)

    tracer = spans.Tracer("test", 0)
    with tracer.installed():
        with tracer.span(spans.ROOT_SPAN):
            np.fft.ifftn(np.fft.fftn(a))
            scipy.fft.ifftn(scipy.fft.fftn(a))
            scipy.fft.irfftn(scipy.fft.rfftn(a.real), a.shape)
            np.fft.fft2(a)
            probe.fftn(a)
    assert _everything_bound() == before

    m = spans.layer_metrics(tracer)
    assert m["lattice.fft.calls"] == 8
    # a complex 8x8 FFT reads and writes 2 KiB; rfftn's half spectrum is 8x5
    assert m["lattice.fft.mb_computed"] * 1e6 == pytest.approx(6 * 2048 + 2 * (512 + 640))


def test_every_traced_module_contributes_spans():
    labels = set(spans.public_functions().values())
    for fn in ("operators.apply_hamiltonian", "operators.potential_field",
               "spectral.spectral_filter", "spectral.iterative_lowest",
               "spectral.dense_spectrum", "commutators.mourre_report",
               "commutators.commutator_form", "propagation.evolve", "lattice.make_grid"):
        assert fn in labels


# --------------------------------------------------------- failure accounting

def _raise(exc):
    raise exc


def test_tally_counts_raising_and_missing_units_as_failed():
    tally = workloads.Tally()
    assert tally.run(2, lambda: ("ok", [])) == "ok"
    assert tally.run(3, lambda: _raise(sl.SolverError("did not converge"))) is None
    tally.run(4, lambda: ("partial", [(1, "residual too large")]))
    assert (tally.attempted, tally.failed) == (9, 4)
    assert any("did not converge" in f for f in tally.failures)


def _pass_with_a_failing_unit(workload, seed, traced, timeout):
    tally = workloads.Tally()
    tally.run(1, lambda: (None, []))
    tally.run(1, lambda: _raise(sl.SpectralWindowError("deliberate failure")))
    return {"traced": traced, "wall_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 50.0,
            "attempted": tally.attempted, "failed": tally.failed,
            "failures": tally.failures, "env": {}}


def test_runner_exits_nonzero_when_a_unit_failed(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    rc = run.main(["--workload", "fibers", "--seed", "1", "--seconds", "0", "--trace", "0"],
                  pass_fn=_pass_with_a_failing_unit)
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert rc == 1
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (6, 3)
    assert any("deliberate failure" in line for line in out)


def test_runner_reports_every_benchmark_metric(tmp_path, monkeypatch, capsys):
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))

    def passing(workload, seed, traced, timeout):
        p = _pass_with_a_failing_unit(workload, seed, traced, timeout)
        p.update(failed=0, failures=[], self_sum_s=1.0,
                 layers={name: 1.0 for name, _ in spans.LAYER_METRICS})
        return p

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        rc = run.main(["--workload", "evolve", "--seed", "1", "--seconds", "0",
                       "--trace", str(trace)], pass_fn=passing)
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert rc == 0 and result["correct"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in bench[key]}

    assert run.main(["--workload", "all", "--seed", "1", "--seconds", "0"], pass_fn=passing) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert set(json.loads(out[-1])["metrics"]) == {
        f"{w}.{m['name']}" for w in run.WORKLOADS for m in bench["end_to_end"]}
    assert sum(line.split()[0] == "error_rate" for line in out) == len(run.WORKLOADS)


# ------------------------------------------------------------ positivity window

def _admissibility_errors(E, window, table):
    """Reasons mourre_report's preconditions would refuse (E, window)."""
    lo, hi = window
    errors = []
    if not lo < E < hi:
        errors.append("E outside the window")
    if table.is_threshold(E):
        errors.append("E is a threshold")
    errors += [f"threshold {t} inside" for t in table.thresholds if lo <= t <= hi]
    if max(E - lo, hi - E) > sl.distance_to_threshold(E, table) / 2.0:
        errors.append("half-width above d(E)/2")
    return errors


def _table(photon, electron, pair):
    return sl.ThresholdTable({ClusterId.PHOTON_FREE: np.array([photon]),
                              ClusterId.ELECTRON_FREE: np.array([electron]),
                              ClusterId.PAIR_FREE: np.array([pair])})


CURRENT = _table(-1.0, -0.9425, -1.0747)
# after the (xy)(0) fiber evaluates V23 at 2u
FIXED = _table(-1.0, -0.9425, -0.6377)


@pytest.mark.parametrize("table, gap", [(CURRENT, 0.6425), (FIXED, 0.3377)])
def test_positivity_window_meets_mourre_preconditions(table, gap):
    E, window = workloads.POSITIVITY_E, workloads.POSITIVITY_WINDOW
    assert sl.distance_to_threshold(E, table) == pytest.approx(gap, abs=1e-9)
    assert _admissibility_errors(E, window, table) == []
    # mourre_report itself gets past every precondition: it fails only once
    # it reaches the filter, on a one-particle grid the model cannot live on
    with pytest.raises(sl.GridError):
        sl.mourre_report(E, window, sl.default_model(), sl.make_grid(1, 8, 4.0), table,
                         samples=1, deflation_count=0)


def test_criterion_8_window_breaks_the_rule_after_the_fix():
    assert _admissibility_errors(-0.4, (-0.55, -0.25), CURRENT) == []
    assert _admissibility_errors(-0.4, (-0.55, -0.25), FIXED) == ["half-width above d(E)/2"]
    with pytest.raises(sl.HypothesisError):
        sl.mourre_report(-0.4, (-0.55, -0.25), sl.default_model(), sl.make_grid(1, 8, 4.0),
                         FIXED, samples=1, deflation_count=0)


def test_inputs_come_from_the_seed():
    a, b = workloads.setup_fibers(3), workloads.setup_fibers(3)
    assert np.array_equal(a["scan_s"], b["scan_s"]) and a["direct"] == b["direct"]
    assert not np.array_equal(a["scan_s"], workloads.setup_fibers(4)["scan_s"])
    assert (workloads.setup_positivity(3)["sample_seed"]
            != workloads.setup_positivity(4)["sample_seed"])
