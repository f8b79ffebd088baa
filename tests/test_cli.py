import contextlib
import glob
import hashlib
import os
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from scatterlab import experiments as xp
from scatterlab import cli
from scatterlab.cli import (_PARTICLES, _SCHEMA, EXPERIMENTS, _parse_ini, main, parse_cutoffs,
                            parse_grid, parse_model, parse_window, serialize_config)
from scatterlab.errors import ConfigError, HypothesisError, ScatterError
from scatterlab.lattice import make_grid
from scatterlab.model import default_model
from scatterlab.spectral import distance_to_threshold, threshold_table

THRESHOLDS_INI = """
[experiment]
name = thresholds
seed = 7

[model]
v12_family = poschl_teller
v12_strength = 2.0
v12_width = 1.0
v13_family = zero
v23_family = zero

[grid]
particles = 1
points = 256
half_extent = 16.0
"""

DISPERSION_INI = """
[experiment]
name = dispersion
seed = 7

[model]
v12_family = poschl_teller
v12_strength = 2.0
v13_family = poschl_teller
v13_strength = 2.0
v23_family = poschl_teller
v23_strength = 2.0

[grid]
particles = 1
points = 256
half_extent = 16.0

[dispersion]
s_values = 0.0 0.1 -0.1
"""

PARTITION_INI = """
[experiment]
name = partition

[grid]
particles = 2
points = 64
half_extent = 8.0
"""


def _write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_thresholds_experiment(tmp_path):
    cfg = _write(tmp_path, THRESHOLDS_INI)
    out = str(tmp_path / "out")
    rc = main(["thresholds", "--config", cfg, "--out", out])
    assert rc == 0
    csvs = [f for f in os.listdir(out) if f.endswith(".csv")]
    assert len(csvs) == 1
    rows = (tmp_path / "out" / csvs[0]).read_text().strip().splitlines()
    assert rows[0] == "cluster,threshold"
    values = [float(r.split(",")[1]) for r in rows[1:]]
    assert any(abs(v + 1.0) < 5e-3 for v in values)
    assert any(v == 0.0 for v in values)
    manifests = [f for f in os.listdir(out) if f.endswith(".manifest.txt")]
    assert len(manifests) == 1
    manifest = (tmp_path / "out" / manifests[0]).read_text()
    assert "sha256:" in manifest and "claim =" in manifest


def test_malformed_config_missing_grid(tmp_path):
    cfg = _write(tmp_path, "[experiment]\nname = thresholds\n\n[model]\nv12_family = zero\n")
    rc = main(["thresholds", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("extra", ["bogus = 1",
                                   "[schedule]\nsample_interval = 1.0",
                                   "[cutoffs]\ndelta = 0.2\neps = 0.1\nmu = 0.6"],
                         ids=["bogus", "schedule-sample_interval", "cutoffs-mu"])
def test_unknown_key_rejected(tmp_path, extra):
    cfg = _write(tmp_path, THRESHOLDS_INI.replace(
        "half_extent = 16.0", "half_extent = 16.0\n" + extra))
    rc = main(["thresholds", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(
    os.path.dirname(__file__), os.pardir, "configs", "*.ini"))), ids=os.path.basename)
def test_shipped_config_parses(path):
    cp = _parse_ini(path)
    assert cp.get("experiment", "name") in EXPERIMENTS
    parsers = {"model": parse_model, "grid": parse_grid, "window": parse_window,
               "cutoffs": parse_cutoffs}
    for section, parse in parsers.items():
        if cp.has_section(section):
            parse(cp)


SHIPPED = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("name", ["thresholds", "dispersion", "partition", "evolve"])
def test_shipped_config_runs(tmp_path, name):
    assert main([name, "--config", str(SHIPPED / f"{name}.ini"),
                 "--out", str(tmp_path / "o")]) == 0


def test_evolve_config_honours_its_boundary_limit(tmp_path, capsys):
    text = (SHIPPED / "evolve.ini").read_text()
    assert "boundary_limit = 1e-5\n" in text
    cfg = _write(tmp_path, text.replace("boundary_limit = 1e-5\n", ""))
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "boundary mass 1.006e-06 exceeded 1.0e-06" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, particles", [
    ("spectrum", 2), ("dispersion", 2), ("thresholds", 2), ("mourre", 1), ("partition", 1),
    ("min-velocity", 1), ("channels", 1), ("evolve", 3), ("local-decay", 3),
], ids=str)
def test_wrong_particle_count_is_a_config_error(tmp_path, capsys, experiment, particles):
    cfg = _write(tmp_path, f"[experiment]\nname = {experiment}\n\n[model]\nv12_family = zero\n\n"
                           f"[grid]\nparticles = {particles}\npoints = 64\nhalf_extent = 8.0\n")
    assert main([experiment, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: [grid] particles" in err and "Traceback" not in err


@pytest.mark.parametrize("name, line, bad", [
    ("evolve", "width = 2.0", "width = 0"),
    ("evolve", "width = 2.0", "width = -2"),
    ("evolve", "momentum = 0.8", "axis_momenta = 0.0 0.5"),
    ("channels", "width = 5.0", "width = nan"),
], ids=["zero-width", "negative-width", "two-momenta-on-one-axis", "nan-width"])
def test_bad_packet_is_a_config_error(tmp_path, capsys, name, line, bad):
    text = (SHIPPED / f"{name}.ini").read_text()
    assert line in text
    cfg = _write(tmp_path, text.replace(line, bad))
    assert main([name, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error: [packet]" in capsys.readouterr().err


def test_duplicate_section_rejected(tmp_path):
    cfg = _write(tmp_path, THRESHOLDS_INI + "\n[grid]\npoints = 64\n")
    rc = main(["thresholds", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2


def test_unknown_section_rejected(tmp_path):
    cfg = _write(tmp_path, THRESHOLDS_INI + "\n[mystery]\nkey = 1\n")
    with pytest.raises(ConfigError):
        _parse_ini(cfg)


@pytest.mark.parametrize("raw", [
    THRESHOLDS_INI.replace("points = 256", "points = 5%").encode(),
    THRESHOLDS_INI.replace("seed = 7", "seed = %(x)s").encode(),
    THRESHOLDS_INI.encode().replace(b"= poschl_teller", b"= poschl\xff\xfe"),
], ids=["percent", "interpolation", "not-utf8"])
def test_malformed_value_is_a_config_error(tmp_path, capsys, raw):
    cfg = tmp_path / "config.ini"
    cfg.write_bytes(raw)
    assert main(["thresholds", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


SHIPPED_THRESHOLDS = SHIPPED / "thresholds.ini"


@pytest.mark.parametrize("line, bad", [("points = 512", "points = 12"),
                                       ("v12_family = poschl_teller", "v12_family = bogus")],
                         ids=["grid", "potential"])
def test_value_a_constructor_rejects_is_a_config_error(tmp_path, capsys, line, bad):
    text = SHIPPED_THRESHOLDS.read_text()
    assert line in text
    cfg = _write(tmp_path, text.replace(line, bad))
    assert main(["thresholds", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_potential_alive_at_the_box_edge_is_a_config_error(tmp_path, capsys):
    # the well 2 sech^2(x) keeps 1.3e-3 of its depth at x = 4, far above 1e-10
    text = SHIPPED_THRESHOLDS.read_text()
    assert "half_extent = 32.0" in text
    cfg = _write(tmp_path, text.replace("half_extent = 32.0", "half_extent = 4.0"))
    assert main(["thresholds", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "does not decay at the boundary" in capsys.readouterr().err


_VALUES = st.one_of(
    st.sampled_from(("1", "0", "-1", "8", "256", "16.0", "1e999", "nan", "0x10", "5%",
                     "%(x)s", "%%", "zero", "poschl_teller", "gaussian_well", "tabulated")),
    st.integers().map(str), st.floats().map(str), st.text(max_size=12),
)
_LINES = st.one_of(
    st.builds("[{}]".format, st.one_of(st.sampled_from((*_SCHEMA, "DEFAULT")),
                                      st.text(max_size=8))),
    st.builds("{} = {}".format,
              st.one_of(st.sampled_from(sorted(set().union(*_SCHEMA.values()))),
                        st.text(max_size=8)),
              _VALUES),
    st.text(max_size=20),
)


@st.composite
def ini_files(draw):
    """INI-like bytes: schema sections and keys with odd values, stray text and raw bytes."""
    raw = "\n".join(draw(st.lists(_LINES, max_size=12))).encode("utf-8", "surrogatepass")
    cut = draw(st.integers(0, len(raw)))
    return raw[:cut] + draw(st.binary(max_size=3)) + raw[cut:]


@given(ini_files())
def test_config_readers_raise_only_scatter_errors(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.ini"
        path.write_bytes(raw)
        try:
            cp = _parse_ini(str(path))
        except ConfigError:
            assert main(["thresholds", "--config", str(path), "--out", tmp]) == 2
            return
        for parse in (parse_model, parse_grid, parse_window, parse_cutoffs):
            with contextlib.suppress(ScatterError):
                parse(cp)


def test_experiment_name_mismatch(tmp_path):
    cfg = _write(tmp_path, THRESHOLDS_INI)
    rc = main(["dispersion", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2


def test_config_round_trip(tmp_path):
    cfg = _write(tmp_path, DISPERSION_INI)
    cp = _parse_ini(cfg)
    text = serialize_config(cp)
    cfg2 = _write(tmp_path, text, "round.ini")
    cp2 = _parse_ini(cfg2)
    assert serialize_config(cp2) == text


def test_determinism_byte_identical(tmp_path):
    cfg = _write(tmp_path, DISPERSION_INI)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["dispersion", "--config", cfg, "--out", out_a, "--seed", "3"]) == 0
    assert main(["dispersion", "--config", cfg, "--out", out_b, "--seed", "3"]) == 0
    csvs_a = sorted(f for f in os.listdir(out_a) if f.endswith(".csv"))
    csvs_b = sorted(f for f in os.listdir(out_b) if f.endswith(".csv"))
    assert csvs_a == csvs_b
    for name in csvs_a:
        fa = (tmp_path / "a" / name).read_bytes()
        fb = (tmp_path / "b" / name).read_bytes()
        assert fa == fb


def test_partition_experiment_writes_members(tmp_path):
    cfg = _write(tmp_path, PARTITION_INI)
    out = str(tmp_path / "out")
    rc = main(["partition", "--config", cfg, "--out", out])
    assert rc == 0
    files = os.listdir(out)
    assert sum(f.endswith(".dswf") for f in files) == 5
    assert sum(f.endswith(".csv") for f in files) == 1


def test_evolve_experiment(tmp_path):
    ini = """
[experiment]
name = evolve

[model]
v12_family = poschl_teller
v12_strength = 2.0
v13_family = zero
v23_family = zero

[grid]
particles = 1
points = 128
half_extent = 16.0

[schedule]
dt = 0.02
horizon = 1.0

[packet]
momentum = 0.5
width = 2.0
"""
    cfg = _write(tmp_path, ini)
    out = str(tmp_path / "out")
    rc = main(["evolve", "--config", cfg, "--out", out])
    assert rc == 0
    files = os.listdir(out)
    assert any("norm" in f for f in files)
    assert any(f.endswith(".dswf") for f in files)
    norms = [f for f in files if "norm" in f and f.endswith(".csv")][0]
    rows = (tmp_path / "out" / norms).read_text().strip().splitlines()[1:]
    vals = np.array([float(r.split(",")[1]) for r in rows])
    assert np.max(np.abs(vals - 1.0)) < 1e-10 * len(vals)


def test_missing_config_flag():
    assert main(["thresholds"]) == 2


MOURRE_INI = """
[experiment]
name = mourre
seed = 3

[model]
v12_family = poschl_teller
v12_strength = 2.0
v13_family = poschl_teller
v13_strength = 2.0
v23_family = poschl_teller
v23_strength = 2.0

[grid]
particles = 2
points = 64
half_extent = 24.0

[window]
energy = -0.3
lo = -0.45
hi = -0.15
samples = 2
boundary_tol = 0.5
"""

MINVEL_INI = """
[experiment]
name = min-velocity
seed = 3

[model]
v12_family = zero
v13_family = zero
v23_family = zero

[grid]
particles = 2
points = 128
half_extent = 32.0

[window]
lo = 0.5
hi = 1.5

[cutoffs]
delta = 0.2
eps = 0.1

[schedule]
dt = 0.05
horizon = 6.0
boundary_limit = 1e-4

[packet]
axis_momenta = 0.5 0.8
width = 3.0
"""


def test_mourre_experiment_smoke(tmp_path):
    cfg = _write(tmp_path, MOURRE_INI)
    out = str(tmp_path / "out")
    assert main(["mourre", "--config", cfg, "--out", out]) == 0
    files = os.listdir(out)
    csv = [f for f in files if f.endswith(".csv")][0]
    header = (tmp_path / "out" / csv).read_text().splitlines()[0]
    assert header == "sample,form_value,bound,margin,eigen_deflated_count"
    assert any("summary" in f for f in files)


def test_min_velocity_experiment_smoke(tmp_path):
    cfg = _write(tmp_path, MINVEL_INI)
    out = str(tmp_path / "out")
    assert main(["min-velocity", "--config", cfg, "--out", out]) == 0
    files = os.listdir(out)
    assert any(f.endswith("-meta.txt") for f in files)
    csv = [f for f in files if f.endswith(".csv")][0]
    rows = (tmp_path / "out" / csv).read_text().splitlines()
    assert rows[0].startswith("t,")



# MINVEL_INI with the default model's three Poschl-Teller wells of strength 2
MINVEL_WELLS_INI = MINVEL_INI.replace(
    "v12_family = zero\nv13_family = zero\nv23_family = zero\n",
    "".join(f"{v}_family = poschl_teller\n{v}_strength = 2.0\n" for v in ("v12", "v13", "v23")))


def test_min_velocity_rejects_a_window_holding_a_threshold(tmp_path, capsys):
    # the default model's (xy)(0) threshold -0.6357 lies in (-0.7, -0.5)
    text = MINVEL_WELLS_INI.replace("lo = 0.5\nhi = 1.5", "lo = -0.7\nhi = -0.5")
    assert "lo = -0.7" in text and "v23_strength" in text
    cfg = _write(tmp_path, text)
    assert main(["min-velocity", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "contains the threshold" in capsys.readouterr().err


def test_min_velocity_reads_theta_from_the_threshold_table(tmp_path):
    # theta is d(E) at the window's bottom edge, not the edge itself (-0.45)
    text = (MINVEL_WELLS_INI.replace("lo = 0.5\nhi = 1.5", "lo = -0.45\nhi = -0.15")
            .replace("delta = 0.2\neps = 0.1", "delta = 0.02\neps = 0.01")
            .replace("horizon = 6.0\nboundary_limit = 1e-4", "horizon = 2\nboundary_limit = 1e-2"))
    assert "lo = -0.45" in text and "delta = 0.02" in text and "horizon = 2\n" in text
    cfg = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["min-velocity", "--config", cfg, "--out", str(out)]) == 0
    (meta,) = out.glob("*-meta.txt")
    sidecar = dict(line.split(" = ", 1) for line in meta.read_text().splitlines())
    table = threshold_table(default_model(), make_grid(*xp.THRESHOLD_GRID))
    assert float(sidecar["theta"]) == distance_to_threshold(-0.45, table)


LOCAL_DECAY_INI = """
[experiment]
name = local-decay
seed = 3

[model]
v12_family = poschl_teller
v12_strength = 2.0

[grid]
particles = 1
points = 256
half_extent = 32.0

[window]
lo = 0.5
hi = 1.5

[schedule]
dt = 0.05
horizon = 1.0
boundary_limit = 1.0

[packet]
axis_momenta = 1.0
width = 2.0
"""


def test_local_decay_experiment(tmp_path):
    cfg = _write(tmp_path, LOCAL_DECAY_INI)
    out = tmp_path / "out"
    assert main(["local-decay", "--config", cfg, "--out", str(out)]) == 0
    (csv,) = out.glob("*.csv")
    rows = csv.read_text().splitlines()
    assert rows[0] == "t,local_decay_integral"
    integral = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert integral[0] == 0.0 and np.all(np.diff(integral) >= 0.0)
    (meta,) = out.glob("*-meta.txt")
    assert "saturation_ratio = " in meta.read_text()


@pytest.mark.parametrize("dt", ["0", "-0.05", "nan"])
def test_bad_time_step_is_a_config_error(tmp_path, capsys, dt):
    cfg = _write(tmp_path, LOCAL_DECAY_INI.replace("dt = 0.05", f"dt = {dt}"))
    assert main(["local-decay", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: [schedule] dt must be finite and positive" in err


@pytest.mark.parametrize("horizon", ["-1", "nan", "inf"])
@pytest.mark.parametrize("name, text", [
    ("evolve", (SHIPPED / "evolve.ini").read_text()), ("local-decay", LOCAL_DECAY_INI),
], ids=["evolve", "local-decay"])
def test_bad_horizon_is_a_config_error(tmp_path, capsys, name, text, horizon):
    # inf overflowed the step count after the filter; -1 exited 1, or 1 after a march
    bad, count = re.subn(r"^horizon = .*$", f"horizon = {horizon}", text, flags=re.M)
    assert count == 1
    cfg = _write(tmp_path, bad)
    assert main([name, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error: [schedule] need a finite horizon T >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("times, message", [
    ("2 4 8 inf", "times must be finite"), ("2 4 8 x", "could not convert"),
], ids=["inf", "not-a-number"])
def test_bad_schedule_times_are_a_config_error(tmp_path, capsys, times, message):
    # both died with a traceback, inf after the channel filter
    text = (SHIPPED / "channels.ini").read_text()
    assert "times = 2 4 8 16\n" in text
    cfg = _write(tmp_path, text.replace("times = 2 4 8 16\n", f"times = {times}\n"))
    assert main(["channels", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: [schedule] times" in err and message in err


SPECTRUM_INI = """
[experiment]
name = spectrum
seed = 3

[model]
v12_family = poschl_teller
v12_strength = 2.0
v13_family = poschl_teller
v13_strength = 2.0
v23_family = poschl_teller
v23_strength = 2.0

[grid]
particles = 1
points = 256
half_extent = 16.0

[window]
count = 3
"""


def test_spectrum_experiment(tmp_path):
    cfg = _write(tmp_path, SPECTRUM_INI)
    out = str(tmp_path / "out")
    assert main(["spectrum", "--config", cfg, "--out", out]) == 0
    files = os.listdir(out)
    csvs = [f for f in files if f.endswith(".csv")]
    assert len(csvs) == 3                      # one per two-cluster subsystem
    assert sum(f.endswith(".dswf") for f in files) == 3
    for f in csvs:
        header = (tmp_path / "out" / f).read_text().splitlines()[0]
        assert header == "index,eigenvalue,residual"


def _refuse(*args, **kwargs):
    raise AssertionError("solved or ran before the config was checked")


def _with(text, old, new):
    assert text.count(old) == 1, old
    return text.replace(old, new)


_CHANNELS, _EVOLVE = ((SHIPPED / f"{name}.ini").read_text() for name in ("channels", "evolve"))


@pytest.mark.parametrize("name, text, message", [
    ("channels", _with(_CHANNELS, "times = 2 4 8 16", "times = 2 4.01"),
     "[schedule] duration 2.01 is not a multiple of dt"),
    ("channels", _with(_CHANNELS, "times = 2 4 8 16", "times = 2 2 4"),
     "[schedule] trace times must be strictly increasing"),
    ("channels", _with(_CHANNELS, "times = 2 4 8 16", "times = 0.5 2"),
     "[schedule] schedule times must be >= 1"),
    ("evolve", _with(_EVOLVE, "horizon = 4.0", "horizon = 4.01"),
     "[schedule] duration 4.01 is not a multiple of dt"),
    ("local-decay", _with(LOCAL_DECAY_INI, "horizon = 1.0", "horizon = 1.01"),
     "[schedule] duration 1.01 is not a multiple of dt"),
    ("min-velocity", _with(MINVEL_INI, "dt = 0.05", "dt = 0.3"),
     "[schedule] duration 1.0 is not a multiple of dt"),
    ("spectrum", _with(SPECTRUM_INI, "count = 3", "count = 0"), "[window] count = 0"),
    ("spectrum", _with(SPECTRUM_INI, "count = 3", "count = 300"), "[window] count = 300"),
    ("mourre", _with(MOURRE_INI, "samples = 2", "samples = 0"),
     "[window] samples must be >= 1"),
    ("min-velocity", _with(MINVEL_INI, "delta = 0.2\neps = 0.1", "delta = 0.01\neps = 0.05"),
     "[cutoffs] need delta > eps > 0"),
    ("local-decay", _with(LOCAL_DECAY_INI, "hi = 1.5\n", "hi = 1.5\nmu = 0.3\n"),
     "[window] local decay weight needs mu > 1/2"),
    ("local-decay", _with(LOCAL_DECAY_INI, "horizon = 1.0", "horizon = 1.1"),
     "[schedule] T/2 = 0.55 is no sample time"),
    ("local-decay", _with(LOCAL_DECAY_INI, "boundary_limit = 1.0", "boundary_limit = nan"),
     "[schedule] boundary_limit must lie in (0, 1], got nan"),
    ("evolve", _with(_EVOLVE, "boundary_limit = 1e-5", "boundary_limit = 0"),
     "[schedule] boundary_limit must lie in (0, 1], got 0.0"),
    ("min-velocity", _with(MINVEL_INI, "boundary_limit = 1e-4", "boundary_limit = -1e-4"),
     "[schedule] boundary_limit must lie in (0, 1], got -0.0001"),
    ("channels", _with(_CHANNELS, "boundary_limit = 1e-3", "boundary_limit = 2"),
     "[schedule] boundary_limit must lie in (0, 1], got 2.0"),
], ids=["channels-off-dt", "channels-repeated", "channels-early", "evolve-off-dt",
        "local-decay-off-dt", "min-velocity-off-dt", "spectrum-count-0", "spectrum-count-300",
        "mourre-samples-0", "min-velocity-delta", "local-decay-mu", "local-decay-half-off-sample",
        "local-decay-nan-limit", "evolve-zero-limit", "min-velocity-negative-limit",
        "channels-limit-above-one"])
def test_out_of_range_value_is_a_config_error_before_any_solve(tmp_path, capsys, monkeypatch,
                                                               name, text, message):
    # each exited 1, the dynamical ones after the threshold solves and some
    # after the filter or a march
    for solver in ("threshold_table", "dense_spectrum", "iterative_lowest", "evolve"):
        monkeypatch.setattr(cli, solver, _refuse)
    cfg = _write(tmp_path, text)
    assert main([name, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: {message}" in capsys.readouterr().err


def test_every_experiment_has_a_particle_rule():
    assert set(_PARTICLES) == set(EXPERIMENTS) - {"verify-all"}


def _fake_check(name, outcome):
    def check(seed, out_dir=None):
        if outcome == "skip":
            raise HypothesisError("precondition does not hold")
        return xp.CheckResult(name=name, passed=outcome == "pass", runtime=0.5)

    check.__name__ = f"check_{name}"
    return check


@pytest.mark.parametrize("outcomes, code", [
    (("pass", "pass"), 0),
    (("pass", "skip"), 3),
    (("skip", "fail"), 1),
])
def test_verify_all_exit_codes(tmp_path, monkeypatch, outcomes, code):
    checks = tuple(_fake_check(f"c{i}", o) for i, o in enumerate(outcomes))
    monkeypatch.setattr(xp, "FAST_CHECKS", checks)
    out = tmp_path / "out"
    assert main(["verify-all", "--fast", "--out", str(out)]) == code
    files = os.listdir(out)
    summary = [f for f in files if f.endswith("-summary.csv")]
    rows = (out / summary[0]).read_text().splitlines()
    assert rows[0] == "check,status"
    assert [r.split(",")[1] for r in rows[1:]] == [
        {"pass": "PASS", "skip": "SKIP", "fail": "FAIL"}[o] for o in outcomes]
    assert any(f.endswith("-summary.txt") for f in files)
    assert sum(f.endswith(".manifest.txt") for f in files) == 1


def test_verify_all_manifest_checksums_every_check_csv(tmp_path, monkeypatch):
    checks = (xp.check_sqrt_identity, xp.check_fiber_shift, _fake_check("skipped", "skip"))
    monkeypatch.setattr(xp, "FAST_CHECKS", checks)
    out = tmp_path / "out"
    assert main(["verify-all", "--fast", "--out", str(out)]) == 3
    manifest = next(out.glob("*.manifest.txt")).read_text()
    listed = dict(line.split(" = ", 1)[1].split(" sha256:")
                  for line in manifest.splitlines() if line.startswith("output = "))
    csvs = sorted(f.name for f in out.glob("*.csv"))
    assert {"sqrt-identity.csv", "fiber-shift.csv"} <= set(csvs)
    assert sorted(name for name in listed if name.endswith(".csv")) == csvs
    assert "skipped.csv" not in listed
    for name, digest in listed.items():
        assert digest == hashlib.sha256((out / name).read_bytes()).hexdigest()


@pytest.mark.parametrize("with_config", [False, True])
def test_verify_all_honours_fast(tmp_path, monkeypatch, with_config):
    monkeypatch.setattr(xp, "FAST_CHECKS", (_fake_check("quick", "pass"),))
    monkeypatch.setattr(xp, "ALL_CHECKS", (_fake_check("full", "fail"),))
    argv = ["verify-all", "--fast", "--out", str(tmp_path / "out")]
    if with_config:
        argv += ["--config", _write(tmp_path, "[experiment]\nname = verify-all\n")]
    assert main(argv) == 0
