import os

import numpy as np
import pytest

from scatterlab import experiments as xp
from scatterlab.cli import _parse_ini, main, serialize_config
from scatterlab.errors import ConfigError, HypothesisError

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


def test_unknown_key_rejected(tmp_path):
    cfg = _write(tmp_path, THRESHOLDS_INI.replace(
        "half_extent = 16.0", "half_extent = 16.0\nbogus = 1"))
    rc = main(["thresholds", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2


def test_duplicate_section_rejected(tmp_path):
    cfg = _write(tmp_path, THRESHOLDS_INI + "\n[grid]\npoints = 64\n")
    rc = main(["thresholds", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2


def test_unknown_section_rejected(tmp_path):
    cfg = _write(tmp_path, THRESHOLDS_INI + "\n[mystery]\nkey = 1\n")
    with pytest.raises(ConfigError):
        _parse_ini(cfg)


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


@pytest.mark.parametrize("with_config", [False, True])
def test_verify_all_honours_fast(tmp_path, monkeypatch, with_config):
    monkeypatch.setattr(xp, "FAST_CHECKS", (_fake_check("quick", "pass"),))
    monkeypatch.setattr(xp, "ALL_CHECKS", (_fake_check("full", "fail"),))
    argv = ["verify-all", "--fast", "--out", str(tmp_path / "out")]
    if with_config:
        argv += ["--config", _write(tmp_path, "[experiment]\nname = verify-all\n")]
    assert main(argv) == 0
