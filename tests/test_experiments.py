import os

import numpy as np

from scatterlab.experiments import (
    FAST_CHECKS,
    CheckResult,
    _check_name,
    admissible_random_state,
    brute_force_edge,
    check_continuum_edge,
    check_determinism,
    check_fiber_shift,
    free_threshold_table,
    product_state,
)
from scatterlab.commutators import continuum_edge
from scatterlab.lattice import gaussian_packet, make_grid


def test_admissible_state_avoids_lattice_seams():
    grid = make_grid(1, 256, 32.0)
    rng = np.random.default_rng(0)
    psi = admissible_random_state(grid, rng, (2.2,))
    assert psi.boundary_mass(0.8) < 1e-8
    hat = np.abs(np.fft.fftn(psi.values, norm="ortho")) ** 2
    k = grid.momenta()
    kink = np.abs(k) < 0.3
    nyquist = np.abs(k) > 0.9 * np.max(np.abs(k))
    assert np.sum(hat[kink]) / np.sum(hat) < 1e-8
    assert np.sum(hat[nyquist]) / np.sum(hat) < 1e-12


def test_brute_force_edge_matches_closed_form():
    for s in (-2.7, -0.4, 0.0, 0.3, 0.5, 1.9):
        assert abs(brute_force_edge(s) - continuum_edge(s)) < 1e-6


def test_product_state_normalized():
    grid = make_grid(2, 32, 8.0)
    a = gaussian_packet(make_grid(1, 32, 8.0), 0.0, 0.3, 1.0)
    b = gaussian_packet(make_grid(1, 32, 8.0), 1.0, -0.2, 1.5)
    psi = product_state(grid, a.values, b.values)
    assert psi.norm() == 1.0 or abs(psi.norm() - 1.0) < 1e-12


def test_check_result_line_format():
    r = CheckResult(name="demo", passed=True, runtime=1.234, values={"x": 2})
    assert r.line().startswith("PASS")
    r = CheckResult(name="demo", passed=False, runtime=0.1, skipped=True)
    assert r.line().startswith("SKIP")


def test_checks_write_csv(tmp_path):
    r = check_fiber_shift(out_dir=str(tmp_path))
    assert r.passed
    assert os.path.exists(tmp_path / "fiber-shift.csv")
    header = (tmp_path / "fiber-shift.csv").read_text().splitlines()[0]
    assert header == "s,index,fiber_eigenvalue,base_plus_s"


def test_continuum_edge_check_deterministic(tmp_path):
    a = check_continuum_edge(seed=5, out_dir=str(tmp_path / "a"))
    b = check_continuum_edge(seed=5, out_dir=str(tmp_path / "b"))
    assert a.values == b.values


def test_free_threshold_table_trivial():
    table = free_threshold_table()
    assert np.allclose(table.thresholds, [0.0])


def test_determinism_check(tmp_path):
    out = tmp_path / "not" / "yet"
    assert check_determinism(seed=3, out_dir=str(out)).passed
    assert (out / "determinism.csv").read_text().splitlines() == [
        "file,identical", "continuum-edge.csv,1", "thresholds.csv,1", "dispersion.csv,1"]


def test_determinism_check_flags_each_file(tmp_path, monkeypatch):
    from scatterlab import experiments

    real = experiments._determinism_pass

    def second_pass_dispersion_differs(seed, out_dir):
        files = real(seed, out_dir)
        if out_dir.endswith("b"):
            with open(files[-1], "a") as fh:
                fh.write("0.0,0.0,0.0,0.0,0\n")
        return files

    monkeypatch.setattr(experiments, "_determinism_pass", second_pass_dispersion_differs)
    assert not check_determinism(seed=3, out_dir=str(tmp_path)).passed
    assert (tmp_path / "determinism.csv").read_text().splitlines() == [
        "file,identical", "continuum-edge.csv,1", "thresholds.csv,1", "dispersion.csv,0"]


def test_each_check_reports_its_name_and_writes_one_csv_under_it(tmp_path):
    for check in FAST_CHECKS:
        out = tmp_path / check.__name__
        result = check(seed=3, out_dir=str(out))
        assert result.name == _check_name(check)
        assert os.listdir(out) == [f"{result.name}.csv"]


def test_verify_all_marks_precondition_failures_skipped():
    from scatterlab.errors import HypothesisError
    from scatterlab.experiments import verify_all

    def check_bad(seed=0, out_dir=None):
        raise HypothesisError("delta must stay below the commutator constant")

    def check_ok(seed=0, out_dir=None):
        return CheckResult(name="ok", passed=True, runtime=0.0)

    check_bad.__name__ = "check_bad"
    results = verify_all(checks=(check_bad, check_ok), printer=None)
    assert results[0].skipped and not results[0].passed
    assert "precondition" in results[0].message
    assert results[1].passed
