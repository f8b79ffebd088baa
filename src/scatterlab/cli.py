"""Command-line front end: INI configs, experiment orchestration, manifests.

Usage: ``scatter <experiment> --config <file> [--out <dir>] [--seed N]``;
``verify-all`` needs no config and accepts ``--fast``.  Exit codes: 0
success, 1 runtime failure (including a failed acceptance check), 2
validation failure, 3 an acceptance check was skipped because its
preconditions failed (and none failed).  Every run writes its CSV artifacts
plus a manifest listing inputs, outputs with checksums, wall time, and the
property the experiment probes; identical (config, seed) pairs produce
byte-identical CSVs.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import os
import sys
import time

import numpy as np

from . import experiments as xp
from . import io as sio
from .clusters import ClusterId, TWO_CLUSTERS
from .errors import (ChecksSkippedError, ConfigError, GridError, HypothesisError,
                     PotentialError, ScatterError)
from .lattice import GridSpec, WaveFunction, make_grid, gaussian_packet, write_wavefunction
from .model import ThreeBodyModel
from .operators import PotentialSpec
from .propagation import (
    DEFAULT_BOUNDARY_LIMIT,
    CutoffSpec,
    PropagatorSpec,
    Schedule,
    completeness_defect,
    decay_schedule,
    evolve,
    local_decay_trace,
    minimal_velocity_trace,
    require_boundary_limit,
    require_decay_weight,
    require_time_step,
)
from .commutators import mourre_report, require_sample_count
from .partition import build_partition, verify_partition, DEFAULT_SMOOTHING_WIDTH
from .spectral import (DENSE_LIMIT, dense_spectrum, dispersion_scan, iterative_lowest,
                       threshold_table)

CLAIMS = {
    "spectrum": "subsystem bound-state energies from the dense grid oracle",
    "dispersion": "pair-cluster energy transport along the external momentum",
    "thresholds": "subsystem eigenvalues plus zero form the threshold set",
    "mourre": "sampled commutator positivity on a filtered energy window",
    "partition": "channel partition of unity: sum of squares one, homogeneous, supported",
    "evolve": "split-step propagation with unitarity and energy traces",
    "local-decay": "time-integrability of the position-weighted evolution",
    "min-velocity": "escape of filtered continuum states from the shrinking region",
    "channels": "channel decomposition defect of the evolved state",
    "verify-all": "the full acceptance suite",
}

EXPERIMENTS = tuple(CLAIMS)

# allowed keys per config section
_SCHEMA = {
    "experiment": {"name", "seed"},
    "model": {f"{p}_{f}" for p in ("v12", "v13", "v23")
              for f in ("family", "strength", "width", "center")},
    "grid": {"particles", "points", "half_extent"},
    "window": {"lo", "hi", "energy", "mu", "samples", "count", "boundary_tol"},
    "cutoffs": {"delta", "eps", "smoothing"},
    "schedule": {"times", "dt", "horizon", "boundary_limit"},
    "dispersion": {"s_values"},
    "partition": {"width"},
    "packet": {"center", "momentum", "width", "axis_momenta"},
    "output": {"directory"},
}

# the [grid] particles each experiment accepts
_PARTICLES = {"spectrum": (1,), "dispersion": (1,), "thresholds": (1,),
              "mourre": (2,), "partition": (2,), "min-velocity": (2,), "channels": (2,),
              "evolve": (1, 2), "local-decay": (1, 2)}


def _parse_ini(path: str) -> configparser.ConfigParser:
    """Read a UTF-8 INI file; values are taken literally, with no ``%`` interpolation."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), interpolation=None)
    try:
        read = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config {path!r}: {exc}") from exc
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    for section in cp.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in cp[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    return cp


def serialize_config(cp: configparser.ConfigParser) -> str:
    lines = []
    for section in sorted(cp.sections()):
        lines.append(f"[{section}]")
        for key in sorted(cp[section]):
            lines.append(f"{key} = {cp[section][key]}")
        lines.append("")
    return "\n".join(lines)


def _get(cp, section, key, cast, default=None, required=False):
    if cp.has_option(section, key):
        raw = cp.get(section, key)
        try:
            return cast(raw)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    if required:
        raise ConfigError(f"missing required key {key!r} in section [{section}]")
    return default


def _require_section(cp, section):
    if not cp.has_section(section):
        raise ConfigError(f"missing required section [{section}]")


def _float_list(raw: str):
    return [float(tok) for tok in raw.replace(",", " ").split()]


def parse_model(cp) -> ThreeBodyModel:
    _require_section(cp, "model")
    pots = {}
    for name in ("v12", "v13", "v23"):
        family = _get(cp, "model", f"{name}_family", str, default="zero")
        try:
            pots[name] = PotentialSpec(
                family=family,
                strength=_get(cp, "model", f"{name}_strength", float, default=0.0),
                width=_get(cp, "model", f"{name}_width", float, default=1.0),
                center=_get(cp, "model", f"{name}_center", float, default=0.0),
            )
        except PotentialError as exc:
            raise ConfigError(f"[model] {name}: {exc}") from exc
    return ThreeBodyModel(**pots)


def parse_grid(cp):
    _require_section(cp, "grid")
    try:
        return make_grid(
            _get(cp, "grid", "particles", int, required=True),
            _get(cp, "grid", "points", int, required=True),
            _get(cp, "grid", "half_extent", float, required=True),
        )
    except GridError as exc:
        raise ConfigError(f"[grid] {exc}") from exc


def _grid_for(cp, experiment: str) -> GridSpec:
    """The [grid] section, with a particle count that ``experiment`` accepts."""
    grid = parse_grid(cp)
    if grid.particles not in _PARTICLES[experiment]:
        raise ConfigError(f"[grid] particles = {grid.particles}: {experiment} needs "
                          + " or ".join(map(str, _PARTICLES[experiment])))
    return grid


def _model_on_grid(cp, experiment: str) -> tuple[ThreeBodyModel, GridSpec]:
    """The [model] and [grid] sections, with every potential negligible at the box edge."""
    model, grid = parse_model(cp), _grid_for(cp, experiment)
    try:
        model.validate_for(grid)
    except PotentialError as exc:
        raise ConfigError(f"[model] on [grid]: {exc}") from exc
    return model, grid


def parse_cutoffs(cp) -> CutoffSpec:
    _require_section(cp, "cutoffs")
    try:
        return CutoffSpec(
            delta=_get(cp, "cutoffs", "delta", float, required=True),
            eps=_get(cp, "cutoffs", "eps", float, required=True),
            smoothing_fraction=_get(cp, "cutoffs", "smoothing", float, default=0.1),
        )
    except HypothesisError as exc:
        raise ConfigError(f"[cutoffs] {exc}") from exc


def _checked(cp, section: str, key: str, cast, check, default=None):
    """[section] ``key``, read with ``cast`` (required unless it has a ``default``)
    and passed through the library's own up-front ``check``, whose
    :class:`GridError` or :class:`HypothesisError` becomes :class:`ConfigError`."""
    if default is None:
        _require_section(cp, section)
    value = _get(cp, section, key, cast, default=default, required=default is None)
    try:
        check(value)
    except (GridError, HypothesisError) as exc:
        raise ConfigError(f"[{section}] {exc}") from exc
    return value


def parse_schedule(cp) -> tuple[float, float]:
    """[schedule] dt and boundary_limit, shared by the four dynamical experiments."""
    dt = _checked(cp, "schedule", "dt", float, require_time_step)
    return dt, _checked(cp, "schedule", "boundary_limit", float, require_boundary_limit,
                        default=DEFAULT_BOUNDARY_LIMIT)


def _packet(cp, grid: GridSpec, width: float, momenta: str | None = None) -> WaveFunction:
    """The [packet] Gaussian on ``grid``; ``width`` and ``momenta`` are the keys' defaults."""
    _require_section(cp, "packet")
    momenta = _float_list(_get(cp, "packet", "axis_momenta", str, default=momenta,
                               required=momenta is None))
    try:
        return gaussian_packet(grid, _get(cp, "packet", "center", float, default=0.0), momenta,
                               _get(cp, "packet", "width", float, default=width))
    except GridError as exc:
        raise ConfigError(f"[packet] {exc}") from exc


def _evolution_hamiltonian(model: ThreeBodyModel, grid: GridSpec):
    """The full H on a two-particle grid, H_(y)(x0)'s subsystem on a one-particle grid."""
    return model.full() if grid.particles == 2 else model.subsystem(ClusterId.PHOTON_FREE)


def parse_window(cp):
    _require_section(cp, "window")
    return (_get(cp, "window", "lo", float, required=True),
            _get(cp, "window", "hi", float, required=True))


def _out_path(out_dir, experiment, tag, suffix):
    return os.path.join(out_dir, f"{experiment}-{tag}.{suffix}")


def run_experiment(experiment: str, cp, seed: int, out_dir: str, fast: bool = False):
    """Execute one experiment; returns the list of files written.

    ``fast`` makes ``verify-all`` run the quick deterministic subset.
    """
    os.makedirs(out_dir, exist_ok=True)
    tag = hashlib.sha256(
        (serialize_config(cp) + f"|seed={seed}|{experiment}").encode()
    ).hexdigest()[:12]
    files = []
    t0 = time.perf_counter()
    status = "ok"

    def out(name_suffix, suffix="csv"):
        path = _out_path(out_dir, experiment, f"{tag}-{name_suffix}" if name_suffix else tag,
                         suffix)
        files.append(path)
        return path

    if experiment == "spectrum":
        model, grid = _model_on_grid(cp, experiment)
        count = _get(cp, "window", "count", int, default=6)
        # dense_spectrum solves up to every site, iterative_lowest up to all but two
        limit = grid.size if grid.size <= DENSE_LIMIT else grid.size - 2
        if not 1 <= count <= limit:
            raise ConfigError(f"[window] count = {count} must lie in [1, {limit}]")
        for a in TWO_CLUSTERS:
            h = model.subsystem(a)
            res = (dense_spectrum(h, grid, count) if grid.size <= DENSE_LIMIT
                   else iterative_lowest(h, grid, count))
            rows = [(j, lam, r) for j, (lam, r) in
                    enumerate(zip(res.eigenvalues, res.residuals))]
            tag_a = a.name.lower().replace("_", "-")
            sio.write_csv(out(tag_a), ("index", "eigenvalue", "residual"), rows)
            write_wavefunction(out(f"ground-{tag_a}", "dswf"), res.eigenvectors[0])

    elif experiment == "thresholds":
        model, grid = _model_on_grid(cp, experiment)
        sio.write_csv(out(""), *xp.threshold_csv(threshold_table(model, grid)))

    elif experiment == "dispersion":
        model, grid = _model_on_grid(cp, experiment)
        _require_section(cp, "dispersion")
        svals = _float_list(_get(cp, "dispersion", "s_values", str, required=True))
        sio.write_csv(out(""), *xp.dispersion_csv(dispersion_scan(model, grid, svals)))

    elif experiment == "mourre":
        model, grid = _model_on_grid(cp, experiment)
        window = parse_window(cp)
        energy = _get(cp, "window", "energy", float, required=True)
        samples = _checked(cp, "window", "samples", int, require_sample_count, default=20)
        table = threshold_table(model, make_grid(*xp.THRESHOLD_GRID))
        boundary_tol = _get(cp, "window", "boundary_tol", float, default=5e-2)
        report = mourre_report(energy, window, model, grid, table,
                               samples=samples, seed=seed, boundary_tol=boundary_tol)
        path = out("")
        sio.write_csv(path, *xp.mourre_csv(report))
        with open(path, "a", newline="\n") as fh:
            fh.write(f"# summary: min_form={sio.fmt(report.min_form)} "
                     f"violations={report.violations} "
                     f"worst_margin={sio.fmt(report.worst_margin)} "
                     f"deflated={report.deflated_count}\n")
        sio.write_sidecar(out("summary", "txt"), {
            "E": energy, "window_lo": window[0], "window_hi": window[1],
            "bound": report.bound, "min_form": report.min_form,
            "violations": report.violations, "worst_margin": report.worst_margin,
            "deflated": report.deflated_count, "gap": report.gap,
        })

    elif experiment == "partition":
        width = _get(cp, "partition", "width", float, default=DEFAULT_SMOOTHING_WIDTH)
        # no boundary-decay check: the partition samples the model only along rays
        grid = _grid_for(cp, experiment)
        pset = build_partition(width)
        model = parse_model(cp) if cp.has_section("model") else None
        report = verify_partition(pset, grid, model=model)
        sio.write_csv(out(""), *xp.partition_csv(report))
        fields = pset.sample_on_grid(grid)
        for a, vals in fields.items():
            path = out(f"member-{a.name.lower().replace('_', '-')}", "dswf")
            write_wavefunction(path, WaveFunction(grid, vals.astype(np.complex128)))
        if not report.ok:
            status = "violations: " + "; ".join(report.violations)

    elif experiment == "evolve":
        model, grid = _model_on_grid(cp, experiment)
        dt, limit = parse_schedule(cp)
        horizon = _checked(cp, "schedule", "horizon", float, lambda T: Schedule.horizon(T, dt, 1))
        psi0 = _packet(cp, grid, 2.0, _get(cp, "packet", "momentum", str, default="0"))
        ham = _evolution_hamiltonian(model, grid)
        final, traces = evolve(psi0, PropagatorSpec(ham, dt=dt), horizon,
                               boundary_limit=limit, observables=("norm", "energy"))
        for name, series in traces.items():
            sio.write_csv(out(name), ("t", name), list(zip(series.times, series.values)))
        write_wavefunction(out("final", "dswf"), final)
        sio.write_sidecar(out("meta", "txt"),
                          {"dt": dt, "horizon": horizon, "seed": seed,
                           "points": grid.points_per_axis,
                           "half_extent": grid.half_extent})

    elif experiment in ("local-decay", "min-velocity", "channels"):
        model, grid = _model_on_grid(cp, experiment)
        window = parse_window(cp)
        dt, limit = parse_schedule(cp)
        psi0 = _packet(cp, grid, 6.0)
        # every time and range is checked before the threshold solves and the filter
        if experiment == "local-decay":
            trace = functools.partial(
                local_decay_trace, psi0, _evolution_hamiltonian(model, grid), window,
                T=_checked(cp, "schedule", "horizon", float, lambda T: decay_schedule(T, dt)),
                mu=_checked(cp, "window", "mu", float, require_decay_weight, default=0.6))
        elif experiment == "min-velocity":
            # the trace samples once per unit time, its default sample interval
            trace = functools.partial(
                minimal_velocity_trace, psi0, model.full(), window,
                T=_checked(cp, "schedule", "horizon", float,
                           lambda T: Schedule.velocity(T, 1.0, dt)),
                cutoffs=parse_cutoffs(cp))
        else:
            times = _checked(cp, "schedule", "times", _float_list,
                             lambda ts: Schedule.channel(ts, dt))
            trace = functools.partial(completeness_defect, psi0, model, window,
                                      parse_cutoffs(cp), times)
        series = trace(dt=dt, table=threshold_table(model, make_grid(*xp.THRESHOLD_GRID)),
                       filter_transition=0.25, boundary_limit=limit)
        sio.write_csv(out(""), ("t", series.label), list(zip(series.times, series.values)))
        sio.write_sidecar(out("meta", "txt"),
                          {**series.metadata, "seed": seed, "experiment": experiment})

    elif experiment == "verify-all":
        results = xp.verify_all(seed=seed, out_dir=out_dir, fast=fast)
        files += [os.path.join(out_dir, f"{r.name}.csv") for r in results if not r.skipped]
        rows = [(r.name, "SKIP" if r.skipped else ("PASS" if r.passed else "FAIL"))
                for r in results]
        sio.write_csv(out("summary"), ("check", "status"), rows)
        # run times differ run to run, so they stay out of the byte-identical CSV
        sio.write_sidecar(out("summary", "txt"),
                          {f"{r.name}.runtime_s": r.runtime for r in results})
        failed = [r.name for r in results if not r.passed and not r.skipped]
        skipped = [r.name for r in results if r.skipped]
        if failed:
            status = "failed: " + ", ".join(failed)
        elif skipped:
            status = "skipped: " + ", ".join(skipped)
    else:
        raise ConfigError(f"unknown experiment {experiment!r}")

    wall = time.perf_counter() - t0
    manifest = _out_path(out_dir, experiment, tag, "manifest.txt")
    sio.write_manifest(manifest, experiment, CLAIMS[experiment],
                       {"seed": seed, "config_sha": tag}, files, wall, status)
    if status.startswith("failed"):
        raise ScatterError(status)
    if status.startswith("skipped"):
        raise ChecksSkippedError(status)
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="scatter",
        description="Numerical experiments on the three-body dispersive model",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", required=False,
                        help="INI config; optional for verify-all")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--fast", action="store_true",
                        help="verify-all only: run the quick deterministic subset")
    args = parser.parse_args(argv)

    try:
        if args.config is None and args.experiment != "verify-all":
            print("error: --config is required", file=sys.stderr)
            return 2
        cp = _parse_ini(args.config) if args.config else configparser.ConfigParser()
        seed = args.seed if args.seed is not None else _get(
            cp, "experiment", "seed", int, default=xp.DEFAULT_SEED)
        out_dir = args.out or _get(cp, "output", "directory", str, default="out")
        name = _get(cp, "experiment", "name", str, default=args.experiment)
        if name != args.experiment:
            raise ConfigError(
                f"config names experiment {name!r} but {args.experiment!r} was requested")
        run_experiment(args.experiment, cp, seed, out_dir, fast=args.fast)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ChecksSkippedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ScatterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
