"""Outside-in span tracing of scatterlab's public functions.

While a :class:`Tracer` is installed, every public function of the traced
modules is replaced, in every ``scatterlab`` module namespace that holds it,
by a wrapper that records one span per call: name, start, end and the
enclosing span.  The FFT functions of ``numpy.fft`` and ``scipy.fft`` are
wrapped too, as the ``lattice.fft`` span, so FFTs are counted whichever of
the two modules the program calls them from.
Nothing inside ``src/`` is edited; leaving the ``with`` block puts every
original function back, so untraced passes time the bare program.

Spans stay in memory while the pass runs and are written out afterwards.
Self time is a span's duration minus the union of its children's intervals;
a count such as "applies" is attributed to the innermost enclosing span.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import math
import sys
import time

import numpy as np

PACKAGE = "scatterlab"
TRACED_MODULES = ("lattice", "operators", "spectral", "commutators", "propagation")
FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                 "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")
FFT_SPAN = "lattice.fft"
APPLY_SPAN = "operators.apply_hamiltonian"
ROOT_SPAN = "pass"

# tail percentiles tried from the highest down; the first with at least
# TAIL_BEYOND calls beyond it is reported
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


class Tracer:
    """Spans of one timed pass, kept in parallel lists."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.fft_bytes: dict[int, int] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield i
        finally:
            self.close(i)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    def wrap_fft(self, fn):
        @functools.wraps(fn)
        def traced(a, *args, **kwargs):
            i = self.open(FFT_SPAN)
            try:
                out = fn(a, *args, **kwargs)
            finally:
                self.close(i)
            self.fft_bytes[i] = np.asarray(a).nbytes + out.nbytes
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap the traced functions and the FFTs for the duration of the block."""
        patched = []
        try:
            # keyed by id: module namespaces also hold unhashable values
            wrappers = {id(fn): self.wrap(fn, label) for fn, label in public_functions().items()}
            fft_modules = [importlib.import_module(name) for name in FFT_MODULES]
            for mod in fft_modules:
                for attr in FFT_FUNCTIONS:
                    fn = getattr(mod, attr)
                    wrappers[id(fn)] = self.wrap_fft(fn)
            modules = [mod for name, mod in list(sys.modules.items())
                       if name == PACKAGE or name.startswith(PACKAGE + ".")]
            for mod in modules + fft_modules:
                for attr, value in list(vars(mod).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None:
                        patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
            yield patched
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def self_times(self) -> np.ndarray:
        return self_times(self.starts, self.ends, self.parents)

    def write(self, path: str) -> None:
        """Gzipped JSON lines, one object per span, in opening order."""
        with gzip.open(path, "wt") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "span": i, "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "workload": self.workload, "seed": self.seed,
                }) + "\n")


def public_functions() -> dict:
    """Map each public function of the traced modules to its span name."""
    out = {}
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"{PACKAGE}.{short}")
        for name, value in vars(mod).items():
            if (inspect.isfunction(value) and value.__module__ == mod.__name__
                    and not name.startswith("_")):
                out[value] = f"{short}.{name}"
    return out


def self_times(starts, ends, parents) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals."""
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    out = ends - starts
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    for p, kids in children.items():
        lo_p, hi_p = starts[p], ends[p]
        covered = 0.0
        cur_lo = cur_hi = None
        for k in sorted(kids, key=lambda k: starts[k]):
            lo, hi = max(starts[k], lo_p), min(ends[k], hi_p)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[p] -= covered
    return out


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least TAIL_BEYOND of n calls beyond it."""
    for p in TAIL_LADDER:
        if round(n * (100.0 - p), 6) >= 100 * TAIL_BEYOND:
            return p
    return None


def nearest_rank(sorted_values, p: float) -> float:
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return float(sorted_values[k - 1])


# (metric, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("lattice.fft.calls", "count"),
    ("lattice.fft.self_s", "s"),
    ("lattice.fft.mb_computed", "MB"),
    ("operators.apply_hamiltonian.calls", "count"),
    ("operators.apply_hamiltonian.self_s", "s"),
    ("operators.apply_hamiltonian.us_per_call", "us"),
    ("operators.apply_hamiltonian.us_tail", "us"),
    ("operators.apply_hamiltonian.tail_pct", "%"),
    ("operators.potential_field.calls", "count"),
    ("operators.potential_field.self_s", "s"),
    ("spectral.spectral_filter.calls", "count"),
    ("spectral.spectral_filter.applies", "count"),
    ("spectral.spectral_filter.self_s", "s"),
    ("spectral.spectral_filter.us_per_hop", "us"),
    ("spectral.iterative_lowest.calls", "count"),
    ("spectral.iterative_lowest.applies", "count"),
    ("spectral.iterative_lowest.self_s", "s"),
    ("spectral.iterative_lowest.us_per_matvec", "us"),
    ("spectral.localized_eigenvectors.incl_s", "s"),
    ("spectral.dense_spectrum.calls", "count"),
    ("spectral.dense_spectrum.applies", "count"),
    ("spectral.dense_spectrum.self_s", "s"),
    ("spectral.dense_spectrum.ms_per_call", "ms"),
    ("spectral.ground_state_imag_time.calls", "count"),
    ("spectral.ground_state_imag_time.self_s", "s"),
    ("spectral.ground_state_imag_time.fft_calls", "count"),
    ("spectral.threshold_table.incl_s", "s"),
    ("spectral.dispersion_scan.incl_s", "s"),
    ("commutators.mourre_report.incl_s", "s"),
    ("commutators.commutator_form.calls", "count"),
    ("commutators.commutator_form.incl_s", "s"),
    ("propagation.evolve.incl_s", "s"),
    ("propagation.evolve.self_s", "s"),
    ("propagation.evolve.applies", "count"),
    ("propagation.evolve.us_per_step", "us"),
    ("trace.wall_s", "s"),
    ("trace.glue_s", "s"),
)


def layer_metrics(tracer: Tracer, steps: int = 0) -> dict[str, float]:
    """Per-layer figures of one traced pass.

    ``steps`` is the number of Strang steps the pass asked ``evolve`` for.
    A rate whose base is zero (the function was not called) reads 0.
    """
    names = np.array(tracer.names)
    starts = np.asarray(tracer.starts)
    dur = np.asarray(tracer.ends) - starts
    own = tracer.self_times()
    parents = np.asarray(tracer.parents)
    parent_names = np.where(parents >= 0, names[np.maximum(parents, 0)], "")

    def sel(name):
        return names == name

    def calls(name):
        return int(np.count_nonzero(sel(name)))

    def incl(name):
        return float(dur[sel(name)].sum())

    def self_s(name):
        return float(own[sel(name)].sum())

    def children(name, child):
        return int(np.count_nonzero(sel(child) & (parent_names == name)))

    def per(total, base, scale):
        return total / base * scale if base else 0.0

    apply = APPLY_SPAN
    apply_durs = np.sort(dur[sel(apply)])
    tail = tail_percentile(apply_durs.size)
    m = {
        "lattice.fft.calls": calls(FFT_SPAN),
        "lattice.fft.self_s": self_s(FFT_SPAN),
        "lattice.fft.mb_computed": sum(tracer.fft_bytes.values()) / 1e6,
        f"{apply}.calls": apply_durs.size,
        f"{apply}.self_s": self_s(apply),
        f"{apply}.us_per_call": float(np.median(apply_durs)) * 1e6 if apply_durs.size else 0.0,
        f"{apply}.us_tail": nearest_rank(apply_durs, tail) * 1e6 if tail else 0.0,
        f"{apply}.tail_pct": tail or 0.0,
        "operators.potential_field.calls": calls("operators.potential_field"),
        "operators.potential_field.self_s": self_s("operators.potential_field"),
    }
    for fn, rate in (("spectral.spectral_filter", "us_per_hop"),
                     ("spectral.iterative_lowest", "us_per_matvec")):
        applies = children(fn, apply)
        m[f"{fn}.calls"] = calls(fn)
        m[f"{fn}.applies"] = applies
        m[f"{fn}.self_s"] = self_s(fn)
        m[f"{fn}.{rate}"] = per(incl(fn), applies, 1e6)
    dense = "spectral.dense_spectrum"
    dense_durs = dur[sel(dense)]
    m[f"{dense}.calls"] = dense_durs.size
    m[f"{dense}.applies"] = children(dense, apply)
    m[f"{dense}.self_s"] = self_s(dense)
    m[f"{dense}.ms_per_call"] = float(np.median(dense_durs)) * 1e3 if dense_durs.size else 0.0
    imag = "spectral.ground_state_imag_time"
    m[f"{imag}.calls"] = calls(imag)
    m[f"{imag}.self_s"] = self_s(imag)
    m[f"{imag}.fft_calls"] = children(imag, FFT_SPAN)
    for fn in ("spectral.localized_eigenvectors", "spectral.threshold_table",
               "spectral.dispersion_scan", "commutators.mourre_report"):
        m[f"{fn}.incl_s"] = incl(fn)
    m["commutators.commutator_form.calls"] = calls("commutators.commutator_form")
    m["commutators.commutator_form.incl_s"] = incl("commutators.commutator_form")
    ev = "propagation.evolve"
    ev_applies = sel(apply) & (parent_names == ev)
    m[f"{ev}.incl_s"] = incl(ev)
    m[f"{ev}.self_s"] = self_s(ev)
    m[f"{ev}.applies"] = int(np.count_nonzero(ev_applies))
    m[f"{ev}.us_per_step"] = per(incl(ev) - float(dur[ev_applies].sum()), steps, 1e6)
    m["trace.wall_s"] = incl(ROOT_SPAN)
    m["trace.glue_s"] = self_s(ROOT_SPAN)
    return {k: float(v) for k, v in m.items()}
