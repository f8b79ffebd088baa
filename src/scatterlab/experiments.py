"""Verification experiments and the acceptance checks built on them.

Every check is a self-contained numerical experiment with pinned scales and
tolerances, deterministic under its seed.  Its body returns the verdict, the
values and the CSV rows; one harness, :func:`_check`, times the body, names
the check by :func:`_check_name`, writes ``<out_dir>/<name>.csv`` and builds
the :class:`CheckResult`.  Each shared result type has one CSV builder
(:func:`threshold_csv`, :func:`dispersion_csv`, :func:`mourre_csv`,
:func:`partition_csv`) that the checks and the CLI both write through, so
command-line runs and the test suite exercise one code path.
"""

from __future__ import annotations

import functools
import os
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from . import io as sio
from .clusters import ClusterId, TWO_CLUSTERS
from .commutators import (
    analytic_commutator_apply,
    apply_dilation,
    commutator_form,
    continuum_edge,
    MourreReport,
    mourre_report,
    sqrt_lemma_eval,
)
from .errors import ScatterError
from .lattice import GridSpec, WaveFunction, gaussian_packet, make_grid
from .model import ThreeBodyModel, default_model, free_model
from .operators import (
    HamiltonianSpec,
    absolute_symbol,
    apply_hamiltonian,
    free_symbol,
    poschl_teller,
    quadratic_symbol,
)
from .partition import PartitionReport, build_partition, verify_partition
from .propagation import (
    CutoffSpec,
    PropagatorSpec,
    completeness_defect,
    evolve,
    local_decay_trace,
    minimal_velocity_trace,
)
from .spectral import (
    DispersionCurve,
    ThresholdTable,
    dense_spectrum,
    dispersion_scan,
    iterative_lowest,
    localized_eigenvectors,
    quadratic_fit,
    threshold_table,
)

DEFAULT_SEED = 7

def dynamics_model() -> ThreeBodyModel:
    """The model the dynamical experiments run.

    A deep well binds the massive particle to the center; the massless
    particle's wells are weak, so in the negative window only the
    photon-escape channel is open and the thresholds stay clear of it.
    """
    return ThreeBodyModel(
        v12=poschl_teller(2.0, 1.0),
        v13=poschl_teller(0.4, 1.0),
        v23=poschl_teller(0.4, 1.0),
    )


@dataclass
class CheckResult:
    name: str
    passed: bool
    runtime: float
    values: dict = field(default_factory=dict)
    message: str = ""
    skipped: bool = False

    def line(self) -> str:
        status = "SKIP" if self.skipped else ("PASS" if self.passed else "FAIL")
        extras = " ".join(f"{k}={sio.fmt(v)}" for k, v in self.values.items())
        msg = f" ({self.message})" if self.message else ""
        return f"{status:5s} {self.name:24s} [{self.runtime:7.2f}s] {extras}{msg}"


def _seed_for(seed: int, name: str) -> int:
    return int(np.random.SeedSequence([seed, zlib.crc32(name.encode())]).generate_state(1)[0])


def _check_name(fn) -> str:
    """The name a check reports and writes its CSV under: ``check_x_y`` -> ``x-y``."""
    return fn.__name__.replace("check_", "").replace("_", "-")


def _check(body):
    """Turn ``body(seed) -> (passed, values, (header, rows)[, message])`` into a check.

    The check ``check_x(seed=DEFAULT_SEED, out_dir=None)`` times the body,
    writes its rows to ``<out_dir>/<name>.csv`` when ``out_dir`` is given,
    creating the directory, and returns the :class:`CheckResult`.
    """
    name = _check_name(body)

    @functools.wraps(body)
    def check(seed: int = DEFAULT_SEED, out_dir=None) -> CheckResult:
        t0 = time.perf_counter()
        passed, values, (header, rows), *message = body(seed)
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            sio.write_csv(os.path.join(out_dir, f"{name}.csv"), header, rows)
        return CheckResult(name=name, passed=bool(passed),
                           runtime=time.perf_counter() - t0, values=values,
                           message="".join(message))

    return check


def threshold_csv(table: ThresholdTable):
    """Header and rows of a threshold table: each subsystem eigenvalue, then zero."""
    rows = [(str(a), lam) for a in TWO_CLUSTERS for lam in table.per_cluster[a]]
    rows.append(("zero", 0.0))
    return ("cluster", "threshold"), rows


def dispersion_csv(curve: DispersionCurve):
    """Header and rows of a dispersion scan, one fiber per row."""
    return (("s", "lambda", "lambda_minus_s2", "residual", "flagged"),
            [(s, lam, lam - s * s, r, bool(f)) for s, lam, r, f in
             zip(curve.s_values, curve.lambdas, curve.residuals, curve.flagged)])


def mourre_csv(report: MourreReport):
    """Header and rows of a Mourre report, one sample per row."""
    return (("sample", "form_value", "bound", "margin", "eigen_deflated_count"),
            [(i, f, report.bound, f - report.bound, report.deflated_count)
             for i, f in enumerate(report.form_values)])


def partition_csv(report: PartitionReport):
    """Header and rows of a partition verification, one metric per row."""
    rows = [("sum_sq_max_dev", report.sum_sq_max_dev),
            ("range_violations", report.range_violations),
            ("support_violations", report.support_violations),
            ("homogeneity_max_dev", report.homogeneity_max_dev),
            ("violations", len(report.violations))]
    rows += [(f"gradient_C[{k}]", v) for k, v in report.gradient_constants.items()]
    rows += [(f"ray_decay_at_R16[{k}]", v) for k, v in report.ray_decay.items()]
    return ("metric", "value"), rows


def admissible_random_state(grid: GridSpec, rng: np.random.Generator,
                            momentum_centers) -> WaveFunction:
    """Random state that the lattice represents faithfully.

    Noise is shaped in momentum space by Gaussian masks of width 0.2 centered
    away from the symbol kinks (|k| = 0) and from the Nyquist fold, then
    enveloped in position by a Gaussian of width L/8, away from the box edge.
    Both lattice seams then carry exponentially small mass, which the
    commutator identities require.
    """
    centers = np.atleast_1d(np.asarray(momentum_centers, dtype=float))
    noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    kmesh = grid.momentum_mesh()
    mask = np.ones(grid.shape)
    for kc, K in zip(centers, kmesh):
        mask = mask * np.exp(-((K - kc) ** 2) / (2.0 * 0.2 ** 2))
    shaped = np.fft.ifftn(mask * np.fft.fftn(noise))
    shaped = shaped * np.exp(-grid.radius_sq() / (2.0 * (grid.half_extent / 8.0) ** 2))
    return WaveFunction(grid, shaped).normalized()


def product_state(grid2: GridSpec, xvals: np.ndarray, yvals: np.ndarray) -> WaveFunction:
    """Two-particle product state from one-axis amplitude vectors."""
    return WaveFunction(grid2, np.outer(xvals, yvals)).normalized()


def bound_ground_1d(model: ThreeBodyModel, cluster: ClusterId, n: int, L: float):
    grid1 = make_grid(1, n, L)
    res = dense_spectrum(model.subsystem(cluster), grid1, 1)
    return grid1, res.eigenvalues[0], res.eigenvectors[0]


# ---------------------------------------------------------------------------
# check 1: closed-form fibered continuum edge vs brute-force minimization
# ---------------------------------------------------------------------------

def brute_force_edge(s: float) -> float:
    """Two-stage grid minimization of (1/4)(q+s)^2 + (1/2)|q-s|.

    The minimum sits at a kink for |s| <= 1/2, so a single pass cannot reach
    1e-6; the second pass zooms into the coarse argmin.  Each pass samples
    400000 points.
    """
    lo, hi = -abs(s) - 1.5, abs(s) + 1.5

    def symbol(q):
        return 0.25 * (q + s) ** 2 + 0.5 * np.abs(q - s)

    q = np.linspace(lo, hi, 400_000)
    i = int(np.argmin(symbol(q)))
    step = q[1] - q[0]
    q2 = np.linspace(q[i] - 2 * step, q[i] + 2 * step, 400_000)
    return float(np.min(symbol(q2)))


@_check
def check_continuum_edge(seed):
    rng = np.random.default_rng(_seed_for(seed, "continuum-edge"))
    svals = rng.uniform(-3.0, 3.0, size=100)
    rows = []
    worst = 0.0
    for s in svals:
        closed = continuum_edge(s)
        brute = brute_force_edge(s)
        diff = abs(closed - brute)
        worst = max(worst, diff)
        rows.append((s, closed, brute, diff))
    return (worst <= 1e-6, {"max_abs_diff": worst},
            (("s", "closed_form", "brute_force", "abs_diff"), rows))


# ---------------------------------------------------------------------------
# check 2: quadrature identity for the singular dispersion
# ---------------------------------------------------------------------------

@_check
def check_sqrt_identity(seed):
    rows = []
    worst = 0.0
    for k in (0.01, 0.1, 1.0, 2.0, 10.0):
        val = sqrt_lemma_eval(k, tol=1e-8)
        rel = abs(val - k) / k
        worst = max(worst, rel)
        rows.append((k, val, rel))
    return worst <= 1e-6, {"max_rel_error": worst}, (("k", "quadrature", "rel_error"), rows)


# ---------------------------------------------------------------------------
# check 3: pair-cluster dispersion against the two-particle momentum sectors
# ---------------------------------------------------------------------------

# Box of the reference, in r = x - y.  The |k| kink gives the pair bound state
# a power-law tail, so the fitted coefficient depends on the box: 0.4850,
# 0.5294, 0.5259, 0.5242 at half extent 32, 64, 128, 256.  128 is the first
# box whose doubling moves it by less than 2e-3.
PAIR_REFERENCE_GRID = (1, 1024, 128.0)

# Box of the threshold tables of criteria 8, 11 and 13 and the CLI.  Thresholds
# depend on it: dynamics (x)(y0) reads -0.0323 at L = 32 and -0.0205 at L = 128.
THRESHOLD_GRID = (1, 512, 32.0)


def pair_sector_hamiltonian(model: ThreeBodyModel, s: float) -> HamiltonianSpec:
    """H_(xy)(0) on the states e^{isy} f(x - y) of total momentum s.

    In the relative coordinate r = x - y it is p^2 + |s - p| + V23(r), p the
    momentum conjugate to r: no change of variables, no fiber chart.
    """
    sym = quadratic_symbol(1.0) + absolute_symbol(1.0, shift=-float(s))
    return HamiltonianSpec(sym, ((model.v23, "internal"),))


@_check
def check_pair_dispersion(seed):
    """The (xy)(0) fiber energies against the total-momentum sectors of H_a.

    The reference solves each sector in the relative coordinate on a larger
    box, without going through ``ThreeBodyModel.reduced``.  Both the energies
    and the fitted quadratic transport coefficients must agree.
    """
    model = default_model()
    grid = make_grid(1, 512, 32.0)
    svals = (0.0, 0.05, -0.05, 0.1, -0.1, 0.2, -0.2)
    curve = dispersion_scan(model, grid, svals)
    ref_grid = make_grid(*PAIR_REFERENCE_GRID)
    reference = np.array([
        iterative_lowest(pair_sector_hamiltonian(model, s), ref_grid, 1,
                         tol=1e-12).eigenvalues[0]
        for s in curve.s_values
    ])
    keep = ~curve.flagged
    ref_coefficient = quadratic_fit(curve.s_values[keep], reference[keep])[2]
    rows = [
        (s, lam, ref, r, bool(f))
        for s, lam, ref, r, f in zip(curve.s_values, curve.lambdas, reference,
                                     curve.residuals, curve.flagged)
    ]
    worst = float(np.max(np.abs(curve.lambdas - reference)))
    dev_tol = 5e-3 * (1.0 + abs(curve.lambda0))
    dev_ok = worst <= dev_tol
    coef_ok = abs(curve.quad_coefficient - ref_coefficient) <= 2e-2
    message = ""
    if not (dev_ok and coef_ok):
        message = (
            f"fiber dispersion departs from the two-particle sectors: max |dlambda| "
            f"{worst:.3e}, coefficient {curve.quad_coefficient:.4f} against "
            f"{ref_coefficient:.4f}"
        )
    values = {
        "lambda0": curve.lambda0,
        "max_abs_diff": worst,
        "deviation_tol": dev_tol,
        "quad_coefficient": curve.quad_coefficient,
        "reference_quad_coefficient": ref_coefficient,
        "linear_coefficient": curve.linear_coefficient,
    }
    return (dev_ok and coef_ok, values,
            (("s", "lambda", "lambda_reference", "residual", "flagged"), rows), message)


# ---------------------------------------------------------------------------
# check 4: fiber shift law for the photon-escape cluster
# ---------------------------------------------------------------------------

@_check
def check_fiber_shift(seed):
    model = default_model()
    grid = make_grid(1, 256, 16.0)
    count = 6
    base = dense_spectrum(model.subsystem(ClusterId.PHOTON_FREE), grid, count)
    rows = []
    worst = 0.0
    for s in (0.0, 0.5, 1.0):
        shifted = dense_spectrum(model.reduced(ClusterId.PHOTON_FREE, s), grid, count)
        diff = np.max(np.abs(shifted.eigenvalues - (base.eigenvalues + abs(s))))
        worst = max(worst, float(diff))
        for j in range(count):
            rows.append((s, j, shifted.eigenvalues[j], base.eigenvalues[j] + abs(s)))
    return (worst <= 1e-9, {"max_abs_diff": worst},
            (("s", "index", "fiber_eigenvalue", "base_plus_s"), rows))


# ---------------------------------------------------------------------------
# check 5: virial identity on every converged subsystem eigenpair
# ---------------------------------------------------------------------------

@_check
def check_virial(seed):
    model = default_model()
    grid = make_grid(1, 512, 32.0)
    rows = []
    worst = 0.0
    passed = True
    for a in TWO_CLUSTERS:
        h = model.subsystem(a)
        res = dense_spectrum(h, grid, 8)
        pairs = [(lam, vec, "dense") for lam, vec in zip(res.eigenvalues, res.eigenvectors)
                 if lam < -1e-6]
        ground = iterative_lowest(h, grid, 1)
        pairs.append((ground.eigenvalues[0], ground.eigenvectors[0], "lanczos"))
        for lam, vec, method in pairs:
            # the |k|-kinetic bound states have power-law tails, so the strict
            # boundary-concentration default is relaxed; the lattice virial
            # identity is an algebraic one and holds regardless
            form = commutator_form(vec, h, boundary_tol=1e-3)
            hnorm = apply_hamiltonian(vec, h).norm()
            anorm = apply_dilation(vec, boundary_tol=1e-3).norm()
            bound = 1e-6 * hnorm * anorm
            ok = abs(form) <= bound
            passed = passed and ok
            worst = max(worst, abs(form) / max(bound, 1e-300))
            rows.append((str(a), method, lam, form, bound, ok))
    return (passed, {"worst_ratio": worst, "pairs": len(rows)},
            (("cluster", "method", "eigenvalue", "form_value", "bound", "ok"), rows))


# ---------------------------------------------------------------------------
# check 6: commutator path independence (form vs closed-form application)
# ---------------------------------------------------------------------------

def _fibered_external_constant(a: ClusterId, s: float) -> float:
    if a is ClusterId.PHOTON_FREE:
        return abs(s)
    if a is ClusterId.ELECTRON_FREE:
        return 2.0 * s * s
    return 0.0


@_check
def check_commutator_paths(seed):
    model = default_model()
    grid1 = make_grid(1, 256, 32.0)
    # V23 acts on the pair's grid coordinate u as V23(2u); half the spacing
    # samples that narrowed well as finely, in its own variable 2u, as grid1
    # samples V12 and V13.  Its states come from their own stream, so the
    # other formulas keep theirs.
    grid_pair = make_grid(1, 512, 32.0)
    grid2 = make_grid(2, 128, 24.0)
    rng = np.random.default_rng(_seed_for(seed, "commutator-paths"))
    rng_pair = np.random.default_rng(_seed_for(seed, "commutator-paths-pair"))
    rows = []
    worst = 0.0
    passed = True

    def compare(which, psi, partner, s=None):
        nonlocal worst, passed
        applied = analytic_commutator_apply(psi, which, model, s=s)
        val = psi.inner(applied)
        # reality of the form: the closed-form operator is Hermitian
        if abs(val.imag) > 1e-9 * max(1.0, abs(val)):
            passed = False
        scale = max(1.0, abs(partner))
        diff = abs(val.real - partner)
        worst = max(worst, diff / scale)
        ok = diff <= 1e-7 * scale
        passed = passed and ok
        rows.append((which, "" if s is None else s, val.real, partner, diff, ok))

    h_free = HamiltonianSpec(free_symbol(), ())
    h_full = model.full()
    for _ in range(100):  # states per formula
        kc_p = rng.uniform(1.0, 2.0) * rng.choice((-1.0, 1.0))
        kc_k = rng.uniform(2.0, 2.5) * rng.choice((-1.0, 1.0))
        psi2 = admissible_random_state(grid2, rng, (kc_p, kc_k))
        compare("free", psi2, commutator_form(psi2, h_free))
        compare("full", psi2, commutator_form(psi2, h_full))

        kc = rng.uniform(2.0, 2.5) * rng.choice((-1.0, 1.0))
        psi1 = admissible_random_state(grid1, rng, (kc,))
        s = rng.uniform(0.3, 0.5) * rng.choice((-1.0, 1.0))
        psi_pair = admissible_random_state(grid_pair, rng_pair, (kc,))
        for a in TWO_CLUSTERS:
            psi = psi_pair if a is ClusterId.PAIR_FREE else psi1
            compare(f"subsystem:{a.value}", psi, commutator_form(psi, model.subsystem(a)))
            fib = commutator_form(psi, model.reduced(a, s))
            compare(f"fibered:{a.value}", psi,
                    fib + _fibered_external_constant(a, s), s=s)
    return (passed, {"worst_rel_diff": worst, "comparisons": len(rows)},
            (("formula", "s", "analytic_form", "two_inner_products", "abs_diff", "ok"), rows))


# ---------------------------------------------------------------------------
# check 7: free-case commutator positivity on a filtered window
# ---------------------------------------------------------------------------

def free_threshold_table() -> ThresholdTable:
    return ThresholdTable({a: np.array([]) for a in TWO_CLUSTERS})


@_check
def check_free_positivity(seed):
    # the window is 0.2 wide, so filtered states carry spatial coherence of
    # order 1/0.1 = 10s of length units; the box must dominate that scale or
    # the lattice virial identity (exact box eigenvectors have vanishing
    # form) eats the positivity
    grid = make_grid(2, 128, 64.0)
    report = mourre_report(
        E=1.0, window=(0.9, 1.1), model=free_model(), grid=grid,
        table=free_threshold_table(), samples=50,
        seed=_seed_for(seed, "free-positivity"), deflation_count=0,
        boundary_tol=5e-2,
    )
    allowance = 0.02
    return (report.min_form >= 0.9 - allowance,
            {"min_form": report.min_form, "bound": report.bound,
             "violations": report.violations, "samples": len(report.form_values)},
            mourre_csv(report))


# ---------------------------------------------------------------------------
# check 8: interacting positivity report at negative nonthreshold energy
# ---------------------------------------------------------------------------

@_check
def check_interacting_positivity(seed):
    model = default_model()
    table = threshold_table(model, make_grid(*THRESHOLD_GRID))
    # box large against the window's spatial coherence, as in the free check
    grid = make_grid(2, 128, 48.0)
    # E and the window keep clear of the (xy)(0) threshold -0.6357: d(-0.3)
    # = 0.336, and the half-width 0.15 stays within d(E)/2
    report = mourre_report(
        E=-0.3, window=(-0.45, -0.15), model=model, grid=grid, table=table,
        samples=24, seed=_seed_for(seed, "interacting-positivity"),
        deflation_count=40, boundary_tol=5e-2,
    )
    return (np.all(report.form_values >= 0.0),
            {"min_form": report.min_form, "bound": report.bound,
             "worst_margin": report.worst_margin,
             "deflated": report.deflated_count, "gap": report.gap},
            mourre_csv(report))


# ---------------------------------------------------------------------------
# check 9: partition of unity identities on the grid
# ---------------------------------------------------------------------------

@_check
def check_partition(seed):
    report = verify_partition(build_partition(), make_grid(2, 256, 8.0), model=default_model())
    return (report.ok and report.sum_sq_max_dev <= 1e-12,
            {"sum_sq_max_dev": report.sum_sq_max_dev, "violations": len(report.violations)},
            partition_csv(report), "; ".join(report.violations))


# ---------------------------------------------------------------------------
# check 10: propagator integrity (unitarity, dt^2 scaling, group velocity)
# ---------------------------------------------------------------------------

def _linear_speed(trace) -> float:
    t, x = trace.times, trace.values
    A = np.vstack([np.ones_like(t), t]).T
    coef, *_ = np.linalg.lstsq(A, x, rcond=None)
    return float(coef[1])


@_check
def check_propagator(seed):
    values: dict = {}
    ok = True
    rows = []

    # unitarity per step in a potential well
    grid = make_grid(1, 256, 32.0)
    ham = HamiltonianSpec(quadratic_symbol(1.0), ((poschl_teller(2.0, 1.0), "internal"),))
    psi = gaussian_packet(grid, 0.0, 1.0, 2.0)
    _, traces = evolve(psi, PropagatorSpec(ham, dt=0.01), T=2.0)
    norms = traces["norm"].values
    step_drift = float(np.max(np.abs(np.diff(norms))))
    values["norm_step_drift"] = step_drift
    ok &= step_drift <= 1e-10
    rows.append(("norm_step_drift", step_drift))

    # dt^2 scaling of the energy drift; short horizon keeps the scattered
    # packet well inside the box
    def drift(dt):
        _, tr = evolve(gaussian_packet(grid, 0.0, 1.2, 2.5),
                       PropagatorSpec(ham, dt=dt, steps_per_sample=max(1, int(0.2 / dt))),
                       T=2.0)
        e = tr["energy"].values
        return float(np.max(np.abs(e - e[0])))

    d1, d2 = drift(0.08), drift(0.04)
    ratio = d1 / d2
    values["energy_drift_ratio"] = ratio
    ok &= 3.2 <= ratio <= 4.8
    rows.append(("energy_drift_ratio", ratio))

    # group velocities: quadratic particle moves at 2 p0, massless at sign(k0)
    grid_v = make_grid(1, 512, 64.0)
    h_free_p = HamiltonianSpec(quadratic_symbol(1.0), ())
    psi = gaussian_packet(grid_v, -25.0, 1.0, 8.0)
    _, tr = evolve(psi, PropagatorSpec(h_free_p, dt=0.05, steps_per_sample=20),
                   T=12.0, observables=("norm", "center0"))
    v_e = _linear_speed(tr["center0"])
    values["electron_speed"] = v_e
    ok &= abs(v_e - 2.0) <= 0.04
    rows.append(("electron_speed", v_e))

    h_free_k = HamiltonianSpec(absolute_symbol(1.0), ())
    for k0 in (1.5, 3.0):
        psi = gaussian_packet(grid_v, -20.0, k0, 8.0)
        _, tr = evolve(psi, PropagatorSpec(h_free_k, dt=0.05, steps_per_sample=20),
                       T=12.0, observables=("norm", "center0"))
        v_p = _linear_speed(tr["center0"])
        values[f"photon_speed_k{k0}"] = v_p
        ok &= abs(v_p - 1.0) <= 0.02
        rows.append((f"photon_speed_k{k0}", v_p))

    return ok, values, (("metric", "value"), rows)


@functools.cache
def _photon_escape_setup():
    """Criteria 11 and 13's set-up, once per process: the dynamics model, its thresholds,
    the (y)(x0) ground state along x and the localized low eigenvectors of H on 512^2."""
    model = dynamics_model()
    table = threshold_table(model, make_grid(*THRESHOLD_GRID))
    xground = bound_ground_1d(model, ClusterId.PHOTON_FREE, 512, 128.0)[2]
    localized = tuple(localized_eigenvectors(model.full(), make_grid(2, 512, 128.0), 6))
    return model, table, xground, localized


# ---------------------------------------------------------------------------
# check 11: local decay (weighted-evolution integrability)
# ---------------------------------------------------------------------------

@_check
def check_local_decay(seed):
    values: dict = {}
    ok = True
    rows = []

    # free continuum packet crosses the weight region once
    grid = make_grid(2, 512, 128.0)
    h0 = HamiltonianSpec(free_symbol(), ())
    psi0 = gaussian_packet(grid, 0.0, (0.7, 0.8), 6.0)
    series = local_decay_trace(psi0, h0, (0.5, 1.5), mu=0.6, T=28.0, dt=0.05,
                               table=free_threshold_table())
    free_ratio = series.metadata["saturation_ratio"]
    values["free_ratio"] = free_ratio
    ok &= free_ratio <= 1.3
    rows += [("free", t, v) for t, v in zip(series.times, series.values)]

    # interacting: bound massive particle, escaping massless particle; the
    # filter kernel spreads like 1/(transition width), so the box is large
    model, table, xground, localized = _photon_escape_setup()
    grid_i = make_grid(2, 512, 128.0)
    # the packet starts slightly off the center and escapes at unit speed; the
    # trailing filter coherence clears the weight region well before T/2
    ypacket = gaussian_packet(make_grid(1, 512, 128.0), 4.0, 0.5, 5.0)
    psi0 = product_state(grid_i, xground.values, ypacket.values)
    known = [lam for lam, _ in localized]
    series = local_decay_trace(psi0, model.full(), (-0.7, -0.4), mu=0.6, T=40.0,
                               dt=0.05, table=table, known_eigenvalues=known,
                               filter_transition=0.25)
    inter_ratio = series.metadata["saturation_ratio"]
    values["interacting_ratio"] = inter_ratio
    ok &= inter_ratio <= 1.3
    rows += [("interacting", t, v) for t, v in zip(series.times, series.values)]

    # negative control: an eigenstate in the window grows linearly
    grid_c = make_grid(1, 128, 32.0)
    h_c = HamiltonianSpec(quadratic_symbol(1.0), ((poschl_teller(2.0, 1.0), "internal"),))
    ground = dense_spectrum(h_c, grid_c, 1)
    series = local_decay_trace(ground.eigenvectors[0], h_c,
                               (ground.eigenvalues[0] - 0.1, ground.eigenvalues[0] + 0.1),
                               mu=0.6, T=16.0, dt=0.05, table=free_threshold_table())
    control_ratio = series.metadata["saturation_ratio"]
    values["eigenstate_ratio"] = control_ratio
    ok &= control_ratio >= 1.8
    rows += [("eigenstate", t, v) for t, v in zip(series.times, series.values)]

    return ok, values, (("case", "t", "integral"), rows)


# ---------------------------------------------------------------------------
# check 12: minimal velocity (escape from the shrinking region)
# ---------------------------------------------------------------------------

@_check
def check_minimal_velocity(seed):
    values: dict = {}
    ok = True
    rows = []

    cutoffs = CutoffSpec(delta=0.2, eps=0.1)
    grid = make_grid(2, 512, 128.0)
    h0 = HamiltonianSpec(free_symbol(), ())
    # slow enough that the fast spectral tail stays inside the box to T = 40
    psi0 = gaussian_packet(grid, 0.0, (0.5, 0.8), 6.0)
    # on (0.5, 1.5) the free commutator bound is d(0.5) = 0.5, the window bottom
    series = minimal_velocity_trace(psi0, h0, (0.5, 1.5), cutoffs, T=40.0, dt=0.05,
                                    table=free_threshold_table(), sample_interval=2.0)
    values["free_final"] = series.final()
    ok &= series.final() <= 0.05
    rows += [("free", t, v) for t, v in zip(series.times, series.values)]

    # negative control: a bound state below every threshold never escapes;
    # deep wells keep the state compact, and the power-law tails of the
    # massless-particle kinetics still wrap a little, so the breach guard is
    # relaxed (the observable lives near the origin and does not care)
    model = default_model()
    grid_c = make_grid(2, 128, 16.0)
    res = iterative_lowest(model.full(), grid_c, 1, tol=1e-8)
    e0 = res.eigenvalues[0]
    series = minimal_velocity_trace(res.eigenvectors[0], model.full(),
                                    (e0 - 0.1, e0 + 0.1), cutoffs, T=40.0, dt=0.05,
                                    table=threshold_table(model, make_grid(*THRESHOLD_GRID)),
                                    sample_interval=2.0, skip_filter=True,
                                    boundary_limit=1e-2)
    values["eigenstate_final"] = series.final()
    ok &= series.final() >= 0.9
    rows += [("eigenstate", t, v) for t, v in zip(series.times, series.values)]

    return ok, values, (("case", "t", "cutoff_norm"), rows)


# ---------------------------------------------------------------------------
# check 13: channel decomposition defect at negative energies
# ---------------------------------------------------------------------------

@_check
def check_channels(seed):
    values: dict = {}
    ok = True
    rows = []

    model, table, xground, localized = _photon_escape_setup()
    grid = make_grid(2, 512, 128.0)
    cutoffs = CutoffSpec(delta=0.12, eps=0.02)
    window = (-0.65, -0.45)
    schedule = (4.0, 8.0, 16.0, 32.0)

    # launching the packet slightly outside the wells keeps the amplitude
    # trapped near the center small, which is what the overlap of the three
    # channel cutoffs (they are not a partition of unity) is sensitive to
    ypacket = gaussian_packet(make_grid(1, 512, 128.0), 6.0, 0.5, 6.0)
    psi0 = product_state(grid, xground.values, ypacket.values)
    deflate = [vec for lam, vec in localized if window[0] <= lam <= window[1]]
    # off-channel slivers dispersing under their own free dynamics wrap a
    # little; a 1e-4 guard bounds that junk at 1% amplitude, far below the
    # 0.1 defect tolerance
    series = completeness_defect(psi0, model, window, cutoffs, schedule, dt=0.025,
                                 table=table, deflate_eigenvectors=deflate,
                                 filter_transition=0.25, boundary_limit=1e-4)
    rows += [("interacting", t, v) for t, v in zip(series.times, series.values)]
    decreasing = bool(np.all(np.diff(series.values) <= 1e-12))
    final = series.final()
    fnorm = series.metadata["filtered_norm"]
    values["final_defect"] = final
    values["decreasing"] = decreasing
    values["filtered_norm"] = fnorm
    ok &= decreasing and final <= 0.1
    # channel consistency: the matching channel captures the state, the
    # non-matching approximants stay small
    main_norm = series.metadata["channel_norm_(y)(x0)"]
    off_norms = [series.metadata["channel_norm_(x)(y0)"],
                 series.metadata["channel_norm_(xy)(0)"]]
    values["main_channel_fraction"] = main_norm / fnorm
    values["max_off_channel_norm"] = max(off_norms)
    ok &= main_norm >= 0.9 * fnorm
    ok &= max(off_norms) <= 0.1

    # empty-window sanity: at negative energies the free model filters to zero
    grid_f = make_grid(2, 128, 32.0)
    psi_f = gaussian_packet(grid_f, 0.0, (0.5, 0.5), 4.0)
    free_series = completeness_defect(psi_f, free_model(), window, cutoffs,
                                      schedule=(4.0, 8.0), dt=0.05,
                                      table=free_threshold_table(), filter_ripple=1e-10)
    free_final = float(np.max(free_series.values)) if free_series.values.size else 0.0
    values["free_filtered_norm"] = free_series.metadata["filtered_norm"]
    values["free_max_defect"] = free_final
    ok &= free_final <= 1e-8
    rows += [("free", t, v) for t, v in zip(free_series.times, free_series.values)]

    return ok, values, (("case", "t", "defect"), rows)


# ---------------------------------------------------------------------------
# check 14: determinism of the seeded experiment pipeline
# ---------------------------------------------------------------------------

def _determinism_pass(seed: int, out_dir: str) -> list[str]:
    """Write a check's CSV and the CLI's threshold and dispersion CSVs into ``out_dir``."""
    first = check_continuum_edge(seed=seed, out_dir=out_dir).name
    model = default_model()
    grid = make_grid(1, 256, 16.0)
    for name, (header, rows) in (
            ("thresholds", threshold_csv(threshold_table(model, grid))),
            ("dispersion", dispersion_csv(dispersion_scan(model, grid, (0.0, 0.1, -0.1))))):
        sio.write_csv(os.path.join(out_dir, f"{name}.csv"), header, rows)
    return [os.path.join(out_dir, f"{name}.csv")
            for name in (first, "thresholds", "dispersion")]


@_check
def check_determinism(seed):
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        files_a = _determinism_pass(seed, os.path.join(tmp, "a"))
        files_b = _determinism_pass(seed, os.path.join(tmp, "b"))
        flags = []
        for fa, fb in zip(files_a, files_b):
            with open(fa, "rb") as f1, open(fb, "rb") as f2:
                flags.append(f1.read() == f2.read())
    return (all(flags), {"files_compared": len(files_a)},
            (("file", "identical"),
             [(os.path.basename(f), ok) for f, ok in zip(files_a, flags)]))


ALL_CHECKS = (
    check_continuum_edge,
    check_sqrt_identity,
    check_pair_dispersion,
    check_fiber_shift,
    check_virial,
    check_commutator_paths,
    check_free_positivity,
    check_interacting_positivity,
    check_partition,
    check_propagator,
    check_local_decay,
    check_minimal_velocity,
    check_channels,
    check_determinism,
)

FAST_CHECKS = (
    check_continuum_edge,
    check_sqrt_identity,
    check_fiber_shift,
    check_partition,
    check_determinism,
)


def verify_all(seed: int = DEFAULT_SEED, out_dir=None, fast: bool = False,
               printer=print, checks=None) -> list[CheckResult]:
    """Run the acceptance checks, one line per check; returns all results.

    A check whose preconditions fail is reported as skipped and the suite
    continues; assertion failures are reported as FAIL.
    """
    if checks is None:
        checks = FAST_CHECKS if fast else ALL_CHECKS
    results = []
    for chk in checks:
        try:
            result = chk(seed=seed, out_dir=out_dir)
        except ScatterError as exc:
            result = CheckResult(name=_check_name(chk), passed=False, runtime=0.0, skipped=True,
                                 message=f"precondition: {exc}")
        if printer is not None:
            printer(result.line())
        results.append(result)
    return results
