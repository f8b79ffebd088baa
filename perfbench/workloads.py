"""The benchmark's workloads: seeded inputs, one timed pass, unit invariants.

Each workload has a ``setup_<name>(seed)`` that builds every input from the
seed (models, grids, states; the program sees only these) and a
``run_<name>(inputs, tally)`` that makes the timed pass as one caller in a
closed loop: each public call returns before the next starts.  Every unit
either passes its invariant or counts as failed in the :class:`Tally`.
See README.md for why each workload exists and what its unit is.
"""

from __future__ import annotations

import traceback

import numpy as np

import scatterlab as sl
from scatterlab.clusters import ClusterId
from scatterlab.experiments import bound_ground_1d, dynamics_model, product_state

# fibers: the checks' 1D grid
FIBER_GRID = (1, 512, 32.0)
SCAN_FIBERS = 8               # dispersion_scan fibers over s in [-0.3, 0.3]
DIRECT_FIBERS = 4             # per cluster, over s in [-1, 1]
RESIDUAL_LIMIT = 1e-9
SHIFT_LIMIT = 1e-9

# positivity: criterion 8's 2D grid, a window clear of every threshold both
# before and after the (xy)(0) fiber fix (see README.md)
POSITIVITY_GRID = (2, 128, 48.0)
POSITIVITY_E = -0.3
POSITIVITY_WINDOW = (-0.45, -0.15)
POSITIVITY_SAMPLES = 2
DEFLATION_COUNT = 40
BOUNDARY_TOL = 5e-2

# evolve: the grid of criteria 11-13 and criterion 13's product state
EVOLVE_GRID = (2, 512, 128.0)
EVOLVE_DT = 0.025
EVOLVE_T = 10.0
STEPS_PER_SAMPLE = 40
BOUNDARY_LIMIT = 1e-4
NORM_DRIFT_LIMIT = 1e-10
ENERGY_DRIFT_LIMIT = 1e-5
PACKET_CENTER = (4.0, 8.0)    # range verified to keep the guard far from tripping
PACKET_MOMENTUM = (0.4, 0.6)
PACKET_WIDTH = 6.0


class Tally:
    """Attempted and failed units of one pass.

    A unit that raises or misses its invariant is failed; there is no skip.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, units: int, call):
        """Run ``call`` for ``units`` units.

        ``call`` returns ``(result, missed)``, where ``missed`` lists
        ``(units, message)`` for the units that missed their invariant.  If
        it raises, every unit fails.  Returns ``result``, or None when the
        call raised.
        """
        self.attempted += units
        try:
            result, missed = call()
        except Exception:  # a raising unit is a failed unit, whatever it raised
            self.failed += units
            self.failures.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
            return None
        count = sum(n for n, _ in missed)
        if count > units:
            raise ValueError(f"{count} misses reported for {units} units")
        self.failed += count
        self.failures.extend(message for _, message in missed)
        return result


# --------------------------------------------------------------------- fibers

def setup_fibers(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "grid": sl.make_grid(*FIBER_GRID),
        "models": (sl.default_model(), dynamics_model()),
        "scan_s": rng.uniform(-0.3, 0.3, SCAN_FIBERS),
        "direct": [(a, float(s)) for a in (ClusterId.PHOTON_FREE, ClusterId.ELECTRON_FREE)
                   for s in rng.uniform(-1.0, 1.0, DIRECT_FIBERS)],
    }


def _shift_law(a: ClusterId, s: float) -> float:
    return abs(s) if a is ClusterId.PHOTON_FREE else s * s


def run_fibers(inp: dict, tally: Tally) -> dict:
    grid = inp["grid"]
    default, dynamics = inp["models"]
    ground = {}

    def table(model):
        t = sl.threshold_table(model, grid)
        missed = [(1, f"threshold {a}: non-finite eigenvalue")
                  for a, eigs in t.per_cluster.items() if not np.all(np.isfinite(eigs))]
        return t, missed

    for model in (default, dynamics):
        t = tally.run(3, lambda: table(model))
        if model is default and t is not None:
            ground = {a: float(eigs[0]) for a, eigs in t.per_cluster.items() if eigs.size}

    def scan():
        curve = sl.dispersion_scan(default, grid, inp["scan_s"])
        missed = [(1, f"scan s={s:.4f}: residual {r:.2e}")
                  for s, r in zip(curve.s_values, curve.residuals)
                  if not r <= RESIDUAL_LIMIT]
        return curve, missed

    tally.run(SCAN_FIBERS, scan)

    for a, s in inp["direct"]:
        def fiber():
            res = sl.dense_spectrum(default.reduced(a, s), grid, 1)
            missed = []
            if not res.residuals[0] <= RESIDUAL_LIMIT:
                missed.append((1, f"{a} s={s:.4f}: residual {res.residuals[0]:.2e}"))
            elif a not in ground:
                missed.append((1, f"{a} s={s:.4f}: no lambda(0) to check the shift law against"))
            else:
                err = abs(res.eigenvalues[0] - ground[a] - _shift_law(a, s))
                if not err <= SHIFT_LIMIT:
                    missed.append((1, f"{a} s={s:.4f}: shift law off by {err:.2e}"))
            return res, missed

        tally.run(1, fiber)
    return {}


# ----------------------------------------------------------------- positivity

def setup_positivity(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    return {
        "model": sl.default_model(),
        "grid1": sl.make_grid(*FIBER_GRID),
        "grid": sl.make_grid(*POSITIVITY_GRID),
        "sample_seed": int(rng.integers(2 ** 31)),
    }


def run_positivity(inp: dict, tally: Tally) -> dict:
    def report():
        table = sl.threshold_table(inp["model"], inp["grid1"])
        rep = sl.mourre_report(
            E=POSITIVITY_E, window=POSITIVITY_WINDOW, model=inp["model"], grid=inp["grid"],
            table=table, samples=POSITIVITY_SAMPLES, seed=inp["sample_seed"],
            deflation_count=DEFLATION_COUNT, boundary_tol=BOUNDARY_TOL,
        )
        forms = np.asarray(rep.form_values)
        missed = [(1, "sample filtered to zero")] * (POSITIVITY_SAMPLES - forms.size)
        missed += [(1, f"form {f:.4g} is negative or not finite")
                   for f in forms if not (np.isfinite(f) and f >= 0.0)]
        return rep, missed

    tally.run(POSITIVITY_SAMPLES, report)
    return {}


# --------------------------------------------------------------------- evolve

def setup_evolve(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    model = dynamics_model()
    grid = sl.make_grid(*EVOLVE_GRID)
    grid1, _, ground = bound_ground_1d(model, ClusterId.PHOTON_FREE, EVOLVE_GRID[1],
                                       EVOLVE_GRID[2])
    packet = sl.gaussian_packet(grid1, rng.uniform(*PACKET_CENTER),
                                rng.uniform(*PACKET_MOMENTUM), PACKET_WIDTH)
    return {
        "psi0": product_state(grid, ground.values, packet.values),
        "prop": sl.PropagatorSpec(model.full(), EVOLVE_DT, STEPS_PER_SAMPLE),
    }


def run_evolve(inp: dict, tally: Tally) -> dict:
    steps = int(round(EVOLVE_T / EVOLVE_DT))

    def propagate():
        psi, traces = sl.evolve(inp["psi0"], inp["prop"], EVOLVE_T,
                                boundary_limit=BOUNDARY_LIMIT, observables=("norm", "energy"))
        norms, energies = traces["norm"].values, traces["energy"].values
        missed = []
        for i in range(1, norms.size):
            drift = abs(norms[i] - norms[i - 1])
            energy = abs(energies[i] - energies[0])
            if not (drift <= NORM_DRIFT_LIMIT and energy <= ENERGY_DRIFT_LIMIT):
                missed.append((STEPS_PER_SAMPLE, f"sample {i}: norm drift {drift:.2e}, "
                                                 f"energy drift {energy:.2e}"))
        return psi, missed

    tally.run(steps, propagate)
    return {"steps": steps}


WORKLOADS = {
    "fibers": (setup_fibers, run_fibers),
    "positivity": (setup_positivity, run_positivity),
    "evolve": (setup_evolve, run_evolve),
}
