"""Configuration-space partition of unity separating the channel regions.

Four direction bumps on the unit sphere of the reduced two-particle
configuration space (inequalities in |x|, |y|, |x-y| with constants 1/10,
1/20, 1/30), extended homogeneously of degree zero, glued to an inner cutoff
on the unit ball, and normalized so the squares sum to one exactly.  Bumps
are built from the quintic smoothstep, so every member has an exact callable
form with two continuous derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clusters import TWO_CLUSTERS, ClusterId, coordinate
from .errors import ClusterError, GridError
from .lattice import GridSpec
from .model import ThreeBodyModel

# margin between the tightest pair of cover constants (1/20 vs 1/30)
COVER_MARGIN = 1.0 / 60.0
DEFAULT_SMOOTHING_WIDTH = COVER_MARGIN / 100.0

# support inequalities per cluster: (quantity, sense, constant); quantities
# are |x|, |y|, |x-y| relative to |X| = 1
SUPPORT_CONSTANTS = {
    ClusterId.ELECTRON_FREE: (("x", ">", 1 / 10), ("y", "<", 1 / 20), ("x-y", ">", 1 / 20)),
    ClusterId.PHOTON_FREE: (("y", ">", 1 / 10), ("x", "<", 1 / 20), ("x-y", ">", 1 / 20)),
    ClusterId.PAIR_FREE: (("x", ">", 1 / 30), ("y", ">", 1 / 30), ("x-y", "<", 1 / 10)),
    ClusterId.ALL_FREE: (("x", ">", 1 / 30), ("y", ">", 1 / 30), ("x-y", ">", 1 / 20)),
}

_MOVING = (ClusterId.ELECTRON_FREE, ClusterId.PHOTON_FREE,
           ClusterId.PAIR_FREE, ClusterId.ALL_FREE)


def smoothstep(t):
    """Quintic smoothstep: 0 for t <= 0, 1 for t >= 1, C^2 across the joins."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _bump(a: ClusterId, xhat, yhat, width: float):
    """Product of smoothstep edges; supported strictly inside the cover set."""
    out = np.ones_like(np.asarray(xhat, dtype=float))
    for name, sense, c in SUPPORT_CONSTANTS[a]:
        q = np.abs(coordinate(name, xhat, yhat))
        if sense == ">":
            out = out * smoothstep((q - c) / width)
        else:
            out = out * smoothstep((c - q) / width)
    return out


@dataclass(frozen=True)
class PartitionSet:
    """The five members j_a with their smoothing width."""

    width: float

    def _angular(self, xhat, yhat):
        bumps = {a: _bump(a, xhat, yhat, self.width) for a in _MOVING}
        total = sum(bumps.values())
        # cover property guarantees total > 0 on genuine directions; the
        # guard only protects the unused direction attached to the origin
        safe = np.where(total > 0.0, total, 1.0)
        chi = {a: b / safe for a, b in bumps.items()}
        return chi

    def members(self, x, y) -> dict[ClusterId, np.ndarray]:
        """Evaluate every j_a at configuration points (x, y), vectorized."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r = np.hypot(x, y)
        safe_r = np.where(r == 0.0, 1.0, r)
        chi = self._angular(x / safe_r, y / safe_r)
        s1 = smoothstep((r - 0.9) / 0.1)       # radial split across [0.9, 1.0]
        chi0 = 1.0 - s1
        sumsq = sum(c * c for c in chi.values())
        den = np.sqrt(chi0 * chi0 + s1 * s1 * sumsq)
        out = {ClusterId.TOGETHER: np.where(r == 0.0, 1.0, chi0 / den)}
        for a in _MOVING:
            out[a] = np.where(r == 0.0, 0.0, s1 * chi[a] / den)
        return out

    def member(self, a: ClusterId, x, y) -> np.ndarray:
        return self.members(x, y)[a]

    def gradient_magnitude(self, a: ClusterId, x, y) -> np.ndarray:
        """Central-difference |grad j_a| of the exact callable, relative step 1e-7."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h = 1e-7 * np.maximum(1.0, np.hypot(x, y))
        dx = (self.member(a, x + h, y) - self.member(a, x - h, y)) / (2.0 * h)
        dy = (self.member(a, x, y + h) - self.member(a, x, y - h)) / (2.0 * h)
        return np.hypot(dx, dy)

    def sample_on_grid(self, grid: GridSpec) -> dict[ClusterId, np.ndarray]:
        if grid.particles != 2:
            raise GridError("the partition lives on the two-particle configuration space")
        X, Y = grid.position_mesh()
        return self.members(X, Y)


def build_partition(width: float = DEFAULT_SMOOTHING_WIDTH) -> PartitionSet:
    """Build the partition, checking that the smoothed cover still covers.

    The bump edges eat ``width`` into each cover set, so the width must stay
    below the 1/60 margin between the tightest pair of constants.  The cover
    is checked on 2^20 directions.
    """
    if not 0.0 < width < COVER_MARGIN:
        raise ClusterError(
            f"smoothing width must lie in (0, {COVER_MARGIN:.5f}) to keep the "
            f"cover margins, got {width}"
        )
    pset = PartitionSet(width=width)
    theta = np.linspace(0.0, 2.0 * np.pi, 1 << 20, endpoint=False)
    xhat, yhat = np.cos(theta), np.sin(theta)
    total = np.zeros_like(xhat)
    for a in _MOVING:
        total += _bump(a, xhat, yhat, width) ** 2
    worst = int(np.argmin(total))
    if total[worst] <= 0.0:
        raise ClusterError(
            f"cover fails at direction (x, y) = ({xhat[worst]:.6f}, {yhat[worst]:.6f}) "
            f"with smoothing width {width}"
        )
    return pset


@dataclass(frozen=True)
class PartitionReport:
    """Grid verification metrics; ``violations`` is empty when everything holds."""

    sum_sq_max_dev: float
    range_violations: int
    support_violations: int
    homogeneity_max_dev: float
    gradient_constants: dict
    ray_decay: dict
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_partition(pset: PartitionSet, grid: GridSpec,
                     model: ThreeBodyModel | None = None,
                     fields: dict | None = None) -> PartitionReport:
    """Check the partition identities on the grid and report violations.

    Checks: sum of squares equals one pointwise to 1e-12; members stay in
    [0, 1]; members vanish where their defining inequalities fail by more
    than the smoothing slack; degree-zero homogeneity outside the unit ball;
    gradient decay like 1/R on spheres; decay of the intercluster potentials
    times the members along 32 rays (when a model is supplied).  ``fields``
    allows passing externally sampled member fields (a tamper check); by
    default the exact callables are sampled.
    """
    violations: list[str] = []
    X, Y = grid.position_mesh()
    members = fields if fields is not None else pset.sample_on_grid(grid)

    total = sum(v * v for v in members.values())
    sum_dev = float(np.max(np.abs(total - 1.0)))
    if sum_dev > 1e-12:
        violations.append(f"sum of squares deviates by {sum_dev:.3e} > 1.0e-12")

    range_bad = 0
    for a, v in members.items():
        range_bad += int(np.sum((v < -1e-14) | (v > 1.0 + 1e-14)))
    if range_bad:
        violations.append(f"{range_bad} grid values outside [0, 1]")

    r = np.hypot(X, Y)
    safe_r = np.where(r == 0.0, 1.0, r)
    support_bad = 0
    for a, conditions in SUPPORT_CONSTANTS.items():
        if a not in members:
            continue
        outside = np.zeros(r.shape, dtype=bool)
        for name, sense, c in conditions:
            q = np.abs(coordinate(name, X, Y)) / safe_r
            slack = 1.5 * pset.width
            if sense == ">":
                outside |= q < c - slack
            else:
                outside |= q > c + slack
        bad = outside & (np.abs(members[a]) > 1e-12) & (r > 0)
        support_bad += int(np.sum(bad))
    if support_bad:
        violations.append(f"{support_bad} grid values outside the support inequalities")

    # homogeneity on a ring of directions, comparing radii lam*R against R >= 1
    theta = np.linspace(0.0, 2.0 * np.pi, 257)[:-1]
    xh, yh = np.cos(theta), np.sin(theta)
    homo_dev = 0.0
    for a in members:
        base = pset.member(a, 1.5 * xh, 1.5 * yh)
        for lam in (2.0, 4.0):
            scaled = pset.member(a, 1.5 * lam * xh, 1.5 * lam * yh)
            homo_dev = max(homo_dev, float(np.max(np.abs(scaled - base))))
    if homo_dev > 1e-12:
        violations.append(f"homogeneity defect {homo_dev:.3e} outside the unit ball")

    # the transition shells are angularly narrow (the smoothing width), so the
    # gradient scan needs a dense direction set to hit them at all
    theta_dense = np.linspace(0.0, 2.0 * np.pi, 1 << 16, endpoint=False)
    xd, yd = np.cos(theta_dense), np.sin(theta_dense)
    grad_consts = {}
    for a in members:
        cmax = 0.0
        for R in (2.0, 4.0, 8.0, 16.0):
            g = pset.gradient_magnitude(a, R * xd, R * yd)
            cmax = max(cmax, float(np.max(g)) * R)
        grad_consts[str(a)] = cmax

    ray_decay = {}
    if model is not None:
        phis = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
        radii = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        worst_tail = 0.0
        for a in TWO_CLUSTERS:
            vals = np.zeros((phis.size, radii.size))
            for i, phi in enumerate(phis):
                px, py = radii * np.cos(phi), radii * np.sin(phi)
                j = pset.member(a, px, py)
                inter = np.zeros(radii.size)
                for pot, tag in model.intercluster(a):
                    inter = inter + pot.value(coordinate(tag, px, py))
                vals[i] = np.abs(inter * j)
            ray_decay[str(a)] = float(np.max(vals[:, -1]))
            worst_tail = max(worst_tail, ray_decay[str(a)])
        if worst_tail > 1e-6:
            violations.append(
                f"intercluster potential times member fails to decay along rays "
                f"(max at R=16: {worst_tail:.3e})"
            )

    return PartitionReport(
        sum_sq_max_dev=sum_dev,
        range_violations=range_bad,
        support_violations=support_bad,
        homogeneity_max_dev=homo_dev,
        gradient_constants=grad_consts,
        ray_decay=ray_decay,
        violations=tuple(violations),
    )
