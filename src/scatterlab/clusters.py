"""The five cluster decompositions of the three-body system and their chart.

Particles: an infinitely heavy center fixed at the origin ("0"), a
non-relativistic particle at x with kinetic energy p^2, and a massless
particle at y with kinetic energy |k|.  A decomposition groups them by who
stays together; external coordinates x_a separate the clusters, internal
coordinates x^a live inside them.
"""

from __future__ import annotations

from enum import Enum

from .errors import ClusterError


class ClusterId(Enum):
    TOGETHER = "(xy0)"          # all three close together
    PHOTON_FREE = "(y)(x0)"     # massless particle far from the bound (x,0) pair
    ELECTRON_FREE = "(x)(y0)"   # massive particle far from the bound (y,0) pair
    PAIR_FREE = "(xy)(0)"       # (x,y) pair travels away from the center
    ALL_FREE = "(x)(y)(0)"      # everything far apart

    def __str__(self) -> str:
        return self.value


TWO_CLUSTERS = (ClusterId.PHOTON_FREE, ClusterId.ELECTRON_FREE, ClusterId.PAIR_FREE)

_CLUSTER_COUNT = {
    ClusterId.TOGETHER: 1,
    ClusterId.PHOTON_FREE: 2,
    ClusterId.ELECTRON_FREE: 2,
    ClusterId.PAIR_FREE: 2,
    ClusterId.ALL_FREE: 3,
}

# which of (v12, v13, v23) are internal to the clusters of a decomposition
INTERNAL_POTENTIALS = {
    ClusterId.TOGETHER: ("v12", "v13", "v23"),
    ClusterId.PHOTON_FREE: ("v12",),
    ClusterId.ELECTRON_FREE: ("v13",),
    ClusterId.PAIR_FREE: ("v23",),
    ClusterId.ALL_FREE: (),
}

POTENTIAL_TAGS = {"v12": "x", "v13": "y", "v23": "x-y"}


def cluster_count(a: ClusterId) -> int:
    """#(a), the number of clusters in the decomposition."""
    return _CLUSTER_COUNT[a]


def require_two_cluster(a: ClusterId) -> None:
    if cluster_count(a) != 2:
        raise ClusterError(f"{a} is not a 2-cluster decomposition")


def cluster_coordinates(a: ClusterId, point: tuple[float, float]):
    """Split a configuration point (x, y) into (external x_a, internal x^a).

    Follows the chart: (y)(x0) -> (y; x), (x)(y0) -> (x; y),
    (xy)(0) -> (x+y; x-y), (xy0) -> (; x, y), (x)(y)(0) -> (x, y; ).
    """
    x, y = point
    if a is ClusterId.TOGETHER:
        return (), (x, y)
    if a is ClusterId.PHOTON_FREE:
        return (y,), (x,)
    if a is ClusterId.ELECTRON_FREE:
        return (x,), (y,)
    if a is ClusterId.PAIR_FREE:
        return (x + y,), (x - y,)
    if a is ClusterId.ALL_FREE:
        return (x, y), ()
    raise ClusterError(f"unknown cluster decomposition {a!r}")
