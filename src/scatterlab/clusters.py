"""The five cluster decompositions of the three-body system and their chart.

Particles: an infinitely heavy center fixed at the origin ("0"), a
non-relativistic particle at x with kinetic energy p^2, and a massless
particle at y with kinetic energy |k|.  A decomposition groups them by who
stays together; external coordinates x_a separate the clusters, internal
coordinates x^a live inside them.

:data:`CHART` is the one place that says which coordinates are internal and
which external for each decomposition.  Cluster counts, grid coordinate
fields, conjugate momenta, channel cutoffs and the partition's quantities
are all read from it through the tags that :func:`coordinate` evaluates.
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

# The chart: the internal coordinates x^a and the external coordinates x_a
# of each decomposition, as tags read by :func:`coordinate`.
CHART = {
    ClusterId.TOGETHER: (("x", "y"), ()),
    ClusterId.PHOTON_FREE: (("x",), ("y",)),
    ClusterId.ELECTRON_FREE: (("y",), ("x",)),
    ClusterId.PAIR_FREE: (("x-y",), ("x+y",)),
    ClusterId.ALL_FREE: ((), ("x", "y")),
}

# which of (v12, v13, v23) are internal to the clusters of a decomposition; not
# read off CHART, since x-y is internal to (xy0) without being one of its tags
INTERNAL_POTENTIALS = {
    ClusterId.TOGETHER: ("v12", "v13", "v23"),
    ClusterId.PHOTON_FREE: ("v12",),
    ClusterId.ELECTRON_FREE: ("v13",),
    ClusterId.PAIR_FREE: ("v23",),
    ClusterId.ALL_FREE: (),
}

POTENTIAL_TAGS = {"v12": "x", "v13": "y", "v23": "x-y"}


def coordinate(tag: str, x, y):
    """The coordinate named by ``tag`` ("x", "y", "x-y" or "x+y") at points (x, y)."""
    if tag == "x":
        return x
    if tag == "y":
        return y
    if tag == "x-y":
        return x - y
    if tag == "x+y":
        return x + y
    raise ClusterError(f"unknown coordinate tag {tag!r}")


def _chart(a: ClusterId) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """CHART[a]; anything but a ClusterId raises :class:`ClusterError`."""
    if not isinstance(a, ClusterId):
        raise ClusterError(f"unknown cluster decomposition {a!r}")
    return CHART[a]


def cluster_count(a: ClusterId) -> int:
    """#(a), the number of clusters in the decomposition.

    The center is fixed, so each cluster but the center's own moves in one
    external coordinate.
    """
    return 1 + len(_chart(a)[1])


def require_two_cluster(a: ClusterId) -> None:
    if cluster_count(a) != 2:
        raise ClusterError(f"{a} is not a 2-cluster decomposition")


def cluster_coordinates(a: ClusterId, point: tuple[float, float]):
    """Split a configuration point (x, y) into (external x_a, internal x^a)."""
    internal, external = _chart(a)
    x, y = point
    return (tuple(coordinate(t, x, y) for t in external),
            tuple(coordinate(t, x, y) for t in internal))
