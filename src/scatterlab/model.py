"""Assembly of the model Hamiltonians from three pair potentials.

The full Hamiltonian on the two-particle grid is ``p^2 + |k| + V12(x) +
V13(y) + V23(x-y)``.  Truncated Hamiltonians keep only the potentials
internal to a cluster decomposition; reduced Hamiltonians are their fibers
H_a(s) at fixed external momentum s.  With the photon's |k| a cluster
Hamiltonian does not split into internal plus external parts, so the
subsystem Hamiltonian is the fiber at rest, h_a = H_a(0).

The (xy)(0) fibers are written in q = p - k and s = p + k, which are
conjugate to u = (x - y)/2 and (x + y)/2.  Their one-particle grid
coordinate is therefore u, and V23(x - y) acts on it as V23(2u).
"""

from __future__ import annotations

from dataclasses import dataclass

from .clusters import (ClusterId, INTERNAL_POTENTIALS, POTENTIAL_TAGS, _chart,
                       require_two_cluster)
from .lattice import GridSpec
from .operators import (
    HamiltonianSpec,
    PotentialSpec,
    absolute_symbol,
    check_boundary_decay,
    constant_symbol,
    free_symbol,
    poschl_teller,
    quadratic_symbol,
    zero_potential,
)


@dataclass(frozen=True)
class ThreeBodyModel:
    """The three pair potentials of the model.

    v12 couples the massive particle to the center, v13 the massless particle
    to the center, v23 the two mobile particles to each other.
    """

    v12: PotentialSpec
    v13: PotentialSpec
    v23: PotentialSpec

    def potential(self, name: str) -> PotentialSpec:
        return getattr(self, name)

    def validate_for(self, grid: GridSpec) -> None:
        for pot in (self.v12, self.v13, self.v23):
            check_boundary_decay(pot, grid)

    def full(self) -> HamiltonianSpec:
        """H = p^2 + |k| + V12(x) + V13(y) + V23(x-y) on the two-particle grid."""
        return self.truncated(ClusterId.TOGETHER)

    def truncated(self, a: ClusterId) -> HamiltonianSpec:
        """H_a = H0 + (potentials internal to a), on the two-particle grid."""
        _chart(a)  # anything but a ClusterId raises ClusterError
        pots = tuple(
            (self.potential(name), POTENTIAL_TAGS[name]) for name in INTERNAL_POTENTIALS[a]
        )
        return HamiltonianSpec(free_symbol(), pots)

    def intercluster(self, a: ClusterId) -> tuple[tuple[PotentialSpec, str], ...]:
        """I_a, the potentials the truncation drops."""
        _chart(a)
        kept = set(INTERNAL_POTENTIALS[a])
        return tuple(
            (self.potential(name), POTENTIAL_TAGS[name])
            for name in ("v12", "v13", "v23") if name not in kept
        )

    def subsystem(self, a: ClusterId) -> HamiltonianSpec:
        """h_a = H_a(0): p^2 + V12, |k| + V13 and (1/4) q^2 + (1/2)|q| + V23(2u)."""
        return self.reduced(a, 0.0)

    def reduced(self, a: ClusterId, s: float) -> HamiltonianSpec:
        """The fiber H_a(s) of the truncated Hamiltonian at external momentum s.

        (y)(x0): p^2 + |s| + V12;  (x)(y0): s^2 + |k| + V13;
        (xy)(0): (1/4)(q+s)^2 + (1/2)|q-s| + V23(2u), s = p + k the total
        momentum.  The spectrum of H_a on the total-momentum-s sector of the
        two-particle grid is that of this fiber.
        """
        require_two_cluster(a)
        s = float(s)
        if a is ClusterId.PHOTON_FREE:
            sym = quadratic_symbol(1.0) + constant_symbol(abs(s))
            return HamiltonianSpec(sym, ((self.v12, "internal"),))
        if a is ClusterId.ELECTRON_FREE:
            sym = absolute_symbol(1.0) + constant_symbol(s * s)
            return HamiltonianSpec(sym, ((self.v13, "internal"),))
        sym = quadratic_symbol(0.25, shift=s) + absolute_symbol(0.5, shift=-s)
        return HamiltonianSpec(sym, ((self.pair_potential(), "internal"),))

    def pair_potential(self) -> PotentialSpec:
        """V23 in the (xy)(0) grid coordinate u = (x - y)/2, i.e. u -> V23(2u)."""
        return self.v23.dilated(2.0)


def default_model() -> ThreeBodyModel:
    """Three Poschl-Teller wells of depth 2, width 1 (the standard test model)."""
    pt = poschl_teller(2.0, 1.0)
    return ThreeBodyModel(v12=pt, v13=pt, v23=pt)


def free_model() -> ThreeBodyModel:
    z = zero_potential()
    return ThreeBodyModel(v12=z, v13=z, v23=z)
