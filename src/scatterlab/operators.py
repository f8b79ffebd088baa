"""Dispersion symbols, decaying potential families, and the grid operator.

A Hamiltonian is a Fourier multiplier (the dispersion symbol, a real function
of the momentum lattice) plus a sum of position-space potentials, each tagged
with the coordinate it acts on: the first particle ("x"), the second ("y"),
their difference ("x-y", minimal-image wrapped), or the single axis of a
one-particle grid ("internal").  :class:`GridOperator` is the one place where
a Hamiltonian's symbol and potential fields are built on a grid; every solver
route applies H through :func:`apply_hamiltonian` with one such operator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import GridError, PotentialError
from .lattice import GridSpec, WaveFunction

COORDINATE_TAGS = ("x", "y", "x-y", "internal")

BOUNDARY_DECAY_RATIO = 1e-10


@dataclass(frozen=True)
class SymbolTerm:
    """One additive term of a dispersion symbol.

    kind "quadratic" is ``c*(q + shift)^2`` on one axis, "absolute" is
    ``c*|q + shift|``, and "constant" is the scalar ``c``.
    """

    kind: str
    coefficient: float = 1.0
    shift: float = 0.0
    axis: int = 0

    def __post_init__(self):
        if self.kind not in ("quadratic", "absolute", "constant"):
            raise GridError(f"unknown symbol term kind {self.kind!r}")
        if self.kind != "constant" and self.coefficient < 0:
            raise GridError("quadratic/absolute terms need a nonnegative coefficient "
                            "to keep the symbol bounded below")


@dataclass(frozen=True)
class DispersionSymbol:
    """Real Fourier multiplier, a sum of :class:`SymbolTerm` entries."""

    terms: tuple[SymbolTerm, ...]

    def max_axis(self) -> int:
        axes = [t.axis for t in self.terms if t.kind != "constant"]
        return max(axes) if axes else 0

    def evaluate(self, momentum_mesh: tuple[np.ndarray, ...]) -> np.ndarray:
        if self.max_axis() >= len(momentum_mesh):
            raise GridError(
                f"symbol addresses axis {self.max_axis()} on a "
                f"{len(momentum_mesh)}-axis grid"
            )
        shape = momentum_mesh[0].shape if momentum_mesh else ()
        out = np.zeros(shape)
        for t in self.terms:
            if t.kind == "constant":
                out = out + t.coefficient
            elif t.kind == "quadratic":
                out = out + t.coefficient * (momentum_mesh[t.axis] + t.shift) ** 2
            else:
                out = out + t.coefficient * np.abs(momentum_mesh[t.axis] + t.shift)
        return out

    def on_grid(self, grid: GridSpec) -> np.ndarray:
        return self.evaluate(grid.momentum_mesh())

    def __add__(self, other: "DispersionSymbol") -> "DispersionSymbol":
        return DispersionSymbol(self.terms + other.terms)


def quadratic_symbol(coefficient: float = 1.0, shift: float = 0.0, axis: int = 0) -> DispersionSymbol:
    return DispersionSymbol((SymbolTerm("quadratic", coefficient, shift, axis),))


def absolute_symbol(coefficient: float = 1.0, shift: float = 0.0, axis: int = 0) -> DispersionSymbol:
    return DispersionSymbol((SymbolTerm("absolute", coefficient, shift, axis),))


def constant_symbol(value: float) -> DispersionSymbol:
    return DispersionSymbol((SymbolTerm("constant", float(value)),))


def free_symbol() -> DispersionSymbol:
    """Kinetic energy of the two-particle system: p^2 on axis 0 plus |k| on axis 1."""
    return quadratic_symbol(1.0, axis=0) + absolute_symbol(1.0, axis=1)


@dataclass(frozen=True)
class PotentialSpec:
    """Smooth decaying potential on one coordinate.

    Families: "zero"; "poschl_teller" is ``-V0 sech^2((u-c)/w)``;
    "gaussian_well" is ``-V0 exp(-(u-c)^2/w^2)``; "tabulated" wraps a callable
    (with an optional analytic derivative; otherwise a centered difference with
    a small step is used).
    """

    family: str
    strength: float = 0.0
    width: float = 1.0
    center: float = 0.0
    value_fn: Callable[[np.ndarray], np.ndarray] | None = None
    derivative_fn: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.family not in ("zero", "poschl_teller", "gaussian_well", "tabulated"):
            raise PotentialError(f"unknown potential family {self.family!r}")
        if self.family != "zero" and not self.width > 0:
            raise PotentialError("potential width must be positive")
        if self.strength < 0:
            raise PotentialError("strength is the well depth V0 and must be >= 0")
        if self.family == "tabulated" and self.value_fn is None:
            raise PotentialError("tabulated potential requires value_fn")

    @property
    def is_zero(self) -> bool:
        return self.family == "zero" or self.strength == 0.0 and self.family != "tabulated"

    def value(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        z = (u - self.center) / self.width
        if self.is_zero:
            return np.zeros_like(u)
        if self.family == "poschl_teller":
            return -self.strength / np.cosh(z) ** 2
        if self.family == "gaussian_well":
            return -self.strength * np.exp(-(z ** 2))
        return np.asarray(self.value_fn(u), dtype=float)

    def derivative(self, u: np.ndarray) -> np.ndarray:
        """dV/du in closed form for the built-in families."""
        u = np.asarray(u, dtype=float)
        z = (u - self.center) / self.width
        if self.is_zero:
            return np.zeros_like(u)
        if self.family == "poschl_teller":
            return (2.0 * self.strength / self.width) * np.tanh(z) / np.cosh(z) ** 2
        if self.family == "gaussian_well":
            return (2.0 * self.strength / self.width) * z * np.exp(-(z ** 2))
        if self.derivative_fn is not None:
            return np.asarray(self.derivative_fn(u), dtype=float)
        h = 1e-6 * self.width
        return (self.value(u + h) - self.value(u - h)) / (2.0 * h)

    def second_derivative(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        z = (u - self.center) / self.width
        if self.is_zero:
            return np.zeros_like(u)
        if self.family == "poschl_teller":
            s2 = 1.0 / np.cosh(z) ** 2
            return (2.0 * self.strength / self.width ** 2) * s2 * (s2 - 2.0 * np.tanh(z) ** 2)
        if self.family == "gaussian_well":
            return (2.0 * self.strength / self.width ** 2) * (1.0 - 2.0 * z ** 2) * np.exp(-(z ** 2))
        h = 1e-4 * self.width
        return (self.value(u + h) - 2.0 * self.value(u) + self.value(u - h)) / h ** 2

    def dilated(self, factor: float) -> "PotentialSpec":
        """The potential ``u -> V(factor * u)``, in the same family where one exists."""
        if self.is_zero:
            return self
        if self.family != "tabulated":
            return replace(self, width=self.width / factor, center=self.center / factor)
        return replace(
            self, width=self.width / factor, center=self.center / factor,
            value_fn=lambda u: self.value(factor * np.asarray(u)),
            derivative_fn=lambda u: factor * self.derivative(factor * np.asarray(u)),
        )

    def virial_field(self, u: np.ndarray) -> np.ndarray:
        """u dV/du, the potential part of the first commutator."""
        return np.asarray(u) * self.derivative(u)

    def double_virial_field(self, u: np.ndarray) -> np.ndarray:
        """u d/du (u dV/du) = u V' + u^2 V''."""
        u = np.asarray(u)
        return u * self.derivative(u) + u ** 2 * self.second_derivative(u)


def zero_potential() -> PotentialSpec:
    return PotentialSpec("zero")


def poschl_teller(strength: float, width: float = 1.0, center: float = 0.0) -> PotentialSpec:
    return PotentialSpec("poschl_teller", strength, width, center)


def gaussian_well(strength: float, width: float = 1.0, center: float = 0.0) -> PotentialSpec:
    return PotentialSpec("gaussian_well", strength, width, center)


def check_boundary_decay(pot: PotentialSpec, grid: GridSpec) -> None:
    """Require |V| below 1e-10 * V0 on the outermost lattice shell.

    Periodic boundary conditions are only faithful when every potential is
    negligible at the box edge.
    """
    if pot.is_zero:
        return
    x = grid.positions()
    edge = np.array([x[0], x[1], x[-2], x[-1]])
    scale = max(abs(pot.strength), np.max(np.abs(pot.value(x))))
    worst = float(np.max(np.abs(pot.value(edge))))
    if worst > BOUNDARY_DECAY_RATIO * scale:
        raise PotentialError(
            f"potential {pot.family} does not decay at the boundary of "
            f"[-{grid.half_extent}, {grid.half_extent}): |V(edge)| = {worst:.3e} "
            f"> {BOUNDARY_DECAY_RATIO:.0e} * {scale:.3e}"
        )


@dataclass(frozen=True)
class HamiltonianSpec:
    """Dispersion symbol plus tagged potentials."""

    symbol: DispersionSymbol
    potentials: tuple[tuple[PotentialSpec, str], ...] = ()

    def __post_init__(self):
        for _, tag in self.potentials:
            if tag not in COORDINATE_TAGS:
                raise GridError(f"unknown coordinate tag {tag!r}")

    def validate_for(self, grid: GridSpec) -> None:
        if self.symbol.max_axis() >= grid.axes:
            raise GridError("dispersion symbol incompatible with grid dimensionality")
        for _, tag in self.potentials:
            if grid.particles == 1 and tag != "internal":
                raise GridError(f"tag {tag!r} requires a two-particle grid")
            if grid.particles == 2 and tag == "internal":
                raise GridError('tag "internal" requires a one-particle grid')


def coordinate_field(grid: GridSpec, tag: str) -> np.ndarray:
    """The coordinate addressed by a tag, as a field on the position lattice."""
    mesh = grid.position_mesh()
    if tag == "internal":
        if grid.particles != 1:
            raise GridError('tag "internal" requires a one-particle grid')
        return mesh[0]
    if grid.particles != 2:
        raise GridError(f"tag {tag!r} requires a two-particle grid")
    if tag == "x":
        return mesh[0]
    if tag == "y":
        return mesh[1]
    if tag == "x-y":
        return grid.wrap(mesh[0] - mesh[1])
    raise GridError(f"unknown coordinate tag {tag!r}")


def potential_field(grid: GridSpec, ham: HamiltonianSpec) -> np.ndarray:
    out = np.zeros(grid.shape)
    for pot, tag in ham.potentials:
        if pot.is_zero:
            continue
        out = out + pot.value(coordinate_field(grid, tag))
    return out


class GridOperator:
    """H = m(P) + V on one grid, with the read-only fields ``symbol`` (m on the
    momentum lattice) and ``potential`` (V on the position lattice) built once.

    :meth:`apply` takes one state of ``grid.shape`` or a stack ``(k, *grid.shape)``.
    """

    def __init__(self, ham: HamiltonianSpec, grid: GridSpec):
        ham.validate_for(grid)
        self.grid = grid
        self.symbol, self.potential = ham.symbol.on_grid(grid), potential_field(grid, ham)
        for field in (self.symbol, self.potential):
            field.setflags(write=False)
        self._axes = tuple(range(-grid.axes, 0))
        self._has_potential = bool(np.any(self.potential))

    def apply(self, values: np.ndarray) -> np.ndarray:
        """``m(P)`` by unitary FFTs over the trailing grid axes, plus ``V`` pointwise."""
        out = np.fft.ifftn(self.symbol * np.fft.fftn(values, axes=self._axes, norm="ortho"),
                           axes=self._axes, norm="ortho")
        if self._has_potential:
            out = out + self.potential * values
        return out

    def bounds(self) -> tuple[float, float]:
        """Crude two-sided bound on the spectrum of the grid operator."""
        return (float(self.symbol.min() + self.potential.min()),
                float(self.symbol.max() + self.potential.max()))


def apply_multiplier(wf: WaveFunction, symbol: DispersionSymbol) -> WaveFunction:
    """Apply ``m(P)`` spectrally; exact on the discrete lattice."""
    return apply_hamiltonian(wf, HamiltonianSpec(symbol))


def apply_hamiltonian(wf: WaveFunction, ham: HamiltonianSpec | GridOperator) -> WaveFunction:
    """H psi; a :class:`GridOperator` built on ``wf.grid`` lends its fields."""
    op = ham if isinstance(ham, GridOperator) else GridOperator(ham, wf.grid)
    if op.grid != wf.grid:
        raise GridError("grid operator built on a different grid")
    return WaveFunction(wf.grid, op.apply(wf.values))


def expectation(wf: WaveFunction, ham: HamiltonianSpec) -> float:
    """Real part of <psi, H psi>; imaginary part is a roundoff check elsewhere."""
    return wf.inner(apply_hamiltonian(wf, ham)).real
