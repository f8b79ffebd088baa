"""Dispersion symbols, decaying potential families, and the grid operator.

A Hamiltonian is a Fourier multiplier (the dispersion symbol, a real function
of the momentum lattice) plus a sum of position-space potentials, each tagged
with the coordinate it acts on: the first particle ("x"), the second ("y"),
their difference ("x-y"), or the single axis of a one-particle grid
("internal").  :func:`coordinate_field` turns any tag of the cluster chart
(:data:`.clusters.CHART`) into a grid field; sums and differences are
minimal-image wrapped, single-particle coordinates are not.
:class:`GridOperator` is the one place where a Hamiltonian's symbol and
potential fields are built on a grid; every solver route applies H through
:func:`apply_hamiltonian` with one such operator.

The kernels here (:meth:`GridOperator.apply` and the Strang step
:meth:`_Stepper.step`) write only into arrays they allocate themselves: each
computes its FFTs and products in place in one fresh output array and never
writes into its input.  On a one-axis grid they call ``np.fft.fft``/``ifft``
rather than ``fftn``/``ifftn``: the same pocketfft kernel and the same bits,
without the n-D wrapper's per-call argument handling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .clusters import coordinate
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
    "gaussian_well" is ``-V0 exp(-(u-c)^2/w^2)``.  Both wells have closed-form
    first and second derivatives.
    """

    family: str
    strength: float = 0.0
    width: float = 1.0
    center: float = 0.0

    def __post_init__(self):
        if self.family not in ("zero", "poschl_teller", "gaussian_well"):
            raise PotentialError(f"unknown potential family {self.family!r}")
        if self.family != "zero" and not self.width > 0:
            raise PotentialError("potential width must be positive")
        if self.strength < 0:
            raise PotentialError("strength is the well depth V0 and must be >= 0")

    @property
    def is_zero(self) -> bool:
        return self.family == "zero" or self.strength == 0.0

    def value(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        z = (u - self.center) / self.width
        if self.is_zero:
            return np.zeros_like(u)
        if self.family == "poschl_teller":
            return -self.strength / np.cosh(z) ** 2
        return -self.strength * np.exp(-(z ** 2))

    def derivative(self, u: np.ndarray) -> np.ndarray:
        """dV/du in closed form."""
        u = np.asarray(u, dtype=float)
        z = (u - self.center) / self.width
        if self.is_zero:
            return np.zeros_like(u)
        if self.family == "poschl_teller":
            return (2.0 * self.strength / self.width) * np.tanh(z) / np.cosh(z) ** 2
        return (2.0 * self.strength / self.width) * z * np.exp(-(z ** 2))

    def second_derivative(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        z = (u - self.center) / self.width
        if self.is_zero:
            return np.zeros_like(u)
        if self.family == "poschl_teller":
            s2 = 1.0 / np.cosh(z) ** 2
            return (2.0 * self.strength / self.width ** 2) * s2 * (s2 - 2.0 * np.tanh(z) ** 2)
        return (2.0 * self.strength / self.width ** 2) * (1.0 - 2.0 * z ** 2) * np.exp(-(z ** 2))

    def dilated(self, factor: float) -> "PotentialSpec":
        """The potential ``u -> V(factor * u)``, in the same family."""
        if self.is_zero:
            return self
        return replace(self, width=self.width / factor, center=self.center / factor)

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
    # only sums and differences leave the box; wrapping a single-particle
    # coordinate would move a box with a non-dyadic half extent by an ulp
    u = coordinate(tag, *mesh)
    return u if tag in ("x", "y") else grid.wrap(u)


def potential_field(grid: GridSpec, ham: HamiltonianSpec) -> np.ndarray:
    out = np.zeros(grid.shape)
    for pot, tag in ham.potentials:
        if pot.is_zero:
            continue
        out = out + pot.value(coordinate_field(grid, tag))
    return out


def mirrored(field: np.ndarray) -> np.ndarray:
    """``field`` at index -j mod N on every axis (flip, then roll by one): k -> -k on
    the momentum lattice, x -> -x on the periodic position lattice ``{-L + j dx}``."""
    return np.roll(np.flip(field), 1, axis=tuple(range(field.ndim)))


class GridOperator:
    """H = m(P) + V on one grid, with the read-only fields ``symbol`` (m on the
    momentum lattice) and ``potential`` (V on the position lattice) built once.

    :meth:`apply` takes one state of ``grid.shape`` or a stack ``(k, *grid.shape)``.
    :attr:`even_symbol` says whether m(-k) = m(k) on the lattice; V is real, so
    then H is a real symmetric matrix in position space.  :attr:`even_potential`
    says whether V(-x) = V(x); then H commutes with PT, parity composed with
    complex conjugation, and is real symmetric in a PT-invariant basis.
    """

    def __init__(self, ham: HamiltonianSpec, grid: GridSpec):
        ham.validate_for(grid)
        self.grid = grid
        self.symbol, self.potential = ham.symbol.on_grid(grid), potential_field(grid, ham)
        for field in (self.symbol, self.potential):
            field.setflags(write=False)
        self._axes = tuple(range(-grid.axes, 0))
        self._one_axis = grid.axes == 1
        self._has_potential = bool(np.any(self.potential))

    @cached_property
    def even_symbol(self) -> bool:
        """True when the symbol is even under k -> -k, so that H is real symmetric."""
        return bool(np.array_equal(self.symbol, mirrored(self.symbol)))

    @cached_property
    def even_potential(self) -> bool:
        """True when the potential is even under x -> -x, so that H commutes with PT."""
        return bool(np.array_equal(self.potential, mirrored(self.potential)))

    def apply(self, values: np.ndarray) -> np.ndarray:
        """``m(P)`` by unitary FFTs over the trailing grid axes, plus ``V`` pointwise.

        Both FFTs and the products run in the one array the forward FFT
        allocates; ``values`` is only read.  A one-axis grid uses ``fft``/``ifft``
        along the last axis, bit-identical to the one-axis ``fftn``/``ifftn``.
        """
        if self._one_axis:
            out = np.fft.fft(values, norm="ortho")
            out *= self.symbol
            np.fft.ifft(out, norm="ortho", out=out)
        else:
            out = np.fft.fftn(values, axes=self._axes, norm="ortho")
            out *= self.symbol
            np.fft.ifftn(out, axes=self._axes, norm="ortho", out=out)
        if self._has_potential:
            out += self.potential * values
        return out

    def bounds(self) -> tuple[float, float]:
        """Crude two-sided bound on the spectrum of the grid operator."""
        return (float(self.symbol.min() + self.potential.min()),
                float(self.symbol.max() + self.potential.max()))


class _Stepper:
    """Cached Strang factors exp(-z V/2) and exp(-z m(P)) of one grid operator.

    ``z = i dt`` steps the Schroedinger flow forward and ``z = -i dt``
    backward.  :meth:`step` reads ``values``
    and computes the whole step in the one array it allocates, with
    ``fft``/``ifft`` when that array has one axis and ``fftn``/``ifftn`` otherwise.
    """

    def __init__(self, op: GridOperator, z: complex):
        self.grid = op.grid
        self.z = z
        self.half_v = np.exp(-0.5 * z * op.potential)
        self.kinetic = np.exp(-z * op.symbol)

    def step(self, values: np.ndarray) -> np.ndarray:
        out = self.half_v * values
        fft, ifft = (np.fft.fft, np.fft.ifft) if out.ndim == 1 else (np.fft.fftn, np.fft.ifftn)
        fft(out, out=out)
        # spectrum times factor, in this operand order: complex products are not
        # bitwise commutative
        out *= self.kinetic
        ifft(out, out=out)
        return np.multiply(self.half_v, out, out=out)


def apply_hamiltonian(wf: WaveFunction, ham: HamiltonianSpec | GridOperator) -> WaveFunction:
    """H psi; a :class:`GridOperator` built on ``wf.grid`` lends its fields."""
    op = ham if isinstance(ham, GridOperator) else GridOperator(ham, wf.grid)
    if op.grid != wf.grid:
        raise GridError("grid operator built on a different grid")
    return WaveFunction(wf.grid, op.apply(wf.values))
