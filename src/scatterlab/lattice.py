"""Uniform periodic tensor grids and complex wavefunctions on them.

The grid spans ``[-L, L)`` per axis with ``N`` points (``N`` a power of two),
so the position lattice is ``{-L + j*dx}`` with ``dx = 2L/N`` and the momentum
lattice is the standard discrete-Fourier dual with spacing ``pi/L``.  All L2
norms and inner products carry the grid measure ``dx`` per axis, which makes
them stable across resolutions.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import GridError

_DUMP_MAGIC = b"DSWF"
_DUMP_VERSION = 1


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid for one or two particles.

    Parameters
    ----------
    particles : int
        1 for subsystem/fibered problems, 2 for the full configuration space.
    points_per_axis : int
        Lattice points per axis; a power of two, at least 8.
    half_extent : float
        The box is ``[-half_extent, half_extent)`` along every axis.
    dims_per_particle : int
        Spatial dimensions per particle (1 at desk scale).
    """

    particles: int
    points_per_axis: int
    half_extent: float
    dims_per_particle: int = 1

    def __post_init__(self):
        if self.particles not in (1, 2):
            raise GridError(f"particles must be 1 or 2, got {self.particles}")
        if self.dims_per_particle != 1:
            raise GridError("only 1 spatial dimension per particle is supported")
        if self.points_per_axis < 8 or not _is_power_of_two(self.points_per_axis):
            raise GridError(
                f"points_per_axis must be a power of two >= 8, got {self.points_per_axis}"
            )
        if not self.half_extent > 0:
            raise GridError(f"half_extent must be positive, got {self.half_extent}")

    @property
    def axes(self) -> int:
        return self.particles * self.dims_per_particle

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_extent / self.points_per_axis

    @property
    def measure(self) -> float:
        """Volume element of one lattice cell, dx per axis."""
        return self.spacing ** self.axes

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.axes

    @property
    def size(self) -> int:
        return self.points_per_axis ** self.axes

    def positions(self) -> np.ndarray:
        """1-D position lattice ``{-L + j*dx}``."""
        return -self.half_extent + self.spacing * np.arange(self.points_per_axis)

    def momenta(self) -> np.ndarray:
        """1-D momentum lattice in FFT ordering, spacing ``pi/half_extent``."""
        return 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)

    def position_mesh(self) -> tuple[np.ndarray, ...]:
        x = self.positions()
        return tuple(np.meshgrid(*([x] * self.axes), indexing="ij"))

    def momentum_mesh(self) -> tuple[np.ndarray, ...]:
        k = self.momenta()
        return tuple(np.meshgrid(*([k] * self.axes), indexing="ij"))

    def radius_sq(self) -> np.ndarray:
        """Squared distance from the origin, summed axis by axis."""
        r2 = np.zeros(self.shape)
        for X in self.position_mesh():
            r2 = r2 + X ** 2
        return r2

    @lru_cache(maxsize=8)
    def shell_mask(self, fraction: float) -> np.ndarray:
        """Read-only mask of the sites where some ``|x_j| > fraction*L`` (cached)."""
        shell = np.zeros(self.shape, dtype=bool)
        for X in self.position_mesh():
            shell |= np.abs(X) > fraction * self.half_extent
        shell.setflags(write=False)
        return shell

    def wrap(self, u: np.ndarray) -> np.ndarray:
        """Minimal-image wrap of a coordinate difference into ``[-L, L)``."""
        L = self.half_extent
        return np.mod(u + L, 2.0 * L) - L


def make_grid(particles: int, points_per_axis: int, half_extent: float) -> GridSpec:
    """Construct a :class:`GridSpec`, validating the lattice invariants."""
    return GridSpec(particles=particles, points_per_axis=points_per_axis,
                    half_extent=float(half_extent))


@dataclass(frozen=True)
class WaveFunction:
    """Complex amplitude field over the position lattice of a grid.

    Values are never mutated in place; every operation returns a new instance.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise GridError(
                f"amplitude shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if self.values.dtype != np.complex128:
            object.__setattr__(self, "values", self.values.astype(np.complex128))
        self.values.setflags(write=False)

    def norm(self) -> float:
        return float(np.sqrt(self.grid.measure * np.sum(np.abs(self.values) ** 2)))

    def inner(self, other: "WaveFunction") -> complex:
        """Grid-measure inner product, conjugate-linear in ``self``."""
        if other.grid != self.grid:
            raise GridError("inner product between incompatible grids")
        return complex(self.grid.measure * np.vdot(self.values, other.values))

    def normalized(self) -> "WaveFunction":
        n = self.norm()
        if n == 0.0:
            raise GridError("cannot normalize the zero wavefunction")
        return WaveFunction(self.grid, self.values / n)

    def scaled(self, c: complex) -> "WaveFunction":
        return WaveFunction(self.grid, c * self.values)

    def __add__(self, other: "WaveFunction") -> "WaveFunction":
        if other.grid != self.grid:
            raise GridError("sum of wavefunctions on incompatible grids")
        return WaveFunction(self.grid, self.values + other.values)

    def __sub__(self, other: "WaveFunction") -> "WaveFunction":
        if other.grid != self.grid:
            raise GridError("difference of wavefunctions on incompatible grids")
        return WaveFunction(self.grid, self.values - other.values)

    def boundary_mass(self, fraction: float = 0.8) -> float:
        """Fraction of the squared norm where some ``|x_j| > fraction*L``."""
        total = np.sum(np.abs(self.values) ** 2)
        if total == 0.0:
            return 0.0
        return float(np.sum(np.abs(self.values[self.grid.shell_mask(fraction)]) ** 2) / total)


def fourier(wf: WaveFunction) -> np.ndarray:
    """Unitary FFT of the amplitudes (norm="ortho")."""
    return np.fft.fftn(wf.values, norm="ortho")


def inverse_fourier(grid: GridSpec, values_hat: np.ndarray) -> WaveFunction:
    return WaveFunction(grid, np.fft.ifftn(values_hat, norm="ortho"))


def gaussian_packet(grid: GridSpec, centers, momenta, widths) -> WaveFunction:
    """Normalized Gaussian packet ``exp(-(x-c)^2/(2 w^2) + i p x)`` per axis."""
    centers = np.broadcast_to(np.atleast_1d(np.asarray(centers, dtype=float)), (grid.axes,))
    momenta = np.broadcast_to(np.atleast_1d(np.asarray(momenta, dtype=float)), (grid.axes,))
    widths = np.broadcast_to(np.atleast_1d(np.asarray(widths, dtype=float)), (grid.axes,))
    mesh = grid.position_mesh()
    phase = np.zeros(grid.shape, dtype=np.complex128)
    for X, c, p, w in zip(mesh, centers, momenta, widths):
        phase = phase - (X - c) ** 2 / (2.0 * w ** 2) + 1j * p * X
    return WaveFunction(grid, np.exp(phase)).normalized()


def random_state(grid: GridSpec, rng: np.random.Generator,
                 envelope_sigma: float | None = None) -> WaveFunction:
    """Complex Gaussian noise under a centered Gaussian envelope, normalized.

    The envelope keeps the state away from the box boundary so that
    position-weighted operators are meaningful; default sigma is L/6.
    """
    if envelope_sigma is None:
        envelope_sigma = grid.half_extent / 6.0
    noise = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    envelope = np.exp(-grid.radius_sq() / (2.0 * envelope_sigma ** 2))
    return WaveFunction(grid, noise * envelope).normalized()


def write_wavefunction(path, wf: WaveFunction) -> None:
    """Binary dump: magic, version, particles, dims, N, L, then (re, im) pairs.

    All fields little-endian; amplitudes row-major in position order.
    """
    header = _DUMP_MAGIC + struct.pack(
        "<IIIId", _DUMP_VERSION, wf.grid.particles, wf.grid.dims_per_particle,
        wf.grid.points_per_axis, wf.grid.half_extent,
    )
    flat = np.ravel(wf.values, order="C")
    inter = np.empty(2 * flat.size, dtype="<f8")
    inter[0::2] = flat.real
    inter[1::2] = flat.imag
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(inter.tobytes())


def read_wavefunction(path) -> WaveFunction:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _DUMP_MAGIC:
            raise GridError(f"bad magic {magic!r} in wavefunction dump")
        version, particles, dims, n, half_extent = struct.unpack("<IIIId", fh.read(24))
        if version != _DUMP_VERSION:
            raise GridError(f"unsupported dump version {version}")
        grid = GridSpec(particles=particles, points_per_axis=n,
                        half_extent=half_extent, dims_per_particle=dims)
        inter = np.frombuffer(fh.read(), dtype="<f8")
    if inter.size != 2 * grid.size:
        raise GridError("wavefunction dump truncated")
    values = (inter[0::2] + 1j * inter[1::2]).reshape(grid.shape)
    return WaveFunction(grid, values)
