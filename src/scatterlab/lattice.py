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
# version, particles, dims per particle (always 1), points per axis, half extent
_DUMP_HEADER = struct.Struct("<IIIId")


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid for one or two particles, one axis each.

    Parameters
    ----------
    particles : int
        1 for subsystem/fibered problems, 2 for the full configuration space.
    points_per_axis : int
        Lattice points per axis; a power of two, at least 8.
    half_extent : float
        The box is ``[-half_extent, half_extent)`` along every axis.
    """

    particles: int
    points_per_axis: int
    half_extent: float

    def __post_init__(self):
        if self.particles not in (1, 2):
            raise GridError(f"particles must be 1 or 2, got {self.particles}")
        if self.points_per_axis < 8 or not _is_power_of_two(self.points_per_axis):
            raise GridError(
                f"points_per_axis must be a power of two >= 8, got {self.points_per_axis}"
            )
        if not self.half_extent > 0:
            raise GridError(f"half_extent must be positive, got {self.half_extent}")

    @property
    def axes(self) -> int:
        return self.particles

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


def gaussian_packet(grid: GridSpec, centers, momenta, widths) -> WaveFunction:
    """Normalized Gaussian packet ``exp(-(x-c)^2/(2 w^2) + i p x)`` per axis, each argument
    one finite value for all axes or one per axis, every width positive."""
    per_axis = {}
    for name, arg in (("centers", centers), ("momenta", momenta), ("widths", widths)):
        arr = np.atleast_1d(np.asarray(arg, dtype=float))
        if arr.shape not in ((1,), (grid.axes,)) or not np.all(np.isfinite(arr)):
            raise GridError(f"packet {name} must be 1 or {grid.axes} finite values, got {arr}")
        per_axis[name] = np.broadcast_to(arr, (grid.axes,))
    if np.any(per_axis["widths"] <= 0):
        raise GridError(f"packet widths must be positive, got {per_axis['widths']}")
    mesh = grid.position_mesh()
    phase = np.zeros(grid.shape, dtype=np.complex128)
    for X, c, p, w in zip(mesh, *per_axis.values()):
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
    header = _DUMP_MAGIC + _DUMP_HEADER.pack(
        _DUMP_VERSION, wf.grid.particles, 1,
        wf.grid.points_per_axis, wf.grid.half_extent,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(wf.values, dtype="<c16").tobytes())


def read_wavefunction(path) -> WaveFunction:
    """Read a :func:`write_wavefunction` dump back, bit for bit.

    A file that is not such a dump, is cut short anywhere, or runs past its
    last amplitude raises :class:`GridError`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:len(_DUMP_MAGIC)]
    if magic != _DUMP_MAGIC[:len(magic)]:
        raise GridError(f"bad magic {magic!r} in wavefunction dump")
    start = len(_DUMP_MAGIC) + _DUMP_HEADER.size
    if len(data) < start:
        raise GridError(f"wavefunction dump truncated inside its {start}-byte header "
                        f"({len(data)} bytes)")
    version, particles, dims, n, half_extent = _DUMP_HEADER.unpack_from(data, len(_DUMP_MAGIC))
    if version != _DUMP_VERSION:
        raise GridError(f"unsupported dump version {version}")
    if dims != 1:
        raise GridError("only 1 spatial dimension per particle is supported")
    grid = GridSpec(particles=particles, points_per_axis=n, half_extent=half_extent)
    body, expected = len(data) - start, 16 * grid.size
    if body < expected:
        raise GridError(f"wavefunction dump truncated: {body} of {expected} amplitude bytes")
    if body > expected:
        raise GridError(f"wavefunction dump has {body - expected} bytes after its "
                        f"{grid.size} amplitudes")
    values = np.frombuffer(data, dtype="<c16", count=grid.size, offset=start)
    return WaveFunction(grid, values.reshape(grid.shape))
