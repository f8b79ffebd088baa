import struct

import numpy as np
import pytest

from scatterlab.errors import GridError
from scatterlab.lattice import (
    WaveFunction,
    gaussian_packet,
    make_grid,
    random_state,
    read_wavefunction,
    write_wavefunction,
)


def test_grid_lattices():
    g = make_grid(1, 8, 4.0)
    assert g.spacing == 1.0
    assert np.allclose(g.positions(), [-4, -3, -2, -1, 0, 1, 2, 3])
    # dual lattice spacing pi/L
    k = np.sort(g.momenta())
    assert np.allclose(np.diff(k), np.pi / 4.0)


def test_grid_two_particles():
    g = make_grid(2, 64, 16.0)
    assert g.shape == (64, 64)
    assert g.size == 4096
    assert g.measure == pytest.approx(g.spacing ** 2)


@pytest.mark.parametrize("n", [7, 6, 4, 0])
def test_grid_rejects_bad_points(n):
    with pytest.raises(GridError):
        make_grid(1, n, 4.0)


def test_grid_rejects_bad_extent():
    with pytest.raises(GridError):
        make_grid(1, 8, 0.0)
    with pytest.raises(GridError):
        make_grid(1, 8, -2.0)


def test_norm_uses_grid_measure():
    # the same continuum Gaussian must have the same norm at two resolutions
    vals = []
    for n in (64, 128):
        g = make_grid(1, n, 12.0)
        x = g.positions()
        psi = WaveFunction(g, np.exp(-x ** 2).astype(complex))
        vals.append(psi.norm())
    assert vals[0] == pytest.approx(vals[1], rel=1e-10)


def test_wrap_minimal_image():
    g = make_grid(1, 16, 4.0)
    assert g.wrap(np.array([4.5]))[0] == pytest.approx(-3.5)
    assert g.wrap(np.array([-4.5]))[0] == pytest.approx(3.5)
    assert g.wrap(np.array([3.5]))[0] == pytest.approx(3.5)
    assert g.wrap(np.array([1.0]))[0] == pytest.approx(1.0)


def test_wavefunction_immutable():
    g = make_grid(1, 8, 4.0)
    psi = gaussian_packet(g, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        psi.values[0] = 1.0


def test_binary_dump_round_trip(tmp_path):
    g = make_grid(2, 16, 6.0)
    rng = np.random.default_rng(3)
    psi = random_state(g, rng)
    path = tmp_path / "state.dswf"
    write_wavefunction(path, psi)
    back = read_wavefunction(path)
    assert back.grid == g
    assert np.array_equal(back.values, psi.values)
    # header layout: magic, three u32 fields, one more u32, f64
    raw = path.read_bytes()
    assert raw[:4] == b"DSWF"
    assert len(raw) == 4 + 24 + 16 * g.size


def test_dump_with_more_than_one_dim_per_particle_is_rejected(tmp_path):
    # header: magic, version 1, one particle, dims 2, N = 8, L = 4.0
    path = tmp_path / "state.dswf"
    path.write_bytes(b"DSWF" + struct.pack("<IIIId", 1, 1, 2, 8, 4.0) + bytes(16 * 8))
    with pytest.raises(GridError, match="only 1 spatial dimension per particle"):
        read_wavefunction(path)


def test_boundary_mass():
    g = make_grid(1, 256, 16.0)
    tight = gaussian_packet(g, 0.0, 0.0, 1.0)
    assert tight.boundary_mass(0.8) < 1e-12
    shifted = gaussian_packet(g, 14.0, 0.0, 1.0)
    assert shifted.boundary_mass(0.8) > 0.5


def test_packet_takes_one_value_or_one_per_axis():
    g2 = make_grid(2, 32, 8.0)
    both = gaussian_packet(g2, 1.0, (0.5, 0.5), 2.0)
    assert np.array_equal(both.values, gaussian_packet(g2, (1.0, 1.0), 0.5, (2.0, 2.0)).values)
    with pytest.raises(GridError, match="momenta"):
        gaussian_packet(make_grid(1, 32, 8.0), 0.0, (0.0, 0.5), 2.0)
    with pytest.raises(GridError, match="centers"):
        gaussian_packet(g2, (0.0, 1.0, 2.0), 0.0, 2.0)


@pytest.mark.parametrize("center, momentum, width", [
    (0.0, 0.5, 0.0), (0.0, 0.5, -2.0), (np.nan, 0.5, 2.0), (0.0, np.inf, 2.0),
], ids=["zero-width", "negative-width", "nan-center", "infinite-momentum"])
def test_packet_rejects_degenerate_values(center, momentum, width):
    with pytest.raises(GridError):
        gaussian_packet(make_grid(1, 32, 8.0), center, momentum, width)
