"""Shared builders for grids, environments and configs used across tests."""

import math

import numpy as np

from pe3d.config import Config, RunOptions
from pe3d.environment import (
    PERIODIC,
    SECTOR,
    TOPOLOGIES,
    Absorber,
    Environment,
    Grid3D,
    SoundSpeedProfile,
    SourceSpec,
)
from pe3d.errors import InvariantError, ShapeError
from pe3d.marching import range_step
from pe3d.tridiag import Diagonals


def make_grid(n_range=10, n_azimuth=8, n_depth=32, delta_r=5.0, delta_z=4.0,
              r_start=None, topology=PERIODIC, delta_theta=None):
    if delta_theta is None:
        delta_theta = 2.0 * math.pi / n_azimuth if topology == PERIODIC \
            else math.radians(2.0)
    return Grid3D(
        n_range=n_range, n_azimuth=n_azimuth, n_depth=n_depth,
        delta_r=delta_r, delta_theta=delta_theta, delta_z=delta_z,
        r_start=delta_r if r_start is None else r_start,
        azimuth_topology=topology,
    )


def make_env(grid, speed=1500.0, c0=1500.0, attenuation=0.01, start_frac=0.75,
             profile=None):
    return Environment(
        c0=c0,
        profile=profile if profile is not None else SoundSpeedProfile.uniform(speed),
        absorber=Absorber(start_frac * grid.depth_extent, attenuation),
    )


def make_config(grid=None, env=None, frequencies=(50.0,), source_depth=None,
                options=None, **grid_kwargs):
    grid = grid if grid is not None else make_grid(**grid_kwargs)
    env = env if env is not None else make_env(grid)
    if source_depth is None:
        source_depth = 0.5 * grid.depth_extent
    source = SourceSpec(frequencies=tuple(frequencies), depth=source_depth)
    return Config(grid, env, source, options if options is not None else RunOptions())


def random_slab_values(rng, grid, dirichlet=True):
    """A random complex (n_azimuth, n_depth) slab of ``grid``; with
    ``dirichlet``, zero on its Dirichlet rows, as a range step needs."""
    values = rng.standard_normal((grid.n_azimuth, grid.n_depth)) \
        + 1j * rng.standard_normal((grid.n_azimuth, grid.n_depth))
    return zero_dirichlet_rows(values, grid) if dirichlet else values


def zero_dirichlet_rows(values, grid):
    """Zero the surface row and, on a sector grid, the two edge azimuths of
    an (n_azimuth, n_depth) array in place; returns it."""
    values[:, 0] = 0.0
    if grid.azimuth_topology == SECTOR:
        values[[0, -1]] = 0.0
    return values


def whole_step(marcher, m, j):
    """Step ``j`` of the mode slab ``m`` with its gain, a new array: the
    bits that ``run_frequency`` records after one step from G = 1."""
    return range_step(marcher, m) * (marcher.rho * marcher.gain(j))


def one_matrix(sub, main, sup):
    """Width-1 complex ``Diagonals`` from the vectors of one matrix."""
    return Diagonals(*(np.asarray(d, dtype=complex)[:, None]
                       for d in (sub, main, sup)))


# The depth and azimuth operators as plain functions that return new
# arrays, from a second difference and scales of their own: the oracles
# that the matrices ``assemble_depth_batch`` and ``assemble_azimuth_batch``
# build, and the azimuth modes the march multiplies, are checked against.

def second_difference(u: np.ndarray, periodic: bool) -> np.ndarray:
    """u[i+1] - 2 u[i] + u[i-1] along the first axis of ``u``, with the
    values outside it zero, or wrapped around when ``periodic``."""
    if len(u) < 3:
        raise ShapeError(f"need >= 3 points along axis 0, got {len(u)}")
    zero = np.zeros_like(u[:1])
    below, above = (u[-1:], u[:1]) if periodic else (zero, zero)
    padded = np.concatenate([below, u, above])
    return padded[2:] - 2.0 * u + padded[:-2]


def apply_X(column: np.ndarray, n_column, k0: float, delta_z: float) -> np.ndarray:
    """Depth operator on a vector over l, or a slab with depth last.

    Dirichlet closure: the values just outside the surface and bottom rows
    are zero.
    """
    u = np.asarray(column, dtype=np.complex128)
    scale = 1.0 / (k0 * delta_z) ** 2
    local = np.asarray(n_column, dtype=np.complex128) ** 2 - 1.0
    if local.shape not in ((), u.shape[-1:]):
        raise ShapeError(f"refraction values of shape {local.shape} are not "
                         f"a depth profile of a field of shape {u.shape}")
    return local * u + scale * second_difference(u.T, False).T


def apply_Y(row: np.ndarray, k0: float, r: float, delta_theta: float,
            topology: str) -> np.ndarray:
    """Azimuth operator on a vector over m, or a slab with azimuth first.

    Indices wrap modulo the azimuth count when periodic; a sector uses the
    zero-exterior closure.
    """
    if topology not in TOPOLOGIES:
        raise InvariantError(f"azimuth_topology in {TOPOLOGIES}")
    u = np.asarray(row, dtype=np.complex128)
    scale = 1.0 / (k0 * r * delta_theta) ** 2
    return scale * second_difference(u, topology == PERIODIC)
