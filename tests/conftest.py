"""Shared builders for grids, environments and configs used across tests."""

import errno
import math
import multiprocessing
import os

import numpy as np
import pytest

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
    wavenumber,
)
from pe3d.errors import InvariantError, ShapeError
from pe3d.marching import StepCoefficients, march
from pe3d.tridiag import Diagonals


@pytest.fixture(autouse=True)
def no_farm_worker_outlives_its_test():
    """Every farm joins its worker processes before it returns or raises."""
    yield
    assert multiprocessing.active_children() == []


def fail_second_fork(monkeypatch):
    """Make the second farm worker's start fail as a fork does when the
    system is out of processes; returns the list of processes started."""
    fork_process = multiprocessing.context.ForkProcess
    real_start, starts = fork_process.start, []

    def start(process):
        starts.append(process)
        if len(starts) == 2:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_start(process)

    monkeypatch.setattr(fork_process, "start", start)
    return starts


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


def first_step(marcher, u):
    """The slab one range step on from the slab ``u``: the first slab
    after ``u`` that ``march``, the loop ``run_frequency`` records,
    yields at stride 1 (a view of the marcher's work array)."""
    slabs = march(marcher, u, 1)
    next(slabs)  # u itself
    return next(slabs)[1]


def dense_step_case(seed):
    """A 3 x 3 periodic lossless config, a random slab ``u0`` on it from
    ``seed``, zero on its surface row, and the reference for ``u0`` one
    50 Hz range step on: the 9 x 9 dense solves of the step's brackets,
    Y at the step's midpoint range on both sides, with the surface rows
    held as identity equations and projected out."""
    rng = np.random.default_rng(seed)
    grid = make_grid(n_azimuth=3, n_depth=3, delta_r=4.0, delta_z=7.0,
                     r_start=30.0)
    env = make_env(grid, attenuation=0.0, start_frac=0.5)
    config = make_config(grid=grid, env=env, source_depth=7.0)
    u0 = random_slab_values(rng, grid)
    k0 = wavenumber(50.0, env.c0)
    coeffs = StepCoefficients.for_step(k0, grid.delta_r)

    def second_diff(n, periodic):
        t = np.diag(np.full(n, -2.0)) + np.diag(np.ones(n - 1), 1) \
            + np.diag(np.ones(n - 1), -1)
        if periodic:
            t[0, n - 1] += 1.0
            t[n - 1, 0] += 1.0
        return t

    s_z = 1.0 / (k0 * grid.delta_z) ** 2
    x_hat = np.kron(np.eye(3), s_z * second_diff(3, False))
    r_mid = grid.r_start + 0.5 * grid.delta_r
    s_y = 1.0 / (k0 * r_mid * grid.delta_theta) ** 2
    y_hat = np.kron(s_y * second_diff(3, True), np.eye(3))
    surface = [m * 3 for m in range(3)]
    z_proj = np.eye(9)
    for q in surface:
        z_proj[q, q] = 0.0
    explicit = (np.eye(9) + coeffs.cx_rhs * x_hat) @ (
        np.eye(9) + coeffs.cy_rhs * y_hat)
    rhs = z_proj @ explicit @ (z_proj @ u0.ravel())
    a_mat = np.eye(9) + coeffs.cx_lhs * x_hat
    for q in surface:
        a_mat[q, :] = 0.0
        a_mat[q, q] = 1.0
    b_mat = np.eye(9) + coeffs.cy_lhs * y_hat
    ref = (z_proj @ np.linalg.solve(
        b_mat, np.linalg.solve(a_mat, rhs))).reshape(3, 3)
    return config, u0, ref


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
