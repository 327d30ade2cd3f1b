"""The field against exact answers, not against earlier bits.

Jensen, Kuperman, Porter & Schmidt, *Computational Ocean Acoustics*,
ch. 6: a point source under a pressure-release surface in isovelocity
water (Lloyd's mirror) tests the starter, the march and the TL level at
once; a separable discrete mode tests both sweeps against their exact
per-step factors; a point source off the cylindrical axis tests the
azimuth coupling against continuous physics (Siegmann, Kriegsmann & Lee
1985, JASA 78(2)).  A whole run on each benchmark workload's grid is
checked against the same scheme marched as a separable field, one depth
column times one azimuth vector, by dense solves alone.
"""

import math

import numpy as np
import pytest

import pe3d.marching as marching_module
import pe3d.selftest as selftest_module

from conftest import (
    apply_X,
    apply_Y,
    make_config,
    make_env,
    make_grid,
)
from pe3d.config import RunOptions
from pe3d.environment import (
    PERIODIC,
    SECTOR,
    Absorber,
    Environment,
    SoundSpeedProfile,
    gaussian_starter,
    hankel_factor,
    refraction_index_grid,
    wavenumber,
)
from pe3d.marching import Marcher, StepCoefficients, run_frequency
from pe3d.selftest import separable_mode_error


@pytest.mark.parametrize("topology", [PERIODIC, SECTOR])
def test_separable_mode_matches_closed_form(topology):
    # 200 steps on 36 x 128 in modes, compared in physical space; both
    # sides of a step take Y at its midpoint, so the lossless mode keeps
    # its amplitude, |prod g_j| = 1
    error, gain = separable_mode_error(topology)
    assert error <= 1e-12
    assert abs(gain - 1.0) <= 1e-13


def test_lloyds_mirror():
    frequency, source_depth, receiver_depth = 50.0, 100.0, 60.0
    grid = make_grid(n_range=500, n_azimuth=4, n_depth=600, delta_r=10.0,
                     delta_z=3.0)
    # absorber far below the field: a bottom echo would not be the mirror's
    env = make_env(grid, attenuation=0.05, start_frac=0.5)
    config = make_config(grid=grid, env=env, frequencies=(frequency,),
                         source_depth=source_depth,
                         options=RunOptions(output_stride=1))
    result = run_frequency(config, frequency)

    r = np.linspace(1000.0, 5000.0, 81)
    rows = np.searchsorted(result.ranges, r)
    assert np.array_equal(result.ranges[rows], r)
    tl = result.tl_field[rows, :, round(receiver_depth / grid.delta_z)]

    k = wavenumber(frequency, env.c0)
    r1 = np.hypot(r, receiver_depth - source_depth)
    r2 = np.hypot(r, receiver_depth + source_depth)
    exact = -20.0 * np.log10(np.abs(np.exp(1j * k * r1) / r1
                                    - np.exp(1j * k * r2) / r2))
    error = np.abs(tl[:, 0] - exact)
    assert np.median(error) <= 0.25, f"median |dTL| {np.median(error):.3f} dB"
    assert error.max() <= 1.0, f"max |dTL| {error.max():.3f} dB"
    spread = (tl.max(axis=1) - tl.min(axis=1)).max()
    assert spread <= 1e-12, f"azimuthal TL spread {spread:.2e} dB"


def displaced_source_error(offset, r0):
    """Relative L2 error of the complex field at 5 km, over the rows above
    250 m, of a 50 Hz point source at 100 m depth a horizontal ``offset``
    off the cylindrical axis, marched from its exact field at ``r0``.

    The exact field is the source and its surface image, e^{ikR1}/R1 -
    e^{ikR2}/R2; its azimuthal variation is what the azimuth operator Y
    carries."""
    frequency, source_depth, r_end = 50.0, 100.0, 5000.0
    grid = make_grid(n_range=round((r_end - r0) / 10.0), n_azimuth=256,
                     n_depth=400, delta_r=10.0, delta_z=3.0, r_start=r0)
    env = make_env(grid, attenuation=0.05, start_frac=0.5)
    k = wavenumber(frequency, env.c0)
    z = grid.depths()

    def exact(r):
        horizontal = r * r + offset * offset \
            - 2.0 * r * offset * np.cos(grid.azimuths())[:, None]
        r1 = np.sqrt(horizontal + (z - source_depth) ** 2)
        r2 = np.sqrt(horizontal + (z + source_depth) ** 2)
        return np.exp(1j * k * r1) / r1 - np.exp(1j * k * r2) / r2

    marcher = Marcher(grid, env, k, StepCoefficients.for_step(k, grid.delta_r))
    # the last slab the run's loop yields, at range index n_range
    *_, (_, u) = marching_module.march(
        marcher, exact(r0) / hankel_factor(k, r0), grid.n_range)
    assert math.isclose(grid.range_at(grid.n_range), r_end)
    rows = z < 250.0
    field = u[:, rows] * hankel_factor(k, r_end)
    want = exact(r_end)[:, rows]
    return np.linalg.norm(field - want) / np.linalg.norm(want)


def test_displaced_point_source(monkeypatch):
    # the 3-D march follows the source's azimuthal variation; with the
    # azimuth operator switched off (N x 2-D) the same case is far off,
    # so the gate can see the azimuth term
    error = displaced_source_error(100.0, 1000.0)
    assert error <= 0.03, f"3-D field error {error:.3f}"
    monkeypatch.setattr(marching_module, "azimuth_stencil",
                        lambda *args: 0.0)
    control = displaced_source_error(100.0, 1000.0)
    assert control >= 0.3, f"N x 2-D control error {control:.3f}"


def test_closed_form_gates_march_the_runs_loop(monkeypatch):
    # selftest's separable-mode check and the displaced source take their
    # fields from the loop that run_frequency records, in one march each
    real_march, strides = marching_module.march, []

    def spy(marcher, u, stride):
        strides.append(stride)
        return real_march(marcher, u, stride)

    monkeypatch.setattr(marching_module, "march", spy)
    monkeypatch.setattr(selftest_module, "march", spy)
    for topology in (PERIODIC, SECTOR):
        assert separable_mode_error(topology)[0] <= 1e-12
    assert strides == [200, 200]
    assert displaced_source_error(100.0, 1000.0) <= 0.03
    assert strides == [200, 200, 400]


# The grids of the benchmark's workloads (``bench/workloads.py``), each at
# one frequency of its band with its source 100 m deep, and medium's and
# long-csv's step counts cut to keep the test short: (grid, absorber start
# depth, sound-speed knots or None for 1500 m/s, frequency, output stride).
# sector-farm's absorber starts at its default, 0.75 of the grid depth.
WORKLOAD_CASES = {
    "medium": (dict(n_range=30, n_azimuth=360, n_depth=512, delta_r=10.0,
                    delta_theta=math.radians(1.0), delta_z=4.0,
                    r_start=10.0),
               1500.0, None, 63.0, 10),
    "sector-farm": (dict(n_range=120, n_azimuth=96, n_depth=256,
                         delta_r=10.0, delta_theta=math.radians(0.5),
                         delta_z=4.0, topology=SECTOR),
                    765.0, ((0.0, 220.0, 600.0, 1020.0),
                            (1500.0, 1480.0, 1490.0, 1510.0)), 57.0, 10),
    "long-csv": (dict(n_range=400, n_azimuth=8, n_depth=129, delta_r=5.0,
                      delta_theta=math.radians(45.0), delta_z=3.125),
                 300.0, None, 62.0, 1),
}

# A run against the separable march, in dB where both are below 250 dB.
# Measured: at most 1.8e-11 dB on these cases (long-csv), and 5.8e-10 dB
# on the first two frequencies of each full workload; the margin is 50
# times the first.
SEPARABLE_TOLERANCE_DB = 1e-9


def workload_case(name):
    grid_kwargs, absorber_start, knots, frequency, stride = \
        WORKLOAD_CASES[name]
    profile = SoundSpeedProfile.uniform(1500.0) if knots is None \
        else SoundSpeedProfile(*(np.array(k) for k in knots))
    env = Environment(c0=1500.0, profile=profile,
                      absorber=Absorber(absorber_start, 0.01))
    config = make_config(grid=make_grid(**grid_kwargs), env=env,
                         frequencies=(frequency,), source_depth=100.0,
                         options=RunOptions(output_stride=stride))
    return config, frequency


def separable_march(config, frequency):
    """The TL of the field c_j(z) a_j(theta) at the run's recorded ranges,
    and its count of zero samples.  The depth column is marched by dense
    solves of (I + cx_lhs X) c = (I + cx_rhs X) c_prev, X built by
    ``apply_X``; the azimuth vector in physical azimuth by dense solves of
    (I + cy_lhs Y_j) a = (I + cy_rhs Y_j) a_prev, Y_j by ``apply_Y`` at the
    step's midpoint range.  Each marches its interior only: the surface
    row and a sector's edge azimuths stay zero."""
    grid, env, source, options = config
    k0 = wavenumber(frequency, env.c0)
    coeffs = StepCoefficients.for_step(k0, grid.delta_r)
    starter = gaussian_starter(grid, source, k0)
    inner = slice(1, -1) if grid.azimuth_topology == SECTOR else slice(None)
    column = starter[grid.n_azimuth // 2, 1:]
    # the starter is that column at every azimuth that is no edge
    assert np.array_equal(starter[inner, 1:],
                          np.broadcast_to(column, starter[inner, 1:].shape))
    azimuth = np.ones(starter[inner].shape[0], dtype=complex)
    x = apply_X(np.eye(grid.n_depth), refraction_index_grid(env, grid), k0,
                grid.delta_z).T[1:, 1:]
    eye_z, eye_a = np.eye(x.shape[0]), np.eye(azimuth.size)
    depth_lhs, depth_rhs = eye_z + coeffs.cx_lhs * x, eye_z + coeffs.cx_rhs * x
    c, a = np.zeros(grid.n_depth, dtype=complex), \
        np.zeros(grid.n_azimuth, dtype=complex)
    tl = []

    def record(j):
        c[1:], a[inner] = column, azimuth
        magnitude = np.outer(np.abs(a), np.abs(c)) / math.sqrt(grid.range_at(j))
        with np.errstate(divide="ignore"):
            tl.append(-20.0 * np.log10(magnitude))

    record(0)
    for j in range(grid.n_range):
        column = np.linalg.solve(depth_lhs, depth_rhs @ column)
        y = apply_Y(eye_a, k0, grid.range_at(j + 0.5), grid.delta_theta,
                    grid.azimuth_topology)
        azimuth = np.linalg.solve(eye_a + coeffs.cy_lhs * y,
                                  (eye_a + coeffs.cy_rhs * y) @ azimuth)
        if (j + 1) % options.output_stride == 0:
            record(j + 1)
    tl = np.array(tl)
    return tl, int(np.count_nonzero(np.isinf(tl)))


@pytest.mark.parametrize("workload", sorted(WORKLOAD_CASES))
def test_run_matches_separable_march(workload):
    # the run shares no solve, transform, thread split or block loop with
    # the separable march; it zeroes the same samples, at 1 and 2 threads
    config, frequency = workload_case(workload)
    want, zeros = separable_march(config, frequency)
    below = want < 250.0
    for threads in (1, 2):
        result = run_frequency(config, frequency, threads)
        assert result.tl_field.shape == want.shape
        assert result.clamped_samples == zeros
        both = below & (result.tl_field < 250.0)
        assert np.count_nonzero(both) >= 0.9 * np.count_nonzero(below)
        error = np.max(np.abs(result.tl_field - want)[both])
        assert error <= SEPARABLE_TOLERANCE_DB, f"{threads} threads: {error:.2e} dB"
