"""The field against exact answers, not against earlier bits.

Jensen, Kuperman, Porter & Schmidt, *Computational Ocean Acoustics*,
ch. 6: a point source under a pressure-release surface in isovelocity
water (Lloyd's mirror) tests the starter, the march and the TL level at
once; a separable discrete mode tests both sweeps against their exact
per-step factors; a point source off the cylindrical axis tests the
azimuth coupling against continuous physics (Siegmann, Kriegsmann & Lee
1985, JASA 78(2)).
"""

import math

import numpy as np
import pytest

import pe3d.operators as operators_module

from conftest import make_config, make_env, make_grid
from pe3d.config import RunOptions
from pe3d.environment import PERIODIC, SECTOR, hankel_factor, wavenumber
from pe3d.marching import Marcher, range_step, run_frequency
from pe3d.operators import StepCoefficients
from pe3d.selftest import separable_mode_error


@pytest.mark.parametrize("topology", [PERIODIC, SECTOR])
def test_separable_mode_matches_closed_form(topology):
    # 200 steps on 36 x 128 cross three AZIMUTH_BLOCK boundaries; both
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

    u = exact(r0) / hankel_factor(k, r0)
    marcher = Marcher(grid, env, k, StepCoefficients.for_step(k, grid.delta_r))
    for j in range(grid.n_range):
        u = range_step(marcher, u, j)
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
    monkeypatch.setattr(operators_module, "azimuth_stencil",
                        lambda *args: 0.0)
    control = displaced_source_error(100.0, 1000.0)
    assert control >= 0.3, f"N x 2-D control error {control:.3f}"
