"""The field against exact answers, not against earlier bits.

Jensen, Kuperman, Porter & Schmidt, *Computational Ocean Acoustics*,
ch. 6: a point source under a pressure-release surface in isovelocity
water (Lloyd's mirror) tests the starter, the march and the TL level at
once; a separable discrete mode tests both sweeps against their exact
per-step factors.
"""

import numpy as np
import pytest

from conftest import make_config, make_env, make_grid
from pe3d.config import RunOptions
from pe3d.environment import PERIODIC, SECTOR, wavenumber
from pe3d.marching import run_frequency
from pe3d.selftest import separable_mode_error


@pytest.mark.parametrize("topology", [PERIODIC, SECTOR])
def test_separable_mode_matches_closed_form(topology):
    # 200 steps on 36 x 128 cross three AZIMUTH_BLOCK boundaries; the
    # step's norm growth, |prod g_j| != 1, is part of the closed form
    assert separable_mode_error(topology) <= 1e-12


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
