"""Seeded pe3d configs for the benchmark workloads.

Each workload fixes its grid sizes, step count, topology, output format
and executor settings, so its cost does not depend on the seed.  The seed
draws only what a user would vary between runs of the same case: the
frequency set (one frequency per fixed sub-band, so the set stays in a
fixed band), the source depth, and on ``sector-farm`` the knots of the
sound-speed profile.  pe3d receives nothing but the generated config
text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Sub-bands (Hz) of the acceptance medium case: 25, 40, 50 and 63 Hz.
MEDIUM_BANDS = ((24.0, 27.0), (38.5, 41.5), (48.5, 51.5), (61.5, 64.5))
LONG_BANDS = ((48.5, 51.5), (61.0, 64.0))
SECTOR_BANDS = tuple((20.0 + 5.0 * i, 24.0 + 5.0 * i) for i in range(8))


@dataclass(frozen=True)
class Workload:
    name: str
    family: str        # workloads of one family share frequencies per seed
    n_range: int
    n_azimuth: int
    n_depth: int
    stride: int = 10

    def grid_point_steps(self, n_frequencies: int) -> int:
        """Sum over frequencies of steps x n_azimuth x n_depth."""
        return n_frequencies * self.n_range * self.n_azimuth * self.n_depth


# Why each workload exists is in bench/README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("medium", "medium", 50, 360, 512),
        Workload("long-csv", "long-csv", 800, 8, 129, stride=1),
        Workload("sector-farm", "sector-farm", 120, 96, 256),
        Workload("medium-threads", "medium", 50, 360, 512),
    )
}


def _draw(rng: random.Random, lo: float, hi: float, digits: int = 2) -> float:
    return round(rng.uniform(lo, hi), digits)


def _frequencies(rng: random.Random, bands) -> list[float]:
    return [_draw(rng, lo, hi) for lo, hi in bands]


def _fmt(values) -> str:
    return ", ".join(f"{v:g}" for v in values)


def _medium(seed: int, n_frequencies: int, threads: int) -> str:
    rng = random.Random(f"medium/{seed}")
    freqs = _frequencies(rng, MEDIUM_BANDS)[:n_frequencies]
    depth = _draw(rng, 90.0, 110.0)
    return f"""\
[grid]
n_range = 50
n_azimuth = 360
n_depth = 512
delta_r = 10.0
delta_theta = 1.0
delta_z = 4.0
r_start = 10.0

[environment]
c0 = 1500.0
sound_speed = 1500.0
water_depth = 6000.0
absorber_start_depth = 1500.0
absorber_max_attenuation = 0.01

[source]
frequencies = {_fmt(freqs)}
depth = {depth:g}

[run]
output_stride = 10
tl_format = binary-grid
threads = {threads}
workers = 1
"""


def _long_csv(seed: int) -> str:
    rng = random.Random(f"long-csv/{seed}")
    freqs = _frequencies(rng, LONG_BANDS)
    depth = _draw(rng, 90.0, 110.0)
    return f"""\
[grid]
n_range = 800
n_azimuth = 8
n_depth = 129
delta_r = 5.0
delta_theta = 45.0
delta_z = 3.125
azimuth_topology = periodic

[environment]
c0 = 1500.0
sound_speed = 1500.0
water_depth = 6000.0
absorber_start_depth = 300.0
absorber_max_attenuation = 0.01

[source]
frequencies = {_fmt(freqs)}
depth = {depth:g}

[run]
output_stride = 1
tl_format = csv
threads = 1
workers = 1
"""


def _sector_farm(seed: int) -> str:
    rng = random.Random(f"sector-farm/{seed}")
    freqs = _frequencies(rng, SECTOR_BANDS)
    depth = _draw(rng, 80.0, 120.0)
    # A deep sound channel: surface, channel axis, mid-depth, grid bottom.
    knots = [
        (0.0, _draw(rng, 1495.0, 1505.0)),
        (_draw(rng, 150.0, 300.0, 1), _draw(rng, 1475.0, 1485.0)),
        (_draw(rng, 500.0, 700.0, 1), _draw(rng, 1486.0, 1494.0)),
        (1020.0, _draw(rng, 1505.0, 1515.0)),
    ]
    profile = "\n".join(f"    {z:g} {c:g}" for z, c in knots)
    return f"""\
[grid]
n_range = 120
n_azimuth = 96
n_depth = 256
delta_r = 10.0
delta_theta = 0.5
delta_z = 4.0
azimuth_topology = sector

[environment]
c0 = 1500.0
sound_speed_profile =
{profile}
water_depth = 6000.0
absorber_max_attenuation = 0.01

[source]
frequencies = {_fmt(freqs)}
depth = {depth:g}

[run]
output_stride = 10
tl_format = binary-grid
threads = 1
workers = 2
"""


def config_text(name: str, seed: int) -> str:
    """The pe3d config of workload ``name`` for ``seed``."""
    if name == "medium":
        return _medium(seed, 4, threads=1)
    if name == "medium-threads":
        return _medium(seed, 2, threads=2)
    if name == "long-csv":
        return _long_csv(seed)
    if name == "sector-farm":
        return _sector_farm(seed)
    raise KeyError(name)


def reference_text(seed: int) -> str:
    """``medium-threads`` on one thread, as ``medium`` runs it: the TL files
    must be bitwise identical to the workload's."""
    return _medium(seed, 2, threads=1)
