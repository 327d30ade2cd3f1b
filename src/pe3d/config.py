"""Config file loading and run options.

Config files are INI-style text with four sections.  All units are SI;
angles are written in degrees and converted to radians internally.

``[grid]``
    n_range, n_azimuth, n_depth, delta_r, delta_theta (degrees), delta_z,
    r_start (optional, default delta_r), azimuth_topology (periodic|sector)

``[environment]``
    c0, water_depth,
    sound_speed (scalar)  |  sound_speed_profile (inline "depth speed"
    pairs, one per continuation line)  |  sound_speed_file (two-column
    text file),
    absorber_start_depth (above the grid bottom; default 0.75 x its depth),
    absorber_max_attenuation (default 0.01)

``[source]``
    frequencies (comma-separated Hz), depth, starter (gaussian)

``[run]`` (optional)
    output_dir, output_stride, tl_format (csv|binary-grid), threads,
    workers, max_range: the fields of :class:`RunOptions`.  Each but
    max_range has a ``pe3d run`` flag, which overrides the key and meets
    the same checks.

Unknown keys are ignored.

Example::

    [grid]
    n_range = 160
    n_azimuth = 8
    n_depth = 128
    delta_r = 5.0
    delta_theta = 45.0
    delta_z = 3.0
    azimuth_topology = periodic

    [environment]
    c0 = 1500.0
    sound_speed = 1500.0
    water_depth = 6000.0

    [source]
    frequencies = 50.0
    depth = 100.0
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np

from .environment import (
    Absorber,
    Environment,
    Grid3D,
    SoundSpeedProfile,
    SourceSpec,
)
from .errors import ConfigError, InvariantError
from .output import TL_FORMATS


@dataclass(frozen=True)
class RunOptions:
    """Output and execution options: ``threads`` inside a range step and
    ``workers`` across frequencies.  ``output_dir`` is validated for
    writability when a command actually writes into it."""

    output_dir: Path = Path("out")
    output_stride: Optional[int] = None
    tl_format: str = "csv"
    threads: int = 1
    workers: int = 1
    max_range: Optional[float] = None

    def __post_init__(self):
        for name in ("output_stride", "threads", "workers"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise InvariantError(f"{name} >= 1", f"got {value}")
        if self.tl_format not in TL_FORMATS:
            raise InvariantError(f"tl_format in {tuple(TL_FORMATS)}",
                                 f"got {self.tl_format!r}")
        if self.max_range is not None and not self.max_range > 0:
            raise InvariantError("max_range > 0", f"got {self.max_range}")
        object.__setattr__(self, "output_dir", Path(self.output_dir))


class Config(NamedTuple):
    grid: Grid3D
    environment: Environment
    source: SourceSpec
    options: RunOptions


class _Section:
    """Typed accessors over one config section with field-level diagnostics."""

    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self.present = parser.has_section(name)
        self._section = parser[name] if self.present else {}

    def _raw(self, key, default=None, required=False):
        if key in self._section:
            return self._section[key]
        if required:
            raise ConfigError(f"[{self.name}] missing required field '{key}'")
        return default

    def get_float(self, key, default=None, required=False):
        raw = self._raw(key, required=required)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(
                f"[{self.name}] field '{key}': expected a number, got {raw!r}"
            ) from None

    def get_int(self, key, default=None, required=False):
        raw = self._raw(key, required=required)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(
                f"[{self.name}] field '{key}': expected an integer, got {raw!r}"
            ) from None

    def get_str(self, key, default=None, required=False):
        raw = self._raw(key, required=required)
        return default if raw is None else raw.strip()

    def has(self, key):
        return key in self._section


def _parse_profile_pairs(text: str, origin: str) -> SoundSpeedProfile:
    depths, speeds = [], []
    for line_no, line in enumerate(text.strip().splitlines(), start=1):
        line = line.replace(",", " ").strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ConfigError(
                f"{origin}: line {line_no}: expected 'depth speed', got {line!r}"
            )
        try:
            depths.append(float(parts[0]))
            speeds.append(float(parts[1]))
        except ValueError:
            raise ConfigError(
                f"{origin}: line {line_no}: non-numeric entry in {line!r}"
            ) from None
    if not depths:
        raise ConfigError(f"{origin}: empty sound-speed profile")
    return SoundSpeedProfile(np.asarray(depths), np.asarray(speeds))


def _read_text(path: Path, what: str) -> str:
    """The UTF-8 text of ``path``; a file that cannot be read is a
    config error."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from None


def load_config(path) -> Config:
    """Parse and validate a config file into model objects.

    All environment data is resident in memory when this returns; the
    marching loop performs no further input.
    """
    path = Path(path)
    text = _read_text(path, "config file")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"config parse failure: {exc}") from None

    for section in ("grid", "environment", "source"):
        if not parser.has_section(section):
            raise ConfigError(f"missing required section [{section}]")

    g = _Section(parser, "grid")
    delta_r = g.get_float("delta_r", required=True)
    grid = Grid3D(
        n_range=g.get_int("n_range", required=True),
        n_azimuth=g.get_int("n_azimuth", required=True),
        n_depth=g.get_int("n_depth", required=True),
        delta_r=delta_r,
        delta_theta=math.radians(g.get_float("delta_theta", required=True)),
        delta_z=g.get_float("delta_z", required=True),
        r_start=g.get_float("r_start", default=delta_r),
        azimuth_topology=g.get_str("azimuth_topology", default="periodic"),
    )

    e = _Section(parser, "environment")
    if e.has("sound_speed_file"):
        profile_path = Path(e.get_str("sound_speed_file"))
        if not profile_path.is_absolute():
            profile_path = path.parent / profile_path
        profile = _parse_profile_pairs(
            _read_text(profile_path, "sound_speed_file"), str(profile_path))
    elif e.has("sound_speed_profile"):
        profile = _parse_profile_pairs(
            e.get_str("sound_speed_profile"), "[environment] sound_speed_profile"
        )
    else:
        profile = SoundSpeedProfile.uniform(
            e.get_float("sound_speed", required=True)
        )
    environment = Environment(
        c0=e.get_float("c0", required=True),
        profile=profile,
        water_depth=e.get_float("water_depth", required=True),
        absorber=Absorber(
            start_depth=e.get_float(
                "absorber_start_depth", default=0.75 * grid.depth_extent
            ),
            max_attenuation=e.get_float("absorber_max_attenuation", default=0.01),
        ),
    )
    start = environment.absorber.start_depth
    if not start < grid.depth_extent:
        raise InvariantError("absorber.start_depth < grid bottom depth",
                             f"got start {start} vs bottom {grid.depth_extent}")

    s = _Section(parser, "source")
    freq_text = s.get_str("frequencies", required=True)
    try:
        frequencies = tuple(float(tok) for tok in freq_text.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(
            f"[source] field 'frequencies': expected comma-separated numbers, "
            f"got {freq_text!r}"
        ) from None
    source = SourceSpec(
        frequencies=frequencies,
        depth=s.get_float("depth", required=True),
        starter=s.get_str("starter", default="gaussian"),
    )
    for name, limit in (("water_depth", environment.water_depth),
                        ("grid depth extent", grid.depth_extent)):
        if not 0 < source.depth < limit:
            raise InvariantError(f"0 < source depth < {name}",
                                 f"got depth {source.depth} vs {name} {limit}")

    r = _Section(parser, "run")
    options = RunOptions(
        output_dir=Path(r.get_str("output_dir", default="out")),
        output_stride=r.get_int("output_stride", default=None),
        tl_format=r.get_str("tl_format", default="csv"),
        threads=r.get_int("threads", default=1),
        workers=r.get_int("workers", default=1),
        max_range=r.get_float("max_range", default=None),
    )
    return Config(grid, environment, source, options)
