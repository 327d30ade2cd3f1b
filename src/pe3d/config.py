"""Config file loading and run options.

Config files are INI-style text with four sections.  All units are SI;
angles are written in degrees and converted to radians internally.

``[grid]``
    n_range, n_azimuth, n_depth, delta_r, delta_theta (degrees), delta_z,
    r_start (optional, default delta_r), azimuth_topology (periodic|sector)

``[environment]``
    c0,
    exactly one of: sound_speed (scalar)  |  sound_speed_profile (inline
    "depth speed" pairs, one per continuation line)  |  sound_speed_file
    (two-column text file),
    absorber_start_depth (above the grid bottom; default 0.75 x its depth),
    absorber_max_attenuation (default 0.01)

``[source]``
    frequencies (comma-separated Hz), depth (inside the grid),
    starter (optional; gaussian, the only one)

``[run]`` (optional)
    output_dir, output_stride, tl_format (csv|binary-grid), threads,
    workers: the fields of :class:`RunOptions`, which holds their
    defaults.  Each has a ``pe3d run`` flag, which overrides the key and
    meets the same checks.

Unknown keys are ignored, but ``[run] max_range`` is an error: a run
marches ``[grid] n_range`` steps.  Each value is checked by the type that
holds it, and the absorber and source depths and the numbers the step
forms from the config by :class:`Config`.

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

    [source]
    frequencies = 50.0
    depth = 100.0
"""

from __future__ import annotations

import cmath
import configparser
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .environment import (
    PERIODIC,
    Absorber,
    Environment,
    Grid3D,
    SoundSpeedProfile,
    SourceSpec,
    wavenumber,
)
from .errors import ConfigError, InvariantError
from .marching import azimuth_stencil
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

    def __post_init__(self):
        for name in ("output_stride", "threads", "workers"):
            value = getattr(self, name)
            if value is None and name == "output_stride":
                continue
            if type(value) is not int:
                raise InvariantError(f"{name} is an integer", f"got {value!r}")
            if value < 1:
                raise InvariantError(f"{name} >= 1", f"got {value}")
        if self.tl_format not in TL_FORMATS:
            raise InvariantError(f"tl_format in {tuple(TL_FORMATS)}",
                                 f"got {self.tl_format!r}")
        object.__setattr__(self, "output_dir", Path(self.output_dir))


# The [run] key of each RunOptions field, and the type it is read as.
_RUN_KEYS = {"output_dir": Path, "output_stride": int, "tl_format": str,
             "threads": int, "workers": int}


@dataclass(frozen=True)
class Config:
    """A model and its run options, which unpacks as ``grid, environment,
    source, options``, and compares and hashes by value.  Each part checks
    its own fields; a Config checks the absorber and source depths against
    the grid bottom, and the numbers the step forms (k0 and the scales of
    its operators) for every frequency, however it is built
    (:func:`load_config`, by hand or ``dataclasses.replace``)."""

    grid: Grid3D
    environment: Environment
    source: SourceSpec
    options: RunOptions

    def __post_init__(self):
        bottom = self.grid.depth_extent
        start = self.environment.absorber.start_depth
        if not start < bottom:
            raise InvariantError("absorber.start_depth < grid bottom depth",
                                 f"got start {start} vs bottom {bottom}")
        if not 0 < self.source.depth < bottom:
            raise InvariantError("0 < source depth < grid depth extent",
                                 f"got depth {self.source.depth} vs grid "
                                 f"depth extent {bottom}")
        self._check_step_values()

    def _check_step_values(self):
        """For every frequency, the numbers the scheme forms from this
        config are finite and nonzero: k0 = 2 pi f / c0, k0 * delta_r, the
        depth scale 1 / (k0 * delta_z)^2 and the azimuth scale sigma =
        1 / (k0 r delta_theta)^2 at the first and last midpoint ranges r,
        which bound it.  And n^2 of the depth profile is finite, checked
        at n = c0 / (lowest sound speed) + i absorber_max_attenuation, the
        largest |n^2| it can take.  The message names the keys each one is
        formed from."""
        grid, env, c0 = self.grid, self.environment, self.environment.c0
        keys = {"c0": c0, "delta_r": grid.delta_r, "delta_z": grid.delta_z,
                "r_start": grid.r_start, "n_range": grid.n_range,
                "delta_theta": math.degrees(grid.delta_theta)}
        first, last = grid.range_at(0.5), grid.range_at(grid.n_range - 0.5)
        for frequency in self.source.frequencies:
            k0 = wavenumber(frequency, c0)
            for name, involved, form in (
                    ("k0 = 2 pi f / c0", (), lambda: k0),
                    ("k0 * delta_r", ("delta_r",), lambda: k0 * grid.delta_r),
                    ("1 / (k0 * delta_z)^2", ("delta_z",),
                     lambda: 1.0 / (k0 * grid.delta_z) ** 2),
                    ("sigma = 1 / (k0 r delta_theta)^2 at the first midpoint "
                     "range", ("r_start", "delta_r", "delta_theta"),
                     lambda: azimuth_stencil(k0, first, grid.delta_theta)),
                    ("sigma = 1 / (k0 r delta_theta)^2 at the last midpoint "
                     "range", ("r_start", "delta_r", "n_range", "delta_theta"),
                     lambda: azimuth_stencil(k0, last, grid.delta_theta))):
                try:
                    value = form()
                except OverflowError:  # the square overflows: 1 / it is 0
                    value = 0.0
                except ZeroDivisionError:  # the square rounds to 0
                    value = math.inf
                if not 0 < abs(value) < math.inf:
                    given = ", ".join(f"{key} = {keys[key]:g}"
                                      for key in ("c0", *involved))
                    raise InvariantError(
                        f"{name} finite and nonzero",
                        f"frequency {frequency:g} Hz, {given} give {value:g}")
        speed = min(env.profile.speeds)
        attenuation = env.absorber.max_attenuation
        n = complex(c0 / speed, attenuation)
        if not cmath.isfinite(n * n):
            raise InvariantError(
                "n^2 of the depth profile finite",
                f"c0 = {c0:g}, lowest sound speed = {speed:g}, "
                f"absorber_max_attenuation = {attenuation:g} give {n * n}")

    def __iter__(self):
        return iter((self.grid, self.environment, self.source, self.options))


def _numbers(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


REQUIRED = object()
_EXPECTED = {float: "a number", int: "an integer",
             _numbers: "comma-separated numbers"}


class _Section:
    """One config section, read a typed field at a time with field-level
    diagnostics."""

    def __init__(self, parser: configparser.ConfigParser, name: str):
        self.name = name
        self._section = parser[name] if parser.has_section(name) else {}

    def __contains__(self, key):
        return key in self._section

    def get(self, key, kind=float, default=REQUIRED):
        """Field ``key`` as a ``kind``; ``default`` when it is absent."""
        if key not in self._section:
            if default is REQUIRED:
                raise ConfigError(f"[{self.name}] missing required field '{key}'")
            return default
        raw = self._section[key].strip()
        try:
            return kind(raw)
        except ValueError:
            raise ConfigError(f"[{self.name}] field '{key}': expected "
                              f"{_EXPECTED[kind]}, got {raw!r}") from None


def _parse_profile_pairs(text: str, origin: str) -> SoundSpeedProfile:
    pairs = []
    for line_no, line in enumerate(text.strip().splitlines(), start=1):
        line = line.replace(",", " ").strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ConfigError(f"{origin}: line {line_no}: expected "
                              f"'depth speed', got {line!r}")
        try:
            pairs.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise ConfigError(f"{origin}: line {line_no}: non-numeric entry "
                              f"in {line!r}") from None
    if not pairs:
        raise ConfigError(f"{origin}: empty sound-speed profile")
    return SoundSpeedProfile(*zip(*pairs))


def _read_text(path: Path, what: str) -> str:
    """The UTF-8 text of ``path``; a file that cannot be read is a
    config error, which names the path escaped, so a control character in
    it never reaches the terminal raw."""
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {str(path)!r}") from None
    except (OSError, ValueError) as exc:  # ValueError: undecodable, or a NUL
        raise ConfigError(f"cannot read {what} {str(path)!r}: {exc}") from None


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
    delta_r = g.get("delta_r")
    grid = Grid3D(
        n_range=g.get("n_range", int),
        n_azimuth=g.get("n_azimuth", int),
        n_depth=g.get("n_depth", int),
        delta_r=delta_r,
        delta_theta=math.radians(g.get("delta_theta")),
        delta_z=g.get("delta_z"),
        r_start=g.get("r_start", default=delta_r),
        azimuth_topology=g.get("azimuth_topology", str, PERIODIC),
    )

    e = _Section(parser, "environment")
    given = [key for key in ("sound_speed", "sound_speed_profile",
                             "sound_speed_file") if key in e]
    if len(given) > 1:
        raise ConfigError(f"[environment] sets more than one sound-speed key "
                          f"({', '.join(given)}): give exactly one")
    if "sound_speed_file" in e:
        # An absolute path replaces the config's directory.
        profile_path = path.parent / e.get("sound_speed_file", Path)
        profile = _parse_profile_pairs(
            _read_text(profile_path, "sound_speed_file"), str(profile_path))
    elif "sound_speed_profile" in e:
        profile = _parse_profile_pairs(e.get("sound_speed_profile", str),
                                       "[environment] sound_speed_profile")
    else:
        profile = SoundSpeedProfile.uniform(e.get("sound_speed"))
    environment = Environment(
        c0=e.get("c0"),
        profile=profile,
        absorber=Absorber(
            start_depth=e.get("absorber_start_depth",
                              default=0.75 * grid.depth_extent),
            max_attenuation=e.get("absorber_max_attenuation", default=0.01),
        ),
    )

    s = _Section(parser, "source")
    starter = s.get("starter", str, "gaussian")
    if starter != "gaussian":
        raise ConfigError(f"[source] field 'starter': expected 'gaussian', "
                          f"got {starter!r}")
    source = SourceSpec(frequencies=s.get("frequencies", _numbers),
                        depth=s.get("depth"))

    r = _Section(parser, "run")
    if "max_range" in r:
        raise ConfigError("[run] field 'max_range' is not read: a run marches "
                          "[grid] n_range steps, so set the march length there")
    options = RunOptions(**{key: r.get(key, kind)
                            for key, kind in _RUN_KEYS.items() if key in r})
    return Config(grid, environment, source, options)
