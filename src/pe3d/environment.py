"""Physical model: grid, medium, source, starter field and pressure
reconstruction.

Conventions
-----------
Cylindrical grid (r, theta, z): ``r`` range in meters, ``theta`` azimuth in
radians, ``z`` depth in meters measured downward from the sea surface.
Field slabs are complex matrices indexed ``[m, l]`` with ``m`` the azimuth
index and ``l`` the depth index; depth row ``l = 0`` is the pressure-release
surface.  The acoustic pressure at a grid point is ``p = u * w(r)`` where
``w`` is the outgoing cylindrical envelope (:func:`hankel_factor`) and ``u``
the slab value.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, ShapeError

PERIODIC = "periodic"
SECTOR = "sector"
TOPOLOGIES = (PERIODIC, SECTOR)

# Clamp for zero-magnitude pressure samples so TL fields stay finite.
TL_FLOOR_DB = 300.0

_TWO_PI = 2.0 * math.pi


def _real(value) -> bool:
    """A hand-built value's rule for a number: a real, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class Grid3D:
    """Cylindrical discretization: counts and spacings per direction.

    ``n_range`` is the number of range steps marched beyond the starter
    range ``r_start``; azimuth and depth counts are grid point counts.
    ``delta_theta`` is stored in radians.
    """

    n_range: int
    n_azimuth: int
    n_depth: int
    delta_r: float
    delta_theta: float
    delta_z: float
    r_start: float
    azimuth_topology: str = PERIODIC

    def __post_init__(self):
        for name in ("n_range", "n_azimuth", "n_depth"):
            value = getattr(self, name)
            if type(value) is not int:
                raise InvariantError(f"{name} is an integer", f"got {value!r}")
            if value < 3:
                raise InvariantError(f"{name} >= 3", f"got {value}")
        for name in ("delta_r", "delta_theta", "delta_z", "r_start"):
            value = getattr(self, name)
            if not (_real(value) and 0 < value < math.inf):
                raise InvariantError(f"{name} > 0 and finite", f"got {value!r}")
        if self.azimuth_topology not in TOPOLOGIES:
            raise InvariantError(
                f"azimuth_topology in {TOPOLOGIES}",
                f"got {self.azimuth_topology!r}",
            )
        if self.azimuth_topology == PERIODIC:
            closure = self.n_azimuth * self.delta_theta
            if abs(closure - _TWO_PI) > 1e-9 * _TWO_PI:
                raise InvariantError(
                    "n_azimuth * delta_theta == 2*pi (periodic closure)",
                    f"got {closure!r}",
                )

    @property
    def depth_extent(self) -> float:
        """Depth of the last grid row (the grid bottom), meters."""
        return (self.n_depth - 1) * self.delta_z

    def depths(self) -> np.ndarray:
        return np.arange(self.n_depth) * self.delta_z

    def azimuths(self) -> np.ndarray:
        return np.arange(self.n_azimuth) * self.delta_theta

    def range_at(self, j: int) -> float:
        return self.r_start + j * self.delta_r


@dataclass(frozen=True)
class Absorber:
    """Artificial bottom attenuation: imaginary refraction index ramping
    quadratically from 0 at ``start_depth`` to ``max_attenuation`` at the
    grid bottom."""

    start_depth: float
    max_attenuation: float

    def __post_init__(self):
        for name in ("start_depth", "max_attenuation"):
            value = getattr(self, name)
            if not (_real(value) and 0 <= value < math.inf):
                raise InvariantError(f"absorber.{name} >= 0 and finite",
                                     f"got {value!r}")


@dataclass(frozen=True)
class SoundSpeedProfile:
    """Depth-sampled sound speed, piecewise-linear in z and clamped at the
    ends, held as tuples of floats: equal samples, equal profiles.  A single
    profile applies at every (r, theta): nearest-sample with one station."""

    depths: tuple
    speeds: tuple

    def __post_init__(self):
        depths = np.asarray(self.depths, dtype=np.float64)
        speeds = np.asarray(self.speeds, dtype=np.float64)
        if depths.ndim != 1 or depths.shape != speeds.shape:
            raise ShapeError("profile depths and speeds must be equal-length vectors")
        if depths.size < 1:
            raise InvariantError("profile has >= 1 sample")
        if not np.all(np.isfinite(depths)):
            raise InvariantError("profile depths finite")
        if depths.size > 1 and not np.all(np.diff(depths) > 0):
            raise InvariantError("profile depths strictly increasing")
        if not np.all((speeds > 100.0) & (speeds < 100000.0)):
            raise InvariantError(
                "sound speeds in (100, 100000) m/s", f"got range "
                f"[{speeds.min()}, {speeds.max()}]"
            )
        object.__setattr__(self, "depths", tuple(depths.tolist()))
        object.__setattr__(self, "speeds", tuple(speeds.tolist()))

    @classmethod
    def uniform(cls, speed: float) -> "SoundSpeedProfile":
        return cls((0.0,), (speed,))

    def speed_at(self, z):
        """Sound speed at depth(s) ``z`` (scalar or array), m/s; on a
        one-sample profile, that sample's speed at every depth."""
        return np.interp(z, self.depths, self.speeds)


@dataclass(frozen=True)
class Environment:
    """Water column shared read-only by all solver tasks, equal by value.
    The absorber ramps to the bottom of the grid it is sampled on."""

    c0: float
    profile: SoundSpeedProfile
    absorber: Absorber

    def __post_init__(self):
        if not (_real(self.c0) and 0 < self.c0 < math.inf):
            raise InvariantError("c0 > 0 and finite", f"got {self.c0!r}")


@dataclass(frozen=True)
class SourceSpec:
    """Source frequencies and depth; the starter field is a Gaussian."""

    frequencies: tuple
    depth: float

    def __post_init__(self):
        for name, values in (("frequencies", self.frequencies),
                             ("depth", [self.depth])):
            if isinstance(values, (str, bytes)) or not all(map(_real, values)):
                raise InvariantError(f"source {name} numeric",
                                     f"got {getattr(self, name)!r}")
        freqs = tuple(float(f) for f in self.frequencies)
        if len(freqs) < 1:
            raise InvariantError("source has >= 1 frequency")
        if not all(0 < f < math.inf for f in freqs):
            raise InvariantError("every frequency > 0 and finite", f"got {freqs}")
        object.__setattr__(self, "frequencies", freqs)


def wavenumber(frequency: float, c0: float) -> float:
    """Reference wavenumber k0 = 2*pi*f / c0 [1/m]."""
    return _TWO_PI * frequency / c0


def refraction_index_grid(env: Environment, grid: Grid3D) -> np.ndarray:
    """Complex refraction index n over the grid's depths: one depth
    profile, which serves every range and azimuth, since the medium depends
    on depth alone (this also keeps azimuth symmetry exact to the bit).

    Re(n) = c0 / c; Im(n) ramps quadratically from 0 at the absorber start
    depth to ``max_attenuation`` at the grid bottom.
    """
    z = grid.depths()
    re = env.c0 / env.profile.speed_at(z)
    ab = env.absorber
    ramp = np.clip((z - ab.start_depth) / (grid.depth_extent - ab.start_depth),
                   0.0, None)
    return re + 1j * (ab.max_attenuation * ramp * ramp)


def gaussian_starter(grid: Grid3D, source: SourceSpec, k0: float,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Gaussian starter slab at r_start, an (n_azimuth, n_depth) array:
    u(z) = sqrt(k0) * exp(-(k0^2 / 2) * (z - z_s)^2), identical in azimuth,
    and zero on the Dirichlet rows (the surface, a sector's edge azimuths),
    which the march then keeps zero.  The slab is the transposed view of
    ``out``, a depth-major complex (n_depth, n_azimuth) array that the
    starter fills (a new one when None)."""
    z = grid.depths()
    profile = math.sqrt(k0) * np.exp(-0.5 * k0 * k0 * (z - source.depth) ** 2)
    values = np.empty((grid.n_depth, grid.n_azimuth), dtype=np.complex128) \
        if out is None else out
    values[:] = profile[:, None]
    values[0] = 0.0
    if grid.azimuth_topology == SECTOR:
        values[:, [0, -1]] = 0.0
    return values.T


def hankel_factor(k0: float, r: float) -> complex:
    """Outgoing cylindrical envelope w(r) = exp(i*k0*r) / sqrt(r).

    Far-field asymptotic form; |w(r)| = 1/sqrt(r) exactly.
    """
    return complex(math.cos(k0 * r), math.sin(k0 * r)) / math.sqrt(r)


def transmission_loss_field(values: np.ndarray, w: complex, out=None):
    """Vectorized TL over a slab; returns (tl array, clamped sample count,
    non-finite sample count).

    The TL is written into ``out`` (a float64 array of the slab's shape)
    when given, else into a new array; no other slab-sized float array is
    made.  A zero magnitude's log10 is -inf, then set to the floor.
    """
    mag = np.abs(values, out=out)
    np.multiply(mag, abs(w), out=mag)
    nonfinite = mag.size - int(np.count_nonzero(np.isfinite(mag)))
    zero = mag == 0.0
    clamped = int(np.count_nonzero(zero))
    with np.errstate(divide="ignore"):
        np.log10(mag, out=mag)
    np.multiply(-20.0, mag, out=mag)
    np.copyto(mag, TL_FLOOR_DB, where=zero)
    return mag, clamped, nonfinite
