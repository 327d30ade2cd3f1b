"""Per-frequency range marching: the step's scheme, the march in azimuth
modes and transmission-loss assembly.

A range step applies a depth operator X and an azimuth operator Y as

    [1 + (1/4 - d/4) X] [1 - d/4 Y] u_next = [1 + (1/4 + d/4) X] [1 + d/4 Y] u

with d = i * k0 * delta_r (:class:`StepCoefficients`), and X carries the
medium term:

    (X u)_l = (n_l^2 - 1) u_l + (u_{l+1} - 2 u_l + u_{l-1}) / (k0 dz)^2

with zero values outside the pressure-release surface and the
absorber-backed bottom.  The medium is one depth profile, the same at
every range and azimuth, so X is one tri-diagonal matrix for the whole
slab (:func:`assemble_depth_batch`), and every step's Y is one
constant-coefficient second difference in azimuth, scaled by
sigma_j = 1 / (k0 r dtheta)^2 (:func:`azimuth_stencil`) at the step's
midpoint range r_j + delta_r / 2: cyclic on a periodic grid,
Dirichlet-edged on a sector.  The discrete Fourier modes (periodic) and
the sine modes of the interior azimuths (sector) are its eigenvectors,
with eigenvalues sigma_j lambda_k (:attr:`Marcher.eigenvalues`), and X
acts on every azimuth alike.  So the march keeps the depth-major *mode
slab* (n_depth, n_azimuth): :meth:`Marcher.to_modes` transforms the
starter once, and :meth:`Marcher.from_modes` transforms back only at
recorded ranges.  A sector's mode slab holds its N - 2 sine modes in
columns 1 .. N - 2, and zeros in its edge modes 0 and N - 1.

A march holds two complex slabs besides its TL grid: the mode slab and
the marcher's depth-major ``work``, of the same shape.  The starter is
built in ``work``; a step solves into ``work`` and adds in place into
the mode slab; a record writes the mode slab times G into ``work`` and
transforms it back there.

One range step advances the mode slab m from r_j to r_j + delta_r by
the depth half-step v = rho m + (1 - rho) (I + cx_lhs X)^-1 m and the
azimuth half-step g_j v, mode k of v times
g_j(k) = 2 / (1 + cy_lhs sigma_j lambda_k) - 1.  With
rho = cx_rhs / cx_lhs, (I + cx_rhs X) = rho (I + cx_lhs X) +
(1 - rho) I, and cy_rhs == -cy_lhs makes (I + cy_rhs Y) =
2I - (I + cy_lhs Y).  So these are the half-steps
(I + c_lhs A)^-1 (I + c_rhs A) in their "sum" form (Collins 1993, JASA
93(4)); in modes the azimuth one, 2 (I + cy_lhs Y)^-1 v - v, is a
multiply, and cy_lhs is purely imaginary, so no g_j(k) divides by zero.
FOR3D solves tri-diagonal systems in azimuth instead: the same discrete
scheme up to rounding, for a medium that varies in neither azimuth nor
range.  Both sides take Y at the midpoint, so a lossless step keeps the
norm (the paper puts the implicit side at the new range).

The depth half-step is one operator D = rho I + (1 - rho)
(I + cx_lhs X)^-1 for every mode and every step, and the gain rho g_j is
one number per mode, so the two commute: after J steps the mode slab is
(D^J m_0 / rho^J) times G_J = prod_{j<J} rho g_j per mode.  So
:func:`range_step` is one solve and one add.  The marcher's depth
factors carry (1 - rho) / rho in their pre-scale, so the solve returns
y = ((1 - rho) / rho) (I + cx_lhs X)^-1 m, and the step adds it into
m in place: m + y = D m / rho.  :func:`run_frequency` keeps G, one
value per mode updated per step, and multiplies the mode slab by it
only at recorded ranges.

The surface row of every mode slab is zero: the starter is made so, and
the identity row of the depth matrix keeps it zero.  So do a sector's
edge modes, whose gains are finite (mode 0's is 1); its transforms read
neither edge, and write zeros there.  A step assembles, factors and
transforms nothing: a :class:`Marcher` factors the depth matrix once
per frequency.  The depth
systems share one matrix, so the depth sweep is one wide substitution,
on the calling thread, as are the transforms; the threads split the
step's add into depth-row blocks, with the same bits for any split.

Rounding: numpy's vectorised complex product uses fused multiply-adds, so
``a * b`` and ``b * a`` can differ in their last bits, and numpy evaluates
a temporary of 256 KiB or more in place, which swaps the operands of a
product whose right operand is that temporary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .environment import (
    PERIODIC,
    Environment,
    Grid3D,
    gaussian_starter,
    hankel_factor,
    refraction_index_grid,
    transmission_loss_field,
    wavenumber,
)
from .errors import DomainError, InvariantError, ShapeError, StepError
from .pool import fork_join
from .tridiag import Diagonals, Factors, SolveBatch, factor, solve_batch

MAX_OUTPUT_SAMPLES = 512

# Depth rows that a sector's transforms take at a time: its odd extension
# and its spectrum are this many rows tall.
BLOCK_ROWS = 16


@dataclass(frozen=True)
class StepCoefficients:
    """The four bracket coefficients of one range step, plus d itself.

    For real k0 and delta_r, d is purely imaginary, which makes the exact
    identities cx_lhs + cx_rhs == 1/2 and cy_lhs + cy_rhs == 0 hold
    bitwise (real and imaginary parts add independently).  The second
    makes (I + cy_rhs Y) = 2I - (I + cy_lhs Y).  With rho = cx_rhs /
    cx_lhs (cx_lhs has real part 1/4 from :meth:`for_step`, and is checked
    to be nonzero), (I + cx_rhs X) = rho (I + cx_lhs X) + (1 - rho) I.
    So each half-step needs its implicit matrix only.  cy_lhs is checked
    to be purely imaginary, so (I + cy_lhs Y) is regular for the real
    symmetric Y: the azimuth half-step cannot fail.  The step also divides
    by rho (:class:`Marcher`), so cx_rhs is checked to be nonzero;
    :meth:`for_step` gives |rho| = 1.
    """

    delta: complex
    cx_lhs: complex
    cx_rhs: complex
    cy_lhs: complex
    cy_rhs: complex

    def __post_init__(self):
        if self.cx_lhs + self.cx_rhs != 0.5 + 0.0j:
            raise InvariantError("cx_lhs + cx_rhs == 1/2 exactly")
        if self.cy_lhs + self.cy_rhs != 0.0 + 0.0j:
            raise InvariantError("cy_lhs + cy_rhs == 0 exactly")
        if self.cx_lhs == 0:
            raise InvariantError("cx_lhs != 0")
        if self.cx_rhs == 0:
            raise InvariantError("cx_rhs != 0")
        if self.cy_lhs.real != 0:
            raise InvariantError("cy_lhs is purely imaginary")

    @classmethod
    def for_step(cls, k0: float, delta_r: float) -> "StepCoefficients":
        delta = 1j * (k0 * delta_r)
        quarter = delta / 4.0
        return cls(
            delta=delta,
            cx_lhs=0.25 - quarter,
            cx_rhs=0.25 + quarter,
            cy_lhs=-quarter,
            cy_rhs=+quarter,
        )


def azimuth_stencil(k0: float, r, delta_theta: float):
    """The azimuth operator's second-difference scale 1 / (k0 r dtheta)^2
    at ``r`` (a range or a vector of ranges); it has no local term."""
    return 1.0 / (k0 * r * delta_theta) ** 2


def compute_rhs(u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The (n_azimuth, n_depth) slab ``u`` copied depth-major into
    ``out``, of shape (n_depth, n_azimuth); returns ``out``.

    This is the copy that feeds both of a sector's azimuth transforms
    (:meth:`Marcher.to_modes` and :meth:`Marcher.from_modes`), a block
    of depth rows at a time.  It stays a function because the
    benchmark's tracer (``bench/tracing.py``) wraps
    ``marching.compute_rhs`` by name, until the run times its own phases.
    """
    if u.ndim != 2 or out.shape != u.shape[::-1]:
        raise ShapeError(f"slab of shape {u.shape} into an array of shape "
                         f"{out.shape}, not its transpose")
    np.copyto(out, u.T)
    return out


def assemble_depth_batch(coeff: complex, profile: np.ndarray, k0: float,
                         delta_z: float) -> Diagonals:
    """The depth matrix (I + coeff * X) of one depth ``profile`` of n, as
    width-1 diagonals (n_depth, 1), shared by every azimuth.

    The surface row (depth index 0) is imposed as the identity equation
    u = 0, so the solved field honors the pressure-release surface
    exactly; the right-hand side must be zero there.

    The diagonal is written ``(local - 2 s) * coeff``: the operand order
    in which numpy evaluates the whole-grid ``coeff * (local - 2 s)`` of a
    grid of 256 KiB or more (see the module docstring), kept fixed so that
    the matrix has those bits on every grid.
    """
    profile = np.asarray(profile, dtype=np.complex128)
    if profile.ndim != 1:
        raise ShapeError("refraction values must be one depth profile")
    s = 1.0 / (k0 * delta_z) ** 2
    local = profile ** 2 - 1.0
    main = (1.0 + np.multiply(local - 2.0 * s, coeff))[:, None]
    off_value = np.complex128(coeff * s)
    sub = np.broadcast_to(off_value, (profile.size - 1, 1))
    sup = np.full((profile.size - 1, 1), off_value)
    main[0] = 1.0
    sup[0] = 0.0
    return Diagonals(sub=sub, main=main, sup=sup)


def assemble_azimuth_batch(coeff: complex, k0: float, r: float,
                           delta_theta: float, topology: str,
                           n_azimuth: int) -> np.ndarray:
    """The azimuth matrix (I + coeff * Y) at range ``r``, as a dense
    (n_azimuth, n_azimuth) complex array, shared by every depth index.

    The march takes its azimuth half-step per mode and never builds this
    matrix; the tests' physical-space reference step solves with it.  It
    keeps its name because the benchmark's tracer (``bench/tracing.py``)
    wraps ``marching.assemble_azimuth_batch``, until the run times its
    own phases.

    The corners wrap when the grid is periodic.  On a sector grid the
    azimuth edge rows are imposed as identity equations u = 0 (Dirichlet
    edges), so the right-hand side must be zero there.
    """
    off = coeff * azimuth_stencil(k0, r, delta_theta)
    m = np.arange(n_azimuth)
    a = np.zeros((n_azimuth, n_azimuth), dtype=np.complex128)
    a[m, m] = 1.0 - 2.0 * off
    a[m, m - 1] = off  # m - 1 wraps to n_azimuth - 1: the corners
    a[m - 1, m] = off
    if topology != PERIODIC:
        a[[0, -1]] = np.eye(n_azimuth)[[0, -1]]
    return a


@dataclass(eq=False)
class Marcher:
    """What stays fixed while one frequency is marched, what is derived
    from it once, and the array every step reuses.

    Derived once: ``rho`` = cx_rhs / cx_lhs; ``depth``, the factored
    implicit depth matrix (I + cx_lhs X) on the depth profile of n, its
    pre-scale multiplied by w / rho with w = (cx_lhs - cx_rhs) / cx_lhs
    = 1 - rho, so that a solve against it returns
    (w / rho) (I + cx_lhs X)^-1 m, exactly zero when delta_r = 0; and
    ``eigenvalues``, the lambda_k of the azimuth modes for a second
    difference of scale 1: -4 sin^2(pi k / P) for k = 0 .. N - 1 on a
    grid of N azimuths, with P = N periodic and P = 2 (N - 1) on a
    sector, whose edge modes k = 0 and N - 1 are held at zero.  No field
    holds an (azimuth x depth) medium array.  ``work`` is one depth-major
    (n_depth, n_azimuth) array, the mode slab's shape, that the starter,
    every step and every record overwrite, so a marcher serves one march
    at a time.

    A singular depth matrix raises the :class:`StepError` of the first
    step, which would solve with it.
    """

    grid: Grid3D
    environment: Environment
    k0: float
    coeffs: StepCoefficients
    threads: int = 1
    rho: complex = field(init=False)
    depth: Factors = field(init=False)
    eigenvalues: np.ndarray = field(init=False)
    work: np.ndarray = field(init=False)

    def __post_init__(self):
        grid, coeffs = self.grid, self.coeffs
        self.rho = coeffs.cx_rhs / coeffs.cx_lhs
        # 1 - rho, without the cancellation of subtracting rho from 1
        weight = (coeffs.cx_lhs - coeffs.cx_rhs) / coeffs.cx_lhs
        depth = factor(assemble_depth_batch(
            coeffs.cx_lhs, refraction_index_grid(self.environment, grid),
            self.k0, grid.delta_z))
        error = depth.singular
        if error is not None:
            raise StepError(1, "depth", error) from error
        with np.errstate(invalid="ignore", over="ignore"):
            self.depth = replace(depth, inv=depth.inv * (weight / self.rho))
        n = grid.n_azimuth
        self.work = np.empty((grid.n_depth, n), dtype=np.complex128)
        period = n if grid.azimuth_topology == PERIODIC else 2 * (n - 1)
        self.eigenvalues = -4.0 * np.sin(np.pi * np.arange(n) / period) ** 2

    def gain(self, j: int) -> np.ndarray:
        """g_j(k) = 2 / (1 + cy_lhs sigma_j lambda_k) - 1 per mode k, the
        azimuth half-step of step ``j``, with sigma_j at its midpoint
        range r_j + delta_r / 2; a :class:`DomainError` unless
        0 <= j < n_range."""
        grid = self.grid
        if not 0 <= j < grid.n_range:
            raise DomainError(f"step {j} is not in [0, n_range) = "
                              f"[0, {grid.n_range})")
        sigma = azimuth_stencil(self.k0, grid.range_at(j + 0.5),
                                grid.delta_theta)
        return 2.0 / (1.0 + self.coeffs.cy_lhs * (sigma * self.eigenvalues)) \
            - 1.0

    def check_modes(self, m: np.ndarray):
        """A :class:`ShapeError` unless ``m`` has the mode slab's shape,
        (n_depth, n_azimuth) on both topologies."""
        if m.shape != self.work.shape:
            raise ShapeError(f"mode slab of shape {m.shape}, not "
                             f"(n_depth, n_azimuth) = {self.work.shape}")

    def to_modes(self, u: np.ndarray) -> np.ndarray:
        """The mode slab (n_depth, n_azimuth) of the (n_azimuth, n_depth)
        slab ``u``, a new array; a :class:`ShapeError` unless ``u`` is a
        grid slab.

        Periodic: the FFT along azimuth.  Sector: the DST-I of the
        interior azimuths, as the FFT of their odd extension of length
        2 (N - 1), whose modes 1 .. N - 2 are -2i times the sine sums;
        the edge azimuths are ignored and the edge modes are zeros.
        """
        grid = self.grid
        if u.shape != (grid.n_azimuth, grid.n_depth):
            raise ShapeError(f"slab of shape {u.shape}, not (n_azimuth, "
                             f"n_depth) = {(grid.n_azimuth, grid.n_depth)}")
        m = np.empty_like(self.work)
        if grid.azimuth_topology == PERIODIC:
            return np.fft.fft(u.T, axis=1, out=m)
        return self._odd_transform(np.fft.fft, u, m)

    def from_modes(self, m: np.ndarray, out: np.ndarray | None = None
                   ) -> np.ndarray:
        """The (n_azimuth, n_depth) slab of the mode slab ``m``: the
        transposed view of ``out``, a depth-major complex128 array of
        the mode slab's shape (a new one when None, else a
        :class:`ShapeError` unless it is one), the inverse of
        :meth:`to_modes`.  ``out`` may be ``m`` itself: the transform
        then runs in place.  A sector's edge modes are ignored, and its
        edge azimuths are exact zeros."""
        self.check_modes(m)
        out = np.empty_like(self.work) if out is None else out
        if out.shape != m.shape or out.dtype != np.complex128:
            raise ShapeError(f"output of shape {out.shape} and dtype "
                             f"{out.dtype}, not complex128 {m.shape}")
        if self.grid.azimuth_topology == PERIODIC:
            return np.fft.ifft(m, axis=1, out=out).T
        return self._odd_transform(np.fft.ifft, m.T, out).T

    def _odd_transform(self, transform, u: np.ndarray, out: np.ndarray):
        """The first N terms of ``transform`` (``np.fft.fft`` or
        ``ifft``) of the odd extension of the (N, n_depth) ``u``'s
        interior rows, into ``out`` (n_depth, N), :data:`BLOCK_ROWS`
        depth rows at a time, zero in its edge columns; returns ``out``,
        which may be ``u``'s memory: each block is copied, then written."""
        n = self.grid.n_azimuth
        odd = np.empty((BLOCK_ROWS, 2 * (n - 1)), dtype=np.complex128)
        for lo in range(0, out.shape[0], BLOCK_ROWS):
            block = u[:, lo:lo + BLOCK_ROWS]
            rows = odd[:block.shape[1]]
            compute_rhs(block, rows[:, :n])
            rows[:, [0, n - 1]] = 0.0
            np.negative(rows[:, n - 2:0:-1], out=rows[:, n:])
            out[lo:lo + block.shape[1]] = transform(rows, axis=1)[:, :n]
        out[:, [0, n - 1]] = 0.0
        return out


@dataclass(eq=False)
class FrequencyResult:
    """Output of one single-frequency run: the decimated TL field and its
    ranges.  ``wall_seconds`` is measurement metadata, not part of the
    deterministic field data."""

    frequency: float
    ranges: np.ndarray
    tl_field: np.ndarray
    clamped_samples: int
    output_stride: int
    wall_seconds: float


def range_step(marcher: Marcher, m: np.ndarray) -> np.ndarray:
    """The mode slab ``m`` one range step on, without its gain, in place:
    D m / rho, m += y with y the solve into the marcher's
    :attr:`~Marcher.work` (see above); returns ``m``.  ``m`` must be
    zero on its surface row, which stays zero.  A :class:`ShapeError`
    unless ``m`` has the mode slab's shape.
    """
    marcher.check_modes(m)
    y = solve_batch(SolveBatch(marcher.depth, m), out=marcher.work)
    fork_join(lambda lo, hi: np.add(m[lo:hi], y[lo:hi], out=m[lo:hi]),
              marcher.grid.n_depth, marcher.threads)
    return m


def default_output_stride(n_steps: int) -> int:
    """Smallest stride keeping at most MAX_OUTPUT_SAMPLES range samples."""
    return max(1, (n_steps + 1 + MAX_OUTPUT_SAMPLES - 1) // MAX_OUTPUT_SAMPLES)


def run_frequency(config, frequency: float, threads: int | None = None) -> FrequencyResult:
    """March one frequency the grid's ``n_range`` steps from the starter
    range, on ``threads`` intra-step threads (None:
    ``config.options.threads``), which ``RunOptions`` checks.

    The march starts from :func:`gaussian_starter`, built in the
    marcher's ``work`` and zero on the Dirichlet rows, and records its TL
    as it is; it then marches in modes, keeps the gain G of the steps
    taken, and transforms the mode slab times G back in ``work`` at each
    later recorded range.  Deterministic: the TL field is a pure function
    of the config and the frequency, for every thread count.  A field
    that is not finite at a recorded range stops the march there with a
    :class:`StepError` naming that range index.
    """
    t_begin = time.perf_counter()
    grid, env, source, options = config
    if threads is not None:
        options = replace(options, threads=threads)
    if frequency not in source.frequencies:
        raise DomainError(
            f"frequency {frequency} is not one of the source frequencies"
        )
    k0 = wavenumber(frequency, env.c0)
    marcher = Marcher(grid, env, k0, StepCoefficients.for_step(k0, grid.delta_r),
                      options.threads)
    u = gaussian_starter(grid, source, k0, out=marcher.work)

    stride = options.output_stride or default_output_stride(grid.n_range)
    ranges = np.empty(1 + grid.n_range // stride, dtype=np.float64)
    tl_field = np.empty(ranges.shape + u.shape, dtype=np.float64)
    clamped = 0

    def record(j: int, u: np.ndarray):
        nonlocal clamped
        r = grid.range_at(j)
        _, n_clamped, n_nonfinite = transmission_loss_field(
            u, hankel_factor(k0, r), out=tl_field[j // stride])
        if n_nonfinite:
            raise StepError(j, None, f"{n_nonfinite} non-finite field values")
        ranges[j // stride] = r
        clamped += n_clamped

    record(0, u)
    m = marcher.to_modes(u)
    gain = np.ones(m.shape[1], dtype=np.complex128)
    for j in range(1, grid.n_range + 1):
        m = range_step(marcher, m)
        gain *= marcher.rho * marcher.gain(j - 1)
        if j % stride == 0:
            np.multiply(m, gain, out=marcher.work)
            record(j, marcher.from_modes(marcher.work, marcher.work))

    return FrequencyResult(
        frequency=frequency,
        ranges=ranges,
        tl_field=tl_field,
        clamped_samples=clamped,
        output_stride=stride,
        wall_seconds=time.perf_counter() - t_begin,
    )
