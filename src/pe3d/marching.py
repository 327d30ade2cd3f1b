"""Per-frequency range marching: the march in azimuth modes and
transmission-loss assembly.

The medium is one depth profile, the same at every range and azimuth, so
every step's Y is one constant-coefficient second difference in azimuth,
scaled by sigma_j = 1 / (k0 r dtheta)^2 at the step's midpoint range
r_j + delta_r / 2: cyclic on a periodic grid, Dirichlet-edged on a
sector.  The discrete Fourier modes (periodic) and the sine modes of the
interior azimuths (sector) are its eigenvectors, with eigenvalues
sigma_j lambda_k (:attr:`Marcher.eigenvalues`), and X acts on every
azimuth alike.  So the march keeps the depth-major *mode slab*
(n_depth, n_modes): :meth:`Marcher.to_modes` transforms the starter
once, and :meth:`Marcher.from_modes` transforms back only at recorded
ranges.

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

A step is one solve and two passes.  The marcher's depth factors carry
(1 - rho) / rho in their pre-scale, so the solve returns
y = ((1 - rho) / rho) (I + cx_lhs X)^-1 m, and the new slab is
(rho g_j) (m + y): m + y, then its product by rho g_j, a block of
:data:`BLOCK_ROWS` depth rows at a time.

The surface row of every mode slab is zero: the starter is made so, and
the identity row of the depth matrix keeps it zero.  A sector's edge
azimuths are no mode, so :meth:`Marcher.from_modes` writes them as
zeros.  A step assembles, factors and transforms nothing: a
:class:`Marcher` factors the depth matrix once per frequency, and g_j is
one short vector per step.  The depth systems share one matrix, so the
depth sweep is one wide substitution, on the calling thread, as are the
transforms; the threads split the step's elementwise passes into
depth-row blocks, with the same bits for any split.
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
from .errors import DomainError, ShapeError, SingularSystemError, StepError
from .operators import (
    StepCoefficients,
    assemble_azimuth_batch,  # unused: bench/tracing.py patches it by name
    assemble_depth_batch,
    azimuth_stencil,
    compute_rhs,  # a function only so that bench/tracing.py can patch it
)
from .pool import fork_join
from .tridiag import Factors, SolveBatch, factor, solve_batch

MAX_OUTPUT_SAMPLES = 512

# Depth rows that the step's closing passes and a sector's transforms
# take at a time.  The gain is repeated down a block of this many rows, so
# the multiply runs on operands of one shape, for which numpy takes no
# iteration buffer, as it does for a gain broadcast over the rows; a block
# of the sum and its product stays in cache between the two passes; and a
# sector's odd extension and its spectrum are this many rows tall.
BLOCK_ROWS = 16


@dataclass(eq=False)
class Marcher:
    """What stays fixed while one frequency is marched, what is derived
    from it once, and the array every step reuses.

    Derived once: ``rho`` = cx_rhs / cx_lhs; ``depth``, the factored
    implicit depth matrix (I + cx_lhs X) on the depth profile of n, its
    pre-scale multiplied by w / rho with w = (cx_lhs - cx_rhs) / cx_lhs
    = 1 - rho, so that a solve against it returns
    (w / rho) (I + cx_lhs X)^-1 m, exactly zero when delta_r = 0; and
    ``eigenvalues``, the
    lambda_k of the azimuth modes for a second difference of scale 1:
    -4 sin^2(pi k / N) for k = 0 .. N - 1 on a periodic grid of N
    azimuths, -4 sin^2(pi p / (2 (N - 1))) for p = 1 .. N - 2 on a
    sector.  No field holds an (azimuth x depth) medium array.  ``work``
    is one (n_depth, n_modes) array that every step overwrites, and
    ``gain_rows`` the step's rho g_j repeated down at most
    :data:`BLOCK_ROWS` rows, so a marcher serves one march at a time.

    A singular depth matrix is not reported here but by the first step
    that solves with it, as a :class:`StepError`.
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
    gain_rows: np.ndarray = field(init=False)

    def __post_init__(self):
        grid, coeffs = self.grid, self.coeffs
        self.rho = coeffs.cx_rhs / coeffs.cx_lhs
        # 1 - rho, without the cancellation of subtracting rho from 1
        weight = (coeffs.cx_lhs - coeffs.cx_rhs) / coeffs.cx_lhs
        depth = factor(assemble_depth_batch(
            coeffs.cx_lhs, refraction_index_grid(self.environment, grid),
            self.k0, grid.delta_z))
        with np.errstate(invalid="ignore", over="ignore"):
            self.depth = replace(depth, inv=depth.inv * (weight / self.rho))
        n = grid.n_azimuth
        if grid.azimuth_topology == PERIODIC:
            angles = np.pi * np.arange(n) / n
        else:
            angles = np.pi * np.arange(1, n - 1) / (2 * (n - 1))
        self.eigenvalues = -4.0 * np.sin(angles) ** 2
        self.work = np.empty((grid.n_depth, angles.size), dtype=np.complex128)
        self.gain_rows = np.empty((min(BLOCK_ROWS, grid.n_depth), angles.size),
                                  dtype=np.complex128)

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
        """A :class:`ShapeError` unless ``m`` has the mode slab's shape."""
        if m.shape != self.work.shape:
            raise ShapeError(f"mode slab of shape {m.shape}, not "
                             f"(n_depth, n_modes) = {self.work.shape}")

    def to_modes(self, u: np.ndarray) -> np.ndarray:
        """The mode slab (n_depth, n_modes) of the (n_azimuth, n_depth)
        slab ``u``, a new array; a :class:`ShapeError` unless ``u`` is a
        grid slab.

        Periodic: the FFT along azimuth.  Sector: the DST-I of the
        interior azimuths, as the FFT of their odd extension of length
        2 (N - 1), whose modes 1 .. N - 2 are -2i times the sine sums,
        :data:`BLOCK_ROWS` depth rows at a time; the edge azimuths are
        ignored.
        """
        grid = self.grid
        if u.shape != (grid.n_azimuth, grid.n_depth):
            raise ShapeError(f"slab of shape {u.shape}, not (n_azimuth, "
                             f"n_depth) = {(grid.n_azimuth, grid.n_depth)}")
        n = grid.n_azimuth
        if grid.azimuth_topology == PERIODIC:
            return np.fft.fft(compute_rhs(u, np.empty(
                (grid.n_depth, n), dtype=np.complex128)), axis=1)
        m = np.empty(self.work.shape, dtype=np.complex128)
        odd = np.empty((BLOCK_ROWS, 2 * (n - 1)), dtype=np.complex128)
        for lo in range(0, grid.n_depth, BLOCK_ROWS):
            block = u[:, lo:lo + BLOCK_ROWS]
            rows = odd[:block.shape[1]]
            compute_rhs(block, rows[:, :n])
            rows[:, [0, n - 1]] = 0.0
            np.negative(rows[:, n - 2:0:-1], out=rows[:, n:])
            m[lo:lo + block.shape[1]] = np.fft.fft(rows, axis=1)[:, 1:n - 1]
        return m

    def from_modes(self, m: np.ndarray) -> np.ndarray:
        """The (n_azimuth, n_depth) slab of the mode slab ``m``: the
        transposed view of a new depth-major array, the inverse of
        :meth:`to_modes`, a sector's :data:`BLOCK_ROWS` depth rows at a
        time.  A sector's edge azimuths are exact zeros."""
        self.check_modes(m)
        n = self.grid.n_azimuth
        if self.grid.azimuth_topology == PERIODIC:
            return np.fft.ifft(m, axis=1).T
        u = np.empty((m.shape[0], n), dtype=np.complex128)
        odd = np.zeros((BLOCK_ROWS, 2 * (n - 1)), dtype=np.complex128)
        for lo in range(0, m.shape[0], BLOCK_ROWS):
            block = m[lo:lo + BLOCK_ROWS]
            rows = odd[:block.shape[0]]
            rows[:, 1:n - 1] = block
            np.negative(block[:, ::-1], out=rows[:, n:])
            u[lo:lo + block.shape[0]] = np.fft.ifft(rows, axis=1)[:, :n]
        u[:, [0, n - 1]] = 0.0
        return u.T


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


def range_step(marcher: Marcher, m: np.ndarray, j: int) -> np.ndarray:
    """Advance the mode slab ``m`` at range index ``j`` one range step;
    returns the mode slab at ``j + 1``, a new array.  ``m`` must be zero
    on its surface row (see above); the step reads it, never writes it,
    and overwrites the marcher's work array.  A :class:`DomainError`
    unless 0 <= j < n_range, a :class:`ShapeError` unless ``m`` has the
    mode slab's shape.
    """
    g = marcher.gain_rows
    g[...] = marcher.rho * marcher.gain(j)  # checks j first
    marcher.check_modes(m)
    y = marcher.work
    try:
        solve_batch(SolveBatch(marcher.depth, m), out=y)
    except SingularSystemError as exc:
        raise StepError(j + 1, "depth", exc) from exc
    new = np.empty_like(y)

    # every product writes into an array distinct from its operands
    def passes(lo, hi):
        for i in range(lo, hi, g.shape[0]):
            k = min(hi, i + g.shape[0])
            np.add(m[i:k], y[i:k], out=y[i:k])
            np.multiply(y[i:k], g[:k - i], out=new[i:k])

    fork_join(passes, marcher.grid.n_depth, marcher.threads)
    return new


def default_output_stride(n_steps: int) -> int:
    """Smallest stride keeping at most MAX_OUTPUT_SAMPLES range samples."""
    return max(1, (n_steps + 1 + MAX_OUTPUT_SAMPLES - 1) // MAX_OUTPUT_SAMPLES)


def run_frequency(config, frequency: float, threads: int | None = None) -> FrequencyResult:
    """March one frequency the grid's ``n_range`` steps from the starter
    range, on ``threads`` intra-step threads (None:
    ``config.options.threads``), which ``RunOptions`` checks.

    The march starts from :func:`gaussian_starter`, zero on the Dirichlet
    rows, and records its TL as it is; it then marches in modes and
    transforms back at each later recorded range.  Deterministic: the TL
    field is a pure function of the config and the frequency, for every
    thread count.  A field that is not finite at a recorded range stops
    the march there with a :class:`StepError` naming that range index.
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
    u = gaussian_starter(grid, source, k0)

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
    del u
    for j in range(1, grid.n_range + 1):
        m = range_step(marcher, m, j - 1)
        if j % stride == 0:
            record(j, marcher.from_modes(m))

    return FrequencyResult(
        frequency=frequency,
        ranges=ranges,
        tl_field=tl_field,
        clamped_samples=clamped,
        output_stride=stride,
        wall_seconds=time.perf_counter() - t_begin,
    )
