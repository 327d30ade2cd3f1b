"""Per-frequency range marching: boundary handling, step solves, and
transmission-loss assembly.

One range step advances the slab from r to r + delta_r by

1. applying the boundary conditions to the current slab,
2. computing the explicit right-hand side at the current range,
3. solving one depth system per azimuth index (intermediate slab v),
4. solving one azimuth system per depth index (new slab u),
5. reapplying the boundary conditions,

with the implicit-side matrices sampled at the new range.  All systems of
one sweep share one matrix, so each sweep is a wide substitution through
the batched solver, on the configured intra-step thread count.

A step only streams: it builds no stencil and factors nothing.  The
medium is one depth profile, the same at every range and azimuth, so a
:class:`Marcher` computes that profile, the depth stencil on it and the
one factored depth matrix once per frequency.  The azimuth matrices
depend on range; the marcher assembles and factors those of
``AZIMUTH_BLOCK`` consecutive steps together (the first block when it is
built, each later one at the step that first needs it, on a march longer
than a block), and each step substitutes against its own column.  The
explicit side is written into arrays the marcher owns, the depth sweep
substitutes in place, and the only slab-sized allocation of a step is
the new slab.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .environment import (
    SECTOR,
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
    assemble_azimuth_batch,
    assemble_depth_batch,
    compute_rhs,
    depth_stencil,
)
from .tridiag import Factors, SolveBatch, factor, solve_batch

MAX_OUTPUT_SAMPLES = 512

# Range steps whose azimuth matrices are factored together: enough to
# spread the per-row cost of the elimination, few enough to keep the
# factors of a long march small.
AZIMUTH_BLOCK = 64


@dataclass(eq=False)
class Marcher:
    """What stays fixed while one frequency is marched, what is derived
    from it once, and the arrays every step reuses.

    Derived once from the depth profile of n: the depth stencil of the
    explicit side (its scale and (n^2 - 1) profile), the factored depth
    matrix, and the factored azimuth matrices of the first
    ``AZIMUTH_BLOCK`` ranges; later blocks are factored as the march
    reaches them (:meth:`azimuth_factors`).  No field holds an
    (azimuth x depth) medium array.  ``work`` holds three azimuth-major
    (n_azimuth, n_depth) arrays and ``rhs`` one depth-major
    (n_depth, n_azimuth) array; every step overwrites them, so a marcher
    serves one march at a time.

    A singular depth or azimuth matrix is not reported here but by the
    first step that solves with it, as a :class:`StepError`.
    """

    grid: Grid3D
    environment: Environment
    k0: float
    coeffs: StepCoefficients
    threads: int = 1
    depth: Factors = field(init=False)
    stencil: tuple = field(init=False)
    work: tuple = field(init=False)
    rhs: np.ndarray = field(init=False)
    _azimuth: Factors | None = field(init=False, default=None)
    _azimuth_start: int = field(init=False, default=0)

    def __post_init__(self):
        grid = self.grid
        profile = refraction_index_grid(self.environment, grid)
        self.depth = factor(assemble_depth_batch(self.coeffs.cx_lhs, profile,
                                                 self.k0, grid.delta_z))
        self.stencil = depth_stencil(profile, self.k0, grid.delta_z)
        shape = (grid.n_azimuth, grid.n_depth)
        self.work = tuple(np.empty(shape, dtype=np.complex128) for _ in range(3))
        self.rhs = np.empty(shape[::-1], dtype=np.complex128)
        self.azimuth_factors(1)  # the first block, with the rest of the set-up

    def azimuth_factors(self, j: int) -> Factors:
        """Width-1 factors of the azimuth matrix at range index ``j``.

        When ``j`` is outside the block factored last, the matrices of
        ranges ``j`` to ``j + AZIMUTH_BLOCK - 1`` (at most ``n_range``) are
        assembled and factored together.
        """
        offset = j - self._azimuth_start
        if self._azimuth is None or not 0 <= offset < self._azimuth.width:
            grid = self.grid
            stop = min(j + AZIMUTH_BLOCK, grid.n_range + 1)
            self._azimuth = factor(assemble_azimuth_batch(
                self.coeffs.cy_lhs, self.k0,
                [grid.range_at(i) for i in range(j, stop)],
                grid.delta_theta, grid.azimuth_topology, grid.n_azimuth,
            ))
            self._azimuth_start, offset = j, 0
        return self._azimuth.column(offset)


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


def apply_boundary(values: np.ndarray, grid: Grid3D) -> np.ndarray:
    """Dirichlet data: zero the pressure-release surface row, and the
    azimuth edge rows on a sector grid, of an (n_azimuth, n_depth) array.
    The bottom needs no overwrite; the absorber plus the zero-exterior
    stencil closure handle it.  Mutates the array in place and returns it
    (idempotent)."""
    if values.shape != (grid.n_azimuth, grid.n_depth):
        raise ShapeError(f"slab shape {values.shape} != grid "
                         f"({grid.n_azimuth}, {grid.n_depth})")
    values[:, 0] = 0.0
    if grid.azimuth_topology == SECTOR:
        values[0, :] = 0.0
        values[-1, :] = 0.0
    return values


def range_step(marcher: Marcher, u: np.ndarray, j: int) -> np.ndarray:
    """Advance the slab ``u`` at range index ``j`` one range step; returns
    the slab at ``j + 1``.

    The new slab is a new array; the marcher's arrays are overwritten.
    """
    grid = marcher.grid
    if j + 1 > grid.n_range:
        raise DomainError(f"step {j + 1} exceeds n_range {grid.n_range}")
    apply_boundary(u, grid)

    if marcher.coeffs.delta == 0:
        # Zero range increment: the implicit and explicit factors coincide,
        # so the step is the identity and is short-circuited to keep it so
        # to the bit.
        return u

    rhs = compute_rhs(u, grid.range_at(j), marcher.coeffs, marcher.stencil,
                      marcher.k0, grid, marcher.work, marcher.rhs)
    # Dirichlet data on the explicit side: the constrained boundary rows of
    # the implicit systems require zero right-hand sides there.  The depth
    # solve keeps them: on a sector grid the edge azimuths of v solve zero
    # right-hand sides, so they are zero for the azimuth solve too.
    apply_boundary(rhs.T, grid)
    try:
        solve_batch(SolveBatch(marcher.depth, rhs), marcher.threads, out=rhs)
    except SingularSystemError as exc:
        raise StepError(j + 1, "depth", exc) from exc
    v = marcher.work[0]
    np.copyto(v, rhs.T)
    new = np.empty_like(v)
    try:
        solve_batch(SolveBatch(marcher.azimuth_factors(j + 1), v),
                    marcher.threads, out=new)
    except SingularSystemError as exc:
        raise StepError(j + 1, "azimuth", exc) from exc
    return apply_boundary(new, grid)


def default_output_stride(n_steps: int) -> int:
    """Smallest stride keeping at most MAX_OUTPUT_SAMPLES range samples."""
    return max(1, (n_steps + 1 + MAX_OUTPUT_SAMPLES - 1) // MAX_OUTPUT_SAMPLES)


def run_frequency(config, frequency: float, threads: int | None = None) -> FrequencyResult:
    """March one frequency the grid's ``n_range`` steps from the starter
    range, on ``threads`` intra-step threads (None:
    ``config.options.threads``), which ``RunOptions`` checks.

    Deterministic: the TL field is a pure function of the config and the
    frequency, for every thread count.  A field
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
    u = apply_boundary(gaussian_starter(grid, source, k0), grid)

    stride = options.output_stride or default_output_stride(grid.n_range)
    ranges = np.empty(1 + grid.n_range // stride, dtype=np.float64)
    tl_field = np.empty(ranges.shape + u.shape, dtype=np.float64)
    clamped = 0

    def record(j: int):
        nonlocal clamped
        r = grid.range_at(j)
        _, n_clamped, n_nonfinite = transmission_loss_field(
            u, hankel_factor(k0, r), out=tl_field[j // stride])
        if n_nonfinite:
            raise StepError(j, None, f"{n_nonfinite} non-finite field values")
        ranges[j // stride] = r
        clamped += n_clamped

    record(0)
    for j in range(1, grid.n_range + 1):
        u = range_step(marcher, u, j - 1)
        if j % stride == 0:
            record(j)

    return FrequencyResult(
        frequency=frequency,
        ranges=ranges,
        tl_field=tl_field,
        clamped_samples=clamped,
        output_stride=stride,
        wall_seconds=time.perf_counter() - t_begin,
    )
