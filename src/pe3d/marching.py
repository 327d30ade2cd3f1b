"""Per-frequency range marching: boundary handling, step solves, and
transmission-loss assembly.

One range step advances the slab from r to r + delta_r by

1. applying the boundary conditions to the current slab u,
2. copying u depth-major into t and solving one depth system per
   azimuth index, (I + cx_lhs X) s = t, and taking
   t + (1 - rho)(s - t) as the intermediate slab v,
3. solving one azimuth system per depth index, (I + cy_lhs Y) w = v,
   and taking the new slab 2 w - v.

With rho = cx_rhs / cx_lhs, (I + cx_rhs X) = rho (I + cx_lhs X) +
(1 - rho) I, and cy_rhs == -cy_lhs makes (I + cy_rhs Y) =
2I - (I + cy_lhs Y).  So steps 2 and 3 are the half-steps
(I + c_lhs A)^-1 (I + c_rhs A) in their "sum" form (Collins 1993, JASA
93(4)), each from one solve and its right-hand side, and no explicit
matrix is assembled or multiplied.  X and Y act on different axes, so
the half-steps commute.  Both sides take Y at the step's midpoint range
r + delta_r / 2, which only :meth:`Marcher.azimuth` computes, so a
lossless step keeps the norm (the paper puts the implicit side at the
new range).  The identity rows of the assembled matrices keep the
Dirichlet rows (the surface, a sector's edge azimuths) of t, s, v and
w zero.  All systems of one sweep share one matrix, so each sweep is a
wide substitution through the batched solver, on the configured
intra-step thread count.

A step only streams: it assembles and factors nothing.  The medium is
one depth profile, the same at every range and azimuth, so a
:class:`Marcher` computes that profile and factors the depth matrix on
it once per frequency.  The azimuth matrices depend on range; the
marcher assembles and factors those of ``AZIMUTH_BLOCK`` consecutive
steps together (the first block when it is built, each later one at the
step that first needs it), and each step uses its own column.  t and s
live in the marcher's two work arrays, v takes t's array once s is
formed, and the only slab-sized allocation of a step is the new slab,
which also holds (1 - rho)(s - t) until the azimuth solve overwrites it.
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

    Derived once from the depth profile of n: ``depth``, the factored
    implicit depth matrix (I + cx_lhs X); and the factored implicit
    azimuth matrices of the first ``AZIMUTH_BLOCK`` steps, later blocks
    as the march reaches them (:meth:`azimuth`).  Neither half-step has
    an explicit matrix, and no field holds an (azimuth x depth) medium
    array.  ``work`` holds two C-contiguous (n_azimuth, n_depth) arrays,
    which the depth half-step views depth-major; every step overwrites
    them, so a marcher serves one march at a time.

    A singular depth or azimuth matrix is not reported here but by the
    first step that solves with it, as a :class:`StepError`.
    """

    grid: Grid3D
    environment: Environment
    k0: float
    coeffs: StepCoefficients
    threads: int = 1
    depth: Factors = field(init=False)
    work: tuple = field(init=False)
    _azimuth: Factors | None = field(init=False, default=None)
    _azimuth_start: int = field(init=False, default=0)

    def __post_init__(self):
        grid = self.grid
        self.depth = factor(assemble_depth_batch(
            self.coeffs.cx_lhs, refraction_index_grid(self.environment, grid),
            self.k0, grid.delta_z))
        shape = (grid.n_azimuth, grid.n_depth)
        self.work = tuple(np.empty(shape, dtype=np.complex128) for _ in range(2))
        self.azimuth(0)  # the first block, with the rest of the set-up

    def azimuth(self, j: int) -> Factors:
        """The width-1 factors of the implicit azimuth matrix
        (I + cy_lhs Y) of step ``j``, with Y at its midpoint range
        r_j + delta_r / 2; a :class:`DomainError` unless
        0 <= j < n_range.

        When step ``j`` is outside the block made last, the matrices of
        steps ``j`` to ``j + AZIMUTH_BLOCK - 1`` (at most ``n_range - 1``)
        are assembled and factored together.
        """
        grid = self.grid
        if not 0 <= j < grid.n_range:
            raise DomainError(f"step {j} is not in [0, n_range) = "
                              f"[0, {grid.n_range})")
        offset = j - self._azimuth_start
        if self._azimuth is None or not 0 <= offset < self._azimuth.width:
            steps = np.arange(j, min(j + AZIMUTH_BLOCK, grid.n_range))
            self._azimuth = factor(assemble_azimuth_batch(
                self.coeffs.cy_lhs, self.k0, grid.range_at(steps + 0.5),
                grid.delta_theta, grid.azimuth_topology, grid.n_azimuth))
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
    the slab at ``j + 1``.  A :class:`DomainError` unless
    0 <= j < n_range.

    The new slab is a new array; the marcher's arrays are overwritten.
    """
    grid, coeffs = marcher.grid, marcher.coeffs
    lhs_y = marcher.azimuth(j)  # checks j first
    apply_boundary(u, grid)

    if coeffs.delta == 0:
        # Zero range increment: the implicit and explicit factors coincide,
        # so the step is the identity and is short-circuited to keep it so
        # to the bit.
        return u

    # 1 - rho, without the cancellation of subtracting rho from 1
    weight = (coeffs.cx_lhs - coeffs.cx_rhs) / coeffs.cx_lhs
    first, second = marcher.work
    t = compute_rhs(u, first.reshape(grid.n_depth, grid.n_azimuth))
    s = second.reshape(t.shape)
    try:
        solve_batch(SolveBatch(marcher.depth, t), marcher.threads, out=s)
    except SingularSystemError as exc:
        raise StepError(j + 1, "depth", exc) from exc
    new = np.empty_like(first)
    scaled = new.reshape(t.shape)  # a product's own array until w fills it
    np.subtract(s, t, out=s)
    np.multiply(s, weight, out=scaled)
    np.add(t, scaled, out=s)
    v = first  # t is dead once s is formed
    np.copyto(v, s.T)
    try:
        solve_batch(SolveBatch(lhs_y, v), marcher.threads, out=new)
    except SingularSystemError as exc:
        raise StepError(j + 1, "azimuth", exc) from exc
    np.add(new, new, out=new)
    np.subtract(new, v, out=new)
    return new


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
