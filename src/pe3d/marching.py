"""Per-frequency range marching: boundary handling, step solves, and
transmission-loss assembly.

One range step advances the slab from r to r + delta_r by

1. applying the boundary conditions to the current slab,
2. assembling the explicit right-hand side at the current range,
3. solving one depth system per azimuth index (intermediate slab v),
4. solving one azimuth system per depth index (new slab u),
5. reapplying the boundary conditions,

with the implicit-side matrices sampled at the new range.  All systems of
one sweep share one matrix, so each sweep is one factorization and a wide
substitution through the batched solver, on the configured intra-step
thread count.  The medium does not depend on range, so a :class:`Marcher`
computes the refraction grid and factors the depth matrix once per
frequency; the azimuth matrix depends on range and is factored once per
step.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .environment import (
    SECTOR,
    Environment,
    FieldSlab,
    Grid3D,
    gaussian_starter,
    hankel_factor,
    refraction_index_grid,
    transmission_loss_field,
    wavenumber,
)
from .errors import DomainError, SingularSystemError, StepError
from .operators import (
    StepCoefficients,
    assemble_azimuth_batch,
    assemble_depth_batch,
    compute_rhs,
)
from .pool import ExecutorSpec
from .tridiag import Factors, SolveBatch, factor, solve_batch

MAX_OUTPUT_SAMPLES = 512


@dataclass(eq=False)
class Marcher:
    """What stays fixed while one frequency is marched, and what is
    derived from it once: the refraction grid and the factored depth
    matrix.  Shared read-only by every step.

    A singular depth matrix is not reported here but by the first step
    that solves with it, as a :class:`StepError`.
    """

    grid: Grid3D
    environment: Environment
    k0: float
    coeffs: StepCoefficients
    intra_threads: int = 1
    n_grid: np.ndarray = field(init=False)
    depth: Factors = field(init=False)

    def __post_init__(self):
        grid = self.grid
        self.n_grid = refraction_index_grid(self.environment, grid, grid.r_start)
        # The medium is the same in every azimuth, so every column of the
        # assembled batch is the same matrix; see assemble_depth_batch for
        # why it is assembled at full width all the same.
        depth = assemble_depth_batch(self.coeffs.cx_lhs, self.n_grid,
                                     self.k0, grid.delta_z)
        self.depth = factor(depth.columns(0, 1))


@dataclass(eq=False)
class MarchState:
    """The current slab u at range index j.  The slab is exclusively owned
    by the marcher during a step."""

    slab: FieldSlab
    range_index: int


@dataclass(eq=False)
class FrequencyResult:
    """Output of one single-frequency run: decimated TL field plus the
    final slab.  ``wall_seconds`` is measurement metadata, not part of the
    deterministic field data."""

    frequency: float
    ranges: np.ndarray
    tl_field: np.ndarray
    clamped_samples: int
    final_slab: FieldSlab
    output_stride: int
    wall_seconds: float


def apply_boundary(slab: FieldSlab, grid: Grid3D, env: Environment) -> FieldSlab:
    """Dirichlet data: zero the pressure-release surface row, and the
    azimuth edge rows on a sector grid.  The bottom needs no overwrite;
    the absorber plus the zero-exterior stencil closure handle it.
    Mutates the slab in place and returns it (idempotent)."""
    slab.check_grid(grid)
    slab.values[:, 0] = 0.0
    if grid.azimuth_topology == SECTOR:
        slab.values[0, :] = 0.0
        slab.values[-1, :] = 0.0
    return slab


def range_step(marcher: Marcher, state: MarchState) -> MarchState:
    """Advance one range step; returns the new state with j incremented."""
    grid = marcher.grid
    env = marcher.environment
    j = state.range_index
    if j + 1 > grid.n_range:
        raise DomainError(f"step {j + 1} exceeds n_range {grid.n_range}")
    slab = state.slab
    apply_boundary(slab, grid, env)

    if marcher.coeffs.delta == 0:
        # Zero range increment: the implicit and explicit factors coincide,
        # so the step is the identity and is short-circuited to keep it so
        # to the bit.
        return MarchState(slab, j + 1)

    r_new = grid.range_at(j + 1)
    rhs = compute_rhs(slab, marcher.coeffs, marcher.n_grid, marcher.k0, grid)
    # Dirichlet data on the explicit side: the constrained boundary rows of
    # the implicit systems require zero right-hand sides there.  The depth
    # solve keeps them: on a sector grid the edge azimuths of v solve zero
    # right-hand sides, so they are zero for the azimuth solve too.
    apply_boundary(rhs, grid, env)
    try:
        v = solve_batch(
            SolveBatch(marcher.depth, np.ascontiguousarray(rhs.values.T)),
            marcher.intra_threads,
        )
    except SingularSystemError as exc:
        raise StepError(j + 1, "depth", exc.member_index, exc) from exc
    try:
        azimuth = factor(assemble_azimuth_batch(
            marcher.coeffs.cy_lhs, marcher.k0, r_new, grid.delta_theta,
            grid.azimuth_topology, grid.n_azimuth,
        ))
        u = solve_batch(SolveBatch(azimuth, np.ascontiguousarray(v.T)),
                        marcher.intra_threads)
    except SingularSystemError as exc:
        raise StepError(j + 1, "azimuth", exc.member_index, exc) from exc

    new_slab = FieldSlab(u, r_new)
    apply_boundary(new_slab, grid, env)
    return MarchState(new_slab, j + 1)


def default_output_stride(n_steps: int) -> int:
    """Smallest stride keeping at most MAX_OUTPUT_SAMPLES range samples."""
    return max(1, (n_steps + 1 + MAX_OUTPUT_SAMPLES - 1) // MAX_OUTPUT_SAMPLES)


def run_frequency(config, frequency: float, executor: ExecutorSpec | None = None) -> FrequencyResult:
    """March one frequency from the starter range to max range.

    Deterministic: the TL field and final slab are a pure function of the
    config and the frequency, for every executor configuration.
    """
    t_begin = time.perf_counter()
    grid, env, source, options = config
    if frequency not in source.frequencies:
        raise DomainError(
            f"frequency {frequency} is not one of the source frequencies"
        )
    spec = executor if executor is not None else options.executor
    k0 = wavenumber(frequency, env.c0)
    marcher = Marcher(grid, env, k0, StepCoefficients.for_step(k0, grid.delta_r),
                      spec.intra_threads)
    slab = gaussian_starter(grid, source, k0)
    apply_boundary(slab, grid, env)

    stride = options.output_stride or default_output_stride(grid.n_range)
    ranges = [slab.range_m]
    tl_slices = []
    clamped = 0

    def record(s: FieldSlab):
        nonlocal clamped
        w = hankel_factor(k0, s.range_m)
        tl, n_clamped = transmission_loss_field(s.values, w)
        tl_slices.append(tl)
        clamped += n_clamped

    record(slab)
    state = MarchState(slab, 0)
    for j in range(1, grid.n_range + 1):
        if options.max_range is not None:
            if grid.range_at(j) > options.max_range * (1.0 + 1e-12):
                break
        state = range_step(marcher, state)
        if j % stride == 0:
            ranges.append(state.slab.range_m)
            record(state.slab)

    return FrequencyResult(
        frequency=frequency,
        ranges=np.asarray(ranges, dtype=np.float64),
        tl_field=np.stack(tl_slices, axis=0),
        clamped_samples=clamped,
        final_slab=state.slab,
        output_stride=stride,
        wall_seconds=time.perf_counter() - t_begin,
    )
