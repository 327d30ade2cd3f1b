"""Bundled invariant suite behind ``pe3d selftest``.

Each property prints one PASS/FAIL line.  All random instances come from
one seeded generator and the seed is printed, so failures reproduce.
Checks raise explicitly rather than through ``assert``, so the suite still
gates under ``python -O``.
"""

from __future__ import annotations

import math

import numpy as np

from .environment import (
    PERIODIC,
    TOPOLOGIES,
    Absorber,
    Environment,
    Grid3D,
    SoundSpeedProfile,
    SourceSpec,
    refraction_index_grid,
    wavenumber,
)
from .config import Config, RunOptions
from .marching import (
    Marcher,
    StepCoefficients,
    assemble_depth_batch,
    range_step,
    run_frequency,
)
from .pool import block_ranges
from .tridiag import (
    Diagonals,
    SolveBatch,
    dense_oracle_solve,
    factor,
    solve,
    solve_batch,
)

SELFTEST_SEED = 20260808


def demo_config(n_range=30, n_azimuth=16, n_depth=64, delta_r=5.0,
                topology=PERIODIC, attenuation=0.01) -> Config:
    """Isovelocity water on 4 m rows; a sector is 1 degree per azimuth."""
    delta_theta = 2.0 * math.pi / n_azimuth if topology == PERIODIC \
        else math.radians(1.0)
    grid = Grid3D(
        n_range=n_range, n_azimuth=n_azimuth, n_depth=n_depth,
        delta_r=delta_r, delta_theta=delta_theta, delta_z=4.0,
        r_start=delta_r, azimuth_topology=topology,
    )
    environment = Environment(
        c0=1500.0,
        profile=SoundSpeedProfile.uniform(1500.0),
        absorber=Absorber(0.75 * grid.depth_extent, attenuation),
    )
    source = SourceSpec(frequencies=(50.0,), depth=100.0)
    return Config(grid, environment, source, RunOptions())


def random_system(rng, n) -> tuple[Diagonals, np.ndarray]:
    """Random diagonally dominant open complex system: width-1 diagonals
    and a right-hand side."""
    sub = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    sup = rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)
    row_sum = np.zeros(n)
    row_sum[1:] += np.abs(sub)
    row_sum[:-1] += np.abs(sup)
    phase = np.exp(1j * rng.uniform(0, 2 * math.pi, n))
    main = (row_sum + 1.0 + rng.uniform(0.1, 2.0, n)) * phase
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return Diagonals(sub[:, None], main[:, None], sup[:, None]), rhs


class SelftestFailure(Exception):
    """A bundled property does not hold."""


def _require(condition, message: str):
    if not condition:
        raise SelftestFailure(message)


def _relative_error(x, reference):
    scale = max(np.max(np.abs(reference)), 1e-30)
    return np.max(np.abs(x - reference)) / scale


def _corrupted_thomas(diagonals, rhs):
    x = solve(diagonals, rhs)
    x[0] += 1e-6
    return x


def _check_coefficients():
    coeffs = StepCoefficients.for_step(wavenumber(50.0, 1500.0), 25.0)
    _require(coeffs.delta.real == 0.0, "delta not purely imaginary")
    _require(coeffs.cx_lhs + coeffs.cx_rhs == 0.5 + 0.0j,
             "cx_lhs + cx_rhs != 1/2")
    _require(coeffs.cy_lhs + coeffs.cy_rhs == 0.0 + 0.0j,
             "cy_lhs + cy_rhs != 0")


def _check_oracle(solver):
    rng = np.random.default_rng(SELFTEST_SEED)
    for _ in range(200):
        n = int(rng.integers(3, 65))
        diagonals, rhs = random_system(rng, n)
        err = _relative_error(solver(diagonals, rhs),
                              dense_oracle_solve(diagonals, rhs))
        _require(err <= 1e-10, f"solve vs oracle error {err:.2e}")


def _check_batch_determinism():
    rng = np.random.default_rng(SELFTEST_SEED + 2)
    diagonals, _ = random_system(rng, 48)
    rhs = rng.standard_normal((48, 300)) + 1j * rng.standard_normal((48, 300))
    scalar = np.stack([solve(diagonals, rhs[:, m]) for m in range(300)],
                      axis=1)
    got = solve_batch(SolveBatch(factor(diagonals), rhs))
    _require(got.tobytes() == scalar.tobytes(),
             "300 members differ from the scalar loop")


def _check_delta_zero_identity():
    config = demo_config()
    grid, env, source, _ = config
    k0 = wavenumber(50.0, env.c0)
    rng = np.random.default_rng(SELFTEST_SEED + 3)
    values = rng.standard_normal((grid.n_azimuth, grid.n_depth)) \
        + 1j * rng.standard_normal((grid.n_azimuth, grid.n_depth))
    values[:, 0] = 0.0
    marcher = Marcher(grid, env, k0, StepCoefficients.for_step(k0, 0.0))
    modes = marcher.to_modes(values)
    before = modes.copy()
    after = range_step(marcher, modes)
    _require(after.tobytes() == before.tobytes(), "delta=0 step not identity")
    _require(np.all(marcher.rho * marcher.gain(0) == 1.0),
             "delta=0 gain not 1")


def fold_oracle(marcher: Marcher, m: np.ndarray) -> np.ndarray:
    """The mode slab ``m`` one step on without its gain, as the unfolded
    sum form rho^-1 (rho m + (1 - rho) A^-1 m) with A = I + cx_lhs X,
    A^-1 taken column by column by the dense oracle: what
    :func:`range_step` computes as the pre-scaled solve and its add."""
    coeffs, grid = marcher.coeffs, marcher.grid
    rho = coeffs.cx_rhs / coeffs.cx_lhs
    matrix = assemble_depth_batch(
        coeffs.cx_lhs, refraction_index_grid(marcher.environment, grid),
        marcher.k0, grid.delta_z)
    solved = np.stack([dense_oracle_solve(matrix, column) for column in m.T],
                      axis=1)
    return (rho * m + (1.0 - rho) * solved) / rho


def _check_depth_step_oracle():
    rng = np.random.default_rng(SELFTEST_SEED + 4)
    for topology in TOPOLOGIES:
        grid, env, _, _ = demo_config(n_azimuth=8, n_depth=37,
                                      topology=topology)
        k0 = wavenumber(50.0, env.c0)
        marcher = Marcher(grid, env, k0,
                          StepCoefficients.for_step(k0, grid.delta_r))
        m = rng.standard_normal(marcher.work.shape) \
            + 1j * rng.standard_normal(marcher.work.shape)
        m[0] = 0.0
        want = fold_oracle(marcher, m)  # before the step, which writes m
        err = _relative_error(range_step(marcher, m), want)
        _require(err <= 1e-12, f"{topology} step vs oracle error {err:.2e}")


def _check_azimuth_symmetry():
    config = demo_config(n_range=20)
    tl = run_frequency(config, 50.0).tl_field[-1]
    spread = (tl.max(axis=0) - tl.min(axis=0)).max()
    # 1e-8 dB: a relative spread of about 1e-9 in |u|
    _require(spread <= 1e-8, f"azimuthal TL spread {spread:.2e} dB")


def _check_rerun_determinism():
    config = demo_config(n_range=10)
    first = run_frequency(config, 50.0)
    second = run_frequency(config, 50.0)
    _require(first.tl_field.tobytes() == second.tl_field.tobytes(),
             "rerun changed the TL field")
    _require(np.array_equal(first.ranges, second.ranges),
             "rerun changed the recorded ranges")


def separable_mode_error(topology: str) -> tuple:
    """Relative error of the separable mode sin(q pi l / n_depth) x
    (azimuth mode m: a cosine on a periodic grid, a sine zero on a sector's
    edge rows) after 200 lossless steps, marched in modes and compared in
    physical space with the gain product G of the steps applied as
    ``run_frequency`` applies it, against the product of its closed-form
    step factors

        g_j = (1 + cx_rhs lx) (1 + cy_rhs ly_j)
              / ((1 + cx_lhs lx) (1 + cy_lhs ly_j))

    with lx the mode's eigenvalue of X and ly_j that of Y at step j's
    midpoint range r_j + delta_r / 2; and |prod g_j|, which is 1 when
    both sides of every step take the same Y."""
    grid, env, _, _ = demo_config(200, 36, 128, 10.0, topology, 0.0)
    q, m, k = 3, 2, np.arange(grid.n_azimuth)
    k0 = wavenumber(50.0, env.c0)
    coeffs = StepCoefficients.for_step(k0, grid.delta_r)
    # the depth sine is zero on the surface row and one row below the grid
    depth = np.sin(q * math.pi * np.arange(grid.n_depth) / grid.n_depth)
    lx = -4.0 * (math.sin(q * math.pi / (2 * grid.n_depth))
                 / (k0 * grid.delta_z)) ** 2
    if topology == PERIODIC:
        azimuth = np.cos(2.0 * math.pi * m * k / grid.n_azimuth)
        y = -4.0 * math.sin(math.pi * m / grid.n_azimuth) ** 2
    else:
        edge = grid.n_azimuth - 1
        azimuth = np.where(k < edge, np.sin(math.pi * m * k / edge), 0.0)
        y = -4.0 * math.sin(math.pi * m / (2 * edge)) ** 2
    start = np.outer(azimuth, depth).astype(np.complex128)
    gain = 1.0
    marcher = Marcher(grid, env, k0, coeffs)
    modes = marcher.to_modes(start)
    marched = np.ones(modes.shape[1], dtype=np.complex128)
    for j in range(grid.n_range):
        modes = range_step(marcher, modes)
        marched *= marcher.rho * marcher.gain(j)
        ly = y / (k0 * grid.range_at(j + 0.5) * grid.delta_theta) ** 2
        gain *= (1 + coeffs.cx_rhs * lx) * (1 + coeffs.cy_rhs * ly) \
            / ((1 + coeffs.cx_lhs * lx) * (1 + coeffs.cy_lhs * ly))
    return (_relative_error(marcher.from_modes(modes * marched), gain * start),
            abs(gain))


def _check_separable_mode():
    for topology in TOPOLOGIES:
        err, gain = separable_mode_error(topology)
        _require(err <= 1e-12, f"{topology} mode error {err:.2e}")
        _require(abs(gain - 1.0) <= 1e-13, f"{topology} |prod g_j| = {gain!r}")


def _check_block_assignment():
    for workers in (3, 5, 8):
        blocks = block_ranges(8, workers)
        # in-order cover by nonempty ranges: each block contiguous, and
        # each one starting where the previous one ends
        _require([i for lo, hi in blocks for i in range(lo, hi)]
                 == list(range(8)) and all(lo < hi for lo, hi in blocks),
                 "jobs not covered once, in order, by nonempty blocks")
        _require(max(hi - lo for lo, hi in blocks) == math.ceil(8 / workers),
                 "largest block is not ceil(jobs / workers)")


def run_selftest(corrupt_thomas: bool = False, out=print) -> bool:
    """Run every bundled property; returns True when all pass.

    ``corrupt_thomas`` swaps in a deliberately wrong solver for the
    oracle property (negative-control hook for tests)."""
    solver = _corrupted_thomas if corrupt_thomas else solve
    checks = [
        ("coefficient-identities", _check_coefficients),
        ("thomas-vs-dense-oracle", lambda: _check_oracle(solver)),
        ("batch-determinism", _check_batch_determinism),
        ("delta-zero-identity", _check_delta_zero_identity),
        ("depth-step-vs-dense-oracle", _check_depth_step_oracle),
        ("azimuth-symmetry", _check_azimuth_symmetry),
        ("rerun-determinism", _check_rerun_determinism),
        ("separable-mode", _check_separable_mode),
        ("static-assignment-law", _check_block_assignment),
    ]
    out(f"selftest seed: {SELFTEST_SEED}")
    all_ok = True
    for name, check in checks:
        try:
            check()
        except Exception as exc:
            all_ok = False
            out(f"FAIL {name}: {exc}")
        else:
            out(f"PASS {name}")
    return all_ok
