"""Bundled invariant suite behind ``pe3d selftest``.

Each property prints one PASS/FAIL line.  All random instances come from
one seeded generator and the seed is printed, so failures reproduce.
Checks raise explicitly rather than through ``assert``, so the suite still
gates under ``python -O``.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .environment import (
    PERIODIC,
    Absorber,
    Environment,
    FieldSlab,
    Grid3D,
    SoundSpeedProfile,
    SourceSpec,
    wavenumber,
)
from .config import Config, RunOptions
from .marching import Marcher, MarchState, range_step, run_frequency
from .operators import StepCoefficients
from .parallel import static_assignment
from .tridiag import (
    CYCLIC,
    OPEN,
    SolveBatch,
    TriDiagSystem,
    dense_oracle_solve,
    factor,
    solve_batch,
    solve_cyclic,
    solve_thomas,
)

SELFTEST_SEED = 20260808


def demo_config(n_range=30, n_azimuth=16, n_depth=64) -> Config:
    grid = Grid3D(
        n_range=n_range, n_azimuth=n_azimuth, n_depth=n_depth,
        delta_r=5.0, delta_theta=2.0 * math.pi / n_azimuth, delta_z=4.0,
        r_start=5.0, azimuth_topology=PERIODIC,
    )
    environment = Environment(
        c0=1500.0,
        profile=SoundSpeedProfile.uniform(1500.0),
        water_depth=6000.0,
        absorber=Absorber(0.75 * grid.depth_extent, 0.01),
        bottom_depth=grid.depth_extent,
    )
    source = SourceSpec(frequencies=(50.0,), depth=100.0)
    return Config(grid, environment, source, RunOptions())


def random_system(rng, n, topology) -> TriDiagSystem:
    """Random diagonally dominant complex system."""
    n_off = n if topology == CYCLIC else n - 1
    sub = rng.standard_normal(n_off) + 1j * rng.standard_normal(n_off)
    sup = rng.standard_normal(n_off) + 1j * rng.standard_normal(n_off)
    row_sum = np.zeros(n)
    if topology == CYCLIC:
        row_sum += np.abs(sub) + np.abs(sup)
    else:
        row_sum[1:] += np.abs(sub)
        row_sum[:-1] += np.abs(sup)
    phase = np.exp(1j * rng.uniform(0, 2 * math.pi, n))
    main = (row_sum + 1.0 + rng.uniform(0.1, 2.0, n)) * phase
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return TriDiagSystem(sub=sub, main=main, sup=sup, rhs=rhs, topology=topology)


class SelftestFailure(Exception):
    """A bundled property does not hold."""


def _require(condition, message: str):
    if not condition:
        raise SelftestFailure(message)


def _relative_error(x, reference):
    scale = max(np.max(np.abs(reference)), 1e-30)
    return np.max(np.abs(x - reference)) / scale


def _corrupted_thomas(system):
    x = solve_thomas(system)
    x = x.copy()
    x[0] += 1e-6
    return x


def _check_coefficients():
    coeffs = StepCoefficients.for_step(wavenumber(50.0, 1500.0), 25.0)
    _require(coeffs.delta.real == 0.0, "delta not purely imaginary")
    _require(coeffs.cx_lhs + coeffs.cx_rhs == 0.5 + 0.0j,
             "cx_lhs + cx_rhs != 1/2")
    _require(coeffs.cy_lhs + coeffs.cy_rhs == 0.0 + 0.0j,
             "cy_lhs + cy_rhs != 0")


def _check_open_oracle(solver):
    rng = np.random.default_rng(SELFTEST_SEED)
    for _ in range(200):
        n = int(rng.integers(3, 65))
        system = random_system(rng, n, OPEN)
        err = _relative_error(solver(system), dense_oracle_solve(system))
        _require(err <= 1e-10, f"open solve vs oracle error {err:.2e}")


def _check_cyclic_oracle():
    rng = np.random.default_rng(SELFTEST_SEED + 1)
    for _ in range(100):
        n = int(rng.integers(3, 65))
        system = random_system(rng, n, CYCLIC)
        err = _relative_error(solve_cyclic(system), dense_oracle_solve(system))
        _require(err <= 1e-10, f"cyclic solve vs oracle error {err:.2e}")


def _check_batch_determinism():
    rng = np.random.default_rng(SELFTEST_SEED + 2)
    system = random_system(rng, 48, OPEN)
    rhs = rng.standard_normal((48, 300)) + 1j * rng.standard_normal((48, 300))
    batch = SolveBatch(factor(system.diagonals()), rhs)
    serial = solve_batch(batch, parallel_hint=1)
    threaded = solve_batch(batch, parallel_hint=4)
    _require(serial.tobytes() == threaded.tobytes(), "hint changed batch output")
    scalar = np.stack([solve_thomas(dataclasses.replace(system, rhs=rhs[:, m]))
                       for m in range(300)], axis=1)
    _require(serial.tobytes() == scalar.tobytes(),
             "batch differs from scalar loop")


def _check_delta_zero_identity():
    config = demo_config()
    grid, env, source, _ = config
    k0 = wavenumber(50.0, env.c0)
    rng = np.random.default_rng(SELFTEST_SEED + 3)
    values = rng.standard_normal((grid.n_azimuth, grid.n_depth)) \
        + 1j * rng.standard_normal((grid.n_azimuth, grid.n_depth))
    values[:, 0] = 0.0
    slab = FieldSlab(values, grid.r_start)
    before = slab.values.copy()
    marcher = Marcher(grid, env, k0, StepCoefficients.for_step(k0, 0.0))
    after = range_step(marcher, MarchState(slab, 0))
    _require(after.slab.values.tobytes() == before.tobytes(),
             "delta=0 step not identity")


def _check_azimuth_symmetry():
    config = demo_config(n_range=20)
    result = run_frequency(config, 50.0)
    mags = np.abs(result.final_slab.values)
    spread = (mags.max(axis=0) - mags.min(axis=0)).max()
    _require(spread <= 1e-9 * mags.max(), f"azimuthal spread {spread:.2e}")


def _check_rerun_determinism():
    config = demo_config(n_range=10)
    first = run_frequency(config, 50.0)
    second = run_frequency(config, 50.0)
    _require(first.tl_field.tobytes() == second.tl_field.tobytes(),
             "rerun changed the TL field")
    _require(first.final_slab.values.tobytes()
             == second.final_slab.values.tobytes(),
             "rerun changed the final slab")


def _check_static_assignment():
    for workers in (3, 5, 8):
        blocks = static_assignment(8, workers)
        _require(len(blocks) == workers,
                 f"{len(blocks)} blocks for {workers} workers")
        _require(sorted(i for b in blocks for i in b) == list(range(8)),
                 "jobs not covered exactly once")
        _require(max(len(b) for b in blocks) == math.ceil(8 / workers),
                 "largest block is not ceil(jobs / workers)")


def run_selftest(corrupt_thomas: bool = False, out=print) -> bool:
    """Run every bundled property; returns True when all pass.

    ``corrupt_thomas`` swaps in a deliberately wrong solver for the open
    oracle property (negative-control hook for tests)."""
    solver = _corrupted_thomas if corrupt_thomas else solve_thomas
    checks = [
        ("coefficient-identities", _check_coefficients),
        ("thomas-vs-dense-oracle", lambda: _check_open_oracle(solver)),
        ("cyclic-vs-dense-oracle", _check_cyclic_oracle),
        ("batch-determinism", _check_batch_determinism),
        ("delta-zero-identity", _check_delta_zero_identity),
        ("azimuth-symmetry", _check_azimuth_symmetry),
        ("rerun-determinism", _check_rerun_determinism),
        ("static-assignment-law", _check_static_assignment),
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
