"""Two-level parallel execution and the scaling-measurement harness.

Fine grain: :func:`pe3d.tridiag.solve_batch` splits the substitutions of
each batch of a range step into contiguous member blocks on the shared
thread pool.  Coarse grain: :func:`frequency_farm` runs independent
single-frequency jobs on worker processes, each worker a contiguous block
of frequencies submitted one by one.  Correctness contract for both levels is bit-identical
output against the serial path.

Speedup and parallel efficiency are always derived from stored wall
times: speedup = T_baseline / T, efficiency = speedup / resource ratio,
against a named baseline record.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import InvariantError
from .marching import run_frequency
from .pool import ExecutorSpec, block_ranges
from .tridiag import OPEN, Diagonals, SolveBatch, factor, solve_batch

# Farm workers are forked: they start with the parent's modules as they
# are, wrappers installed around pe3d functions included.
FARM_START_METHOD = "fork"

__all__ = [
    "ExecutorSpec",
    "TimingRecord",
    "FarmReport",
    "static_assignment",
    "frequency_farm",
    "scaling_harness",
    "derive_scaling",
    "kernel_throughput",
]


@dataclass
class TimingRecord:
    """One measured Run of the scaling harness.

    ``speedup`` and ``efficiency`` are filled by :func:`derive_scaling`
    from the stored wall times; a failed run carries ``error`` instead of
    a wall time.
    """

    label: str
    intra_threads: int
    freq_workers: int
    frequency_count: int
    grid_dims: tuple
    wall_seconds: Optional[float]
    speedup: Optional[float] = None
    efficiency: Optional[float] = None
    error: Optional[str] = None

    def __post_init__(self):
        if self.error is None and not (self.wall_seconds and self.wall_seconds > 0):
            raise InvariantError("wall_seconds > 0 for successful runs")


@dataclass
class FarmFailure:
    index: int
    frequency: float
    message: str


@dataclass
class FarmReport:
    """Ordered per-frequency results; failed slots hold None and are
    described in ``failures``."""

    results: list
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def static_assignment(n_jobs: int, n_workers: int) -> list[list[int]]:
    """Contiguous block assignment of job indices to workers.

    Sizes differ by at most one, largest first, so the maximum number of
    jobs on any worker is ceil(n_jobs / n_workers).  Workers beyond the
    job count receive empty lists.
    """
    if n_jobs < 0 or n_workers < 1:
        raise InvariantError("n_jobs >= 0 and n_workers >= 1")
    blocks = [list(range(lo, hi)) for lo, hi in block_ranges(n_jobs, n_workers)]
    while len(blocks) < n_workers:
        blocks.append([])
    return blocks


def _farm_job(payload):
    """Worker-side job: run one frequency.

    Module-level so process pools can pickle it.  Returns
    (index, "ok", FrequencyResult) or (index, "error", message).
    """
    config, index, frequency, intra_threads = payload
    try:
        spec = ExecutorSpec(intra_threads=intra_threads)
        return index, "ok", run_frequency(config, frequency, spec)
    except Exception as exc:
        return index, "error", f"{type(exc).__name__}: {exc}"


def frequency_farm(config, frequencies, workers: int = 1,
                   intra_threads: int = 1) -> FarmReport:
    """Solve each frequency as an independent job and merge in input order.

    Each worker process owns one contiguous block of frequencies
    (:func:`static_assignment`): every frequency marches the same grid
    for the same number of steps, so blocks of equal size balance the
    load.  A block runs on its own one-process pool, which gets each of
    its frequencies as a separate job, so every result comes back as soon
    as it is done.  Workers start by ``FARM_START_METHOD``.

    Failures never abort the farm; they are reported per frequency, in
    input order.  A worker process that dies fails the frequencies of its
    block that had not come back; those that had are kept.
    """
    frequencies = list(frequencies)
    if not frequencies:
        raise InvariantError("frequencies nonempty")
    if workers < 1:
        raise InvariantError("workers >= 1")

    jobs = list(enumerate(frequencies))
    if workers == 1:
        outcomes = [_farm_job((config, index, frequency, intra_threads))
                    for index, frequency in jobs]
    else:
        context = multiprocessing.get_context(FARM_START_METHOD)
        outcomes = []
        with ExitStack() as pools:
            submitted = []
            for block in static_assignment(len(jobs), workers):
                if not block:
                    continue
                pool = pools.enter_context(
                    ProcessPoolExecutor(max_workers=1, mp_context=context))
                for index in block:
                    payload = (config, index, frequencies[index], intra_threads)
                    submitted.append((index, pool.submit(_farm_job, payload)))
            for index, future in submitted:
                try:
                    outcomes.append(future.result())
                except BrokenProcessPool as exc:
                    outcomes.append(
                        (index, "error", f"worker process died: {exc}"))

    results = [None] * len(frequencies)
    failures = []
    for index, status, payload in outcomes:
        if status == "ok":
            results[index] = payload
        else:
            failures.append(FarmFailure(index, frequencies[index], payload))
    return FarmReport(results=results, failures=failures)


def derive_scaling(records: list[TimingRecord], baseline_label: str) -> list[TimingRecord]:
    """Fill speedup/efficiency from stored wall times against the named
    baseline.  Pure function of the records; calling it again reproduces
    the same derived values exactly."""
    baseline = next(
        (r for r in records if r.label == baseline_label and r.error is None), None
    )
    derived = []
    for rec in records:
        if baseline is None or rec.error is not None or rec.wall_seconds is None:
            derived.append(replace(rec))
            continue
        speedup = baseline.wall_seconds / rec.wall_seconds
        resource_ratio = (rec.intra_threads * rec.freq_workers) / (
            baseline.intra_threads * baseline.freq_workers
        )
        derived.append(
            replace(rec, speedup=speedup, efficiency=speedup / resource_ratio)
        )
    return derived


def scaling_harness(config, thread_counts, worker_counts, repeats: int = 3,
                    warmup: bool = True) -> list[TimingRecord]:
    """Measure the configured problem over (threads, workers) pairs.

    Each pair is timed as the minimum of ``repeats`` runs, with one
    untimed warm-up run first.  The (1, 1) pair is always measured and is
    the baseline for speedup/efficiency.  A failed run voids its record
    with a reason; the sweep continues.
    """
    if repeats < 1:
        raise InvariantError("repeats >= 1")
    thread_counts = list(thread_counts) or [1]
    worker_counts = list(worker_counts) or [1]
    if min(thread_counts) < 1 or min(worker_counts) < 1:
        raise InvariantError("thread and worker counts >= 1")
    pairs = [(1, 1)]
    for w in worker_counts:
        for t in thread_counts:
            if (t, w) not in pairs:
                pairs.append((t, w))

    grid = config.grid
    dims = (grid.n_range, grid.n_azimuth, grid.n_depth)
    frequencies = config.source.frequencies
    records = []
    for threads, workers in pairs:
        label = f"t{threads}w{workers}"

        def one_run():
            report = frequency_farm(config, frequencies, workers=workers,
                                    intra_threads=threads)
            if not report.ok:
                first = report.failures[0]
                raise RuntimeError(
                    f"frequency {first.frequency} failed: {first.message}"
                )

        try:
            if warmup:
                one_run()
            walls = []
            for _ in range(repeats):
                begin = time.perf_counter()
                one_run()
                walls.append(time.perf_counter() - begin)
            records.append(TimingRecord(
                label=label, intra_threads=threads, freq_workers=workers,
                frequency_count=len(frequencies), grid_dims=dims,
                wall_seconds=min(walls),
            ))
        except Exception as exc:
            records.append(TimingRecord(
                label=label, intra_threads=threads, freq_workers=workers,
                frequency_count=len(frequencies), grid_dims=dims,
                wall_seconds=None, error=f"{type(exc).__name__}: {exc}",
            ))
    return derive_scaling(records, baseline_label="t1w1")


def kernel_throughput(batch_sizes, n: int = 128, repeats: int = 3,
                      seed: int = 0) -> list[dict]:
    """Micro-benchmark of the batched tri-diagonal kernel: one sweep of a
    range step, that is one shared matrix factored and substituted against
    ``batch_size`` right-hand sides.

    Returns one entry per batch size with the measured systems/second.
    No fixed performance target: the numbers are machine-bound.
    """
    rng = np.random.default_rng(seed)
    entries = []
    for batch_size in batch_sizes:
        real = rng.standard_normal((3, n))
        imag = rng.standard_normal((3, n))
        diagonals = Diagonals(
            sub=0.5 * (real[1, : n - 1] + 1j * imag[1, : n - 1])[:, None],
            main=(4.0 + real[0] + 1j * imag[0])[:, None],
            sup=0.5 * (real[2, : n - 1] + 1j * imag[2, : n - 1])[:, None],
            topology=OPEN,
        )
        rhs = rng.standard_normal((n, batch_size)) \
            + 1j * rng.standard_normal((n, batch_size))

        def sweep():
            solve_batch(SolveBatch(factor(diagonals), rhs))

        sweep()  # warm-up
        walls = []
        for _ in range(repeats):
            begin = time.perf_counter()
            sweep()
            walls.append(time.perf_counter() - begin)
        best = min(walls)
        entries.append({
            "batch_size": int(batch_size),
            "n": int(n),
            "seconds": best,
            "systems_per_second": batch_size / best,
        })
    return entries
