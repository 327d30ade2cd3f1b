"""Two-level parallel execution: threads inside a step, a frequency farm.

Fine grain: :func:`pe3d.tridiag.solve_batch` splits the substitutions of
each batch of a range step into contiguous member blocks on the shared
thread pool.  Coarse grain: :func:`frequency_farm` runs independent
single-frequency jobs on worker processes, each worker a contiguous block
of frequencies submitted one by one.  Correctness contract for both levels is bit-identical
output against the serial path.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass

from .errors import InvariantError
from .marching import run_frequency
from .pool import ExecutorSpec, block_ranges

# Farm workers are forked: they start with the parent's modules as they
# are, wrappers installed around pe3d functions included.
FARM_START_METHOD = "fork"

__all__ = [
    "ExecutorSpec",
    "FarmReport",
    "frequency_farm",
]


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
    (:func:`pe3d.pool.block_ranges`): every frequency marches the same grid
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
            for lo, hi in block_ranges(len(jobs), workers):
                pool = pools.enter_context(
                    ProcessPoolExecutor(max_workers=1, mp_context=context))
                for index in range(lo, hi):
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
