"""Two-level parallel execution: threads inside a step, a frequency farm.

Fine grain: :func:`pe3d.marching.range_step` splits its add into
contiguous depth-row blocks on the shared thread pool; its substitution
runs whole.  Coarse grain: :func:`frequency_farm` runs independent
single-frequency jobs on worker processes, each worker a contiguous block
of frequencies submitted one by one.  Both levels keep the bits of the
serial path.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass

from .marching import run_frequency
from .pool import block_ranges

# Farm workers are forked: they start with the parent's modules as they
# are, wrappers installed around pe3d functions included.
FARM_START_METHOD = "fork"


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
    config, index, frequency = payload
    try:
        return index, "ok", run_frequency(config, frequency)
    except Exception as exc:
        return index, "error", f"{type(exc).__name__}: {exc}"


def frequency_farm(config, deliver=None) -> FarmReport:
    """Solve each of ``config.source.frequencies`` as an independent job on
    ``config.options.workers`` processes; report in input order.

    Each worker process owns one contiguous block of frequencies
    (:func:`pe3d.pool.block_ranges`): every frequency marches the same grid
    for the same number of steps, so blocks of equal size balance the
    load.  A block runs on its own one-process pool, which gets each of
    its frequencies as a separate job, so every result comes back as soon
    as it is done.  Workers start by ``FARM_START_METHOD``.

    ``deliver(index, result)``, when given, is called in this process for
    each frequency that marched, as soon as its result is here: right
    after the frequency on one worker, in completion order on several.
    Once it returns, the result's TL grid is dropped (``tl_field`` set to
    None), so the farm holds at most one grid per busy worker; the rest of
    the result stays in ``results``.  An exception from ``deliver`` cancels
    the jobs not yet started and propagates once the pools are shut down.

    Failures never abort the farm; they are reported per frequency, in
    input order.  A worker process that dies fails the frequencies of its
    block that had not come back; those that had are kept.
    """
    frequencies = config.source.frequencies
    workers = config.options.workers
    results = [None] * len(frequencies)
    errors = {}

    def settle(index, status, payload):
        if status != "ok":
            errors[index] = payload
            return
        results[index] = payload
        if deliver is not None:
            deliver(index, payload)
            payload.tl_field = None

    if workers == 1:
        for index, frequency in enumerate(frequencies):
            settle(*_farm_job((config, index, frequency)))
    else:
        context = multiprocessing.get_context(FARM_START_METHOD)
        with ExitStack() as pools:
            submitted = {}
            for lo, hi in block_ranges(len(frequencies), workers):
                pool = pools.enter_context(
                    ProcessPoolExecutor(max_workers=1, mp_context=context))
                for index in range(lo, hi):
                    payload = (config, index, frequencies[index])
                    submitted[pool.submit(_farm_job, payload)] = index
            try:
                for future in as_completed(submitted):
                    try:
                        outcome = future.result()
                    except BrokenProcessPool as exc:
                        outcome = (submitted[future], "error",
                                   f"worker process died: {exc}")
                    settle(*outcome)
            except BaseException:
                for future in submitted:
                    future.cancel()
                raise

    failures = [FarmFailure(index, frequencies[index], errors[index])
                for index in sorted(errors)]
    return FarmReport(results=results, failures=failures)
