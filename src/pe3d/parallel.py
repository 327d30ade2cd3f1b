"""Two-level parallel execution: threads inside a step, a frequency farm.

Fine grain: :func:`pe3d.marching.range_step` splits its add into
contiguous depth-row blocks on the shared thread pool; its substitution
runs whole.  Coarse grain: :func:`frequency_farm` runs independent
single-frequency jobs on forked worker processes, each worker a
contiguous block of frequencies that it marches in order and sends back
one result at a time down its own pipe.  Both levels keep the bits of the
serial path.
"""

from __future__ import annotations

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


def _farm_job(config, index, frequency):
    """Run one frequency: (index, "ok", FrequencyResult) or
    (index, "error", message)."""
    try:
        return index, "ok", run_frequency(config, frequency)
    except Exception as exc:
        return index, "error", f"{type(exc).__name__}: {exc}"


def _farm_block(connection, config, lo, hi):
    """Worker-process body: march frequencies ``lo:hi`` in order and send
    each :func:`_farm_job` outcome down ``connection``, then close it."""
    frequencies = config.source.frequencies
    with connection:
        for index in range(lo, hi):
            connection.send(_farm_job(config, index, frequencies[index]))


def frequency_farm(config, deliver=None) -> FarmReport:
    """Solve each of ``config.source.frequencies`` as an independent job on
    ``config.options.workers`` processes; report in input order.

    Each worker process owns one contiguous block of frequencies
    (:func:`pe3d.pool.block_ranges`): every frequency marches the same grid
    for the same number of steps, so blocks of equal size balance the
    load.  A worker is forked (``FARM_START_METHOD``) for its block alone,
    marches it in order and sends each result down its own one-way pipe
    as soon as it is done.  This process reads the pipes on its calling
    thread, one result at a time, and starts no thread of its own.

    ``deliver(index, result)``, when given, is called in this process for
    each frequency that marched, as soon as its result is here: right
    after the frequency on one worker, in arrival order on several.
    Once it returns, the result's TL grid is dropped (``tl_field`` set to
    None), so the farm holds at most the grid being delivered while the
    other workers wait to send theirs; the rest of the result stays in
    ``results``.  An exception from ``deliver``, or any other, terminates
    and joins the workers still running before it propagates.

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
            settle(*_farm_job(config, index, frequency))
    else:
        # the process machinery loads only when the farm forks: a
        # one-worker run does without its memory
        import multiprocessing
        from multiprocessing.connection import wait

        context = multiprocessing.get_context(FARM_START_METHOD)
        blocks = {}  # receiving end -> (worker, indices not yet back)
        try:
            for lo, hi in block_ranges(len(frequencies), workers):
                reader, writer = context.Pipe(duplex=False)
                worker = context.Process(target=_farm_block,
                                         args=(writer, config, lo, hi))
                worker.start()
                # the worker holds the only sending end, so its exit is EOF
                writer.close()
                blocks[reader] = (worker, list(range(lo, hi)))
            while blocks:
                for reader in wait(list(blocks)):
                    worker, pending = blocks[reader]
                    try:
                        outcome = reader.recv()
                    except (EOFError, OSError):
                        # OSError: the worker died partway through a send
                        worker.join()
                        del blocks[reader]
                        reader.close()
                        for index in pending:
                            errors[index] = ("worker process died: "
                                             f"exit code {worker.exitcode}")
                        continue
                    pending.remove(outcome[0])
                    settle(*outcome)
        finally:
            for reader, (worker, _) in blocks.items():
                worker.terminate()
                worker.join()
                reader.close()

    failures = [FarmFailure(index, frequencies[index], errors[index])
                for index in sorted(errors)]
    return FarmReport(results=results, failures=failures)
