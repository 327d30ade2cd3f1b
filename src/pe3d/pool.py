"""Block partitioning and the thread fork-join of a step's add.

Work is partitioned into contiguous index blocks, one per thread.  The
boundaries depend on the thread count, so callers keep results
bit-identical across thread counts by making each item's work
independent of the block it lands in.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor

from .errors import InvariantError


def block_ranges(n_items: int, n_blocks: int) -> list[tuple[int, int]]:
    """Split ``range(n_items)`` into at most ``n_blocks`` contiguous blocks.

    Block sizes differ by at most one and the larger blocks come first,
    so the maximum block size is ceil(n_items / n_blocks).  Empty blocks
    are dropped.
    """
    if n_items < 0 or n_blocks < 1:
        raise InvariantError("n_items >= 0 and n_blocks >= 1")
    n_blocks = min(n_blocks, max(n_items, 1))
    base, extra = divmod(n_items, n_blocks)
    ranges = []
    lo = 0
    for b in range(n_blocks):
        hi = lo + base + (1 if b < extra else 0)
        if hi > lo:
            ranges.append((lo, hi))
        lo = hi
    return ranges


# One pool per thread count, reused across range steps: pool startup would
# otherwise dominate small steps.  Forked farm workers must not inherit
# live pools (their threads do not survive the fork), so children start
# with an empty cache.
@functools.cache
def _shared_pool(n_workers: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(max_workers=n_workers,
                              thread_name_prefix="pe3d-worker")


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_shared_pool.cache_clear)


def fork_join(worker, n_items: int, threads: int) -> list[tuple[int, int]]:
    """Run ``worker(lo, hi)`` over contiguous blocks of ``range(n_items)``
    and return the blocks.

    One block runs inline; several run on a shared pool of threads, and
    every one of them runs to its end, even when another one fails (the
    barrier: no caller observes partial writes).  Then the exception of
    the lowest failed block is raised.
    """
    blocks = block_ranges(n_items, threads)
    if len(blocks) <= 1:
        for lo, hi in blocks:
            worker(lo, hi)
        return blocks
    pool = _shared_pool(len(blocks))
    futures = [pool.submit(worker, lo, hi) for lo, hi in blocks]
    errors = [future.exception() for future in futures]
    for error in errors:
        if error is not None:
            raise error
    return blocks


def physical_core_count() -> int:
    """Best-effort physical core count; falls back to the logical count."""
    try:
        pairs = set()
        phys, core = None, None
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("physical id"):
                    phys = line.split(":")[1].strip()
                elif line.startswith("core id"):
                    core = line.split(":")[1].strip()
                elif not line.strip():
                    if phys is not None and core is not None:
                        pairs.add((phys, core))
                    phys, core = None, None
        if phys is not None and core is not None:
            pairs.add((phys, core))
        if pairs:
            return len(pairs)
    except OSError:
        pass
    return os.cpu_count() or 1
