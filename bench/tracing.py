"""Span recording around pe3d's layer boundaries, from outside the package.

:func:`install` replaces each wrapped function in the module namespace its
caller looks it up in, and returns the patches so :func:`restore` can put
the originals back.  pe3d itself has no tracing hook.

A span is a dict: ``id``, ``parent``, ``name``, ``start``, ``end``
(``time.perf_counter`` seconds, a system-wide monotonic clock on Linux, so
spans from forked workers share the time base), ``freq`` (the frequency
being marched, or None), ``pid`` and optional ``attrs``.  Spans stay in
memory; the caller writes them out at the end.

Farm workers fork after the wrappers are installed, so they inherit them.
A worker attaches the spans of each frequency it marched to the returned
``FrequencyResult`` (attribute ``trace_spans``), and the wrapper around
``frequency_farm`` moves them into the parent's span list.
"""

from __future__ import annotations

import functools
import itertools
import os
import pickle
import threading
import time

RESULT_SPANS = "trace_spans"


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.farm_results: list[list] = []  # sized after the run, untimed
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """(span id, frequency) of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else (None, None)

    def call(self, name, fn, args, kwargs, *, parent=None, freq=None,
             attrs=None):
        """Run ``fn`` inside a span.  ``parent`` and ``freq`` default to
        the innermost open span of this thread; pass them explicitly for
        work that runs on another thread.  ``attrs(args, kwargs, result)``
        adds attributes once the call has returned."""
        top_id, top_freq = self.current()
        parent = top_id if parent is None else parent
        freq = top_freq if freq is None else freq
        span_id = f"{os.getpid()}.{next(self._ids)}"
        stack = self._stack()
        stack.append((span_id, freq))
        start = time.perf_counter()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            span = {"id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end, "freq": freq,
                    "pid": os.getpid()}
            if attrs is not None and result is not None:
                span["attrs"] = attrs(args, kwargs, result)
            self.spans.append(span)


def _wrap(tracer, name, fn, attrs=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, attrs=attrs)
    return wrapper


def _batch_attrs(args, kwargs, result):
    batch = args[0]
    return {"n": int(batch.n), "w": int(batch.n_systems),
            "topology": batch.topology}


def _file_attrs(args, kwargs, path):
    return {"bytes": os.path.getsize(path)}


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every traced pe3d function; returns ``(module, attr, original)``
    for :func:`restore`."""
    from pe3d import cli, marching, parallel, pool, tridiag

    patches = []

    def patch(module, attr, wrapper):
        patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    simple = [
        (cli, "load_config", "config.load_config", None),
        (cli, "write_tl_grid", "output.write_tl_grid", _file_attrs),
        (cli, "file_sha256", "output.file_sha256", None),
        (cli, "write_manifest", "output.write_manifest", _file_attrs),
        (marching, "range_step", "marching.range_step", None),
        (marching, "compute_rhs", "operators.compute_rhs", None),
        (marching, "assemble_depth_batch", "operators.assemble_depth_batch", None),
        (marching, "assemble_azimuth_batch", "operators.assemble_azimuth_batch", None),
        (marching, "solve_batch", "tridiag.solve_batch", _batch_attrs),
        (marching, "refraction_index_grid", "environment.refraction_index_grid", None),
        (marching, "transmission_loss_field",
         "environment.transmission_loss_field", None),
    ]
    for module, attr, name, attrs in simple:
        patch(module, attr, _wrap(tracer, name, getattr(module, attr), attrs))

    run_frequency = parallel.run_frequency

    @functools.wraps(run_frequency)
    def traced_run_frequency(config, frequency, executor=None):
        first = len(tracer.spans)
        result = tracer.call(
            "marching.run_frequency", run_frequency, (config, frequency, executor),
            {}, freq=frequency,
            attrs=lambda a, k, r: {"wall_seconds": r.wall_seconds},
        )
        if os.getpid() != tracer.pid:
            # In a farm worker: the spans ride back on the result.
            setattr(result, RESULT_SPANS, tracer.spans[first:])
            del tracer.spans[first:]
        return result

    patch(parallel, "run_frequency", traced_run_frequency)

    frequency_farm = cli.frequency_farm

    @functools.wraps(frequency_farm)
    def traced_frequency_farm(*args, **kwargs):
        report = tracer.call("parallel.frequency_farm", frequency_farm, args, kwargs)
        for result in report.results:
            if result is not None:
                tracer.spans.extend(result.__dict__.pop(RESULT_SPANS, []))
        tracer.farm_results.append(report.results)
        return report

    patch(cli, "frequency_farm", traced_frequency_farm)

    fork_join = tridiag.fork_join

    @functools.wraps(fork_join)
    def traced_fork_join(worker, n_items, threads):
        def run_blocks():
            # Blocks may run on pool threads: name their parent explicitly.
            span_id, freq = tracer.current()

            def block(lo, hi):
                return tracer.call("tridiag.tiles", worker, (lo, hi), {},
                                   parent=span_id, freq=freq)

            return fork_join(block, n_items, threads)

        dispatched = threads > 1 and len(pool.block_ranges(n_items, threads)) > 1
        return tracer.call("pool.fork_join", run_blocks, (), {},
                           attrs=lambda a, k, r: {"parallel": dispatched})

    patch(tridiag, "fork_join", traced_fork_join)
    return patches


def restore(patches: list[tuple]) -> None:
    for module, attr, original in reversed(patches):
        setattr(module, attr, original)


def result_bytes(tracer: Tracer) -> int:
    """Pickled size of every farm's results, as a worker sends them back."""
    return sum(len(pickle.dumps(results)) for results in tracer.farm_results)
