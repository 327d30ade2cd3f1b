"""The benchmark's tracer against the package as it stands."""

import dataclasses
import os
from pathlib import Path

import pytest

from conftest import make_config

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    return tracing


def test_tracer_installs_and_restores(tracing):
    # bench/tracing.py wraps run-path functions by the names their callers
    # look them up under (marching.compute_rhs and marching.solve_batch
    # among them), so a change that deletes or renames one fails here and
    # not only in bench/selfcheck.py.  This test goes when the run times
    # its own phases and the tracer is deleted (ROADMAP item 9).
    patches = tracing.install(tracing.Tracer())
    try:
        assert all(getattr(module, attr) is not original
                   for module, attr, original in patches)
    finally:
        tracing.restore(patches)
    assert all(getattr(module, attr) is original
               for module, attr, original in patches)


def test_farm_workers_send_their_spans_back(tracing):
    # the tracer's farm contract: workers fork inside cli.frequency_farm,
    # look run_frequency up in parallel's namespace, and return results
    # with a __dict__ that carries their spans to the parent
    from pe3d import cli

    freqs = (30.0, 40.0, 50.0)
    config = make_config(frequencies=freqs, n_range=5, n_azimuth=8,
                         n_depth=24, delta_z=6.0)
    config = dataclasses.replace(config, options=dataclasses.replace(
        config.options, workers=2))
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        report = cli.frequency_farm(config)
    finally:
        tracing.restore(patches)
    assert report.ok
    spans = [span for span in tracer.spans
             if span["name"] == "marching.run_frequency"]
    assert sorted(span["freq"] for span in spans) == list(freqs)
    workers = {span["pid"] for span in spans}
    assert len(workers) == 2 and os.getpid() not in workers
