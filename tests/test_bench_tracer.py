"""The benchmark's tracer against the package as it stands."""

from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_restores(monkeypatch):
    # bench/tracing.py wraps run-path functions by the names their callers
    # look them up under (marching.compute_rhs and marching.solve_batch
    # among them), so a change that deletes or renames one fails here and
    # not only in bench/selfcheck.py.  This test goes when the run times
    # its own phases and the tracer is deleted (ROADMAP item 9).
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    patches = tracing.install(tracing.Tracer())
    try:
        assert all(getattr(module, attr) is not original
                   for module, attr, original in patches)
    finally:
        tracing.restore(patches)
    assert all(getattr(module, attr) is original
               for module, attr, original in patches)
