"""One traced ``pe3d run``: wrap the layer functions, run the CLI in this
process, restore the originals and write the spans out as JSON.

    python bench/traced_run.py CONFIG OUTPUT_DIR SPANS_JSON

pe3d must be importable (the benchmark puts the checkout's ``src`` on
PYTHONPATH).  The exit status is pe3d's.
"""

from __future__ import annotations

import json
import sys
import time

import tracing


def traced_main(argv: list[str]) -> dict:
    """Run ``pe3d.cli.main(argv)`` with every layer traced."""
    from pe3d import cli

    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    try:
        begin = time.perf_counter()
        code = tracer.call("cli.main", cli.main, (argv,), {})
        run_s = time.perf_counter() - begin
    finally:
        tracing.restore(patches)
    restored = all(getattr(module, attr) is original
                   for module, attr, original in patches)
    return {
        "exit_code": code,
        "run_s": run_s,
        "restored": restored,
        "result_bytes": tracing.result_bytes(tracer),
        "spans": tracer.spans,
    }


def main() -> int:
    config, output, spans_path = sys.argv[1:4]
    record = traced_main(["run", "--config", config, "--output", output])
    with open(spans_path, "w") as fh:
        json.dump(record, fh)
    return record["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
