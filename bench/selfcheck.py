"""Fast self-check of the benchmark harness on a tiny grid.

    python3 bench/selfcheck.py

Proves that
1. the wrappers restore every patched function (in this process, and in
   the traced run that reports it),
2. traced and untraced runs give identical TL digests, serially and on a
   2-worker farm whose spans ride back from the workers,
3. on the serial run the span self times sum to the traced run within
   ``trace.overhead_s`` (traced minus untraced wall time).

Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import layers
import run
import tracing

TINY = """\
[grid]
n_range = 12
n_azimuth = {n_azimuth}
n_depth = 33
delta_r = 5.0
delta_theta = {delta_theta}
delta_z = 4.0
azimuth_topology = {topology}

[environment]
c0 = 1500.0
sound_speed_profile =
    0 1500
    60 1490
    128 1510
water_depth = 6000.0

[source]
frequencies = 30, 40, 50
depth = 40.0

[run]
output_stride = 3
tl_format = binary-grid
workers = {workers}
"""
SHAPE = (12 // 3 + 1, 8, 33)
FREQUENCIES = [30.0, 40.0, 50.0]


def check(ok: bool, what: str) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    return ok


def check_restore() -> bool:
    tracer = tracing.Tracer()
    patches = tracing.install(tracer)
    replaced = all(getattr(m, a) is not orig for m, a, orig in patches)
    tracing.restore(patches)
    restored = all(getattr(m, a) is orig for m, a, orig in patches)
    return check(replaced and restored,
                 f"install replaces and restore brings back all {len(patches)} functions")


def traced_pair(workdir, name: str, text: str, deadline: float):
    """Untraced then traced run of one config; returns both and the spans."""
    config = workdir / f"{name}.ini"
    config.write_text(text)
    outputs = []
    for traced in (False, True):
        outdir = workdir / f"{name}-{'traced' if traced else 'plain'}"
        spans_path = workdir / f"{name}.spans.json"
        argv = ([sys.executable, str(run.HERE / "traced_run.py"), str(config),
                 str(outdir), str(spans_path)] if traced else
                [sys.executable, "-m", "pe3d", "run", "--config", str(config),
                 "--output", str(outdir)])
        pe = run.PeRun(name, *run.run_process(argv, workdir / "pe3d.log", deadline))
        run.check_outputs(pe, outdir, FREQUENCIES, SHAPE)
        outputs.append(pe)
    return outputs[0], outputs[1], json.loads(spans_path.read_text())


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    workdir = run.WORK / "selfcheck"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    deadline = time.monotonic() + run.DEADLINE_S
    ok = check_restore()

    plain, traced, record = traced_pair(
        workdir, "serial",
        TINY.format(n_azimuth=8, delta_theta=45.0, topology="periodic", workers=1),
        deadline)
    ok &= check(record["restored"], "the traced run restored every patched function")
    ok &= check(not plain.failures and not traced.failures
                and plain.digests == traced.digests,
                f"serial: traced and untraced TL digests identical "
                f"({len(plain.digests)} files)")
    self_sum = sum(layers.self_times(record["spans"]).values())
    overhead = traced.wall_s - plain.wall_s
    ok &= check(abs(self_sum - record["run_s"]) <= abs(overhead),
                f"serial: span self times sum to {self_sum:.6f} s, traced run "
                f"{record['run_s']:.6f} s, trace.overhead_s {overhead:.6f} s")

    plain, traced, record = traced_pair(
        workdir, "farm",
        TINY.format(n_azimuth=8, delta_theta=2.0, topology="sector", workers=2),
        deadline)
    ok &= check(not plain.failures and not traced.failures
                and plain.digests == traced.digests,
                "2-worker farm: traced and untraced TL digests identical")
    spans = record["spans"]
    farm = [s for s in spans if s["name"] == "parallel.frequency_farm"]
    marches = [s for s in spans if s["name"] == "marching.run_frequency"]
    traced_pid = spans[-1]["pid"]
    ok &= check(len(farm) == 1 and len(marches) == len(FREQUENCIES)
                and all(s["parent"] == farm[0]["id"] and s["pid"] != traced_pid
                        for s in marches),
                "2-worker farm: every frequency's spans came back from a worker")
    shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
