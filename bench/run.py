"""The pe3d benchmark: time ``pe3d run`` on a seeded workload and check it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it builds nothing and runs pe3d from
the checkout's ``src``.  Workloads and metrics are described in
``bench/README.md``.

``--trace 0`` times untraced samples.  Each sample is one fresh
``python -m pe3d run`` process on the generated config; ``os.wait4``
gives its wall time, CPU time and peak RSS, farm workers included.
Samples repeat while another one still fits in ``--seconds``, and each
metric is the median over them.
``setup_s`` is the median of several fresh interpreters that import pe3d
and load the config.

``--trace 1`` times one untraced sample and then one traced run
(``bench/traced_run.py``), and reports the per-layer metrics.  On
``medium-threads`` it also makes an untimed one-thread reference run
unless the ``medium`` bits of the seed are already recorded.

Every run's TL files are checked from outside: manifest status, SHA-256,
sample count and finiteness, and bitwise agreement with every other run
of the same frequency (other samples, the traced run, and earlier runs
recorded under ``.bench_work/digests``).  ``medium-threads`` must match
the one-thread ``medium`` bits of the same seed.

The last line of stdout is one JSON object: ``correct``, ``attempted``
and ``failed`` (frequencies marched and failed, over all runs) and
``metrics``.  Everything else, with the execution environment, goes to
the human-readable lines above it and to ``.bench_work/<run>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 7
DEADLINE_S = 170.0  # the whole benchmark run must end within 180 s
BINARY_MAGIC = b"PE3DTLG1"
SETUP_CODE = ("import sys, pe3d; from pe3d.config import load_config; "
              "load_config(sys.argv[1])")


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class PeRun:
    """One pe3d process: how it ran and what its TL files contain."""

    label: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    digests: dict = field(default_factory=dict)    # frequency -> sha256
    failures: dict = field(default_factory=dict)   # frequency -> reason


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # The generated config alone decides threads and workers.
    env.pop("PE3D_THREADS", None)
    env.pop("PE3D_WORKERS", None)
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(argv, log_path: Path, deadline: float):
    """Run ``argv`` to completion; returns (wall s, cpu s, peak RSS MB,
    exit code).  The rusage of ``wait4`` covers the process and every
    descendant it waited for.  Past ``deadline`` the process group is
    killed."""
    with open(log_path, "ab") as log:
        begin = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT, start_new_session=True)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                                _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - begin
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode)


def _check_binary(data: bytes, shape: tuple) -> str | None:
    import numpy as np

    if data[:8] != BINARY_MAGIC:
        return "not a TL grid file"
    (blob_len,) = struct.unpack("<Q", data[8:16])
    header = json.loads(data[16:16 + blob_len])
    got = (header["n_range_samples"], header["n_azimuth"], header["n_depth"])
    if got != shape:
        return f"grid {got} != expected {shape}"
    tl = np.frombuffer(data[16 + blob_len:], dtype="<f8")
    if tl.size != shape[0] * shape[1] * shape[2]:
        return f"{tl.size} samples, expected {shape[0] * shape[1] * shape[2]}"
    if not np.isfinite(tl).all():
        return "non-finite TL"
    return None


def _check_csv(data: bytes, shape: tuple) -> str | None:
    body_at = 0
    while data.startswith(b"#", body_at):
        body_at = data.index(b"\n", body_at) + 1
    if f"# n_range_samples={shape[0]}\n".encode() not in data[:body_at]:
        return f"header does not declare {shape[0]} range samples"
    body = data[body_at:]
    rows = body.count(b"\n")
    if rows != shape[0] * shape[1] * shape[2]:
        return f"{rows} rows, expected {shape[0] * shape[1] * shape[2]}"
    if b"nan" in body or b"inf" in body:
        return "non-finite TL"
    return None


def check_outputs(run: PeRun, outdir: Path, frequencies, shape: tuple) -> None:
    """Fill ``run.digests`` and ``run.failures`` from the files in ``outdir``."""
    try:
        with open(outdir / "run_manifest.json") as fh:
            entries = {e["frequency_hz"]: e for e in json.load(fh)["frequencies"]}
    except (OSError, ValueError, KeyError) as exc:
        entries = {}
        reason = f"no manifest ({type(exc).__name__}), exit code {run.exit_code}"
    else:
        reason = "missing from manifest"
    for freq in frequencies:
        entry = entries.get(freq)
        if entry is None or entry.get("status") != "ok":
            run.failures[freq] = entry.get("message", "status not ok") if entry else reason
            continue
        data = (outdir / entry["file"]).read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        check = _check_csv if entry["file"].endswith(".csv") else _check_binary
        problem = check(data, shape)
        if digest != entry["sha256"]:
            problem = "manifest SHA-256 differs from the file"
        if problem:
            run.failures[freq] = problem
        else:
            run.digests[freq] = digest


class Case:
    """One workload at one seed, with its scratch directory."""

    def __init__(self, name: str, seed: int, trace: int, deadline: float):
        self.workload = workloads.WORKLOADS[name]
        self.seed = seed
        self.deadline = deadline
        self.dir = WORK / f"{name}-s{seed}-t{trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.config = self._write("config.ini", workloads.config_text(name, seed))
        self.frequencies = self._frequencies(self.config)
        w = self.workload
        self.shape = (w.n_range // w.stride + 1, w.n_azimuth, w.n_depth)
        self.runs: list[PeRun] = []

    def _write(self, name: str, text: str) -> Path:
        path = self.dir / name
        path.write_text(text)
        return path

    @staticmethod
    def _frequencies(config: Path) -> list[float]:
        for line in config.read_text().splitlines():
            if line.startswith("frequencies = "):
                return [float(f) for f in line.split("=", 1)[1].split(",")]
        raise HarnessError(f"{config}: no frequencies")

    def pe3d_run(self, label: str, config: Path, traced: bool = False) -> PeRun:
        outdir = self.dir / label
        if traced:
            argv = [sys.executable, str(HERE / "traced_run.py"), str(config),
                    str(outdir), str(self.dir / "spans.json")]
        else:
            argv = [sys.executable, "-m", "pe3d", "run", "--config", str(config),
                    "--output", str(outdir)]
        run = PeRun(label, *run_process(argv, self.dir / "pe3d.log", self.deadline))
        check_outputs(run, outdir, self._frequencies(config), self.shape)
        shutil.rmtree(outdir, ignore_errors=True)
        self.runs.append(run)
        return run

    def samples(self, seconds: float) -> list[PeRun]:
        """Untraced samples while another still fits in ``seconds``."""
        begin = time.monotonic()
        samples = []
        while True:
            samples.append(self.pe3d_run(f"sample{len(samples) + 1}", self.config))
            typical = statistics.median(s.wall_s for s in samples)
            now = time.monotonic()
            if now - begin + typical > seconds or now + typical > self.deadline:
                return samples

    def setup_seconds(self) -> list[float]:
        """Fresh interpreters importing pe3d and loading the config; one
        untimed warm-up first, so bytecode caches exist as for a user."""
        argv = [sys.executable, "-c", SETUP_CODE, str(self.config)]
        log = self.dir / "setup.log"
        walls = []
        for i in range(SETUP_REPEATS + 1):
            wall, _, _, code = run_process(argv, log, self.deadline)
            if code != 0:
                raise HarnessError(f"setup run failed, see {log}")
            if i:
                walls.append(wall)
        return walls

    def reference_run(self) -> None:
        """medium-threads: make sure the one-thread bits are known."""
        store = self.load_store()
        if self.workload.name == "medium-threads" and any(
                str(f) not in store for f in self.frequencies):
            config = self._write("reference.ini", workloads.reference_text(self.seed))
            self.pe3d_run("reference", config)

    # Digests of earlier runs of the same family and seed.
    def _store_path(self) -> Path:
        return WORK / "digests" / f"{self.workload.family}-s{self.seed}.json"

    def load_store(self) -> dict:
        try:
            return json.loads(self._store_path().read_text())
        except (OSError, ValueError):
            return {}

    def judge(self) -> tuple[int, int, dict]:
        """Count attempted and failed frequencies over every run, and the
        agreed digest per frequency.  A run's frequency fails if its
        checks failed or its digest differs from the first recorded one."""
        agreed = self.load_store()
        attempted = failed = 0
        for run in self.runs:
            for freq in sorted(run.digests.keys() | run.failures.keys()):
                attempted += 1
                digest = run.digests.get(freq)
                if digest is None:
                    failed += 1
                    continue
                first = agreed.setdefault(str(freq), digest)
                if digest != first:
                    run.failures[freq] = f"SHA-256 {digest[:12]} differs from {first[:12]}"
                    failed += 1
        if failed == 0:
            path = self._store_path()
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(agreed, indent=1, sort_keys=True))
        return attempted, failed, agreed


def _read_text(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _git_commit() -> str | None:
    head = _read_text(ROOT / ".git" / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read_text(ROOT / ".git" / ref)
    if loose:
        return loose
    for line in (_read_text(ROOT / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _cpu_model() -> str | None:
    for line in (_read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _last_level_cache() -> str | None:
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read_text(index / "level"), _read_text(index / "size")
        if level and size and (best is None or int(level) >= best[0]):
            best = (int(level), size)
    return f"L{best[0]} {best[1]}" if best else None


def environment_record() -> dict:
    import numpy
    import pe3d
    from pe3d.pool import physical_core_count

    if Path(pe3d.__file__).resolve().parent != SRC / "pe3d":
        raise HarnessError(f"pe3d imported from {pe3d.__file__}, not {SRC}")
    return {
        "git_commit": _git_commit(),
        "pe3d_version": pe3d.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "logical_cores": os.cpu_count(),
        "physical_cores": physical_core_count(),
        "cpu_model": _cpu_model(),
        "last_level_cache": _last_level_cache(),
        "start_method": multiprocessing.get_start_method(),
        "platform": platform.platform(),
    }


def end_to_end_metrics(case: Case, samples: list[PeRun], setup: list[float]) -> dict:
    run_s = statistics.median(s.wall_s for s in samples)
    gps = case.workload.grid_point_steps(len(case.frequencies))
    return {
        "run_s": (run_s, "s"),
        "grid_point_steps_per_s": (gps / run_s, "1/s"),
        "cpu_s": (statistics.median(s.cpu_s for s in samples), "s"),
        "peak_rss_mb": (statistics.median(s.peak_rss_mb for s in samples), "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def benchmark(name: str, seed: int, seconds: float, trace: int, deadline: float):
    case = Case(name, seed, trace, deadline)
    env = environment_record()
    print(f"workload {name} seed {seed}: frequencies {case.frequencies} Hz, "
          f"grid {case.shape}, trace {trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    record = {"workload": name, "seed": seed, "trace": trace, "environment": env,
              "config": case.config.read_text()}

    if trace:
        untraced = case.samples(0.0)
        traced = case.pe3d_run("traced", case.config, traced=True)
        case.reference_run()
        if traced.exit_code != 0:
            raise HarnessError(f"traced run exited {traced.exit_code}, see {case.dir}")
        spans = json.loads((case.dir / "spans.json").read_text())
        if not spans["restored"]:
            raise HarnessError("a traced function was not restored")
        metrics = layers.per_layer_metrics(spans, traced.wall_s,
                                           statistics.median(s.wall_s for s in untraced))
        shares = layers.layer_self_seconds(spans["spans"])
        busy = sum(shares.values())
        print("layer self time: " + ", ".join(
            f"{k} {v:.3f} s ({100 * v / busy:.1f}%)"
            for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    else:
        setup = case.setup_seconds()
        samples = case.samples(seconds)
        metrics = end_to_end_metrics(case, samples, setup)
        record["setup_s"] = setup

    attempted, failed, digests = case.judge()
    for run in case.runs:
        print(f"{run.label}: wall {run.wall_s:.4f} s, cpu {run.cpu_s:.4f} s, "
              f"peak RSS {run.peak_rss_mb:.1f} MB, exit {run.exit_code}"
              + "".join(f"\n  FAILED {f:g} Hz: {why}" for f, why in run.failures.items()))
    if not trace:
        print(f"medians over {len(samples)} sample(s); setup_s over {len(setup)} interpreters")
    for metric, (value, unit) in metrics.items():
        print(f"{metric:32s} {value:>16.6g} {unit}")
    print(f"{'failed_frac':32s} {failed / attempted:>16.6g}  ({failed}/{attempted} frequencies)")
    workload_digest = hashlib.sha256(" ".join(
        digests[str(f)] for f in case.frequencies if str(f) in digests).encode()).hexdigest()
    print(f"TL digest {workload_digest}")

    record.update(
        runs=[vars(r) | {"digests": {str(k): v for k, v in r.digests.items()},
                         "failures": {str(k): v for k, v in r.failures.items()}}
              for r in case.runs],
        tl_digests={str(f): digests.get(str(f)) for f in case.frequencies},
        tl_digest=workload_digest,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        attempted=attempted, failed=failed,
    )
    (case.dir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not (SRC / "pe3d" / "__init__.py").is_file():
            raise HarnessError(f"no pe3d sources under {SRC}")
        sys.path.insert(0, str(SRC))
        result = benchmark(args.workload, args.seed, args.seconds, args.trace, deadline)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
