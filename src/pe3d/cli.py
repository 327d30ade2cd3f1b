"""Command-line front end: run simulations, benchmarks, and the selftest.

Thread and worker counts resolve as: CLI flag > environment variable
(PE3D_THREADS / PE3D_WORKERS) > config [run] section > 1.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time
from pathlib import Path

from . import __version__
from .config import load_config
from .errors import ConfigError, InvariantError, Pe3dError
from .output import (
    file_sha256,
    tl_filename,
    write_manifest,
    write_timing_csv,
    write_tl_grid,
)
from .parallel import (
    FARM_START_METHOD,
    frequency_farm,
    kernel_throughput,
    scaling_harness,
)
from .pool import ExecutorSpec
from .selftest import run_selftest

ENV_THREADS = "PE3D_THREADS"
ENV_WORKERS = "PE3D_WORKERS"

KERNEL_BENCH_BATCHES = (1, 16, 64, 256, 1024)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pe3d",
        description="3-D wide-angle parabolic-equation solver and benchmark harness",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="march the configured frequencies and write TL grids")
    run.add_argument("--config", required=True, help="config file path")
    run.add_argument("--threads", type=int, help="intra-step threads")
    run.add_argument("--workers", type=int, help="frequency workers")
    run.add_argument("--output", help="output directory (overrides config)")
    run.add_argument("--stride", type=int, help="range output stride")
    run.add_argument("--format", choices=("csv", "binary-grid"), dest="tl_format")

    bench = sub.add_parser("bench", help="scaling sweep plus kernel micro-benchmark")
    bench.add_argument("--config", required=True)
    bench.add_argument("--threads-sweep", default="1", help="comma list, e.g. 1,2,4")
    bench.add_argument("--workers-sweep", default="1", help="comma list, e.g. 1,2,4")
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument("--no-warmup", action="store_true")
    bench.add_argument("--output", help="report directory (overrides config)")

    selftest = sub.add_parser("selftest", help="run the bundled invariant suite")
    selftest.add_argument("--corrupt-thomas", action="store_true",
                          help=argparse.SUPPRESS)
    return parser


def _env_int(name):
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"environment variable {name}={raw!r} is not an integer")


def _resolve_executor(options, args) -> ExecutorSpec:
    threads = options.executor.intra_threads
    workers = options.executor.freq_workers
    env_threads, env_workers = _env_int(ENV_THREADS), _env_int(ENV_WORKERS)
    if env_threads is not None:
        threads = env_threads
    if env_workers is not None:
        workers = env_workers
    if getattr(args, "threads", None) is not None:
        threads = args.threads
    if getattr(args, "workers", None) is not None:
        workers = args.workers
    return ExecutorSpec(intra_threads=threads, freq_workers=workers)


def _parse_sweep(text: str, flag: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"{flag}: expected a comma list of integers, got {text!r}")
    if not values or min(values) < 1:
        raise ConfigError(f"{flag}: counts must be >= 1")
    return values


def _make_output_dir(outdir: Path) -> bool:
    """Create ``outdir``; on failure report a config error and return False."""
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: output_dir not writable: {exc}", file=sys.stderr)
        return False
    return True


def cmd_run(args) -> int:
    try:
        config = load_config(args.config)
        executor = _resolve_executor(config.options, args)
        options = dataclasses.replace(
            config.options,
            output_dir=Path(args.output) if args.output else config.options.output_dir,
            output_stride=args.stride if args.stride is not None
            else config.options.output_stride,
            tl_format=args.tl_format or config.options.tl_format,
            executor=executor,
        )
    except (ConfigError, InvariantError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    config = config._replace(options=options)
    outdir = options.output_dir
    if not _make_output_dir(outdir):
        return 2

    report = frequency_farm(
        config, config.source.frequencies,
        workers=executor.freq_workers, intra_threads=executor.intra_threads,
    )

    entries = []
    for index, frequency in enumerate(config.source.frequencies):
        result = report.results[index]
        if result is None:
            continue
        name = tl_filename(frequency, options.tl_format)
        path = write_tl_grid(outdir / name, result, config.grid, options.tl_format)
        entries.append({
            "frequency_hz": frequency,
            "status": "ok",
            "file": name,
            "sha256": file_sha256(path),
            "wall_seconds": result.wall_seconds,
            "clamped_samples": result.clamped_samples,
            "output_stride": result.output_stride,
        })
        print(f"frequency {frequency:g} Hz -> {name} "
              f"({result.wall_seconds:.2f} s, {result.clamped_samples} clamped)")
    for failure in report.failures:
        entries.append({
            "frequency_hz": failure.frequency,
            "status": "error",
            "message": failure.message,
        })
        print(f"frequency {failure.frequency:g} Hz FAILED: {failure.message}",
              file=sys.stderr)

    grid = config.grid
    manifest = {
        "command": "run",
        "package_version": __version__,
        "created_unix": time.time(),
        "config_path": str(Path(args.config).resolve()),
        "config_sha256": file_sha256(args.config),
        "grid": {
            "n_range": grid.n_range,
            "n_azimuth": grid.n_azimuth,
            "n_depth": grid.n_depth,
            "delta_r_m": grid.delta_r,
            "delta_theta_deg": math.degrees(grid.delta_theta),
            "delta_z_m": grid.delta_z,
            "r_start_m": grid.r_start,
            "azimuth_topology": grid.azimuth_topology,
        },
        "executor": {
            "intra_threads": executor.intra_threads,
            "freq_workers": executor.freq_workers,
            # None: the frequencies ran in this process.
            "start_method": FARM_START_METHOD if executor.freq_workers > 1
            else None,
        },
        "tl_format": options.tl_format,
        "frequencies": entries,
    }
    write_manifest(outdir, manifest)
    return 0 if report.ok else 1


def _render_bench_summary(records, kernel_entries) -> str:
    lines = ["scaling sweep (baseline t1w1):",
             f"{'label':>8} {'threads':>7} {'workers':>7} {'wall_s':>10} "
             f"{'speedup':>8} {'efficiency':>10}"]
    for rec in records:
        if rec.error is not None:
            lines.append(f"{rec.label:>8} {rec.intra_threads:>7} "
                         f"{rec.freq_workers:>7} {'-':>10} {'-':>8} {'-':>10}  "
                         f"VOID: {rec.error}")
        else:
            lines.append(
                f"{rec.label:>8} {rec.intra_threads:>7} {rec.freq_workers:>7} "
                f"{rec.wall_seconds:>10.4f} {rec.speedup:>8.3f} "
                f"{rec.efficiency:>10.3f}"
            )
    lines.append("")
    lines.append("tri-diagonal kernel micro-benchmark:")
    lines.append(f"{'batch':>8} {'n':>6} {'seconds':>12} {'systems/s':>14}")
    for entry in kernel_entries:
        lines.append(
            f"{entry['batch_size']:>8} {entry['n']:>6} "
            f"{entry['seconds']:>12.6f} {entry['systems_per_second']:>14.1f}"
        )
    return "\n".join(lines) + "\n"


def cmd_bench(args) -> int:
    try:
        config = load_config(args.config)
        threads_sweep = _parse_sweep(args.threads_sweep, "--threads-sweep")
        workers_sweep = _parse_sweep(args.workers_sweep, "--workers-sweep")
        if args.repeats < 1:
            raise ConfigError("--repeats must be >= 1")
    except (ConfigError, InvariantError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    outdir = Path(args.output) if args.output else config.options.output_dir
    if not _make_output_dir(outdir):
        return 2

    records = scaling_harness(
        config, threads_sweep, workers_sweep,
        repeats=args.repeats, warmup=not args.no_warmup,
    )
    write_timing_csv(outdir / "timing.csv", records)

    kernel_entries = kernel_throughput(KERNEL_BENCH_BATCHES)
    with open(outdir / "kernel_bench.csv", "w") as fh:
        fh.write("batch_size,n,seconds,systems_per_second\n")
        for entry in kernel_entries:
            fh.write(f"{entry['batch_size']},{entry['n']},"
                     f"{entry['seconds']:.6f},{entry['systems_per_second']:.1f}\n")

    summary = _render_bench_summary(records, kernel_entries)
    (outdir / "bench_summary.txt").write_text(summary)
    print(summary, end="")
    return 0


def cmd_selftest(args) -> int:
    return 0 if run_selftest(corrupt_thomas=args.corrupt_thomas) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "bench":
            return cmd_bench(args)
        return cmd_selftest(args)
    except Pe3dError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
