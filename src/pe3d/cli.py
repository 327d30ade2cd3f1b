"""Command-line front end: run simulations and the selftest.

A flag of ``pe3d run`` overrides its key in the config's [run] section:
its argparse ``dest`` is that ``RunOptions`` field.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunOptions, load_config
from .errors import ConfigError, InvariantError, Pe3dError
from .output import (
    TL_FORMATS,
    file_sha256,
    remove_manifest,
    tl_filename,
    write_manifest,
    write_tl_grid,
)
from .parallel import FARM_START_METHOD, frequency_farm
from .pool import physical_core_count
from .selftest import run_selftest


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pe3d",
        description="3-D wide-angle parabolic-equation solver",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="march the configured frequencies and write TL grids")
    run.add_argument("--config", required=True, help="config file path")
    run.add_argument("--threads", type=int, help="intra-step threads")
    run.add_argument("--workers", type=int, help="frequency workers")
    run.add_argument("--output", type=Path, dest="output_dir",
                     help="output directory")
    run.add_argument("--stride", type=int, dest="output_stride",
                     help="range output stride")
    run.add_argument("--format", choices=TL_FORMATS, dest="tl_format")

    selftest = sub.add_parser("selftest", help="run the bundled invariant suite")
    selftest.add_argument("--corrupt-thomas", action="store_true",
                          help=argparse.SUPPRESS)
    return parser


def cmd_run(args) -> int:
    try:
        config = load_config(args.config)
        # Hashed now: the file may change or go while the run goes.
        config_sha256 = file_sha256(args.config)
        options = dataclasses.replace(config.options, **{
            field.name: getattr(args, field.name)
            for field in dataclasses.fields(RunOptions)
            if getattr(args, field.name, None) is not None})
        written = {}
        for frequency in config.source.frequencies:
            name = tl_filename(frequency, options.tl_format)
            if name in written:
                raise ConfigError(f"frequencies {written[name]} and {frequency}"
                                  f" Hz would both write {name}")
            written[name] = frequency
    except (ConfigError, InvariantError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    config = dataclasses.replace(config, options=options)
    outdir = options.output_dir
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        # A manifest describes the run that wrote it: an earlier run's
        # goes before this run writes its first TL file.
        remove_manifest(outdir)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        print(f"config error: output_dir not writable: {str(outdir)!r}: {exc}",
              file=sys.stderr)
        return 2

    delivered = {}  # input index -> manifest entry, written or failed

    def deliver(index, result):
        frequency = result.frequency
        name = tl_filename(frequency, options.tl_format)
        try:
            path = write_tl_grid(outdir / name, result, config.grid,
                                 options.tl_format)
            digest = file_sha256(path)
        except OSError as exc:
            message = f"cannot write {name}: {exc.strerror or exc}"
            delivered[index] = {"frequency_hz": frequency, "status": "error",
                                "file": name, "message": message}
            print(f"frequency {frequency:g} Hz FAILED: {message}",
                  file=sys.stderr)
            return
        delivered[index] = {
            "frequency_hz": frequency,
            "status": "ok",
            "file": name,
            "sha256": digest,
            "wall_seconds": result.wall_seconds,
            "clamped_samples": result.clamped_samples,
            "output_stride": result.output_stride,
        }
        print(f"frequency {frequency:g} Hz -> {name} "
              f"({result.wall_seconds:.2f} s, {result.clamped_samples} clamped)",
              flush=True)

    report = frequency_farm(config, deliver=deliver)

    ok = report.ok and all(e["status"] == "ok" for e in delivered.values())
    entries = [delivered[index] for index in sorted(delivered)]
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
        "config_sha256": config_sha256,
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
            "intra_threads": options.threads,
            "freq_workers": options.workers,
            # None: the frequencies ran in this process.
            "start_method": FARM_START_METHOD if options.workers > 1 else None,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "logical_cores": os.cpu_count(),
            "physical_cores": physical_core_count(),
        },
        "tl_format": options.tl_format,
        "frequencies": entries,
    }
    try:
        write_manifest(outdir, manifest)
    except OSError as exc:
        print(f"error: cannot write the run manifest in {outdir}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


def cmd_selftest(args) -> int:
    return 0 if run_selftest(corrupt_thomas=args.corrupt_thomas) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args)
        return cmd_selftest(args)
    except Pe3dError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
