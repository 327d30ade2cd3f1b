"""Command-line front end: run simulations and the selftest.

A flag of ``pe3d run`` overrides its key in the config's [run] section:
its argparse ``dest`` is that ``RunOptions`` field.
"""

from __future__ import annotations

import argparse
import dataclasses
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
    grid_fields,
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

    entries = {}  # input index -> manifest entry, written or failed

    def deliver(index, status, payload):
        frequency = config.source.frequencies[index]
        entry = entries[index] = {"frequency_hz": frequency, "status": status}
        if status == "ok":
            name = entry["file"] = tl_filename(frequency, options.tl_format)
            try:
                path = write_tl_grid(outdir / name, payload, config.grid,
                                     options.tl_format)
                entry["sha256"] = file_sha256(path)
            except OSError as exc:
                status = entry["status"] = "error"
                payload = f"cannot write {name}: {exc.strerror or exc}"
        if status != "ok":
            entry["message"] = payload
            print(f"frequency {frequency:g} Hz FAILED: {payload}",
                  file=sys.stderr)
            return
        entry.update(wall_seconds=payload.wall_seconds,
                     clamped_samples=payload.clamped_samples,
                     output_stride=payload.output_stride)
        print(f"frequency {frequency:g} Hz -> {name} "
              f"({payload.wall_seconds:.2f} s, {payload.clamped_samples} clamped)",
              flush=True)

    frequency_farm(config, deliver=deliver)

    manifest = {
        "command": "run",
        "package_version": __version__,
        "created_unix": time.time(),
        "config_path": str(Path(args.config).resolve()),
        "config_sha256": config_sha256,
        "grid": {"n_range": config.grid.n_range, **grid_fields(config.grid)},
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
        "frequencies": [entries[index] for index in sorted(entries)],
    }
    try:
        write_manifest(outdir, manifest)
    except OSError as exc:
        print(f"error: cannot write the run manifest in {outdir}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0 if all(e["status"] == "ok" for e in entries.values()) else 1


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
