"""Transmission-loss grid files and run manifests.

TL CSV layout: header lines prefixed ``#`` holding ``key=value`` pairs
(the last one lists the column names), then one
``range_m,azimuth_deg,depth_m,tl_db`` row per sample in (range, azimuth,
depth) order.

The binary grid is the same data without text overhead: an 8-byte magic,
a little-endian uint64 header length, a JSON header, then the raw
little-endian float64 samples in C order (range x azimuth x depth).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .environment import Grid3D
from .errors import ConfigError
from .marching import FrequencyResult

BINARY_MAGIC = b"PE3DTLG1"
TL_BINARY_DTYPE = np.dtype("<f8")
MANIFEST_NAME = "run_manifest.json"
TL_CSV_COLUMNS = ("range_m", "azimuth_deg", "depth_m", "tl_db")


def tl_filename(frequency: float, tl_format: str) -> str:
    return f"tl_{frequency:012.4f}Hz.{TL_FORMATS[tl_format][0]}"


def _tl_header(result: FrequencyResult, grid: Grid3D) -> dict:
    return {
        "frequency_hz": result.frequency,
        "n_range_samples": int(result.tl_field.shape[0]),
        "n_azimuth": grid.n_azimuth,
        "n_depth": grid.n_depth,
        "delta_r_m": grid.delta_r,
        "delta_theta_deg": math.degrees(grid.delta_theta),
        "delta_z_m": grid.delta_z,
        "r_start_m": grid.r_start,
        "output_stride": result.output_stride,
        "azimuth_topology": grid.azimuth_topology,
        "clamped_samples": result.clamped_samples,
        "units": "dB re 1 at 1 m",
    }


def write_tl_csv(path, result: FrequencyResult, grid: Grid3D) -> Path:
    path = Path(path)
    header = _tl_header(result, grid)
    s, m, l = result.tl_field.shape
    ranges = np.repeat(result.ranges, m * l)
    azimuths = np.tile(np.repeat(np.degrees(grid.azimuths()), l), s)
    depths = np.tile(grid.depths(), s * m)
    table = np.column_stack([ranges, azimuths, depths, result.tl_field.ravel()])
    lines = [f"# {key}={value}" for key, value in header.items()]
    lines.append("# columns=" + ",".join(TL_CSV_COLUMNS))
    np.savetxt(path, table, fmt="%.6f,%.6f,%.6f,%.6f",
               header="\n".join(lines), comments="")
    return path


def _grid_shape(path, header) -> tuple:
    """(range samples, azimuths, depths) from a TL file's header."""
    shape = []
    for key in ("n_range_samples", "n_azimuth", "n_depth"):
        try:
            count = int(header[key])
        except (KeyError, TypeError, ValueError):
            count = -1  # missing, or not a count
        if count < 0:
            raise ConfigError(f"{path}: TL grid header has no valid {key}")
        shape.append(count)
    return tuple(shape)


def _csv_header_value(text: str):
    """A CSV header value as the type ``_tl_header`` wrote: a number is
    read back as JSON reads it, anything else stays text."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def read_tl_csv(path):
    """(header, TL grid) of a CSV TL file; ``ConfigError`` if damaged.

    The header holds the keys and value types of the binary file's, with
    ``ranges_m`` read from the range column (to its 6 decimals), plus
    ``columns``."""
    header = {}
    try:
        with open(path, encoding="utf-8") as fh:
            data_start = 0
            for line in fh:
                if not line.startswith("#"):
                    break
                data_start += 1
                body = line[1:].strip()
                if "=" in body:
                    key, value = body.split("=", 1)
                    header[key.strip()] = _csv_header_value(value.strip())
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not a TL CSV file: {exc}") from None
    shape = _grid_shape(path, header)
    try:
        table = np.loadtxt(path, delimiter=",", skiprows=data_start)
        tl = table[:, 3].reshape(shape)
        header["ranges_m"] = table[::shape[1] * shape[2], 0].tolist()
        return header, tl
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"{path}: TL table does not match its header: "
                          f"{exc}") from None


def write_tl_binary(path, result: FrequencyResult, grid: Grid3D) -> Path:
    path = Path(path)
    header = _tl_header(result, grid)
    header["ranges_m"] = [float(r) for r in result.ranges]
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    data = np.ascontiguousarray(result.tl_field, dtype=TL_BINARY_DTYPE)
    with open(path, "wb") as fh:
        fh.write(BINARY_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(data)  # through the buffer protocol, no copy
    return path


def read_tl_binary(path):
    """(header, TL grid) of a binary TL file; ``ConfigError`` if damaged."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(BINARY_MAGIC):
        raise ConfigError(f"{path}: not a TL grid file")
    start = len(BINARY_MAGIC) + 8
    try:
        (header_len,) = struct.unpack_from("<Q", blob, len(BINARY_MAGIC))
        header = json.loads(blob[start:start + header_len])
    except (struct.error, ValueError) as exc:
        raise ConfigError(f"{path}: unreadable TL grid header: {exc}") from None
    shape = _grid_shape(path, header)
    data = memoryview(blob)[start + header_len:]
    expected = math.prod(shape)
    if len(data) != 8 * expected:
        raise ConfigError(
            f"{path}: TL grid holds {len(data) / 8:g} samples, "
            f"header expects {expected}"
        )
    return header, np.frombuffer(data, dtype=TL_BINARY_DTYPE).reshape(shape)


# Each TL format's file extension and writer.
TL_FORMATS = {"csv": ("csv", write_tl_csv), "binary-grid": ("bin", write_tl_binary)}


def _replace_with(path, write) -> Path:
    """Call ``write(temp)`` for a hidden file beside ``path``, then move it
    to ``path``; on any error the temporary file is removed, so ``path``
    is either left as it was or holds the whole file."""
    path = Path(path)
    temp = path.with_name(f".{path.name}.partial")
    try:
        write(temp)
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return path


def write_tl_grid(path, result: FrequencyResult, grid: Grid3D,
                  tl_format: str) -> Path:
    """Write one TL grid file whole, or raise ``OSError`` and leave none."""
    writer = TL_FORMATS[tl_format][1]
    return _replace_with(path, lambda temp: writer(temp, result, grid))


def file_sha256(path) -> str:
    """SHA-256 of a file, read through one reused 256 KiB buffer."""
    digest = hashlib.sha256()
    buffer = bytearray(1 << 18)
    view = memoryview(buffer)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buffer):
            digest.update(view[:n])
    return digest.hexdigest()


def write_manifest(directory, manifest: dict) -> Path:
    def write(temp):
        with open(temp, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")

    return _replace_with(Path(directory) / MANIFEST_NAME, write)


def remove_manifest(directory) -> None:
    """Remove the manifest an earlier run left in ``directory``, so that
    none lies beside TL files it does not describe.  Anything but a
    directory in its place goes; ``write_manifest`` reports a directory."""
    path = Path(directory) / MANIFEST_NAME
    if not path.is_dir():
        path.unlink(missing_ok=True)


def load_manifest(directory) -> dict:
    """The run manifest in ``directory``; ``ConfigError`` if damaged."""
    path = Path(directory) / MANIFEST_NAME
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ConfigError(f"{path}: unreadable run manifest: {exc}") from None
