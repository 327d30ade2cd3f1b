import argparse
import dataclasses
import math
import os
import platform
import re
import struct
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pe3d
import pe3d.cli as cli
import pe3d.marching as marching
import pe3d.parallel as parallel
from conftest import fail_second_fork, make_config, make_grid
from pe3d.cli import main
from pe3d.config import RunOptions, load_config
from pe3d.environment import PERIODIC, SECTOR, Grid3D, wavenumber
from pe3d.errors import ConfigError
from pe3d.marching import FrequencyResult, run_frequency
from pe3d.output import (
    BINARY_MAGIC,
    MANIFEST_NAME,
    TL_CSV_COLUMNS,
    file_sha256,
    load_manifest,
    read_tl_binary,
    read_tl_csv,
    tl_filename,
    write_tl_binary,
    write_tl_csv,
)

CONFIG_TEXT = """\
[grid]
n_range = 6
n_azimuth = 8
n_depth = 24
delta_r = 5.0
delta_theta = 45.0
delta_z = 6.0

[environment]
c0 = 1500.0
sound_speed = 1500.0

[source]
frequencies = {frequencies}
depth = 60.0

[run]
output_stride = 2
tl_format = {fmt}
"""


def write_cfg(tmp_path, frequencies="50.0", fmt="csv", name="run.ini"):
    path = tmp_path / name
    path.write_text(CONFIG_TEXT.format(frequencies=frequencies, fmt=fmt))
    return path


@pytest.fixture
def small_result():
    config = make_config(n_range=6, n_azimuth=8, n_depth=24, delta_z=6.0,
                         options=RunOptions(output_stride=2))
    return config, run_frequency(config, 50.0)


class TestTLFiles:
    def test_csv_round_trip(self, tmp_path, small_result):
        config, result = small_result
        path = write_tl_csv(tmp_path / "tl.csv", result, config.grid)
        header, tl = read_tl_csv(path)
        assert float(header["frequency_hz"]) == 50.0
        assert int(header["n_range_samples"]) == result.tl_field.shape[0]
        assert int(header["clamped_samples"]) == result.clamped_samples
        assert "columns" in header
        np.testing.assert_allclose(tl, result.tl_field, atol=1e-6)

    def test_csv_header_and_row_format(self, tmp_path, small_result):
        config, result = small_result
        path = write_tl_csv(tmp_path / "tl.csv", result, config.grid)
        lines = path.read_text().splitlines()
        header_lines = [ln for ln in lines if ln.startswith("#")]
        data_lines = [ln for ln in lines if not ln.startswith("#")]
        assert any(ln.startswith("# frequency_hz=") for ln in header_lines)
        assert len(data_lines) == result.tl_field.size
        assert len(data_lines[0].split(",")) == 4

    def test_binary_round_trip_exact(self, tmp_path, small_result):
        config, result = small_result
        path = write_tl_binary(tmp_path / "tl.bin", result, config.grid)
        header, tl = read_tl_binary(path)
        assert np.array_equal(tl, result.tl_field)
        assert header["frequency_hz"] == 50.0
        assert header["ranges_m"] == [float(r) for r in result.ranges]

    def test_binary_samples_little_endian(self, tmp_path, small_result):
        # the same file from native and big-endian grids: magic, header
        # length, header, then the samples as little-endian float64
        config, result = small_result
        path = write_tl_binary(tmp_path / "tl.bin", result, config.grid)
        swapped = dataclasses.replace(
            result, tl_field=result.tl_field.astype(">f8"))
        other = write_tl_binary(tmp_path / "be.bin", swapped, config.grid)
        blob = path.read_bytes()
        samples = result.tl_field.astype("<f8").tobytes()
        (header_len,) = struct.unpack("<Q", blob[8:16])
        assert blob.startswith(BINARY_MAGIC) and blob.endswith(samples)
        assert len(blob) == 16 + header_len + len(samples)
        assert other.read_bytes() == blob
        _, tl = read_tl_binary(path)
        assert tl.dtype.str == "<f8"
        assert tl.tobytes() == samples

    @pytest.mark.parametrize("change", [-8, -1, 8])
    def test_binary_wrong_sample_count_rejected(self, tmp_path, small_result,
                                                change):
        # one sample short, one byte short, one sample extra
        config, result = small_result
        n = result.tl_field.size
        path = write_tl_binary(tmp_path / "tl.bin", result, config.grid)
        blob = path.read_bytes()
        path.write_bytes(blob[:change] if change < 0 else blob + bytes(change))
        found = f"{n + change / 8:g}"
        with pytest.raises(ConfigError,
                           match=f"holds {found} samples, header expects {n}"):
            read_tl_binary(path)

    @pytest.mark.parametrize("body,message", [
        (b"", "unreadable TL grid header"),  # cut off after the magic
        (struct.pack("<Q", 5) + b"{oops", "unreadable TL grid header"),
        (struct.pack("<Q", 2) + b"{}", "no valid n_range_samples"),
        (struct.pack("<Q", 2) + b"[]", "no valid n_range_samples"),
    ], ids=["truncated", "not-json", "empty-header", "not-an-object"])
    def test_damaged_binary_header_named(self, tmp_path, body, message):
        path = tmp_path / "tl.bin"
        path.write_bytes(BINARY_MAGIC + body)
        with pytest.raises(ConfigError, match=message) as caught:
            read_tl_binary(path)
        assert str(caught.value).startswith(str(path))

    def test_csv_reader_given_a_binary_grid_named(self, tmp_path,
                                                  small_result):
        config, result = small_result
        path = write_tl_binary(tmp_path / "tl.csv", result, config.grid)
        with pytest.raises(ConfigError, match="not a TL CSV file") as caught:
            read_tl_csv(path)
        assert str(caught.value).startswith(str(path))

    @pytest.mark.parametrize("body, message", [
        (b'{"frequencies": [', "unreadable run manifest"),
        (b"\xff\xfe{", "unreadable run manifest"),
        (b"[]", "not a run manifest"),
        (b"{}", "not a run manifest"),
        (b'{"frequencies": {}}', "not a run manifest"),
    ], ids=["truncated", "not-utf8", "list", "no-frequencies",
            "frequencies-not-list"])
    def test_damaged_manifest_named(self, tmp_path, body, message):
        path = tmp_path / MANIFEST_NAME
        path.write_bytes(body)
        with pytest.raises(ConfigError, match=message) as caught:
            load_manifest(tmp_path)
        assert str(caught.value).startswith(str(path))

    def test_missing_manifest_is_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path)

    def test_csv_without_shape_keys_named(self, tmp_path, small_result):
        config, result = small_result
        path = write_tl_csv(tmp_path / "tl.csv", result, config.grid)
        text = path.read_text().replace("# n_azimuth=", "# azimuths=")
        path.write_text(text)
        with pytest.raises(ConfigError, match="no valid n_azimuth") as caught:
            read_tl_csv(path)
        assert str(caught.value).startswith(str(path))

    def test_csv_cut_off_named(self, tmp_path, small_result):
        config, result = small_result
        path = write_tl_csv(tmp_path / "tl.csv", result, config.grid)
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        with pytest.raises(ConfigError, match="does not match its header"):
            read_tl_csv(path)

    def test_csv_header_matches_binary(self, tmp_path, small_result):
        # one run in both formats: the readers give the same header
        config, result = small_result
        csv_header, _ = read_tl_csv(
            write_tl_csv(tmp_path / "tl.csv", result, config.grid))
        binary_header, _ = read_tl_binary(
            write_tl_binary(tmp_path / "tl.bin", result, config.grid))
        assert csv_header.keys() - binary_header.keys() == {"columns"}
        np.testing.assert_allclose(csv_header.pop("ranges_m"),
                                   binary_header.pop("ranges_m"),
                                   rtol=0, atol=5e-7)
        for key, value in binary_header.items():
            assert csv_header[key] == value, key
            assert type(csv_header[key]) is type(value), key

    def test_filename_embeds_frequency(self):
        assert "50" in tl_filename(50.0, "csv")
        assert tl_filename(50.0, "csv").endswith(".csv")
        assert tl_filename(62.5, "binary-grid").endswith(".bin")
        assert tl_filename(50.0, "csv") != tl_filename(62.5, "csv")


# The CSV writer as it was when it formatted a table of the whole grid
# with np.savetxt, verbatim: the format every CSV TL file has had.
def reference_tl_header(result, grid):
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


def reference_write_tl_csv(path, result, grid):
    path = Path(path)
    header = reference_tl_header(result, grid)
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


# Negative zero, a negative that rounds to -0.000000, zero, the 300 dB
# floor, and values above 1000 dB, one of them rounding up at the 6th
# decimal.
TL_SPECIALS = (-0.0, -1e-7, 0.0, 300.0, 1000.0000005, 123456.789)


def hand_built_result(grid, tl, stride=1, frequency=50.0):
    ranges = grid.r_start + stride * grid.delta_r * np.arange(tl.shape[0])
    return FrequencyResult(
        frequency=frequency, ranges=ranges, tl_field=tl,
        clamped_samples=int(np.count_nonzero(tl == 300.0)),
        output_stride=stride, wall_seconds=0.0)


@st.composite
def grids_and_results(draw):
    topology = draw(st.sampled_from((PERIODIC, SECTOR)))
    n_azimuth, n_depth = draw(st.integers(3, 6)), draw(st.integers(3, 9))
    samples, stride = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    delta_theta = 2 * math.pi / n_azimuth if topology == PERIODIC \
        else math.radians(draw(st.floats(0.1, 10.0)))
    grid = Grid3D(
        n_range=max(3, (samples - 1) * stride), n_azimuth=n_azimuth,
        n_depth=n_depth, delta_r=draw(st.floats(0.5, 50.0)),
        delta_theta=delta_theta, delta_z=draw(st.floats(0.5, 20.0)),
        r_start=draw(st.floats(0.5, 100.0)), azimuth_topology=topology)
    shape = (samples, n_azimuth, n_depth)
    values = st.one_of(st.sampled_from(TL_SPECIALS), st.floats(-5.0, 5000.0))
    tl = np.array(draw(st.lists(values, min_size=math.prod(shape),
                                max_size=math.prod(shape)))).reshape(shape)
    tl.flat[:len(TL_SPECIALS)] = TL_SPECIALS
    return grid, hand_built_result(grid, tl, stride,
                                   draw(st.floats(1.0, 500.0)))


class TestCSVWriter:
    @given(grids_and_results())
    @settings(max_examples=60, deadline=None)
    def test_bytes_equal_the_savetxt_writer(self, case):
        grid, result = case
        with tempfile.TemporaryDirectory() as directory:
            path = write_tl_csv(Path(directory) / "tl.csv", result, grid)
            reference = reference_write_tl_csv(
                Path(directory) / "reference.csv", result, grid)
            assert path.read_bytes() == reference.read_bytes()

    def test_peak_does_not_grow_with_range_samples(self, tmp_path):
        # the write holds one depth column's text, not a table of the grid
        grid = make_grid(n_azimuth=16, n_depth=64)
        rng = np.random.default_rng(7)
        peaks = []
        for samples in (2, 32):
            tl = rng.uniform(0.0, 150.0, (samples, 16, 64))
            result = hand_built_result(grid, tl)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                write_tl_csv(tmp_path / "tl.csv", result, grid)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
            finally:
                tracemalloc.stop()
        # 30 more range samples are 240 KB of TL
        assert peaks[1] <= peaks[0] + 4096, peaks


class TestCmdRun:
    def test_single_frequency_smoke(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        outdir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(outdir)]) == 0
        manifest = load_manifest(outdir)
        assert len(manifest["frequencies"]) == 1
        entry = manifest["frequencies"][0]
        assert entry["status"] == "ok"
        tl_path = outdir / entry["file"]
        assert tl_path.exists()
        assert file_sha256(tl_path) == entry["sha256"]

    def test_manifest_grid_is_the_tl_header_grid(self, tmp_path):
        # the grid fields of the TL header, plus the range step count
        cfg = write_cfg(tmp_path)
        outdir = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--output", str(outdir)]) == 0
        manifest = load_manifest(outdir)
        grid = load_config(cfg).grid
        assert manifest["grid"] == {
            "n_range": 6, "n_azimuth": 8, "n_depth": 24, "delta_r_m": 5.0,
            "delta_theta_deg": math.degrees(grid.delta_theta),
            "delta_z_m": 6.0, "r_start_m": grid.r_start,
            "azimuth_topology": "periodic"}
        header, _ = read_tl_csv(outdir / manifest["frequencies"][0]["file"])
        del manifest["grid"]["n_range"]
        for key, value in manifest["grid"].items():
            assert header[key] == value, key

    def test_eight_frequencies_eight_files(self, tmp_path):
        freqs = ",".join(str(25.0 + 5 * i) for i in range(8))
        cfg = write_cfg(tmp_path, frequencies=freqs)
        outdir = tmp_path / "out8"
        assert main(["run", "--config", str(cfg), "--output", str(outdir)]) == 0
        manifest = load_manifest(outdir)
        files = [e["file"] for e in manifest["frequencies"]]
        assert len(files) == 8 and len(set(files)) == 8
        for frequency, name in zip((25.0 + 5 * i for i in range(8)), files):
            assert f"{frequency:012.4f}" in name
            assert (outdir / name).exists()

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, fmt="binary-grid")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", str(cfg), "--output", str(out1)]) == 0
        assert main(["run", "--config", str(cfg), "--output", str(out2)]) == 0
        m1, m2 = load_manifest(out1), load_manifest(out2)
        d1 = {e["file"]: e["sha256"] for e in m1["frequencies"]}
        d2 = {e["file"]: e["sha256"] for e in m2["frequencies"]}
        assert d1 == d2

    def test_config_error_exits_before_compute(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(CONFIG_TEXT.format(frequencies="50.0", fmt="csv")
                       .replace("delta_z = 6.0", "delta_z = 0.0"))
        outdir = tmp_path / "never"
        code = main(["run", "--config", str(bad), "--output", str(outdir)])
        assert code == 2
        assert not outdir.exists()
        assert "delta_z > 0" in capsys.readouterr().err

    def test_flag_overrides_config(self, tmp_path):
        cfg = write_cfg(tmp_path)
        with cfg.open("a") as f:
            f.write("threads = 2\nworkers = 2\n")
        outdir = tmp_path / "flags"
        assert main(["run", "--config", str(cfg), "--output", str(outdir),
                     "--workers", "1"]) == 0
        executor = load_manifest(outdir)["executor"]
        assert executor["intra_threads"] == 2   # from the config
        assert executor["freq_workers"] == 1    # flag wins

    @pytest.mark.parametrize("change", ["edit", "remove"])
    def test_manifest_digest_is_of_the_config_that_ran(
            self, tmp_path, monkeypatch, change):
        # the config is edited or removed once the farm starts: the run
        # still writes its manifest, with the digest of the file it loaded
        cfg = write_cfg(tmp_path, frequencies="40.0, 50.0")
        loaded = file_sha256(cfg)
        outdir = tmp_path / change
        real_farm = cli.frequency_farm

        def farm_after_change(config, deliver=None):
            if change == "edit":
                cfg.write_text(cfg.read_text().replace("depth = 60.0",
                                                       "depth = 90.0"))
                assert file_sha256(cfg) != loaded
            else:
                cfg.unlink()
            return real_farm(config, deliver=deliver)

        monkeypatch.setattr(cli, "frequency_farm", farm_after_change)
        assert main(["run", "--config", str(cfg), "--output", str(outdir)]) == 0
        manifest = load_manifest(outdir)
        assert manifest["config_sha256"] == loaded
        assert [e["status"] for e in manifest["frequencies"]] == ["ok", "ok"]

    def test_schedule_flag_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["run", "--config", str(cfg), "--schedule", "dynamic"])
        assert info.value.code == 2
        assert "--schedule" in capsys.readouterr().err

    def test_bench_command_rejected(self, capsys):
        # benchmarking lives in bench/run.py, not in the package CLI
        with pytest.raises(SystemExit) as info:
            main(["bench"])
        assert info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_dead_worker_reported_in_manifest(self, tmp_path, monkeypatch):
        # blocks (40, 50) and (60): the first worker dies at 50 Hz once the
        # 40 Hz file it marched before is on disk, and notes that it was
        cfg = write_cfg(tmp_path, frequencies="40.0, 50.0, 60.0")
        outdir = tmp_path / "dead"
        earlier = outdir / tl_filename(40.0, "csv")
        note = tmp_path / "earlier_file_seen"
        real_run = parallel.run_frequency

        def dying_run(config, frequency, threads=None):
            if frequency == 50.0:
                deadline = time.monotonic() + 10.0
                while not earlier.exists() and time.monotonic() < deadline:
                    time.sleep(0.01)
                note.write_text(str(earlier.exists()))
                os._exit(3)
            return real_run(config, frequency, threads)

        monkeypatch.setattr(parallel, "run_frequency", dying_run)
        assert main(["run", "--config", str(cfg), "--output", str(outdir),
                     "--workers", "2"]) == 1
        assert note.read_text() == "True"
        entries = load_manifest(outdir)["frequencies"]
        assert [e["frequency_hz"] for e in entries] == [40.0, 60.0, 50.0]
        dead = entries[2]
        assert dead["status"] == "error"
        assert "worker process died" in dead["message"]
        for entry in entries[:2]:
            assert entry["status"] == "ok"
            assert file_sha256(outdir / entry["file"]) == entry["sha256"]

    def test_worker_that_cannot_start_is_reported_in_manifest(
            self, tmp_path, monkeypatch, capsys):
        # blocks (40, 50) and (60): the second worker cannot be forked;
        # 60 Hz fails by name, and the first block and the manifest are
        # written
        cfg = write_cfg(tmp_path, frequencies="40.0, 50.0, 60.0")
        outdir = tmp_path / "unforked"
        fail_second_fork(monkeypatch)
        assert main(["run", "--config", str(cfg), "--output", str(outdir),
                     "--workers", "2"]) == 1
        assert "Traceback" not in capsys.readouterr().err
        entries = load_manifest(outdir)["frequencies"]
        assert [e["frequency_hz"] for e in entries] == [40.0, 50.0, 60.0]
        assert [e["status"] for e in entries] == ["ok", "ok", "error"]
        assert entries[2]["message"].startswith(
            "cannot start worker process: [Errno 11] ")
        for entry in entries[:2]:
            assert file_sha256(outdir / entry["file"]) == entry["sha256"]

    def test_diverging_field_fails_its_frequency(self, tmp_path, monkeypatch):
        # a NaN in the 50 Hz slab at step 3: 50 Hz stops there with a
        # StepError, and 30 and 70 Hz and the manifest are written
        cfg = write_cfg(tmp_path, frequencies="30.0, 50.0, 70.0",
                        fmt="binary-grid")
        outdir = tmp_path / "nan"
        real_step = marching.range_step
        k0 = wavenumber(50.0, 1500.0)
        steps = []

        def poisoned_step(marcher, m):
            new = real_step(marcher, m)
            if marcher.k0 == k0:
                steps.append(None)
                if len(steps) == 3:
                    new[3, 5] = np.nan
            return new

        monkeypatch.setattr(marching, "range_step", poisoned_step)
        assert main(["run", "--config", str(cfg), "--output", str(outdir),
                     "--stride", "1"]) == 1
        entries = {e["frequency_hz"]: e
                   for e in load_manifest(outdir)["frequencies"]}
        assert entries[50.0]["status"] == "error"
        assert entries[50.0]["message"].startswith("StepError: range step 3 ")
        for frequency in (30.0, 70.0):
            assert entries[frequency]["status"] == "ok"
            assert (outdir / entries[frequency]["file"]).exists()

    def test_unwritable_tl_file_fails_its_frequency(self, tmp_path, capsys):
        # a directory where the 50 Hz file goes: 30 Hz and the manifest
        # are written, 50 Hz fails by name, and no partial file is left
        cfg = write_cfg(tmp_path, frequencies="30.0, 50.0", fmt="binary-grid")
        outdir = tmp_path / "blocked"
        blocked = outdir / tl_filename(50.0, "binary-grid")
        blocked.mkdir(parents=True)
        assert main(["run", "--config", str(cfg), "--output", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"FAILED: cannot write {blocked.name}" in err
        entries = {e["frequency_hz"]: e
                   for e in load_manifest(outdir)["frequencies"]}
        assert entries[30.0]["status"] == "ok"
        assert file_sha256(outdir / entries[30.0]["file"]) \
            == entries[30.0]["sha256"]
        assert entries[50.0]["status"] == "error"
        assert entries[50.0]["file"] == blocked.name
        assert blocked.name in entries[50.0]["message"]
        assert blocked.is_dir() and not any(blocked.iterdir())
        assert sorted(p.name for p in outdir.iterdir()) == sorted(
            [entries[30.0]["file"], blocked.name, "run_manifest.json"])

    def test_unwritable_manifest_is_named_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        outdir = tmp_path / "no_manifest"
        (outdir / "run_manifest.json").mkdir(parents=True)
        assert main(["run", "--config", str(cfg), "--output", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not [p for p in outdir.iterdir() if p.name.startswith(".")]

    def test_start_method_in_manifest(self, tmp_path):
        cfg = write_cfg(tmp_path, frequencies="40.0, 50.0")
        for workers, method in (("1", None), ("2", "fork")):
            outdir = tmp_path / f"w{workers}"
            assert main(["run", "--config", str(cfg), "--output", str(outdir),
                         "--workers", workers]) == 0
            assert load_manifest(outdir)["executor"]["start_method"] == method

    def test_manifest_records_environment(self, tmp_path):
        cfg = write_cfg(tmp_path)
        outdir = tmp_path / "env"
        assert main(["run", "--config", str(cfg), "--output", str(outdir)]) == 0
        environment = load_manifest(outdir)["environment"]
        assert environment["python"] == platform.python_version()
        assert environment["numpy"] == np.__version__
        assert isinstance(environment["logical_cores"], int)
        assert isinstance(environment["physical_cores"], int)
        assert environment["physical_cores"] >= 1

    @pytest.mark.parametrize("flag,field,value", [
        ("--threads", "threads", 2),
        ("--workers", "workers", 2),
        ("--output", "output_dir", "from-flag"),
        ("--stride", "output_stride", 3),
        ("--format", "tl_format", "binary-grid"),
    ], ids=["threads", "workers", "output", "stride", "format"])
    def test_each_flag_overrides_its_run_key(self, tmp_path, flag, field,
                                             value):
        cfg = write_cfg(tmp_path)  # [run] output_stride = 2, tl_format = csv
        with cfg.open("a") as f:
            f.write(f"output_dir = {tmp_path / 'from-config'}\n"
                    "threads = 1\nworkers = 1\n")
        expected = {"threads": 1, "workers": 1,
                    "output_dir": tmp_path / "from-config",
                    "output_stride": 2, "tl_format": "csv"}
        if field == "output_dir":
            value = tmp_path / value
        expected[field] = value
        assert main(["run", "--config", str(cfg), flag, str(value)]) == 0
        outdir = expected["output_dir"]
        manifest = load_manifest(outdir)
        entry = manifest["frequencies"][0]
        assert (outdir / entry["file"]).exists()
        assert {"threads": manifest["executor"]["intra_threads"],
                "workers": manifest["executor"]["freq_workers"],
                "output_dir": outdir,
                "output_stride": entry["output_stride"],
                "tl_format": manifest["tl_format"]} == expected

    @pytest.mark.parametrize("flag,constraint", [
        ("--threads", "threads >= 1"),
        ("--workers", "workers >= 1"),
        ("--stride", "output_stride >= 1"),
    ], ids=["threads", "workers", "stride"])
    def test_bad_flag_value_is_config_error(self, tmp_path, capsys, flag,
                                            constraint):
        # a flag meets the checks of its [run] key before any compute
        assert_config_error(tmp_path, capsys, write_cfg(tmp_path), constraint,
                            [flag, "0"])

    def test_readme_config_example_runs(self, tmp_path):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        example = readme.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
        cfg = tmp_path / "readme.ini"
        cfg.write_text(example)
        config = load_config(cfg)
        assert config.source.frequencies == (50.0, 62.5)
        outdir = tmp_path / "readme"
        assert main(["run", "--config", str(cfg), "--output", str(outdir),
                     "--stride", "100", "--format", "binary-grid"]) == 0
        entries = load_manifest(outdir)["frequencies"]
        assert [e["status"] for e in entries] == ["ok", "ok"]
        for entry in entries:
            header, tl = read_tl_binary(outdir / entry["file"])
            assert header["output_stride"] == 100
            assert tl.shape == (9, 8, 129)  # starter + 8 of 800 steps

    def test_each_run_option_has_one_key_and_one_flag(self, tmp_path,
                                                       monkeypatch):
        # one home per run setting: each RunOptions field has one [run]
        # key and one flag (its argparse dest), and both set it alike
        values = {"output_dir": "elsewhere", "output_stride": 3,
                  "tl_format": "binary-grid", "threads": 2, "workers": 2}
        assert [f.name for f in dataclasses.fields(RunOptions)] \
            == list(values)
        subparsers = next(action for action in cli._build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        flags = [(action.dest, action.option_strings[0])
                 for action in subparsers.choices["run"]._actions
                 if action.dest not in ("help", "config")]
        assert sorted(dest for dest, _ in flags) == sorted(values)
        ran = []

        def farm(config, deliver):  # records the options and marches nothing
            ran.append(config.options)
            return parallel.FarmReport([], [])

        monkeypatch.setattr(cli, "frequency_farm", farm)
        monkeypatch.chdir(tmp_path)
        no_run_keys = CONFIG_TEXT.format(frequencies="50.0",
                                         fmt="csv").split("[run]")[0]
        for field, flag in flags:
            value = values[field]
            expected = RunOptions(**{field: value})
            assert expected != RunOptions()
            cfg = tmp_path / f"{field}.ini"
            cfg.write_text(no_run_keys + f"[run]\n{field} = {value}\n")
            assert load_config(cfg).options == expected
            cfg.write_text(no_run_keys)
            assert main(["run", "--config", str(cfg), flag, str(value)]) == 0
            assert ran.pop() == expected

    def test_stride_flag_applies(self, tmp_path):
        cfg = write_cfg(tmp_path)
        outdir = tmp_path / "stride"
        assert main(["run", "--config", str(cfg), "--output", str(outdir),
                     "--stride", "3"]) == 0
        entry = load_manifest(outdir)["frequencies"][0]
        header, tl = read_tl_csv(outdir / entry["file"])
        assert int(header["output_stride"]) == 3
        assert tl.shape[0] == 3  # starter + steps 3 and 6

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        blocker = tmp_path / "plain_file"
        blocker.write_text("")
        code = main(["run", "--config", str(cfg),
                     "--output", str(blocker / "out")])
        assert code == 2
        assert "config error: output_dir not writable" in capsys.readouterr().err


class TestStreamedOutput:
    """Each frequency's TL file is written as soon as the frequency is
    marched, and its grid is released then."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_does_not_grow_with_frequency_count(
            self, tmp_path, capsys, workers):
        # one TL grid per busy worker at most; the farm receives one
        # result at a time, but a received grid arrives beside its bytes
        grid_bytes = 41 * 32 * 128 * 8
        peaks = []
        for n in (1, 6):
            cfg = write_cfg(tmp_path, frequencies=", ".join(
                str(40.0 + 5.0 * i) for i in range(n)), fmt="binary-grid",
                name=f"f{n}.ini")
            cfg.write_text(cfg.read_text()
                           .replace("n_range = 6", "n_range = 40")
                           .replace("n_azimuth = 8", "n_azimuth = 32")
                           .replace("delta_theta = 45.0", "delta_theta = 11.25")
                           .replace("n_depth = 24", "n_depth = 128")
                           .replace("delta_z = 6.0", "delta_z = 2.0")
                           .replace("output_stride = 2", "output_stride = 1"))
            tracemalloc.start()
            try:
                assert main(["run", "--config", str(cfg), "--output",
                             str(tmp_path / f"f{n}"),
                             "--workers", str(workers)]) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < workers * grid_bytes

    def test_file_written_before_next_frequency_marches(self, tmp_path,
                                                        monkeypatch):
        frequencies = (30.0, 40.0, 50.0)
        cfg = write_cfg(tmp_path, frequencies="30.0, 40.0, 50.0",
                        fmt="binary-grid")
        outdir = tmp_path / "out"
        real_run = parallel.run_frequency
        on_disk = {}

        def run(config, frequency, threads=None):
            on_disk[frequency] = {p.name: file_sha256(p)
                                  for p in outdir.iterdir()}
            return real_run(config, frequency, threads)

        monkeypatch.setattr(parallel, "run_frequency", run)
        assert main(["run", "--config", str(cfg), "--output", str(outdir),
                     "--workers", "1"]) == 0
        entries = load_manifest(outdir)["frequencies"]
        for i, frequency in enumerate(frequencies):
            assert on_disk[frequency] == {e["file"]: e["sha256"]
                                          for e in entries[:i]}

    def test_manifest_order_with_failing_middle_frequency(self, tmp_path,
                                                          monkeypatch):
        # blocks (30, 40, 50) and (60, 70): 30 Hz is slowed, so 60 and
        # 70 Hz finish first; 50 Hz fails.  The manifest lists the marched
        # frequencies in input order, then the failure.
        cfg = write_cfg(tmp_path, frequencies="30.0, 40.0, 50.0, 60.0, 70.0")
        outdir = tmp_path / "order"
        real_run = parallel.run_frequency

        def run(config, frequency, threads=None):
            if frequency == 30.0:
                time.sleep(0.5)
            if frequency == 50.0:
                raise ValueError("no 50 Hz")
            return real_run(config, frequency, threads)

        monkeypatch.setattr(parallel, "run_frequency", run)
        assert main(["run", "--config", str(cfg), "--output", str(outdir),
                     "--workers", "2"]) == 1
        entries = load_manifest(outdir)["frequencies"]
        assert [e["frequency_hz"] for e in entries] \
            == [30.0, 40.0, 60.0, 70.0, 50.0]
        assert [e["status"] for e in entries] == ["ok"] * 4 + ["error"]
        assert entries[4]["message"] == "ValueError: no 50 Hz"

    def test_earlier_manifest_removed_before_first_tl_file(self, tmp_path,
                                                           monkeypatch):
        cfg = write_cfg(tmp_path, frequencies="40.0, 50.0", fmt="binary-grid")
        outdir = tmp_path / "again"
        argv = ["run", "--config", str(cfg), "--output", str(outdir)]
        assert main(argv) == 0
        real_write = cli.write_tl_grid
        manifest_present = []

        def write(path, *args):
            manifest_present.append((outdir / MANIFEST_NAME).exists())
            return real_write(path, *args)

        monkeypatch.setattr(cli, "write_tl_grid", write)
        assert main(argv) == 0
        assert manifest_present == [False, False]
        assert len(load_manifest(outdir)["frequencies"]) == 2


# Each numeric key: the line of CONFIG_TEXT to replace, the key's line
# with its value left open, and the rule that rejects nan and inf there.
NUMERIC_KEYS = [
    ("frequency", "frequencies = 50.0", "frequencies = {}",
     "every frequency > 0 and finite"),
    ("delta_r", "delta_r = 5.0", "delta_r = {}", "delta_r > 0 and finite"),
    ("delta_theta", "delta_theta = 45.0", "delta_theta = {}",
     "delta_theta > 0 and finite"),
    ("delta_z", "delta_z = 6.0", "delta_z = {}", "delta_z > 0 and finite"),
    ("r_start", "delta_r = 5.0", "delta_r = 5.0\nr_start = {}",
     "r_start > 0 and finite"),
    ("c0", "c0 = 1500.0", "c0 = {}", "c0 > 0 and finite"),
    ("sound_speed", "sound_speed = 1500.0", "sound_speed = {}",
     "sound speeds in (100, 100000) m/s"),
    ("profile_depth", "sound_speed = 1500.0", "sound_speed_profile = {} 1500",
     "profile depths finite"),
    ("profile_speed", "sound_speed = 1500.0",
     "sound_speed_profile =\n    0 1500\n    100 {}",
     "sound speeds in (100, 100000) m/s"),
    ("absorber_start", "c0 = 1500.0", "c0 = 1500.0\nabsorber_start_depth = {}",
     "absorber.start_depth >= 0 and finite"),
    ("attenuation", "c0 = 1500.0",
     "c0 = 1500.0\nabsorber_max_attenuation = {}",
     "absorber.max_attenuation >= 0 and finite"),
    ("depth", "depth = 60.0", "depth = {}",
     "0 < source depth < grid depth extent"),
]


def assert_config_error(tmp_path, capsys, cfg, expected, flags=()):
    """The run prints ``config error: ...`` naming ``expected``, exits 2
    and computes nothing; returns what it printed."""
    outdir = tmp_path / "never"
    assert main(["run", "--config", str(cfg), "--output", str(outdir),
                 *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and expected in err
    assert not outdir.exists()
    return err


class TestConfigErrorsBeforeCompute:
    def test_config_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "conf.d").mkdir()
        assert_config_error(tmp_path, capsys, tmp_path / "conf.d",
                            "cannot read config file")

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.ini"
        cfg.write_bytes(b"# caf\xe9\n" + CONFIG_TEXT.format(
            frequencies="50.0", fmt="csv").encode())
        assert_config_error(tmp_path, capsys, cfg, "cannot read config file")

    def test_config_gone_before_it_is_hashed(self, tmp_path, capsys,
                                             monkeypatch):
        cfg = write_cfg(tmp_path)
        real_load = cli.load_config

        def load_then_remove(path):
            config = real_load(path)
            cfg.unlink()
            return config

        monkeypatch.setattr(cli, "load_config", load_then_remove)
        assert_config_error(tmp_path, capsys, cfg, "No such file")

    def test_sound_speed_file_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "ssp").mkdir()
        cfg = write_cfg(tmp_path)
        cfg.write_text(cfg.read_text().replace("sound_speed = 1500.0",
                                               "sound_speed_file = ssp"))
        assert_config_error(tmp_path, capsys, cfg, "cannot read sound_speed_file")

    def test_sound_speed_file_with_a_nul_byte(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        cfg.write_text(cfg.read_text().replace("sound_speed = 1500.0",
                                               "sound_speed_file = p\0.txt"))
        # the message names the path escaped, never with a raw NUL
        named = repr(str(tmp_path / "p\0.txt"))
        err = assert_config_error(tmp_path, capsys, cfg,
                                  f"cannot read sound_speed_file {named}: ")
        assert "\0" not in err

    def test_output_dir_with_a_nul_byte(self, tmp_path, capsys):
        # no --output, which would override the key
        cfg = write_cfg(tmp_path)
        cfg.write_text(cfg.read_text() + f"output_dir = {tmp_path}/out\0x\n")
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        named = repr(f"{tmp_path}/out\0x")
        assert err.startswith(f"config error: output_dir not writable: "
                              f"{named}: ")
        assert "\0" not in err
        assert [p.name for p in tmp_path.iterdir()] == [cfg.name]

    @pytest.mark.parametrize("old,new,expected", [
        pytest.param(old, new.format(value), rule, id=f"{key}-{value}")
        for key, old, new, rule in NUMERIC_KEYS for value in ("nan", "inf")
    ] + [
        pytest.param("sound_speed = 1500.0",
                     "sound_speed_profile =\n    0 1500\n    inf 1490",
                     "profile depths finite", id="profile_depth-inf-last"),
        pytest.param("sound_speed = 1500.0",
                     "sound_speed_profile =\n    -inf 1500\n    100 1490",
                     "profile depths finite", id="profile_depth-minus-inf-first"),
        pytest.param("depth = 60.0", "depth = 200.0",
                     "0 < source depth < grid depth extent",
                     id="source-below-grid"),
        pytest.param("c0 = 1500.0", "c0 = 1500.0\nabsorber_start_depth = 138.0",
                     "absorber.start_depth < grid bottom depth",
                     id="absorber-at-grid-bottom"),
    ])
    def test_number_out_of_range(self, tmp_path, capsys, old, new, expected):
        cfg = write_cfg(tmp_path)
        text = cfg.read_text()
        assert old in text
        cfg.write_text(text.replace(old, new))
        assert_config_error(tmp_path, capsys, cfg, expected)

    @pytest.mark.parametrize("old,new,expected", [
        ("depth = 60.0", "depth = 60.0\nstarter = pade",
         "[source] field 'starter': expected 'gaussian', got 'pade'"),
        ("tl_format = csv", "tl_format = csv\nmax_range = 400",
         "[run] field 'max_range' is not read: a run marches [grid] n_range"),
    ], ids=["starter-pade", "max-range"])
    def test_key_the_run_cannot_honour(self, tmp_path, capsys, old, new,
                                       expected):
        cfg = write_cfg(tmp_path)
        cfg.write_text(cfg.read_text().replace(old, new))
        assert_config_error(tmp_path, capsys, cfg, expected)

    @pytest.mark.parametrize("keys", [
        ("sound_speed", "sound_speed_profile"),
        ("sound_speed", "sound_speed_file"),
        ("sound_speed_profile", "sound_speed_file"),
        ("sound_speed", "sound_speed_profile", "sound_speed_file"),
    ], ids="+".join)
    def test_more_than_one_sound_speed_key(self, tmp_path, capsys, keys):
        # the profile and the file agree with the scalar; still, each of
        # them alone sets the whole medium, so a second one is refused
        (tmp_path / "ssp.txt").write_text("0 1500\n100 1500\n")
        lines = {"sound_speed": "sound_speed = 1500.0",
                 "sound_speed_profile":
                     "sound_speed_profile =\n    0 1500\n    100 1500",
                 "sound_speed_file": "sound_speed_file = ssp.txt"}
        cfg = write_cfg(tmp_path)
        cfg.write_text(cfg.read_text().replace(
            "sound_speed = 1500.0", "\n".join(lines[key] for key in keys)))
        assert_config_error(tmp_path, capsys, cfg, "more than one sound-speed"
                            f" key ({', '.join(keys)}): give exactly one")

    @pytest.mark.parametrize("frequencies", ["50.00001, 50.00004", "50, 50"])
    def test_frequencies_sharing_a_tl_file(self, tmp_path, capsys, frequencies):
        cfg = write_cfg(tmp_path, frequencies=frequencies)
        assert_config_error(tmp_path, capsys, cfg,
                            "would both write tl_0000050.0000Hz.csv")


class TestCmdSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS thomas-vs-dense-oracle" in out
        assert "FAIL" not in out
        # the checks CI requires, in its order: a new check lands in both
        workflow = (Path(__file__).resolve().parents[1] / ".github"
                    / "workflows" / "tier1.yml").read_text()
        listed = re.search(r"set -- ((?:.*\\\n)*.*)", workflow).group(1)
        assert re.findall(r"^PASS (\S+)$", out, re.M) \
            == listed.replace("\\", " ").split()

    def test_corrupted_solver_negative_control(self, capsys):
        assert main(["selftest", "--corrupt-thomas"]) == 1
        out = capsys.readouterr().out
        assert "FAIL thomas-vs-dense-oracle" in out

    def test_negative_control_fails_under_optimize(self):
        # python -O strips assert statements; the gate must not pass vacuously
        src = str(Path(pe3d.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "pe3d", "selftest", "--corrupt-thomas"],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "FAIL thomas-vs-dense-oracle" in proc.stdout

    def test_report_is_deterministic(self, capsys):
        main(["selftest"])
        first = capsys.readouterr().out
        main(["selftest"])
        second = capsys.readouterr().out
        assert first == second


class TestPackageSurface:
    RUN_PATH = {
        "__version__", "Config", "RunOptions", "load_config",
        "run_frequency", "FrequencyResult", "frequency_farm", "FarmReport",
        "read_tl_csv", "read_tl_binary", "load_manifest",
    }

    def test_all_is_the_run_path(self):
        assert len(pe3d.__all__) == len(self.RUN_PATH) == 11
        assert set(pe3d.__all__) == self.RUN_PATH
        namespace = {}
        exec("from pe3d import *", namespace)
        for name in self.RUN_PATH:
            assert namespace[name] is getattr(pe3d, name)

    def test_readme_layout_lists_every_module(self):
        # the README's package layout names each module of the package
        # once, and no module that is gone
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Package layout", 1)[1] \
            .split("```\nsrc/pe3d/\n", 1)[1].split("```", 1)[0]
        listed = re.findall(r"^  (\S+\.py) ", block, re.MULTILINE)
        assert sorted(listed) == sorted(
            path.name for path in Path(pe3d.__file__).parent.glob("*.py"))
