import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pe3d
import pe3d.parallel as parallel
from conftest import make_config
from pe3d.cli import main
from pe3d.config import RunOptions
from pe3d.errors import ConfigError
from pe3d.marching import run_frequency
from pe3d.output import (
    TIMING_CSV_COLUMNS,
    file_sha256,
    load_manifest,
    read_timing_csv,
    read_tl_binary,
    read_tl_csv,
    tl_filename,
    write_timing_csv,
    write_tl_binary,
    write_tl_csv,
)
from pe3d.parallel import TimingRecord, derive_scaling

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
water_depth = 6000.0

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

    def test_filename_embeds_frequency(self):
        assert "50" in tl_filename(50.0, "csv")
        assert tl_filename(50.0, "csv").endswith(".csv")
        assert tl_filename(62.5, "binary-grid").endswith(".bin")
        assert tl_filename(50.0, "csv") != tl_filename(62.5, "csv")


class TestTimingCsv:
    def test_schema_round_trip(self, tmp_path):
        records = derive_scaling([
            TimingRecord(label="t1w1", intra_threads=1, freq_workers=1,
                         frequency_count=2, grid_dims=(6, 8, 24),
                         wall_seconds=2.0),
            TimingRecord(label="t2w1", intra_threads=2, freq_workers=1,
                         frequency_count=2, grid_dims=(6, 8, 24),
                         wall_seconds=1.0),
        ], "t1w1")
        path = write_timing_csv(tmp_path / "timing.csv", records)
        rows = read_timing_csv(path)
        assert [r["label"] for r in rows] == ["t1w1", "t2w1"]
        assert float(rows[1]["speedup"]) == 2.0
        header = path.read_text().splitlines()[0]
        assert header == ",".join(TIMING_CSV_COLUMNS)


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

    def test_flag_overrides_env_overrides_config(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path)
        outdir = tmp_path / "envcase"
        monkeypatch.setenv("PE3D_THREADS", "2")
        monkeypatch.setenv("PE3D_WORKERS", "2")
        assert main(["run", "--config", str(cfg), "--output", str(outdir),
                     "--workers", "1"]) == 0
        executor = load_manifest(outdir)["executor"]
        assert executor["intra_threads"] == 2   # from environment
        assert executor["freq_workers"] == 1    # flag wins

    def test_schedule_flag_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["run", "--config", str(cfg), "--schedule", "dynamic"])
        assert info.value.code == 2
        assert "--schedule" in capsys.readouterr().err

    def test_dead_worker_reported_in_manifest(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, frequencies="40.0, 50.0, 60.0")
        outdir = tmp_path / "dead"
        real_run = parallel.run_frequency

        def dying_run(config, frequency, executor=None):
            if frequency == 50.0:
                os._exit(3)
            return real_run(config, frequency, executor)

        monkeypatch.setattr(parallel, "run_frequency", dying_run)
        assert main(["run", "--config", str(cfg), "--output", str(outdir),
                     "--workers", "2"]) == 1
        entries = load_manifest(outdir)["frequencies"]
        assert sorted(e["frequency_hz"] for e in entries) == [40.0, 50.0, 60.0]
        dead = next(e for e in entries if e["frequency_hz"] == 50.0)
        assert dead["status"] == "error"
        assert "worker process died" in dead["message"]

    def test_stride_flag_applies(self, tmp_path):
        cfg = write_cfg(tmp_path)
        outdir = tmp_path / "stride"
        assert main(["run", "--config", str(cfg), "--output", str(outdir),
                     "--stride", "3"]) == 0
        entry = load_manifest(outdir)["frequencies"][0]
        header, tl = read_tl_csv(outdir / entry["file"])
        assert int(header["output_stride"]) == 3
        assert tl.shape[0] == 3  # starter + steps 3 and 6


class TestCmdBench:
    def test_bench_reports(self, tmp_path):
        cfg = write_cfg(tmp_path)
        outdir = tmp_path / "bench"
        code = main(["bench", "--config", str(cfg),
                     "--threads-sweep", "1,2,4", "--workers-sweep", "1",
                     "--repeats", "1", "--no-warmup",
                     "--output", str(outdir)])
        assert code == 0
        rows = read_timing_csv(outdir / "timing.csv")
        assert len(rows) == 3
        assert rows[0]["label"] == "t1w1"
        assert float(rows[0]["speedup"]) == 1.0
        kernel_lines = (outdir / "kernel_bench.csv").read_text().splitlines()
        assert kernel_lines[0] == "batch_size,n,seconds,systems_per_second"
        assert len(kernel_lines) > 1
        assert (outdir / "bench_summary.txt").exists()

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        blocker = tmp_path / "plain_file"
        blocker.write_text("")
        code = main(["bench", "--config", str(cfg), "--repeats", "1",
                     "--output", str(blocker / "bench")])
        assert code == 2
        assert "config error: output_dir not writable" in capsys.readouterr().err

    def test_bad_sweep_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path)
        assert main(["bench", "--config", str(cfg),
                     "--threads-sweep", "1,zero"]) == 2
        assert "threads-sweep" in capsys.readouterr().err


class TestCmdSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "PASS thomas-vs-dense-oracle" in out
        assert "FAIL" not in out

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
