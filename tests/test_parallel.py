import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_config
from pe3d.errors import InvariantError
from pe3d.marching import run_frequency
from pe3d.parallel import (
    TimingRecord,
    derive_scaling,
    frequency_farm,
    kernel_throughput,
    scaling_harness,
    static_assignment,
)
import pe3d.parallel as parallel_module
from pe3d.pool import block_ranges


def tiny_config(frequencies=(50.0,), **kwargs):
    defaults = dict(n_range=5, n_azimuth=8, n_depth=24, delta_z=6.0)
    defaults.update(kwargs)
    return make_config(frequencies=frequencies, **defaults)


class TestStaticAssignment:
    def test_eight_jobs_three_workers(self):
        blocks = static_assignment(8, 3)
        assert [len(b) for b in blocks] == [3, 3, 2]
        assert blocks[0] == [0, 1, 2]

    @pytest.mark.parametrize("workers,expected_max", [(3, 3), (5, 2), (8, 1)])
    def test_max_load_is_ceiling(self, workers, expected_max):
        blocks = static_assignment(8, workers)
        assert max(len(b) for b in blocks) == expected_max
        assert expected_max == math.ceil(8 / workers)

    def test_more_workers_than_jobs(self):
        blocks = static_assignment(2, 5)
        assert len(blocks) == 5
        assert [len(b) for b in blocks] == [1, 1, 0, 0, 0]

    @given(st.integers(0, 200), st.integers(1, 32))
    @settings(max_examples=200, deadline=None)
    def test_assignment_law(self, jobs, workers):
        blocks = static_assignment(jobs, workers)
        flat = [i for b in blocks for i in b]
        assert flat == list(range(jobs))  # coverage, order, contiguity
        if jobs:
            assert max(len(b) for b in blocks) == math.ceil(jobs / workers)

    def test_block_ranges_consistency(self):
        assert block_ranges(8, 3) == [(0, 3), (3, 6), (6, 8)]


class TestFrequencyFarm:
    def test_single_job_equals_run_frequency(self):
        config = tiny_config()
        report = frequency_farm(config, [50.0], workers=4)
        direct = run_frequency(config, 50.0)
        assert report.ok
        assert np.array_equal(report.results[0].tl_field, direct.tl_field)

    def test_results_ordered_by_input_index(self):
        freqs = (40.0, 80.0, 25.0, 63.0)
        config = tiny_config(frequencies=freqs)
        report = frequency_farm(config, freqs, workers=2)
        assert report.ok
        assert [r.frequency for r in report.results] == list(freqs)

    def test_worker_counts_bitwise_equal(self):
        freqs = tuple(25.0 + i for i in range(120))
        config = tiny_config(frequencies=freqs, n_range=3, n_azimuth=4,
                             n_depth=12, delta_z=10.0)
        serial = frequency_farm(config, freqs, workers=1)
        assert serial.ok
        for workers in (2, 4):
            report = frequency_farm(config, freqs, workers=workers)
            assert report.ok
            for a, b in zip(serial.results, report.results):
                assert a.tl_field.tobytes() == b.tl_field.tobytes()

    def test_failures_collected_successes_returned(self):
        config = tiny_config(frequencies=(50.0, 60.0))
        # 75 Hz is not declared in the source, so that job fails
        report = frequency_farm(config, [50.0, 75.0, 60.0], workers=2)
        assert not report.ok
        assert report.results[0] is not None
        assert report.results[1] is None
        assert report.results[2] is not None
        assert len(report.failures) == 1
        assert report.failures[0].index == 1
        assert report.failures[0].frequency == 75.0
        assert "DomainError" in report.failures[0].message

    def test_empty_frequencies_rejected(self):
        with pytest.raises(InvariantError):
            frequency_farm(tiny_config(), [], workers=1)

    def test_dead_worker_fails_its_frequencies(self, monkeypatch):
        # blocks (30, 50) and (70): the first worker dies at 50 Hz after
        # finishing 30 Hz, whose result has already come back
        freqs = (30.0, 50.0, 70.0)
        config = tiny_config(frequencies=freqs)
        real_run = parallel_module.run_frequency

        def dying_run(cfg, frequency, executor=None):
            if frequency == 50.0:
                os._exit(3)
            return real_run(cfg, frequency, executor)

        # farm workers fork after the patch, so they inherit it
        monkeypatch.setattr(parallel_module, "run_frequency", dying_run)
        report = frequency_farm(config, freqs, workers=2)
        assert [f.index for f in report.failures] == [1]
        assert "worker process died" in report.failures[0].message
        assert report.results[1] is None
        monkeypatch.undo()
        for index in (0, 2):
            result = report.results[index]
            direct = run_frequency(config, freqs[index])
            assert result.frequency == freqs[index]
            assert result.tl_field.tobytes() == direct.tl_field.tobytes()
            assert result.final_slab.values.tobytes() \
                == direct.final_slab.values.tobytes()


class TestDeriveScaling:
    @staticmethod
    def record(label, threads, workers, wall):
        return TimingRecord(label=label, intra_threads=threads,
                            freq_workers=workers, frequency_count=4,
                            grid_dims=(10, 8, 32), wall_seconds=wall)

    def test_baseline_is_unity(self):
        records = derive_scaling([self.record("t1w1", 1, 1, 100.0)], "t1w1")
        assert records[0].speedup == 1.0
        assert records[0].efficiency == 1.0

    def test_ideal_four_thread_speedup(self):
        records = derive_scaling(
            [self.record("t1w1", 1, 1, 100.0), self.record("t4w1", 4, 1, 25.0)],
            "t1w1")
        assert records[1].speedup == 4.0
        assert records[1].efficiency == 1.0

    def test_doubling_workers_efficiency_convention(self):
        # doubling workers from a 3x4 baseline with speedup 3.28 gives 1.64
        base = TimingRecord(label="w3t4", intra_threads=4, freq_workers=3,
                            frequency_count=120, grid_dims=(10, 8, 32),
                            wall_seconds=328.0)
        doubled = TimingRecord(label="w6t4", intra_threads=4, freq_workers=6,
                               frequency_count=120, grid_dims=(10, 8, 32),
                               wall_seconds=100.0)
        records = derive_scaling([base, doubled], "w3t4")
        assert records[1].speedup == pytest.approx(3.28)
        assert records[1].efficiency == pytest.approx(1.64)

    def test_recompute_is_exact(self):
        records = [self.record("t1w1", 1, 1, 12.5),
                   self.record("t2w1", 2, 1, 7.7)]
        first = derive_scaling(records, "t1w1")
        second = derive_scaling(records, "t1w1")
        assert first[1].speedup == second[1].speedup
        assert first[1].efficiency == second[1].efficiency

    def test_voided_record_passed_through(self):
        bad = TimingRecord(label="t2w1", intra_threads=2, freq_workers=1,
                           frequency_count=1, grid_dims=(1, 1, 1),
                           wall_seconds=None, error="worker crashed")
        out = derive_scaling([self.record("t1w1", 1, 1, 1.0), bad], "t1w1")
        assert out[1].speedup is None and out[1].error == "worker crashed"

    def test_wall_seconds_validated(self):
        with pytest.raises(InvariantError):
            TimingRecord(label="x", intra_threads=1, freq_workers=1,
                         frequency_count=1, grid_dims=(1, 1, 1),
                         wall_seconds=0.0)


class TestScalingHarness:
    def test_smoke_sweep(self):
        config = tiny_config()
        records = scaling_harness(config, [1, 2], [1], repeats=1, warmup=False)
        labels = [r.label for r in records]
        assert labels[0] == "t1w1"
        assert records[0].speedup == 1.0 and records[0].efficiency == 1.0
        assert all(r.error is None for r in records)
        assert all(r.wall_seconds > 0 for r in records if r.error is None)

    def test_failed_run_voids_record_and_continues(self, monkeypatch):
        config = tiny_config()
        real_farm = parallel_module.frequency_farm

        def flaky_farm(cfg, freqs, workers=1, intra_threads=1):
            if intra_threads == 2:
                raise RuntimeError("injected failure")
            return real_farm(cfg, freqs, workers=workers,
                             intra_threads=intra_threads)

        monkeypatch.setattr(parallel_module, "frequency_farm", flaky_farm)
        records = scaling_harness(config, [1, 2], [1], repeats=1, warmup=False)
        by_label = {r.label: r for r in records}
        assert by_label["t1w1"].error is None
        assert "injected failure" in by_label["t2w1"].error
        assert by_label["t2w1"].speedup is None


class TestKernelThroughput:
    def test_entries_complete_for_each_batch_size(self):
        entries = kernel_throughput([1, 32, 128], n=48, repeats=1)
        assert [e["batch_size"] for e in entries] == [1, 32, 128]
        assert all(e["systems_per_second"] > 0 for e in entries)
