import dataclasses
import math
import multiprocessing
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_config
from pe3d.errors import DomainError
from pe3d.marching import run_frequency
from pe3d.parallel import frequency_farm
import pe3d.parallel as parallel_module
from pe3d.pool import block_ranges, fork_join


def tiny_config(frequencies=(50.0,), **kwargs):
    defaults = dict(n_range=5, n_azimuth=8, n_depth=24, delta_z=6.0)
    defaults.update(kwargs)
    return make_config(frequencies=frequencies, **defaults)


def with_workers(config, workers):
    """``config`` with its frequencies farmed to ``workers`` processes."""
    return dataclasses.replace(config, options=dataclasses.replace(
        config.options, workers=workers))


class TestStaticAssignment:
    """The farm gives each worker one block of ``block_ranges``."""

    def test_eight_jobs_three_workers(self):
        blocks = block_ranges(8, 3)
        assert [hi - lo for lo, hi in blocks] == [3, 3, 2]
        assert blocks[0] == (0, 3)

    @pytest.mark.parametrize("workers,expected_max", [(3, 3), (5, 2), (8, 1)])
    def test_max_load_is_ceiling(self, workers, expected_max):
        blocks = block_ranges(8, workers)
        assert max(hi - lo for lo, hi in blocks) == expected_max
        assert expected_max == math.ceil(8 / workers)

    def test_more_workers_than_jobs(self):
        # idle workers get no block, so the farm starts no process for them
        assert block_ranges(2, 5) == [(0, 1), (1, 2)]

    @given(st.integers(0, 200), st.integers(1, 32))
    @settings(max_examples=200, deadline=None)
    def test_assignment_law(self, jobs, workers):
        blocks = block_ranges(jobs, workers)
        flat = [i for lo, hi in blocks for i in range(lo, hi)]
        assert flat == list(range(jobs))  # coverage, order, contiguity
        assert all(lo < hi for lo, hi in blocks)
        if jobs:
            assert max(hi - lo for lo, hi in blocks) == math.ceil(jobs / workers)

    def test_block_ranges_consistency(self):
        assert block_ranges(8, 3) == [(0, 3), (3, 6), (6, 8)]


class TestForkJoin:
    def test_returns_the_blocks(self):
        ran = []
        blocks = fork_join(lambda lo, hi: ran.append((lo, hi)), 8, 3)
        assert blocks == block_ranges(8, 3) == sorted(ran)
        assert fork_join(lambda lo, hi: None, 5, 1) == [(0, 5)]

    def test_raises_after_every_block_has_run(self):
        finished = []

        def worker(lo, hi):
            if lo == 1:
                raise ValueError("block 1")
            time.sleep(0.05)  # the failure comes first; the join waits
            finished.append(lo)

        with pytest.raises(ValueError, match="block 1"):
            fork_join(worker, 3, 3)
        assert sorted(finished) == [0, 2]


class TestFrequencyFarm:
    def test_single_job_equals_run_frequency(self):
        config = tiny_config()
        report = frequency_farm(with_workers(config, 4))
        direct = run_frequency(config, 50.0)
        assert report.ok
        assert np.array_equal(report.results[0].tl_field, direct.tl_field)

    def test_results_ordered_by_input_index(self):
        freqs = (40.0, 80.0, 25.0, 63.0)
        config = tiny_config(frequencies=freqs)
        report = frequency_farm(with_workers(config, 2))
        assert report.ok
        assert [r.frequency for r in report.results] == list(freqs)

    def test_worker_counts_bitwise_equal(self):
        freqs = tuple(25.0 + i for i in range(120))
        config = tiny_config(frequencies=freqs, n_range=3, n_azimuth=4,
                             n_depth=12, delta_z=10.0)
        serial = frequency_farm(config)
        assert serial.ok
        for workers in (2, 4):
            report = frequency_farm(with_workers(config, workers))
            assert report.ok
            for a, b in zip(serial.results, report.results):
                assert a.tl_field.tobytes() == b.tl_field.tobytes()

    def test_failures_collected_successes_returned(self, monkeypatch):
        config = with_workers(tiny_config(frequencies=(50.0, 75.0, 60.0)), 2)
        real_run = parallel_module.run_frequency

        def failing_run(cfg, frequency, threads=None):
            if frequency == 75.0:
                raise DomainError("no field at 75 Hz")
            return real_run(cfg, frequency, threads)

        # farm workers fork after the patch, so they inherit it
        monkeypatch.setattr(parallel_module, "run_frequency", failing_run)
        report = frequency_farm(config)
        assert not report.ok
        assert report.results[0] is not None
        assert report.results[1] is None
        assert report.results[2] is not None
        assert len(report.failures) == 1
        assert report.failures[0].index == 1
        assert report.failures[0].frequency == 75.0
        assert "DomainError" in report.failures[0].message

    def test_dead_worker_fails_its_frequencies(self, monkeypatch):
        # blocks (30, 50) and (70): the first worker dies at 50 Hz after
        # finishing 30 Hz, whose result has already come back
        freqs = (30.0, 50.0, 70.0)
        config = tiny_config(frequencies=freqs)
        real_run = parallel_module.run_frequency

        def dying_run(cfg, frequency, threads=None):
            if frequency == 50.0:
                os._exit(3)
            return real_run(cfg, frequency, threads)

        # farm workers fork after the patch, so they inherit it
        monkeypatch.setattr(parallel_module, "run_frequency", dying_run)
        report = frequency_farm(with_workers(config, 2))
        assert [f.index for f in report.failures] == [1]
        assert "worker process died" in report.failures[0].message
        assert report.results[1] is None
        monkeypatch.undo()
        for index in (0, 2):
            result = report.results[index]
            direct = run_frequency(config, freqs[index])
            assert result.frequency == freqs[index]
            assert result.tl_field.tobytes() == direct.tl_field.tobytes()
            assert np.array_equal(result.ranges, direct.ranges)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_deliver_gets_each_grid_then_the_farm_drops_it(self, workers):
        freqs = (30.0, 40.0, 50.0)
        config = tiny_config(frequencies=freqs)
        kept = frequency_farm(config)
        delivered = {}

        def deliver(index, result):
            assert index not in delivered
            delivered[index] = result.tl_field.copy()

        report = frequency_farm(with_workers(config, workers), deliver=deliver)
        assert report.ok and sorted(delivered) == [0, 1, 2]
        for index, result in enumerate(report.results):
            assert result.tl_field is None
            assert result.frequency == freqs[index]
            assert np.array_equal(result.ranges, kept.results[index].ranges)
            assert delivered[index].tobytes() \
                == kept.results[index].tl_field.tobytes()

    def test_deliver_error_stops_the_farm(self):
        # the jobs not yet started are cancelled and the pools shut down
        # before the error reaches the caller
        freqs = tuple(25.0 + 5.0 * i for i in range(8))
        config = tiny_config(frequencies=freqs)
        calls = []

        def deliver(index, result):
            calls.append(index)
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            frequency_farm(with_workers(config, 2), deliver=deliver)
        assert len(calls) == 1
        assert multiprocessing.active_children() == []
