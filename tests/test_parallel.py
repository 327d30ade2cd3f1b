import dataclasses
import errno
import math
import os
import struct
import subprocess
import sys
import threading
import time
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pe3d
from conftest import fail_second_fork, make_config
from pe3d.errors import DomainError
from pe3d.marching import run_frequency
from pe3d.parallel import frequency_farm
import pe3d.parallel as parallel_module
import pe3d.pool as pool_module
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

    def test_one_worker_marches_the_block_body_in_process(self,
                                                          monkeypatch):
        # a farm of one runs the loop of the forked workers, once, over
        # every frequency, in this process
        freqs = (30.0, 40.0, 50.0)
        config = tiny_config(frequencies=freqs)
        real_block = parallel_module._farm_block
        calls = []

        def spy(send, cfg, lo, hi):
            calls.append((lo, hi))
            return real_block(send, cfg, lo, hi)

        monkeypatch.setattr(parallel_module, "_farm_block", spy)
        report = frequency_farm(config)
        assert calls == [(0, len(freqs))]
        assert report.ok
        for frequency, result in zip(freqs, report.results):
            direct = run_frequency(config, frequency)
            assert result.tl_field.tobytes() == direct.tl_field.tobytes()

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

    @pytest.mark.parametrize(
        "raises_at,dies_at,died",
        [(None, 50.0, [1]), (None, 30.0, [0, 1]), (30.0, 50.0, [1])],
        ids=["after-a-result", "before-any-result", "after-an-error"])
    def test_dead_worker_fails_its_frequencies(self, monkeypatch, raises_at,
                                               dies_at, died):
        # blocks (30, 50) and (70): the first worker dies at 50 Hz, after
        # 30 Hz has come back as a result or as an error, or at 30 Hz,
        # before it has sent anything
        freqs = (30.0, 50.0, 70.0)
        config = tiny_config(frequencies=freqs)
        real_run = parallel_module.run_frequency

        def dying_run(cfg, frequency, threads=None):
            if frequency == raises_at:
                raise DomainError("no field at 30 Hz")
            if frequency == dies_at:
                os._exit(3)
            return real_run(cfg, frequency, threads)

        # farm workers fork after the patch, so they inherit it
        monkeypatch.setattr(parallel_module, "run_frequency", dying_run)
        report = frequency_farm(with_workers(config, 2))
        expected = {index: "worker process died: exit code 3"
                    for index in died}
        if raises_at is not None:
            # the error that came back keeps its own message
            expected[0] = "DomainError: no field at 30 Hz"
        assert [(f.index, f.message) for f in report.failures] \
            == sorted(expected.items())
        for index in expected:
            assert report.results[index] is None
        monkeypatch.undo()
        for index in sorted({0, 1, 2} - set(expected)):
            result = report.results[index]
            direct = run_frequency(config, freqs[index])
            assert result.frequency == freqs[index]
            assert result.tl_field.tobytes() == direct.tl_field.tobytes()
            assert np.array_equal(result.ranges, direct.ranges)

    def test_worker_that_cannot_start_fails_its_block(self, monkeypatch):
        # blocks (30, 50) and (70): the second worker's start fails as a
        # fork does when the system is out of processes; its frequency
        # fails by name and the first block's results are kept
        freqs = (30.0, 50.0, 70.0)
        config = tiny_config(frequencies=freqs)
        starts = fail_second_fork(monkeypatch)
        report = frequency_farm(with_workers(config, 2))
        assert len(starts) == 2
        assert [(f.index, f.message) for f in report.failures] == [
            (2, "cannot start worker process: [Errno 11] "
                f"{os.strerror(errno.EAGAIN)}")]
        assert report.results[2] is None
        for index in (0, 1):
            direct = run_frequency(config, freqs[index])
            assert report.results[index].tl_field.tobytes() \
                == direct.tl_field.tobytes()

    def test_worker_dead_partway_through_a_send_fails_its_block(
            self, monkeypatch):
        # a worker killed while it writes a result leaves a message cut
        # short in its pipe: its block fails, the other block is kept
        config = tiny_config(frequencies=(30.0, 50.0, 70.0))
        real_block = parallel_module._farm_block

        def truncating_block(send, cfg, lo, hi):
            if lo > 0:
                return real_block(send, cfg, lo, hi)
            # a frame header announcing 100 bytes, then 3 of them, on the
            # pipe whose ``send`` the worker was given
            os.write(send.__self__.fileno(), struct.pack("!i", 100) + b"abc")
            os._exit(4)

        monkeypatch.setattr(parallel_module, "_farm_block", truncating_block)
        report = frequency_farm(with_workers(config, 2))
        assert [f.index for f in report.failures] == [0, 1]
        assert report.failures[0].message == "worker process died: exit code 4"
        assert report.results[2].frequency == 70.0

    def test_worker_drops_each_grid_once_sent(self, monkeypatch):
        # in a worker, the grid of a frequency already sent is gone when
        # the next frequency of its block starts marching
        config = with_workers(tiny_config(frequencies=(30.0, 40.0, 50.0)), 2)
        real_run = parallel_module.run_frequency
        sent = []

        def checking_run(cfg, frequency, threads=None):
            if any(grid() is not None for grid in sent):
                raise RuntimeError("a sent grid is still held")
            result = real_run(cfg, frequency, threads)
            sent.append(weakref.ref(result.tl_field))
            return result

        # farm workers fork after the patch, so they inherit it
        monkeypatch.setattr(parallel_module, "run_frequency", checking_run)
        report = frequency_farm(config)
        assert report.failures == []

    def test_workers_start_without_the_parents_step_pools(self, monkeypatch):
        # a pool's threads stay in the parent when a worker forks, so a
        # worker's threaded step must build a pool of its own
        inherited = pool_module._shared_pool(2)
        real_run = parallel_module.run_frequency

        def checking_run(cfg, frequency, threads=None):
            if pool_module._shared_pool(2) is inherited:
                raise RuntimeError("a step pool came through the fork")
            return real_run(cfg, frequency, threads)

        monkeypatch.setattr(parallel_module, "run_frequency", checking_run)
        config = with_workers(tiny_config(frequencies=(30.0, 40.0)), 2)
        assert frequency_farm(config).failures == []
        assert pool_module._shared_pool(2) is inherited

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

    def test_deliver_runs_beside_no_thread_but_the_step_pool(self):
        # the farm reads its workers' pipes on the calling thread and
        # starts no thread to receive or feed them
        config = tiny_config(frequencies=(30.0, 40.0, 50.0))
        seen = []

        def deliver(index, result):
            seen.append((threading.current_thread().name,
                         sorted(t.name for t in threading.enumerate())))

        assert frequency_farm(with_workers(config, 2), deliver=deliver).ok
        assert len(seen) == 3
        for current, alive in seen:
            assert current == "MainThread"
            assert [name for name in alive if name != "MainThread"
                    and not name.startswith("pe3d-worker")] == []

    def test_deliver_error_stops_the_farm(self, monkeypatch):
        # the workers still marching are terminated and joined before the
        # error reaches the caller: every frequency but the first takes a
        # minute, so a farm that waited for its workers would be late
        freqs = tuple(25.0 + 5.0 * i for i in range(8))
        config = tiny_config(frequencies=freqs)
        real_run = parallel_module.run_frequency
        calls = []

        def slow_run(cfg, frequency, threads=None):
            if frequency != freqs[0]:
                time.sleep(60.0)
            return real_run(cfg, frequency, threads)

        def deliver(index, result):
            calls.append(index)
            raise OSError("disk full")

        monkeypatch.setattr(parallel_module, "run_frequency", slow_run)
        begin = time.monotonic()
        with pytest.raises(OSError, match="disk full"):
            frequency_farm(with_workers(config, 2), deliver=deliver)
        assert time.monotonic() - begin < 30.0
        assert calls == [0]


def test_cli_loads_no_process_machinery():
    # the farm imports multiprocessing only when it forks, so a one-worker
    # run never loads it, nor a process pool: checked in a fresh
    # interpreter, which has imported nothing else
    src = str(Path(pe3d.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pe3d.cli; print(*sorted(sys.modules))"],
        capture_output=True, text=True, env=env, timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert "pe3d.cli" in loaded
    assert not loaded & {"multiprocessing", "concurrent.futures.process"}
