"""Tests for the warm worker pool (repro.perf.pool)."""

import os

import numpy as np
import pytest

from repro.obs import metrics as obs_metrics
from repro.perf import get_pool, shutdown_pool
from repro.perf.pool import (
    MAX_CHUNK_TASKS,
    WorkerTaskError,
    available_cpus,
    executor_config,
    plan_chunks,
    resolve_jobs,
)


@pytest.fixture(autouse=True)
def _fresh_pool():
    """Pool lifecycle is under test here: isolate every test from pools
    other tests (or other modules) left warm."""
    shutdown_pool()
    yield
    shutdown_pool()


# Worker-side callables must be module-level to pickle.


def _pid(_: int) -> int:
    return os.getpid()


def _sum_task(task) -> float:
    array, offset = task
    return float(array.sum()) + offset


def _boom_at_three(x: int) -> int:
    if x == 3:
        raise ValueError(f"cannot process {x}")
    return x


def _identity(x: int) -> int:
    return x


def _scaled_sum(array, offset: int) -> float:
    return float(array.sum()) * 2 + offset


class TestResolveJobs:
    def test_auto_resolves_to_cpu_count(self):
        assert resolve_jobs("auto") == available_cpus()

    def test_numeric_strings_parse(self):
        assert resolve_jobs("4") == 4
        assert resolve_jobs(" 2 ") == 2

    def test_capped_by_points(self):
        assert resolve_jobs(8, points=3) == 3
        assert resolve_jobs("auto", points=1) == 1

    def test_floored_at_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-5) == 1
        assert resolve_jobs(4, points=0) == 1

    def test_invalid_string_raises(self):
        with pytest.raises(ValueError, match="auto"):
            resolve_jobs("many")
        with pytest.raises(ValueError):
            resolve_jobs("4.5")


class TestPlanChunks:
    @pytest.mark.parametrize("total,workers", [(1, 1), (7, 2), (50, 4), (1000, 8)])
    def test_plan_covers_every_task_once(self, total, workers):
        chunks = plan_chunks(total, workers)
        covered = []
        for start, size in chunks:
            assert size >= 1
            covered.extend(range(start, start + size))
        assert covered == list(range(total))

    def test_chunk_sizes_decay_to_one(self):
        chunks = plan_chunks(200, 4)
        sizes = [size for _, size in chunks]
        assert all(size <= MAX_CHUNK_TASKS for size in sizes)
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[-1] == 1  # the long tail is scheduled point-by-point

    def test_empty_plan(self):
        assert plan_chunks(0, 4) == []


class TestWarmPoolLifecycle:
    def test_workers_persist_across_map_calls(self):
        pool = get_pool(2)
        first = set(pool.map(_pid, list(range(8)), 2))
        second = set(pool.map(_pid, list(range(8)), 2))
        assert first  # ran in worker processes...
        assert os.getpid() not in first
        assert second <= first  # ...and the same ones served both calls

    def test_get_pool_reuses_and_grows(self):
        pool = get_pool(1)
        assert get_pool(1) is pool
        grown = get_pool(2)
        assert grown is pool
        assert grown.size == 2

    def test_shutdown_then_get_respawns(self):
        pool = get_pool(1)
        shutdown_pool()
        assert pool.closed
        fresh = get_pool(1)
        assert fresh is not pool
        assert fresh.map(_identity, [1, 2, 3], 1) == [1, 2, 3]


class TestTaskTransfer:
    def test_large_array_tasks_return_correct_sums(self):
        # 48 KiB per task: the size of the largest Table-1 phase array.
        array = np.arange(6144, dtype=np.float64)
        assert array.nbytes == 48 * 1024
        pool = get_pool(2)
        tasks = [(array, offset) for offset in range(6)]
        expected = [float(array.sum()) + offset for offset in range(6)]
        assert pool.map(_sum_task, tasks, 2) == expected

    def test_shared_payload_decoded_at_most_once_per_worker(self):
        array = np.arange(6144, dtype=np.float64)
        pool = get_pool(2)
        with obs_metrics.delta_capture() as delta:
            results = pool.map(_scaled_sum, list(range(20)), 2, shared=array)
        assert results == [float(array.sum()) * 2 + i for i in range(20)]
        decodes = delta["pool.shared_decodes"]["value"]
        assert 1 <= decodes <= pool.size


class TestErrorHandling:
    def test_error_cancels_queued_and_pool_survives(self):
        pool = get_pool(2)
        with pytest.raises(WorkerTaskError) as excinfo:
            pool.map(_boom_at_three, list(range(60)), 2)
        assert excinfo.value.index == 3
        assert "ValueError" in excinfo.value.message
        # The pool stays usable: the next map drains stale results and
        # returns correct, complete output.
        assert pool.map(_identity, list(range(10)), 2) == list(range(10))
        assert not pool.closed


class TestBoundedWindow:
    def test_in_flight_chunks_stay_within_window(self):
        pool = get_pool(2)
        pool.map(_identity, list(range(300)), 2)
        assert 0 < pool.last_max_in_flight <= max(2, 2 * 2)


class TestExecutorConfig:
    def test_reports_resolved_configuration(self):
        config = executor_config("auto")
        assert config["enabled"] is True
        assert config["cpus"] == available_cpus()
        assert config["resolved_jobs"] == available_cpus()
        assert config["chunking"]["schedule"] == "guided"

    def test_reports_live_worker_count(self):
        assert executor_config()["workers"] is None
        get_pool(2)
        assert executor_config()["workers"] == 2
