"""Fault tolerance of parallel_map: crashes, timeouts, collect mode."""

import time

import pytest

from repro.errors import ReproError, TaskError
from repro.parallel import (
    TIMEOUT_ENV_VAR,
    TaskFailure,
    parallel_map,
    resolve_timeout,
)
from repro.resilience import FaultInjection


def _double(x):
    return 2 * x


def _slow_first(x):
    """``_double``, but item 0 runs long enough to be in flight at every
    crash of the item beside it."""
    if x == 0:
        time.sleep(2.0)
    return 2 * x


def _flaky(x):
    if x == 3:
        raise ValueError(f"bad item {x}")
    return 2 * x


class TestResolveTimeout:
    def test_default_is_none(self, monkeypatch):
        monkeypatch.delenv(TIMEOUT_ENV_VAR, raising=False)
        assert resolve_timeout() is None

    def test_argument_wins(self):
        assert resolve_timeout(2.5) == 2.5

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV_VAR, "1.5")
        assert resolve_timeout() == 1.5

    def test_nonpositive_disables(self):
        assert resolve_timeout(0) is None
        assert resolve_timeout(-1) is None

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV_VAR, "soon")
        with pytest.raises(ReproError):
            resolve_timeout()


class TestCollectMode:
    def test_serial_collect_keeps_order(self):
        results = parallel_map(_flaky, range(6), on_error="collect")
        assert results[:3] == [0, 2, 4]
        assert results[4:] == [8, 10]
        failure = results[3]
        assert isinstance(failure, TaskFailure)
        assert failure.index == 3
        assert failure.kind == "error"
        assert failure.error_type == "ValueError"
        assert isinstance(failure.exception, ValueError)
        assert "task 3" in failure.describe()

    def test_pool_collect_keeps_order(self):
        results = parallel_map(_flaky, range(6), workers=2, on_error="collect")
        assert [r for r in results if not isinstance(r, TaskFailure)] == [0, 2, 4, 8, 10]
        (failure,) = [r for r in results if isinstance(r, TaskFailure)]
        assert results.index(failure) == 3
        assert failure.kind == "error"

    def test_raise_mode_still_propagates_original(self):
        with pytest.raises(ValueError, match="bad item 3"):
            parallel_map(_flaky, range(6), workers=2)

    def test_bad_on_error_rejected(self):
        with pytest.raises(ReproError):
            parallel_map(_double, [1], on_error="ignore")

    def test_on_result_sees_successes_only(self):
        seen = []
        parallel_map(_flaky, range(6), on_error="collect",
                     on_result=lambda i, v: seen.append((i, v)))
        assert sorted(seen) == [(0, 0), (1, 2), (2, 4), (4, 8), (5, 10)]


class TestWorkerCrash:
    def test_crash_is_recovered_by_resubmission(self):
        """A worker killed once mid-task: the pool rebuilds, the task
        re-runs, and every result lands."""
        with FaultInjection("crash@2:1") as fi:
            results = parallel_map(_double, range(6), workers=2)
            assert fi.fired_count("crash") == 1
        assert results == [0, 2, 4, 6, 8, 10]

    def test_persistent_crasher_is_declared_lost(self):
        """A task that kills its worker on every attempt must exhaust its
        resubmission budget and come back as a crash failure -- without
        poisoning the other tasks."""
        with FaultInjection("crash@1:always"):
            results = parallel_map(_double, range(4), workers=2,
                                   on_error="collect", pool_retries=2)
        (failure,) = [r for r in results if isinstance(r, TaskFailure)]
        assert results.index(failure) == 1
        assert failure.kind == "crash"
        assert failure.attempts == 3  # initial + pool_retries resubmissions
        assert [r for r in results if not isinstance(r, TaskFailure)] == [0, 4, 6]

    def test_slow_bystander_is_not_charged_for_crashes(self):
        """A crash with several tasks in flight names no culprit: the
        slow bystander reruns alone and completes, and only the crasher,
        charged once per crash alone, is declared lost."""
        with FaultInjection("crash@1:always"):
            results = parallel_map(_slow_first, range(4), workers=2,
                                   on_error="collect", pool_retries=2)
        (failure,) = [r for r in results if isinstance(r, TaskFailure)]
        assert results.index(failure) == 1
        assert failure.kind == "crash"
        assert failure.attempts == 3
        assert [r for r in results if not isinstance(r, TaskFailure)] == [0, 4, 6]

    def test_persistent_crasher_raises_task_error_in_raise_mode(self):
        with FaultInjection("crash@0:always"):
            with pytest.raises(TaskError):
                parallel_map(_double, range(4), workers=2, pool_retries=1)

    def test_crash_faults_do_not_fire_serially(self):
        """crash/hang model *worker* faults; the serial path has no
        worker to kill, so the plan must not fire."""
        with FaultInjection("crash@1:1") as fi:
            assert parallel_map(_double, range(4)) == [0, 2, 4, 6]
            assert fi.fired_count("crash") == 0


class TestTaskTimeout:
    def test_hung_task_times_out_and_innocents_survive(self):
        start = time.monotonic()
        with FaultInjection("hang@1:1", hang_seconds=30):
            results = parallel_map(_double, range(5), workers=2,
                                   on_error="collect", timeout=1.0)
        elapsed = time.monotonic() - start
        (failure,) = [r for r in results if isinstance(r, TaskFailure)]
        assert results.index(failure) == 1
        assert failure.kind == "timeout"
        assert [r for r in results if not isinstance(r, TaskFailure)] == [0, 4, 6, 8]
        assert elapsed < 15.0  # did not wait out the 30s hang

    def test_timeout_raises_task_error_in_raise_mode(self):
        with FaultInjection("hang@0:1", hang_seconds=30):
            with pytest.raises(TaskError, match="timeout"):
                parallel_map(_double, range(3), workers=2, timeout=1.0)

    def test_generous_timeout_changes_nothing(self):
        results = parallel_map(_double, range(5), workers=2, timeout=60.0)
        assert results == [0, 2, 4, 6, 8]
