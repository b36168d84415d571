"""Worker-count invariance of pooled telemetry.

The acceptance property of the whole worker seam: an instrumented work
list produces *identical counter totals* whether it runs serially or
fanned over a pool, and worker spans come back tagged with the worker's
own pid.
"""

import os

import pytest

from repro.obs import OBS_ENV_VAR, get_recorder, recording
from repro.parallel import parallel_map


def _instrumented(x):
    recorder = get_recorder()
    with recorder.span("unit.work", item=x):
        recorder.counter("unit.items").inc()
        recorder.counter("unit.sum", parity=x % 2).inc(x)
    return x * 2


ITEMS = list(range(8))


def _run(workers, monkeypatch):
    # Publish to the env so pool workers enable their own recorders.
    monkeypatch.setenv(OBS_ENV_VAR, "1")
    with recording() as rec:
        results = parallel_map(_instrumented, ITEMS, workers=workers)
    return results, rec


class TestWorkerCountInvariance:
    def test_counters_identical_serial_vs_pool(self, monkeypatch):
        serial_results, serial_rec = _run(0, monkeypatch)
        pool_results, pool_rec = _run(2, monkeypatch)
        assert pool_results == serial_results == [x * 2 for x in ITEMS]
        serial_counters = serial_rec.metrics_payload()["counters"]
        pool_counters = pool_rec.metrics_payload()["counters"]
        assert serial_counters == pool_counters
        assert pool_counters["unit.items"] == len(ITEMS)
        assert pool_counters["parallel.tasks.completed"] == len(ITEMS)

    def test_pool_ships_worker_spans_with_worker_pids(self, monkeypatch):
        _, rec = _run(2, monkeypatch)
        events = rec.trace_events()
        work = [e for e in events if e["name"] == "unit.work"]
        tasks = [e for e in events if e["name"] == "parallel.task"]
        assert len(work) == len(tasks) == len(ITEMS)
        # Linux pools fork: the spans carry the worker pids, not ours.
        assert all(e["pid"] != os.getpid() for e in work)
        assert sorted(e["args"]["index"] for e in tasks) == ITEMS

    def test_pool_records_queue_and_execute_timings(self, monkeypatch):
        _, rec = _run(2, monkeypatch)
        histograms = rec.metrics_payload()["histograms"]
        for name in ("parallel.task_queue_wait_seconds",
                     "parallel.task_execute_seconds"):
            assert histograms[name]["count"] == len(ITEMS)
        assert rec.metrics_payload()["gauges"]["parallel.workers"] == 2

    def test_serial_run_keeps_parent_pid_spans(self, monkeypatch):
        _, rec = _run(0, monkeypatch)
        events = rec.trace_events()
        assert events and all(e["pid"] == os.getpid() for e in events)

    def test_disabled_pool_run_emits_nothing(self):
        assert OBS_ENV_VAR not in os.environ
        results = parallel_map(_instrumented, ITEMS, workers=2)
        assert results == [x * 2 for x in ITEMS]
        recorder = get_recorder()
        assert not recorder.enabled
        assert recorder.trace_events() == []


def _failing(x):
    if x == 3:
        raise ValueError("boom")
    get_recorder().counter("unit.items").inc()
    return x


class TestFailureAccounting:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_collected_failures_counted(self, workers, monkeypatch):
        monkeypatch.setenv(OBS_ENV_VAR, "1")
        with recording() as rec:
            results = parallel_map(_failing, ITEMS, workers=workers,
                                   on_error="collect")
        counters = rec.metrics_payload()["counters"]
        assert counters["parallel.tasks.failed{kind=error}"] == 1
        assert counters["parallel.tasks.completed"] == len(ITEMS) - 1
        assert counters["unit.items"] == len(ITEMS) - 1
        assert results[3].kind == "error"

    def test_chunked_pool_counts_items(self, monkeypatch):
        """Chunks change what one pooled task carries, not what the task
        counters, spans, timings and ``on_result`` see: one per item."""
        monkeypatch.setenv(OBS_ENV_VAR, "1")
        runs = []
        for workers, chunksize in ((0, 1), (2, 1), (2, 3)):
            seen = []
            with recording() as rec:
                results = parallel_map(
                    _failing, ITEMS, workers=workers, chunksize=chunksize,
                    on_error="collect", on_result=lambda i, v: seen.append(i))
            runs.append((results[:3] + results[4:], sorted(seen),
                         rec.metrics_payload()["counters"]))
            executed = rec.metrics_payload()["histograms"][
                "parallel.task_execute_seconds"]["count"]
            assert executed == len(ITEMS) - 1
            assert results[3].kind == "error"
        assert runs[0] == runs[1] == runs[2]
        assert runs[2][1] == [i for i in ITEMS if i != 3]
        assert runs[2][2]["parallel.tasks.completed"] == len(ITEMS) - 1
        assert runs[2][2]["parallel.tasks.failed{kind=error}"] == 1
