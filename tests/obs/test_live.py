"""Live snapshot plane: OpenMetrics schema, atomic snapshots, invariance.

Three acceptance properties of ``repro.obs.live``:

* the OpenMetrics rendering is schema-correct (``# TYPE`` per family,
  ``_total`` counters, cumulative histogram buckets, escaped label
  values, ``# EOF`` terminator);
* snapshots land atomically and re-read as complete documents;
* mid-run snapshot totals at a completed-task boundary are identical
  at ``--workers 1`` and ``--workers 4`` (worker deltas fold in through
  ``absorb_task`` as each task completes).
"""

import json
import threading

import pytest

from repro.obs import (
    OBS_ENV_VAR,
    Recorder,
    get_recorder,
    recording,
)
from repro.obs.live import (
    LIVE_ENV_VAR,
    OPENMETRICS_NAME,
    SNAPSHOT_NAME,
    Snapshotter,
    format_top,
    live_dir_from_env,
    parse_metric_key,
    read_snapshot,
    render_openmetrics,
)
from repro.parallel import parallel_map


class TestLiveActivation:
    def test_off_by_default(self):
        assert live_dir_from_env() is None

    @pytest.mark.parametrize("value", ["0", "false", "off", "no", ""])
    def test_falsy_values_stay_off(self, monkeypatch, value):
        monkeypatch.setenv(LIVE_ENV_VAR, value)
        assert live_dir_from_env() is None

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on"])
    def test_bare_truthy_means_live_dir(self, monkeypatch, value):
        monkeypatch.setenv(LIVE_ENV_VAR, value)
        assert live_dir_from_env() == "live"

    def test_path_value_is_the_directory(self, monkeypatch):
        monkeypatch.setenv(LIVE_ENV_VAR, "out/telemetry")
        assert live_dir_from_env() == "out/telemetry"

    def test_live_env_enables_recording(self, monkeypatch):
        """REPRO_LIVE alone must enable the recorder (worker deltas
        need recording in every process for totals to merge)."""
        monkeypatch.setenv(LIVE_ENV_VAR, "1")
        assert get_recorder().enabled


class TestParseMetricKey:
    def test_bare_name(self):
        assert parse_metric_key("spice.newton.solves") == (
            "spice.newton.solves", {})

    def test_labeled_key(self):
        name, labels = parse_metric_key("spice.guard.rung{rung=nudge}")
        assert name == "spice.guard.rung"
        assert labels == {"rung": "nudge"}

    def test_multiple_labels(self):
        _, labels = parse_metric_key("x{driver=dense,phase=assembly}")
        assert labels == {"driver": "dense", "phase": "assembly"}


class TestOpenMetricsSchema:
    def _payload(self):
        recorder = Recorder()
        recorder.counter("unit.solves").inc(3)
        recorder.counter("unit.rung", rung="gmin_ramp").inc(2)
        recorder.gauge("unit.workers").set(4)
        hist = recorder.histogram("unit.seconds", edges=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        return recorder.metrics_payload()

    def test_type_lines_and_counter_total_suffix(self):
        text = render_openmetrics(self._payload())
        assert "# TYPE repro_unit_solves counter" in text
        assert "repro_unit_solves_total 3" in text
        assert "# TYPE repro_unit_workers gauge" in text
        assert "repro_unit_workers 4" in text
        assert 'repro_unit_rung_total{rung="gmin_ramp"} 2' in text

    def test_one_type_line_per_family(self):
        recorder = Recorder()
        recorder.counter("unit.rung", rung="nudge").inc()
        recorder.counter("unit.rung", rung="gmin_ramp").inc()
        text = render_openmetrics(recorder.metrics_payload())
        assert text.count("# TYPE repro_unit_rung counter") == 1

    def test_histogram_buckets_cumulative_with_inf(self):
        text = render_openmetrics(self._payload())
        assert 'repro_unit_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_unit_seconds_bucket{le="1"} 2' in text
        assert 'repro_unit_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_unit_seconds_count 3" in text
        assert "repro_unit_seconds_sum" in text

    def test_eof_terminator(self):
        text = render_openmetrics(self._payload())
        assert text.endswith("# EOF\n")

    def test_name_sanitization(self):
        recorder = Recorder()
        recorder.counter("spice.newton-dispatch").inc()
        text = render_openmetrics(recorder.metrics_payload())
        assert "repro_spice_newton_dispatch_total 1" in text

    def test_label_value_escaping(self):
        recorder = Recorder()
        recorder.counter("unit.odd", path='a\\b"c\nd').inc()
        text = render_openmetrics(recorder.metrics_payload())
        assert 'path="a\\\\b\\"c\\nd"' in text

    def test_empty_payload_is_just_eof(self):
        assert render_openmetrics(Recorder().metrics_payload()) == "# EOF\n"


class TestSnapshotter:
    def test_write_now_produces_both_files(self, tmp_path):
        recorder = Recorder()
        recorder.counter("unit.items").inc(7)
        snap = Snapshotter(recorder, str(tmp_path / "live"))
        document = snap.write_now()
        assert document["seq"] == 1
        on_disk = read_snapshot(str(tmp_path / "live" / SNAPSHOT_NAME))
        assert on_disk["kind"] == "repro-live"
        assert on_disk["counters"]["unit.items"] == 7
        prom = (tmp_path / "live" / OPENMETRICS_NAME).read_text()
        assert "repro_unit_items_total 7" in prom
        assert prom.endswith("# EOF\n")

    def test_no_temp_file_residue(self, tmp_path):
        snap = Snapshotter(Recorder(), str(tmp_path))
        snap.write_now()
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [SNAPSHOT_NAME, OPENMETRICS_NAME]

    def test_sequence_increments(self, tmp_path):
        snap = Snapshotter(Recorder(), str(tmp_path))
        assert snap.write_now()["seq"] == 1
        assert snap.write_now()["seq"] == 2

    def test_thread_lifecycle_and_final_write(self, tmp_path):
        recorder = Recorder()
        snap = Snapshotter(recorder, str(tmp_path), interval=0.05)
        assert not snap.running
        snap.start()
        assert snap.running
        names = [t.name for t in threading.enumerate()]
        assert "repro-live-snapshotter" in names
        recorder.counter("unit.final").inc()
        snap.stop(final=True)
        assert not snap.running
        names = [t.name for t in threading.enumerate()]
        assert "repro-live-snapshotter" not in names
        document = read_snapshot(str(tmp_path / SNAPSHOT_NAME))
        assert document["counters"]["unit.final"] == 1

    def test_read_snapshot_rejects_torn_or_foreign_files(self, tmp_path):
        assert read_snapshot(str(tmp_path / "missing.json")) is None
        torn = tmp_path / "torn.json"
        torn.write_text('{"kind": "repro-li')
        assert read_snapshot(str(torn)) is None
        foreign = tmp_path / "foreign.json"
        foreign.write_text(json.dumps({"kind": "something-else"}))
        assert read_snapshot(str(foreign)) is None


def _live_task(x):
    recorder = get_recorder()
    recorder.counter("unit.items").inc()
    recorder.histogram("unit.task_cost", edges=(1.0, 10.0)).observe(x)
    return x


class TestWorkerInvariantSnapshots:
    """Mid-run snapshot totals must not depend on the worker count."""

    BOUNDARY = 4
    ITEMS = [2.0] * 8  # identical tasks: totals at any completed-task
    #                    boundary are a function of the count alone

    def _snapshot_at_boundary(self, workers, monkeypatch, tmp_path):
        monkeypatch.setenv(OBS_ENV_VAR, "1")
        captured = {}
        with recording() as recorder:
            snap = Snapshotter(recorder, str(tmp_path / f"w{workers}"))
            done = []

            def on_result(index, value):
                done.append(index)
                if len(done) == self.BOUNDARY:
                    captured["doc"] = snap.write_now()

            parallel_map(_live_task, self.ITEMS, workers=workers,
                         on_result=on_result)
        return captured["doc"]

    def test_totals_identical_1_vs_4_workers(self, monkeypatch, tmp_path):
        serial = self._snapshot_at_boundary(1, monkeypatch, tmp_path)
        pooled = self._snapshot_at_boundary(4, monkeypatch, tmp_path)
        assert serial["counters"]["unit.items"] == self.BOUNDARY
        assert pooled["counters"]["unit.items"] == self.BOUNDARY
        assert (serial["histograms"]["unit.task_cost"]["counts"]
                == pooled["histograms"]["unit.task_cost"]["counts"])
        assert (serial["histograms"]["unit.task_cost"]["sum"]
                == pooled["histograms"]["unit.task_cost"]["sum"])

    def test_final_totals_also_match(self, monkeypatch, tmp_path):
        monkeypatch.setenv(OBS_ENV_VAR, "1")
        totals = []
        for workers in (1, 4):
            with recording() as recorder:
                parallel_map(_live_task, self.ITEMS, workers=workers)
                totals.append(
                    recorder.metrics_payload()["counters"]["unit.items"])
        assert totals[0] == totals[1] == len(self.ITEMS)


class TestFormatTop:
    def _document(self, **counters):
        base = {"spice.newton.solves": 120.0,
                "spice.newton.iterations": 360.0}
        base.update(counters)
        return {
            "schema": 1, "kind": "repro-live", "pid": 42, "seq": 3,
            "time": 1000.0, "uptime": 12.0,
            "counters": base, "gauges": {}, "histograms": {},
        }

    def test_headline_and_rate_from_uptime(self):
        text = format_top(self._document(), now=1000.5)
        assert "pid 42" in text and "seq 3" in text
        assert "solves" in text
        assert "10.0/s" in text  # 120 solves / 12s uptime

    def test_rate_from_previous_snapshot(self):
        previous = self._document()
        previous["time"] = 998.0
        previous["counters"] = {"spice.newton.solves": 20.0}
        text = format_top(self._document(), previous=previous, now=1000.5)
        assert "50" in text and "over last 2.0s" in text

    def test_rung_and_eviction_lines(self):
        text = format_top(self._document(**{
            "spice.guard.rung{rung=nudge}": 3.0,
            "obs.flight.dumps{reason=retry_ladder_exhausted}": 1.0,
        }), now=1000.5)
        assert "rungs" in text and "nudge=3" in text
        assert "flight" in text and "1 dump(s)" in text

    def test_pool_health_line(self):
        document = self._document(**{"parallel.tasks.completed": 9.0})
        document["gauges"] = {"parallel.workers": 4.0,
                              "parallel.tasks.inflight": 2.0}
        text = format_top(document, now=1000.5)
        assert "workers=4" in text and "inflight=2" in text
        assert "tasks ok=9" in text

    def test_phase_breakdown_section(self):
        document = self._document()
        document["histograms"] = {
            "spice.phase.seconds{driver=dense,phase=assembly}": {
                "edges": [0.1], "counts": [1], "sum": 0.3, "count": 1},
            "spice.phase.seconds{driver=dense,phase=factorize}": {
                "edges": [0.1], "counts": [1], "sum": 0.1, "count": 1},
        }
        text = format_top(document, now=1000.5)
        assert "phase breakdown" in text
        assert "assembly 75%" in text
        assert "factorize 25%" in text
