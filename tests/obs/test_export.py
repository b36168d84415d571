"""Exporters: trace documents, metrics files, the stats rendering."""

import json
import os

from repro.obs import (
    Recorder,
    degradation_summary,
    format_stats,
    metrics_document,
    recording,
    trace_document,
    write_chrome_trace,
    write_metrics,
)


def _recorded():
    recorder = Recorder()
    with recorder.span("outer"):
        recorder.counter("cache.hits").inc(3)
        recorder.gauge("parallel.workers").set(4)
        recorder.histogram("seconds", edges=(0.1, 1.0)).observe(0.5)
    return recorder


class TestTraceDocument:
    def test_metadata_names_parent_and_workers(self):
        events = [
            {"name": "a", "cat": "repro", "ph": "X", "ts": 0.0, "dur": 1.0,
             "pid": os.getpid(), "tid": 1},
            {"name": "b", "cat": "repro", "ph": "X", "ts": 0.0, "dur": 1.0,
             "pid": 99999999, "tid": 1},
        ]
        document = trace_document(events)
        metadata = [e for e in document["traceEvents"] if e["ph"] == "M"]
        names = {e["pid"]: e["args"]["name"] for e in metadata}
        assert names[os.getpid()] == "repro"
        assert names[99999999] == "repro worker 99999999"
        assert document["displayTimeUnit"] == "ms"
        assert [e for e in document["traceEvents"] if e["ph"] == "X"] == events

    def test_written_file_is_loadable_json(self, tmp_path):
        recorder = _recorded()
        path = tmp_path / "trace.json"
        write_chrome_trace(path, recorder.trace_events())
        document = json.loads(path.read_text())
        assert isinstance(document["traceEvents"], list)
        complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert complete and all(
            set(("name", "ph", "ts", "dur", "pid", "tid")) <= set(e)
            for e in complete
        )


class TestMetricsDocument:
    def test_envelope_and_round_trip(self, tmp_path):
        recorder = _recorded()
        path = tmp_path / "metrics.json"
        write_metrics(path, recorder.metrics_payload())
        document = json.loads(path.read_text())
        assert document["kind"] == "repro-metrics"
        assert document["schema"] == 1
        assert document["counters"]["cache.hits"] == 3
        assert document == metrics_document(recorder.metrics_payload())


class TestFormatStats:
    def test_sections_and_digests(self):
        text = format_stats(_recorded().metrics_payload(), title="run")
        assert text.splitlines()[0] == "run"
        assert "counters:" in text and "cache.hits" in text
        assert "gauges:" in text and "parallel.workers" in text
        assert "n=1" in text and "p50<=1" in text

    def test_empty_payload(self):
        assert "no metrics recorded" in format_stats(
            {"counters": {}, "gauges": {}, "histograms": {}})


class TestDegradationSummary:
    def test_empty_when_disabled(self):
        assert degradation_summary() == ""

    def test_empty_when_nothing_lost(self):
        with recording():
            assert degradation_summary() == ""

    def test_reports_retries_faults_and_fills(self):
        with recording() as rec:
            rec.counter("spice.retries", phase="dc", rung=1).inc(2)
            rec.counter("charlib.points.failed", kind="timeout").inc(3)
            rec.counter("charlib.cells.filled").inc(4)
            line = degradation_summary()
        assert line.startswith("metrics: ")
        assert "solver retries 2" in line
        assert "timeout=3" in line
        assert "cells neighbor-filled 4" in line


class TestHeadlineSummary:
    """`repro stats` leads with the operator-triage counters."""

    def _payload(self):
        recorder = Recorder()
        recorder.counter("spice.newton.solves").inc(200)
        recorder.counter("spice.newton.iterations").inc(640)
        recorder.counter("spice.guard.rung", rung="gmin_ramp").inc(3)
        recorder.counter("spice.guard.rung", rung="nudge").inc(1)
        recorder.counter("spice.guard.aborts", reason="watchdog").inc(1)
        recorder.counter("spice.sparse.factorizations").inc(40)
        recorder.counter("obs.flight.dumps", reason="guard_watchdog").inc(1)
        return recorder.metrics_payload()

    def test_surfaces_guard_eviction_and_sparse_families(self):
        from repro.obs import headline_summary

        text = headline_summary(self._payload())
        assert text.startswith("headline:")
        assert "solves 200" in text
        assert "guard rungs: gmin_ramp=3, nudge=1" in text
        assert "guard aborts: watchdog=1" in text
        assert "sparse: factorizations=40" in text
        assert "flight dumps: guard_watchdog=1" in text

    def test_surfaces_transients_settled_early(self):
        from repro.obs import headline_summary

        recorder = Recorder()
        recorder.counter("spice.transient.analyses").inc(12)
        recorder.counter("spice.transient.settled").inc(9)
        text = headline_summary(recorder.metrics_payload())
        assert "transients: analyses 12, settled early 9" in text

    def test_empty_for_quiet_payload(self):
        from repro.obs import headline_summary

        assert headline_summary(
            {"counters": {}, "gauges": {}, "histograms": {}}) == ""

    def test_format_stats_leads_with_headline(self):
        from repro.obs import format_stats, headline_summary

        payload = self._payload()
        text = format_stats(payload)
        assert headline_summary(payload).splitlines()[1] in text
        assert text.index("headline:") < text.index("counters:")
