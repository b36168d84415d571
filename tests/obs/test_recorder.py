"""The recorder: spans, env activation, the disabled no-op path."""

import os
import threading

from repro.charlib.simulate import multi_input_response
from repro.cli import _serve_recorder
from repro.obs import (
    OBS_ENV_VAR,
    TRACE_ENV_VAR,
    MetricsRecorder,
    NullRecorder,
    Recorder,
    capture_task,
    get_recorder,
    recording,
    reset_recorder,
    set_recorder,
    traced,
)
from repro.waveform import FALL, Edge

REQUIRED_EVENT_FIELDS = ("name", "cat", "ph", "ts", "dur", "pid", "tid")


class TestSpans:
    def test_span_event_schema(self):
        recorder = Recorder()
        with recorder.span("outer", gate="nand3"):
            pass
        (event,) = recorder.trace_events()
        for field in REQUIRED_EVENT_FIELDS:
            assert field in event
        assert event["ph"] == "X"
        assert event["pid"] == os.getpid()
        assert event["tid"] == threading.get_ident() % 2**31
        assert event["args"] == {"gate": "nand3"}
        assert event["dur"] >= 0

    def test_nested_spans_close_inner_first(self):
        recorder = Recorder()
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        names = [e["name"] for e in recorder.trace_events()]
        assert names == ["inner", "outer"]
        inner, outer = recorder.trace_events()
        assert outer["ts"] <= inner["ts"]
        assert outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"]

    def test_drain_empties_buffer(self):
        recorder = Recorder()
        with recorder.span("s"):
            pass
        assert len(recorder.drain_spans()) == 1
        assert recorder.trace_events() == []

    def test_traced_decorator_records_under_pinned_recorder(self):
        @traced("unit.work", flavor="test")
        def work(x):
            return x + 1

        with recording() as rec:
            assert work(1) == 2
        (event,) = rec.trace_events()
        assert event["name"] == "unit.work"
        assert event["args"] == {"flavor": "test"}

    def test_traced_decorator_noop_when_disabled(self):
        @traced("unit.work")
        def work(x):
            return x + 1

        assert work(1) == 2  # NullRecorder path: no spans anywhere
        assert get_recorder().trace_events() == []


class TestActivation:
    def test_disabled_by_default(self):
        assert isinstance(get_recorder(), NullRecorder)

    def test_env_var_enables_and_memoizes(self, monkeypatch):
        monkeypatch.setenv(OBS_ENV_VAR, "1")
        recorder = get_recorder()
        assert recorder.enabled
        assert get_recorder() is recorder  # memoized on the env signature

    def test_env_change_re_resolves(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV_VAR, "/tmp/a.json")
        assert get_recorder().enabled
        monkeypatch.delenv(TRACE_ENV_VAR)
        assert not get_recorder().enabled

    def test_falsy_obs_values_stay_disabled(self, monkeypatch):
        for value in ("0", "false", "off", "no", ""):
            monkeypatch.setenv(OBS_ENV_VAR, value)
            assert not get_recorder().enabled

    def test_explicit_pin_beats_env(self, monkeypatch):
        pinned = Recorder()
        set_recorder(pinned)
        monkeypatch.setenv(OBS_ENV_VAR, "1")
        assert get_recorder() is pinned
        reset_recorder()
        assert get_recorder() is not pinned

    def test_recording_restores_previous_state(self):
        before = get_recorder()
        with recording() as rec:
            assert get_recorder() is rec
        assert get_recorder() is before


class TestNullRecorder:
    def test_every_operation_emits_nothing(self):
        recorder = NullRecorder()
        with recorder.span("s", x=1):
            recorder.counter("c", k="v").inc(5)
            recorder.gauge("g").set(2)
            recorder.histogram("h").observe(0.5)
        assert recorder.trace_events() == []
        assert recorder.metrics_payload() == {
            "counters": {}, "gauges": {}, "histograms": {},
        }
        assert recorder.drain_spans() == []


def _task(x):
    get_recorder().counter("task.units").inc(x)
    return x * 2


class TestCaptureTask:
    def test_disabled_ships_no_telemetry(self):
        value, telemetry = capture_task(_task, 3, 0)
        assert value == 6
        assert telemetry is None

    def test_delta_isolated_from_preexisting_state(self):
        """A forked worker inherits parent state; it must not re-ship it."""
        with recording() as rec:
            rec.counter("task.units").inc(100)  # "parent" counts, pre-fork
            with rec.span("parent.span"):
                pass
            value, telemetry = capture_task(_task, 3, 7)
        assert value == 6
        assert telemetry["metrics"]["counters"] == {"task.units": 3}
        names = [e["name"] for e in telemetry["spans"]]
        assert names == ["parallel.task"]
        assert telemetry["spans"][0]["args"] == {"index": 7}
        assert telemetry["end"] >= telemetry["start"]
        assert telemetry["pid"] == os.getpid()

    def test_absorb_merges_metrics_and_spans(self):
        with recording():
            _, telemetry = capture_task(_task, 2, 0)
        parent = Recorder()
        parent.counter("task.units").inc(1)
        parent.absorb_task(telemetry)
        parent.absorb_task(None)  # disabled-worker envelope: no-op
        assert parent.metrics_payload()["counters"]["task.units"] == 3
        assert [e["name"] for e in parent.trace_events()] == ["parallel.task"]


class TestDaemonRecorder:
    """``repro serve`` pins a recorder that keeps metrics and buffers no
    spans: nothing in the daemon drains them."""

    def test_shots_buffer_no_spans(self, nand3, thresholds):
        recorder = _serve_recorder()
        assert isinstance(recorder, MetricsRecorder)
        set_recorder(recorder)
        for k in range(50):
            multi_input_response(nand3, {"a": Edge(FALL, 0.0, (200 + k) * 1e-12)},
                                 thresholds)
        assert recorder.trace_events() == []
        counters = recorder.metrics_payload()["counters"]
        assert counters["spice.transient.analyses"] >= 50
        assert counters["spice.newton.solves"] > 0

    def test_armed_recorder_is_kept(self, monkeypatch):
        monkeypatch.setenv(OBS_ENV_VAR, "1")
        assert get_recorder().enabled
        assert _serve_recorder() is None

    def test_absorb_merges_metrics_and_drops_spans(self):
        with recording():
            _, telemetry = capture_task(_task, 2, 0)
        recorder = MetricsRecorder()
        recorder.absorb_task(telemetry)
        assert recorder.metrics_payload()["counters"]["task.units"] == 2
        assert recorder.trace_events() == []
