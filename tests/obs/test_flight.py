"""Flight recorder: ring semantics, dump artifacts, failure triggers.

The headline acceptance scenario: a run whose retry ladder exhausts
under injected faults must leave a ``flight_*.json`` postmortem carrying the recent solve records -- phase
timings, rung history, outcomes -- plus the trigger context.
"""

import json
import glob
import os

import pytest

from repro.obs import (
    OBS_ENV_VAR,
    Recorder,
    recording,
)
from repro.obs.flight import (
    DEFAULT_RING_SIZE,
    FLIGHT_DIR_ENV_VAR,
    FLIGHT_ENV_VAR,
    FlightRecorder,
    dump_flight,
    flight_dump_dir,
    flight_ring_size,
)
from repro.errors import ConvergenceError
from repro.resilience import FaultInjection
from repro.spice import transient
from repro.spice.builders import inverter_chain


def _dumps_in(directory):
    return sorted(glob.glob(os.path.join(str(directory), "flight_*.json")))


def _load(path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestRingConfig:
    def test_default_size(self):
        assert flight_ring_size() == DEFAULT_RING_SIZE

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(FLIGHT_ENV_VAR, "8")
        assert flight_ring_size() == 8

    def test_zero_disables(self, monkeypatch):
        monkeypatch.setenv(FLIGHT_ENV_VAR, "0")
        assert flight_ring_size() == 0
        assert not FlightRecorder().enabled

    def test_garbage_falls_back_to_default(self, monkeypatch):
        monkeypatch.setenv(FLIGHT_ENV_VAR, "many")
        assert flight_ring_size() == DEFAULT_RING_SIZE

    def test_negative_clamps_to_disabled(self, monkeypatch):
        monkeypatch.setenv(FLIGHT_ENV_VAR, "-3")
        assert flight_ring_size() == 0

    def test_dump_dir_default_and_override(self, monkeypatch):
        assert flight_dump_dir() == "."
        monkeypatch.setenv(FLIGHT_DIR_ENV_VAR, "out/live")
        assert flight_dump_dir() == "out/live"


class TestRingSemantics:
    def test_eviction_keeps_newest(self):
        ring = FlightRecorder(size=3)
        for i in range(5):
            ring.note_solve(n=i)
        kept = [r["n"] for r in ring.records()]
        assert kept == [2, 3, 4]

    def test_solves_and_rungs_interleave_in_order(self):
        ring = FlightRecorder(size=8)
        ring.note_solve(n=1)
        ring.note_rung("gmin_ramp")
        ring.note_solve(n=2)
        events = [(r["event"], r.get("rung") or r.get("n"))
                  for r in ring.records()]
        assert events == [("solve", 1), ("rung", "gmin_ramp"), ("solve", 2)]
        stamps = [r["t"] for r in ring.records()]
        assert stamps == sorted(stamps)

    def test_clear(self):
        ring = FlightRecorder(size=4)
        ring.note_solve(n=1)
        ring.clear()
        assert ring.records() == []

    def test_disabled_ring_ignores_events(self):
        ring = FlightRecorder(size=0)
        ring.note_solve(n=1)
        ring.note_rung("nudge")
        assert ring.records() == []
        assert ring.dump("whatever") is None


class TestDumpArtifact:
    def test_dump_document_shape(self, tmp_path):
        ring = FlightRecorder(size=4)
        ring.note_solve(driver="dense", n=6, iterations=9,
                        outcome="converged",
                        phases={"assembly": 0.01, "factorize": 0.02})
        ring.note_rung("nudge")
        path = ring.dump("retry_ladder_exhausted",
                         context={"phase": "dc", "attempts": 3},
                         directory=str(tmp_path))
        assert path is not None and os.path.basename(path).startswith("flight_")
        document = _load(path)
        assert document["kind"] == "repro-flight"
        assert document["schema"] == 1
        assert document["reason"] == "retry_ladder_exhausted"
        assert document["context"] == {"phase": "dc", "attempts": 3}
        solve, rung = document["records"]
        assert solve["event"] == "solve" and solve["driver"] == "dense"
        assert solve["phases"]["factorize"] == 0.02
        assert rung == {"event": "rung", "rung": "nudge", "t": rung["t"]}

    def test_empty_ring_still_dumps(self, tmp_path):
        """A fault that kills every attempt before its first Newton
        solve leaves no records -- the reason/context alone are the
        postmortem, so the dump must still land."""
        ring = FlightRecorder(size=4)
        path = ring.dump("retry_ladder_exhausted",
                         context={"error": "injected"},
                         directory=str(tmp_path))
        assert path is not None
        assert _load(path)["records"] == []

    def test_sequential_dumps_get_distinct_names(self, tmp_path):
        ring = FlightRecorder(size=4)
        first = ring.dump("a", directory=str(tmp_path))
        second = ring.dump("b", directory=str(tmp_path))
        assert first != second
        assert len(_dumps_in(tmp_path)) == 2

    def test_unwritable_directory_returns_none(self, tmp_path):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file, not a directory")
        ring = FlightRecorder(size=4)
        assert ring.dump("a", directory=str(blocked)) is None

    def test_dump_flight_counts_by_reason(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FLIGHT_DIR_ENV_VAR, str(tmp_path))
        recorder = Recorder()
        recorder.flight.note_solve(n=1)
        assert dump_flight(recorder, "retry_ladder_exhausted") is not None
        counters = recorder.metrics_payload()["counters"]
        assert counters["obs.flight.dumps{reason=retry_ladder_exhausted}"] == 1

    def test_dump_flight_none_recorder_is_noop(self):
        assert dump_flight(None, "anything") is None


@pytest.fixture
def flight_env(monkeypatch, tmp_path):
    """Telemetry on, flight dumps routed into a fresh directory."""
    monkeypatch.setenv(OBS_ENV_VAR, "1")
    monkeypatch.setenv(FLIGHT_DIR_ENV_VAR, str(tmp_path))
    return tmp_path


class TestFailureTriggers:
    def test_exhausted_ladder_dumps_solve_records(self, flight_env,
                                                  monkeypatch):
        """``sparse@factorize:always`` makes every Newton solve die at
        the factorization, so the ladder walks all its rungs and then
        exhausts -- the dump must carry the solve records (driver,
        outcome, phase timings) and the interleaved rung history."""
        monkeypatch.setenv("REPRO_SPARSE", "1")
        with recording():
            with FaultInjection("sparse@factorize:always"):
                with pytest.raises(ConvergenceError):
                    transient(inverter_chain(2), "0.2ns")
        dumps = [_load(p) for p in _dumps_in(flight_env)]
        assert dumps, "retry-ladder exhaustion wrote no flight dump"
        final = dumps[-1]
        assert final["reason"] == "retry_ladder_exhausted"
        assert final["context"]["phase"] == "transient"
        solves = [r for r in final["records"] if r["event"] == "solve"]
        rungs = [r["rung"] for r in final["records"] if r["event"] == "rung"]
        assert solves, "dump carries no solve records"
        assert all(r["driver"] == "sparse" for r in solves)
        assert all(r["outcome"] == "singular" for r in solves)
        assert all("assembly" in r["phases"] for r in solves)
        assert "gmin_ramp" in rungs and "nudge" in rungs

    def test_fault_before_first_solve_still_dumps(self, flight_env):
        """``transient@*`` faults fire at attempt start, before any
        Newton solve -- the ring is empty but the postmortem (reason +
        error context) must still be written."""
        with recording():
            with FaultInjection("transient@*:always"):
                with pytest.raises(ConvergenceError):
                    transient(inverter_chain(2), "0.2ns")
        dumps = [_load(p) for p in _dumps_in(flight_env)]
        assert dumps
        assert dumps[-1]["reason"] == "retry_ladder_exhausted"
        assert "injected" in dumps[-1]["context"]["error"]

    def test_flight_disabled_leaves_no_dumps(self, flight_env, monkeypatch):
        monkeypatch.setenv(FLIGHT_ENV_VAR, "0")
        with recording():
            with FaultInjection("transient@*:always"):
                with pytest.raises(ConvergenceError):
                    transient(inverter_chain(2), "0.2ns")
        assert _dumps_in(flight_env) == []

    def test_clean_solve_dumps_nothing(self, flight_env):
        with recording():
            transient(inverter_chain(2), "0.2ns")
        assert _dumps_in(flight_env) == []
