"""Phase profiler: accumulator semantics and per-driver solver wiring.

The wiring tests run a real transient on each driver and assert the
``spice.phase.seconds{driver=...,phase=...}`` histograms show up with
the phases that driver actually has -- that is the contract ``repro
top``, the flight recorder, and the bench-trend attribution all lean
on.
"""

import pytest

from repro.obs import NullRecorder, Recorder, recording
from repro.obs.profile import (
    PHASE_METRIC,
    PHASES,
    PhaseProfiler,
    PhaseTimes,
    phase_breakdown,
)
from repro.spice import transient
from repro.spice.builders import inverter_chain


class TestPhaseTimes:
    def test_starts_at_zero(self):
        times = PhaseTimes()
        assert times.total == 0.0
        assert times.as_dict() == {}

    def test_as_dict_keeps_only_nonzero_phases(self):
        times = PhaseTimes()
        times.assembly += 0.25
        times.guard += 0.05
        assert times.as_dict() == {"assembly": 0.25, "guard": 0.05}
        assert times.total == pytest.approx(0.30)

    def test_slots_reject_unknown_phases(self):
        with pytest.raises(AttributeError):
            PhaseTimes().refactorize = 1.0


class TestPhaseProfiler:
    def test_disabled_recorder_yields_none(self):
        assert PhaseProfiler.from_recorder(None) is None
        assert PhaseProfiler.from_recorder(NullRecorder()) is None

    def test_finish_records_labelled_histograms(self):
        recorder = Recorder()
        profiler = PhaseProfiler.from_recorder(recorder)
        times = profiler.begin()
        times.assembly += 2e-4
        times.factorize += 1e-3
        profiler.finish("dense", times)
        hists = recorder.metrics_payload()["histograms"]
        key = PHASE_METRIC + "{driver=dense,phase=assembly}"
        assert hists[key]["count"] == 1
        assert hists[key]["sum"] == pytest.approx(2e-4)
        assert PHASE_METRIC + "{driver=dense,phase=factorize}" in hists
        # Zero phases are skipped: the handle registers the family but
        # records no observation.
        back_solve = hists[PHASE_METRIC + "{driver=dense,phase=back_solve}"]
        assert back_solve["count"] == 0 and back_solve["sum"] == 0.0

    def test_handles_are_cached_per_driver(self):
        profiler = PhaseProfiler.from_recorder(Recorder())
        assert profiler._handles("dense") is profiler._handles("dense")
        assert profiler._handles("dense") is not profiler._handles("sparse")


class TestPhaseBreakdown:
    def test_parses_driver_and_phase_labels(self):
        histograms = {
            PHASE_METRIC + "{driver=dense,phase=assembly}": {"sum": 0.3},
            PHASE_METRIC + "{driver=dense,phase=factorize}": {"sum": 0.1},
            PHASE_METRIC + "{driver=sparse,phase=back_solve}": {"sum": 0.2},
            "spice.newton.iterations": {"sum": 99.0},  # ignored
            PHASE_METRIC + "{driver=dense}": {"sum": 1.0},  # no phase
        }
        breakdown = phase_breakdown(histograms)
        assert breakdown == {
            "dense": {"assembly": 0.3, "factorize": 0.1},
            "sparse": {"back_solve": 0.2},
        }

    def test_malformed_sums_are_skipped(self):
        histograms = {
            PHASE_METRIC + "{driver=dense,phase=assembly}": {"count": 4},
        }
        assert phase_breakdown(histograms) == {}


def _run_and_breakdown(stages=2, stop="0.5ns"):
    with recording() as recorder:
        transient(inverter_chain(stages), stop)
        payload = recorder.metrics_payload()
    return phase_breakdown(payload["histograms"])


class TestSolverWiring:
    def test_dense_driver_phases(self):
        breakdown = _run_and_breakdown()
        assert "dense" in breakdown
        phases = breakdown["dense"]
        assert phases.get("assembly", 0.0) > 0.0
        # Plain dense gesv fuses factorization + back-substitution; the
        # whole linear solve books under ``factorize``.
        assert phases.get("factorize", 0.0) > 0.0
        assert phases.get("back_solve", 0.0) == 0.0
        assert set(phases) <= set(PHASES)

    def test_fast_newton_splits_back_solve(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_NEWTON", "1")
        breakdown = _run_and_breakdown()
        phases = breakdown["dense"]
        assert phases.get("factorize", 0.0) > 0.0
        assert phases.get("back_solve", 0.0) > 0.0

    def test_sparse_driver_phases(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPARSE", "1")
        breakdown = _run_and_breakdown()
        phases = breakdown.get("sparse", {})
        assert phases.get("assembly", 0.0) > 0.0
        assert phases.get("factorize", 0.0) > 0.0
        assert phases.get("back_solve", 0.0) > 0.0

    def test_guard_phase_appears_when_guarded(self, monkeypatch):
        monkeypatch.setenv("REPRO_GUARD", "1")
        breakdown = _run_and_breakdown()
        assert breakdown["dense"].get("guard", 0.0) > 0.0

    def test_no_histograms_without_telemetry(self):
        transient(inverter_chain(2), "0.5ns")
        # No recorder pinned, REPRO_OBS unset: nothing should record.
        with recording() as recorder:
            payload = recorder.metrics_payload()
        assert payload["histograms"] == {}
