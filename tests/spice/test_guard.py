"""Solver guardrails: escalation accounting and hardening.

Two layers under test:

* the scalar integration -- every escalation rung is counted, as often
  on the sparse backend as on the default, and a runaway solve burns
  its iteration budget, then walks the normal homotopy/degradation
  ladder;
* batched and sparse hardening -- batched lanes keep accounting
  identical to the scalar driver, and sparse-dispatched solves recover
  from injected factorization faults through the nudge rung.
"""

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.obs import recording
from repro.resilience import FaultInjection
from repro.spice import (
    Circuit,
    NewtonOptions,
    TransientOptions,
    engine,
    solve_dc,
    solve_dc_batch,
    transient,
)
from repro.spice.engine import NewtonStats, SolveContext, newton_solve
from repro.spice.guard import record_rung
from repro.spice.sparse import SPARSE_ENV_VAR
from repro.tech import default_process
from repro.waveform import ramp

PROC = default_process()
FAST = TransientOptions(h_max_ratio=2e-2)


@pytest.fixture(autouse=True)
def pinned_backends(monkeypatch):
    """Pin the dense full-Newton path: the divergence/parity tests
    monkeypatch :data:`repro.spice.engine.gesv`, which SuperLU bypasses.
    Tests that exercise the sparse backend opt back in explicitly."""
    monkeypatch.setenv(SPARSE_ENV_VAR, "0")


def inverter(tau: float = 0.3e-9, cl: float = 1e-13) -> Circuit:
    ckt = Circuit()
    ckt.add_vsource("vvdd", "vdd", PROC.vdd)
    ckt.add_vsource("vin", "in", ramp(0.5e-9, 0.0, PROC.vdd, tau))
    ckt.add_mosfet("mn", "out", "in", "0", "0", PROC.nmos, 4e-6, 0.8e-6)
    ckt.add_mosfet("mp", "out", "in", "vdd", "vdd", PROC.pmos, 8e-6, 0.8e-6)
    ckt.add_capacitor("cl", "out", "0", cl)
    return ckt


def dc_inverter(width: float = 4e-6) -> Circuit:
    ckt = Circuit()
    ckt.add_vsource("vvdd", "vdd", PROC.vdd)
    ckt.add_vsource("vin", "in", 2.5)
    ckt.add_mosfet("mn", "out", "in", "0", "0", PROC.nmos, width, 0.8e-6)
    ckt.add_mosfet("mp", "out", "in", "vdd", "vdd", PROC.pmos,
                   2 * width, 0.8e-6)
    return ckt


def floating_node() -> Circuit:
    ckt = Circuit("floating")
    ckt.add_vsource("v1", "in", 1.0)
    ckt.add_resistor("r1", "in", "mid", 1e3)
    ckt.add_resistor("r2", "mid", "0", 1e3)
    ckt.add_capacitor("c1", "float", "0", 1e-15)
    return ckt


def solver_counters(recorder) -> dict:
    """Solver-side counters (``spice.batch.*`` bookkeeping excluded)."""
    return {
        key: value
        for key, value in recorder.metrics_payload()["counters"].items()
        if key.startswith("spice.") and not key.startswith("spice.batch")
    }


#: Step controls under which a fast edge shrinks ``h``: by dv rejection,
#: and by Newton failure alone (dv never rejects).
CUTTING_OPTIONS = {
    "dv_rejection": TransientOptions(h_initial_ratio=0.02, h_max_ratio=0.05,
                                     dv_target=0.05, dv_reject=0.1),
    "newton_failure": TransientOptions(
        h_initial_ratio=0.02, h_max_ratio=0.05, dv_reject=50.0,
        newton=NewtonOptions(max_iterations=3)),
}


def nudged_solve():
    """A gmin=0 floating node: every factorization is singular first."""
    compiled = floating_node().compile()
    return newton_solve(compiled, np.zeros(compiled.n_unknown),
                        compiled.known_voltages(0.0),
                        options=NewtonOptions(gmin=0.0))


#: One analysis per rung of the ladder, and the rungs it must engage.
LADDER_RUNS = {
    "nudge": (nudged_solve, ("nudge",)),
    "homotopy": (lambda: solve_dc(dc_inverter(), initial_guess={"out": 80.0}),
                 ("gmin_ramp", "source_step")),
    "timestep_cut": (lambda: transient(inverter(tau=0.05e-9), 1.5e-9,
                                       options=CUTTING_OPTIONS["dv_rejection"]),
                     ("timestep_cut",)),
}


def runaway_solve(a, b, out=None):
    """A ``gesv`` stand-in whose steps never contract."""
    if out is None:
        out = np.empty_like(b)
    out[...] = np.ones_like(b) * 10.0
    return out


class TestRungTelemetry:
    def test_record_rung_counts_under_recording(self):
        with recording() as rec:
            record_rung("nudge")
            record_rung("nudge")
            record_rung("gmin_ramp")
        counters = rec.metrics_payload()["counters"]
        assert counters["spice.guard.rung{rung=nudge}"] == 2
        assert counters["spice.guard.rung{rung=gmin_ramp}"] == 1

    def test_homotopy_rungs_match_dc_counters(self):
        """The gmin/source rungs are counted exactly where the existing
        homotopy counters are (always-on telemetry)."""
        with recording() as rec:
            solve_dc(dc_inverter(), initial_guess={"out": 80.0})
        counters = rec.metrics_payload()["counters"]
        assert counters["spice.guard.rung{rung=gmin_ramp}"] == \
            counters["spice.dc.gmin_stepping"]
        assert counters.get("spice.guard.rung{rung=source_step}", 0) == \
            counters.get("spice.dc.source_stepping", 0)

    def test_nudge_rung_scalar_matches_batch(self):
        """A gmin=0 floating node forces exactly one nudge per solve on
        both drivers."""
        options = NewtonOptions(gmin=0.0)
        compiled = floating_node().compile()
        x0 = np.zeros(compiled.n_unknown)
        with recording() as rec_scalar:
            newton_solve(compiled, x0.copy(), compiled.known_voltages(0.0),
                         options=options)
        scalar = rec_scalar.metrics_payload()["counters"]
        assert scalar["spice.guard.rung{rung=nudge}"] >= 1

        def lane():
            # One batch lane: a solve through the lane's own analysis
            # context.
            c = floating_node().compile()
            SolveContext.for_analysis(c, stats=NewtonStats()).solve(
                np.zeros(c.n_unknown), c.known_voltages(0.0), options,
                time=0.0)

        with recording() as rec_batch:
            lane()
            lane()
        batch = rec_batch.metrics_payload()["counters"]
        assert batch["spice.guard.rung{rung=nudge}"] == \
            2 * scalar["spice.guard.rung{rung=nudge}"]

    def test_timestep_cut_rung_counts_rejected_steps(self):
        """Every shrink of ``h`` -- Newton failure or dv rejection -- is
        one ``timestep_cut`` engagement, which is exactly what the
        result's ``rejected_steps`` counts."""
        for cause, options in CUTTING_OPTIONS.items():
            with recording() as rec:
                result = transient(inverter(tau=0.05e-9), 1.5e-9,
                                   options=options)
            counters = rec.metrics_payload()["counters"]
            cuts = counters.get("spice.guard.rung{rung=timestep_cut}", 0)
            assert cuts == result.rejected_steps > 0, cause
        # The last run cut on Newton failures.
        assert result.newton_failures > 0

    @pytest.mark.parametrize("ladder", sorted(LADDER_RUNS))
    def test_rungs_match_on_sparse(self, monkeypatch, ladder):
        """The sparse backend climbs the same rungs as the pinned
        default, as many times."""
        run, rungs = LADDER_RUNS[ladder]

        def rung_counts():
            with recording() as rec:
                run()
            return {key: value
                    for key, value in solver_counters(rec).items()
                    if key.startswith("spice.guard.rung")}

        base = rung_counts()
        monkeypatch.setenv(SPARSE_ENV_VAR, "1")
        assert rung_counts() == base
        for rung in rungs:
            assert base[f"spice.guard.rung{{rung={rung}}}"] >= 1


class TestDivergenceAbort:
    def test_unguarded_runaway_burns_the_full_budget(self, monkeypatch):
        """A runaway solve fails only once its iteration budget is
        spent, and the DC ladder walks its gmin and source-stepping
        rungs before giving up.  One retry attempt keeps every solve's
        budget at ``max_iterations``."""
        monkeypatch.setattr(engine, "gesv", runaway_solve)
        options = NewtonOptions()
        stats = NewtonStats()
        with recording() as rec:
            with pytest.raises(ConvergenceError):
                solve_dc(dc_inverter(), options=options, stats=stats,
                         retry=1)
        assert stats.solves == 0 and stats.failures >= 3
        assert stats.iterations == stats.failures * options.max_iterations
        counters = rec.metrics_payload()["counters"]
        assert counters["spice.guard.rung{rung=gmin_ramp}"] >= 1
        assert counters["spice.guard.rung{rung=source_step}"] >= 1

    def test_batch_divergence_accounting_matches_scalar(self, monkeypatch):
        """A diverging lane's stats and solver counters must equal the
        scalar driver's, lane for lane."""
        monkeypatch.setattr(engine, "gesv", runaway_solve)
        widths = [4e-6, 5e-6, 6e-6]

        from repro.spice import NewtonStats
        with recording() as rec_scalar:
            scalar_stats = [NewtonStats() for _ in widths]
            for w, st in zip(widths, scalar_stats):
                with pytest.raises(ConvergenceError):
                    solve_dc(dc_inverter(w), stats=st)
        scalar_counters = solver_counters(rec_scalar)
        assert scalar_counters["spice.newton.failures"] >= 3

        with recording() as rec_batch:
            batch_stats = [NewtonStats() for _ in widths]
            outcomes = solve_dc_batch([dc_inverter(w) for w in widths],
                                      stats=batch_stats)
        assert all(isinstance(o, ConvergenceError) for o in outcomes)
        assert solver_counters(rec_batch) == scalar_counters
        for s, b in zip(scalar_stats, batch_stats):
            assert (s.iterations, s.solves, s.failures, s.retries) == \
                (b.iterations, b.solves, b.failures, b.retries)


class TestSparseFaultHardening:
    """Solves whose context decided the sparse backend
    (``REPRO_SPARSE=1``)."""

    def test_injected_factorization_fault_recovers_via_nudge(
            self, monkeypatch):
        monkeypatch.setenv(SPARSE_ENV_VAR, "1")
        compiled = dc_inverter().compile()
        x0 = np.zeros(compiled.n_unknown)
        known = compiled.known_voltages(0.0)
        options = NewtonOptions()
        clean = newton_solve(compiled, x0.copy(), known, options=options)
        with recording() as rec, FaultInjection("sparse@factorize:1") as fi:
            recovered = newton_solve(compiled, x0.copy(), known,
                                     options=options)
            assert fi.fired_count("sparse") == 1
        # The nudge perturbs one early step; Newton still lands on the
        # same operating point to solver tolerance.
        assert np.allclose(recovered, clean, rtol=1e-9, atol=1e-9)
        counters = rec.metrics_payload()["counters"]
        assert counters["spice.guard.rung{rung=nudge}"] >= 1

    def test_persistent_factorization_fault_fails_cleanly(self, monkeypatch):
        monkeypatch.setenv(SPARSE_ENV_VAR, "1")
        compiled = dc_inverter().compile()
        x0 = np.zeros(compiled.n_unknown)
        with FaultInjection("sparse@factorize:always"):
            with pytest.raises(ConvergenceError, match="singular"):
                newton_solve(compiled, x0, compiled.known_voltages(0.0),
                             options=NewtonOptions())


class TestDegradationReporting:
    def test_clean_run_reports_nothing(self):
        from repro.obs.export import degradation_summary
        with recording() as rec:
            transient(inverter(), 1e-9, options=FAST)
            assert degradation_summary(rec) == ""
