"""Solver guardrails: escalation accounting, health monitors, hardening.

Three layers under test:

* the :mod:`repro.spice.guard` primitives themselves -- env parsing,
  divergence streaks, watchdog deadlines, condition-estimate sampling;
* the scalar integration -- a guarded run is bit-identical to an
  unguarded one on the clean path, diverging solves abort early and
  enter the normal homotopy/degradation ladder, every escalation rung
  is counted;
* batched and sparse hardening -- batched lanes keep accounting
  identical to the scalar driver, and sparse-dispatched solves recover
  from injected factorization faults through the nudge rung.
"""

import logging
import time

import numpy as np
import pytest

from repro.errors import ConvergenceError, ReproError
from repro.obs import get_recorder, recording
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
from repro.spice.guard import (
    DIVERGE_STREAK,
    GUARD_ENV_VAR,
    WALL_ENV_VAR,
    GuardAbort,
    GuardMonitor,
    GuardPolicy,
    condition_estimate_dense,
    guard_enabled,
    record_rung,
)
from repro.spice.sparse import SPARSE_ENV_VAR
from repro.tech import default_process
from repro.waveform import ramp

PROC = default_process()
FAST = TransientOptions(h_max_ratio=2e-2)


@pytest.fixture(autouse=True)
def pinned_backends(monkeypatch):
    """Pin the dense full-Newton path: the divergence/parity tests
    monkeypatch :func:`repro.spice.engine.dense_solve`, which SuperLU
    and the LU-reusing fast-Newton loop bypass.  Tests that exercise
    those backends opt back in explicitly."""
    monkeypatch.setenv(SPARSE_ENV_VAR, "0")
    monkeypatch.setenv("REPRO_FAST_NEWTON", "0")
    monkeypatch.delenv(GUARD_ENV_VAR, raising=False)
    monkeypatch.delenv(WALL_ENV_VAR, raising=False)


def guard_with(monkeypatch, **policy):
    """Turn the guard on with a :class:`GuardPolicy` built directly."""
    monkeypatch.setattr(GuardPolicy, "from_env",
                        classmethod(lambda cls: cls(**policy)))


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


def runaway_solve(a, b):
    """A ``dense_solve`` stand-in whose steps never contract."""
    return np.ones_like(b) * 10.0


class TestEnvParsing:
    def test_guard_off_by_default(self):
        assert not guard_enabled()
        assert GuardPolicy.from_env() is None
        assert GuardMonitor.from_env() is None

    @pytest.mark.parametrize("value", ["0", "false", "no", "off", ""])
    def test_falsey_values_disable(self, monkeypatch, value):
        monkeypatch.setenv(GUARD_ENV_VAR, value)
        assert GuardPolicy.from_env() is None

    def test_default_policy(self, monkeypatch):
        monkeypatch.setenv(GUARD_ENV_VAR, "1")
        policy = GuardPolicy.from_env()
        assert policy == GuardPolicy(condition_limit=1e12, condition_every=0,
                                     diverge_factor=1e3,
                                     diverge_streak=DIVERGE_STREAK,
                                     max_wall_seconds=None)

    def test_explicit_knobs(self, monkeypatch):
        """The watchdog budget is the one tunable; the thresholds stay
        at their defaults."""
        monkeypatch.setenv(GUARD_ENV_VAR, "1")
        monkeypatch.setenv(WALL_ENV_VAR, "2.5")
        assert GuardPolicy.from_env() == GuardPolicy(max_wall_seconds=2.5)

    def test_wall_zero_is_an_immediate_deadline(self, monkeypatch):
        monkeypatch.setenv(GUARD_ENV_VAR, "1")
        monkeypatch.setenv(WALL_ENV_VAR, "0")
        assert GuardPolicy.from_env().max_wall_seconds == 0.0

    @pytest.mark.parametrize("var,value", [
        (WALL_ENV_VAR, "soon"),
        (WALL_ENV_VAR, "-1"),
    ])
    def test_invalid_knobs_raise(self, monkeypatch, var, value):
        monkeypatch.setenv(GUARD_ENV_VAR, "1")
        monkeypatch.setenv(var, value)
        with pytest.raises(ReproError):
            GuardPolicy.from_env()


class TestSolveGuard:
    def test_divergence_needs_a_full_streak(self):
        guard = GuardMonitor(GuardPolicy(diverge_factor=10.0)).start_solve()
        assert guard.check(1, 1.0) is None  # establishes best
        for k in range(2, 2 + DIVERGE_STREAK - 1):
            assert guard.check(k, 100.0) is None
        abort = guard.check(2 + DIVERGE_STREAK - 1, 100.0)
        assert isinstance(abort, GuardAbort)
        assert abort.reason == "divergence"
        assert isinstance(abort, ConvergenceError)

    def test_one_contracting_iteration_resets_the_streak(self):
        guard = GuardMonitor(GuardPolicy(diverge_factor=10.0)).start_solve()
        guard.check(1, 1.0)
        for k in range(2, 2 + DIVERGE_STREAK - 1):
            assert guard.check(k, 100.0) is None
        assert guard.check(10, 2.0) is None  # below factor x best: reset
        for k in range(11, 11 + DIVERGE_STREAK - 1):
            assert guard.check(k, 100.0) is None, k

    def test_improving_residuals_never_abort(self):
        guard = GuardMonitor(GuardPolicy(diverge_factor=2.0)).start_solve()
        residual = 1.0
        for k in range(1, 50):
            assert guard.check(k, residual) is None
            residual *= 0.5

    def test_watchdog_expiry(self):
        policy = GuardPolicy(max_wall_seconds=0.0)
        guard = GuardMonitor(policy).start_solve()
        time.sleep(0.002)
        abort = guard.check(3, 1.0)
        assert isinstance(abort, GuardAbort)
        assert abort.reason == "watchdog"
        assert abort.iterations == 3

    def test_condition_sampling_cadence(self):
        monitor = GuardMonitor(GuardPolicy(condition_every=2))
        sampled = [monitor.start_solve().check_condition for _ in range(5)]
        assert sampled == [True, False, True, False, True]

    def test_default_cadence_is_first_solve_only(self):
        monitor = GuardMonitor(GuardPolicy())
        sampled = [monitor.start_solve().check_condition for _ in range(4)]
        assert sampled == [True, False, False, False]

    def test_infinite_limit_disables_sampling(self):
        monitor = GuardMonitor(GuardPolicy(condition_limit=float("inf")))
        assert monitor.start_solve().check_condition is False

    def test_note_condition_tracks_worst_and_breach(self):
        monitor = GuardMonitor(GuardPolicy(condition_limit=100.0))
        guard = monitor.start_solve()
        assert guard.note_condition(5.0) is False
        assert guard.check_condition is False  # one sample per solve
        assert monitor.worst_condition == 5.0
        assert monitor.start_solve().note_condition(500.0) is True
        assert monitor.worst_condition == 500.0


class TestConditionEstimate:
    def test_lower_bound_on_a_known_matrix(self):
        J = np.diag([1.0, 2.0, 100.0])
        true_cond = 100.0 * 1.0  # ||J||_1 * ||J^-1||_1
        estimate = condition_estimate_dense(J)
        assert 0 < estimate <= true_cond * (1 + 1e-12)
        assert estimate > 1.0

    def test_identity_is_well_conditioned(self):
        assert condition_estimate_dense(np.eye(4)) == pytest.approx(1.0)

    def test_singular_matrix_reports_inf(self):
        assert condition_estimate_dense(np.zeros((3, 3))) == float("inf")
        J = np.ones((2, 2))  # rank 1
        assert condition_estimate_dense(J) == float("inf")

    def test_empty_system(self):
        assert condition_estimate_dense(np.zeros((0, 0))) == 0.0


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
        homotopy counters are, guard on or off (always-on telemetry)."""
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
            # One batch lane: a solver bound under the lane's own
            # analysis context, called once.
            c = floating_node().compile()
            solve = SolveContext.for_analysis(get_recorder(), c.n_unknown) \
                .bind(engine.newton_solve, c, NewtonStats())
            solve(np.zeros(c.n_unknown), c.known_voltages(0.0), options,
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
        with recording() as rec:
            result = transient(inverter(tau=0.05e-9), 1.5e-9, options=FAST)
        counters = rec.metrics_payload()["counters"]
        cuts = counters.get("spice.guard.rung{rung=timestep_cut}", 0)
        assert cuts == result.rejected_steps

    def test_refresh_rung_under_fast_newton(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_NEWTON", "1")
        with recording() as rec:
            transient(inverter(), 2e-9, options=FAST)
        counters = rec.metrics_payload()["counters"]
        assert counters.get("spice.guard.rung{rung=refresh}", 0) >= 1


class TestCleanPathIdentity:
    def test_guarded_transient_is_bit_identical(self, monkeypatch):
        baseline = transient(inverter(), 2e-9, options=FAST)
        with recording() as rec_off:
            transient(inverter(), 2e-9, options=FAST)
        monkeypatch.setenv(GUARD_ENV_VAR, "1")
        with recording() as rec_on:
            guarded = transient(inverter(), 2e-9, options=FAST)
        assert np.array_equal(baseline.times, guarded.times)
        for name in baseline.node_names:
            assert np.array_equal(baseline.node(name).values,
                                  guarded.node(name).values), name
        # The monitors only watch: counters match the unguarded run too
        # (no aborts, no ill-conditioning on a healthy circuit).
        assert solver_counters(rec_on) == solver_counters(rec_off)

    def test_guarded_dc_is_bit_identical(self, monkeypatch):
        baseline = solve_dc(dc_inverter())
        monkeypatch.setenv(GUARD_ENV_VAR, "1")
        assert solve_dc(dc_inverter()).voltages == baseline.voltages


class TestDivergenceAbort:
    def test_runaway_scalar_solve_aborts_and_walks_the_ladder(
            self, monkeypatch):
        guard_with(monkeypatch, diverge_factor=2.0)
        monkeypatch.setattr(engine, "dense_solve", runaway_solve)
        with recording() as rec:
            with pytest.raises(ConvergenceError):
                solve_dc(dc_inverter())
        counters = rec.metrics_payload()["counters"]
        # Every rung of the DC ladder was tried, each attempt aborted
        # early by the divergence monitor rather than burning the full
        # iteration budget.
        assert counters["spice.guard.aborts{reason=divergence}"] >= 1
        assert counters["spice.guard.rung{rung=gmin_ramp}"] >= 1
        assert counters["spice.guard.rung{rung=source_step}"] >= 1

    def test_unguarded_runaway_burns_the_full_budget(self, monkeypatch):
        """Without the guard the same runaway run must still fail --
        the monitor only changes *when*, never *whether*."""
        monkeypatch.setattr(engine, "dense_solve", runaway_solve)
        with recording() as rec:
            with pytest.raises(ConvergenceError):
                solve_dc(dc_inverter())
        assert "spice.guard.aborts{reason=divergence}" not in \
            rec.metrics_payload()["counters"]

    def test_batch_divergence_accounting_matches_scalar(self, monkeypatch):
        """A diverging lane's stats and guard counters must equal the
        scalar driver's, lane for lane."""
        guard_with(monkeypatch, diverge_factor=2.0)
        monkeypatch.setattr(engine, "dense_solve", runaway_solve)
        widths = [4e-6, 5e-6, 6e-6]

        from repro.spice import NewtonStats
        with recording() as rec_scalar:
            scalar_stats = [NewtonStats() for _ in widths]
            for w, st in zip(widths, scalar_stats):
                with pytest.raises(ConvergenceError):
                    solve_dc(dc_inverter(w), stats=st)
        scalar_counters = solver_counters(rec_scalar)
        assert scalar_counters["spice.guard.aborts{reason=divergence}"] >= 3

        with recording() as rec_batch:
            batch_stats = [NewtonStats() for _ in widths]
            outcomes = solve_dc_batch([dc_inverter(w) for w in widths],
                                      stats=batch_stats)
        assert all(isinstance(o, ConvergenceError) for o in outcomes)
        assert solver_counters(rec_batch) == scalar_counters
        for s, b in zip(scalar_stats, batch_stats):
            assert (s.iterations, s.solves, s.failures, s.retries) == \
                (b.iterations, b.solves, b.failures, b.retries)


class TestWatchdog:
    def test_zero_budget_aborts_every_solve(self, monkeypatch):
        monkeypatch.setenv(GUARD_ENV_VAR, "1")
        monkeypatch.setenv(WALL_ENV_VAR, "0")
        with recording() as rec:
            with pytest.raises(ConvergenceError, match="watchdog"):
                solve_dc(dc_inverter())
        counters = rec.metrics_payload()["counters"]
        assert counters["spice.guard.aborts{reason=watchdog}"] >= 1

    def test_generous_budget_never_fires(self, monkeypatch):
        monkeypatch.setenv(GUARD_ENV_VAR, "1")
        monkeypatch.setenv(WALL_ENV_VAR, "3600")
        baseline = solve_dc(dc_inverter())
        assert solve_dc(dc_inverter()).voltages == baseline.voltages


class TestConditionMonitoring:
    def test_breach_warns_and_counts_but_does_not_change_results(
            self, monkeypatch, caplog):
        # The floating node's ~gmin diagonal entry puts the condition
        # estimate around 2e9, far past the 1e6 limit.
        baseline = solve_dc(floating_node())
        guard_with(monkeypatch, condition_limit=1e6)
        logger = logging.getLogger("repro")
        monkeypatch.setattr(logger, "propagate", True)
        with recording() as rec:
            with caplog.at_level(logging.WARNING, logger="repro.spice.guard"):
                guarded = solve_dc(floating_node())
        assert guarded.voltages == baseline.voltages  # warn-only
        counters = rec.metrics_payload()["counters"]
        assert counters["spice.guard.illconditioned"] >= 1
        assert any("ill-conditioned" in message
                   for message in caplog.messages)

    def test_well_conditioned_solves_stay_silent(self, monkeypatch):
        monkeypatch.setenv(GUARD_ENV_VAR, "1")  # default 1e12 limit
        with recording() as rec:
            solve_dc(dc_inverter())
        assert "spice.guard.illconditioned" not in \
            rec.metrics_payload()["counters"]

    def test_illconditioned_count_is_batch_invariant(self, monkeypatch):
        guard_with(monkeypatch, condition_limit=1e6)
        lanes = 4
        with recording() as rec_scalar:
            for _ in range(lanes):
                solve_dc(floating_node())
        with recording() as rec_batch:
            solve_dc_batch([floating_node() for _ in range(lanes)])
        key = "spice.guard.illconditioned"
        scalar = rec_scalar.metrics_payload()["counters"][key]
        assert scalar >= lanes
        assert rec_batch.metrics_payload()["counters"][key] == scalar


class TestSparseFaultHardening:
    def test_injected_factorization_fault_recovers_via_nudge(
            self, monkeypatch):
        compiled = dc_inverter().compile()
        x0 = np.zeros(compiled.n_unknown)
        known = compiled.known_voltages(0.0)
        options = NewtonOptions()
        clean = newton_solve(compiled, x0.copy(), known, options=options,
                             sparse=True)
        with recording() as rec, FaultInjection("sparse@factorize:1") as fi:
            recovered = newton_solve(compiled, x0.copy(), known,
                                     options=options, sparse=True)
            assert fi.fired_count("sparse") == 1
        # The nudge perturbs one early step; Newton still lands on the
        # same operating point to solver tolerance.
        assert np.allclose(recovered, clean, rtol=1e-9, atol=1e-9)
        counters = rec.metrics_payload()["counters"]
        assert counters["spice.guard.rung{rung=nudge}"] >= 1

    def test_persistent_factorization_fault_fails_cleanly(self):
        compiled = dc_inverter().compile()
        x0 = np.zeros(compiled.n_unknown)
        with FaultInjection("sparse@factorize:always"):
            with pytest.raises(ConvergenceError, match="singular"):
                newton_solve(compiled, x0, compiled.known_voltages(0.0),
                             options=NewtonOptions(), sparse=True)

    def test_guarded_sparse_solve_matches_dense(self, monkeypatch):
        """Condition monitoring on the sparse backend (retained-factor
        estimate) must not perturb the solution."""
        monkeypatch.setenv(GUARD_ENV_VAR, "1")
        compiled = dc_inverter().compile()
        x0 = np.zeros(compiled.n_unknown)
        known = compiled.known_voltages(0.0)
        dense = newton_solve(compiled, x0.copy(), known,
                             options=NewtonOptions(), sparse=False)
        monitor = GuardMonitor(GuardPolicy())
        sparse = newton_solve(compiled, x0.copy(), known,
                              options=NewtonOptions(), sparse=True,
                              guard=monitor)
        assert np.allclose(sparse, dense, rtol=1e-9, atol=1e-12)
        assert monitor.worst_condition > 0.0  # the estimate actually ran


class TestDegradationReporting:
    def test_guard_aborts_appear_in_the_degradation_summary(
            self, monkeypatch):
        from repro.obs.export import degradation_summary
        monkeypatch.setenv(GUARD_ENV_VAR, "1")
        monkeypatch.setenv(WALL_ENV_VAR, "0")
        with recording() as rec:
            with pytest.raises(ConvergenceError):
                solve_dc(dc_inverter())
            summary = degradation_summary(rec)
        assert "guard aborts" in summary
        assert "watchdog" in summary

    def test_clean_run_reports_nothing(self):
        from repro.obs.export import degradation_summary
        with recording() as rec:
            transient(inverter(), 1e-9, options=FAST)
            assert degradation_summary(rec) == ""
