"""Newton accounting at a constant cost per analysis.

A solve's exit adds to its analysis's stats and tallies only
(:meth:`~repro.spice.engine.SolveContext.end`); the analysis folds them
into the recorder once, when it ends
(:meth:`~repro.spice.engine.SolveContext.fold`).  These tests pin both
halves: the number of registry and flight-ring calls does not grow with
the number of solves, and what a fold writes equals the analyses'
:class:`~repro.spice.engine.NewtonStats`.
"""

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.gates import Gate
from repro.obs import NullRecorder, recording
from repro.obs.flight import FLIGHT_ENV_VAR, FlightRecorder
from repro.obs.metrics import MetricRegistry
from repro.resilience import FaultInjection
from repro.spice import (NewtonOptions, NewtonStats, dc_sweep, solve_dc,
                         solve_dc_batch, transient, transient_batch)
from repro.spice.builders import inverter_chain
from repro.spice.engine import SolveContext, newton_solve
from repro.spice.sparse import SPARSE_ENV_VAR
from repro.tech import default_process
from repro.waveform import ramp

PROCESS = default_process()
VDD = PROCESS.vdd
NAND3 = Gate.nand(3, PROCESS)


@pytest.fixture(autouse=True)
def default_solver(monkeypatch):
    monkeypatch.setenv(SPARSE_ENV_VAR, "auto")
    monkeypatch.setenv(FLIGHT_ENV_VAR, "100000")


def nand3_circuit(direction: str = "fall"):
    v0, v1 = (VDD, 0.0) if direction == "fall" else (0.0, VDD)
    return NAND3.build({name: ramp(0.2e-9 + 0.15e-9 * i, v0, v1, 0.3e-9)
                        for i, name in enumerate(NAND3.inputs)})


@pytest.fixture
def contexts(monkeypatch):
    """Every :class:`SolveContext` the drivers build, in order."""
    built = []
    real = SolveContext.for_analysis.__func__

    def for_analysis(cls, compiled, **kwargs):
        context = real(cls, compiled, **kwargs)
        built.append(context)
        return context

    monkeypatch.setattr(SolveContext, "for_analysis",
                        classmethod(for_analysis))
    return built


@pytest.fixture
def calls(monkeypatch):
    """Counts of registry lookups and flight-ring solve records."""
    counts = {"counter": 0, "histogram": 0, "note_solve": 0}

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(MetricRegistry, "counter")
    counting(MetricRegistry, "histogram")
    counting(FlightRecorder, "note_solve")
    return counts


class TestConstantCost:
    def test_calls_do_not_grow_with_solves(self, calls, contexts):
        """An 8 ns transient solves more often than a 2 ns one, and
        makes exactly as many registry and flight-ring calls."""
        seen = []
        for t_stop in (2e-9, 8e-9):
            for key in calls:
                calls[key] = 0
            with recording():
                result = transient(nand3_circuit(), t_stop)
            assert result.rejected_steps == 0 and result.newton_failures == 0
            seen.append((dict(calls), contexts[-1].stats.solves))
        (short, short_solves), (long, long_solves) = seen
        assert long_solves > short_solves
        assert long == short
        # One analysis record; no healthy solve appends one.
        assert short["note_solve"] == 1

    def test_telemetry_off_touches_no_registry(self, calls, contexts):
        with recording(NullRecorder()):  # whatever REPRO_OBS says
            transient(nand3_circuit(), 2e-9)
        assert calls == {"counter": 0, "histogram": 0, "note_solve": 0}
        assert contexts[-1].times is None


def newton_counters(recorder) -> dict:
    return {key: value
            for key, value in recorder.metrics_payload()["counters"].items()
            if key.startswith("spice.newton.")}


def folded(contexts, driver: str = "dense") -> dict:
    """The ``spice.newton.*`` counters the contexts' stats imply."""
    stats = [context.stats for context in contexts]
    solves = sum(s.solves for s in stats)
    failures = sum(s.failures for s in stats)
    want = {"spice.newton.iterations": sum(s.iterations for s in stats),
            f"spice.newton.dispatch{{backend={driver}}}": solves + failures}
    if solves:
        want["spice.newton.solves"] = solves
    if failures:
        want["spice.newton.failures"] = failures
    return want


def analysis_records(recorder) -> list:
    return [record for record in recorder.flight.records()
            if record["event"] == "solve" and "solves" in record]


def assert_folded(recorder, contexts, driver: str = "dense") -> None:
    assert contexts
    assert newton_counters(recorder) == folded(contexts, driver)
    records = analysis_records(recorder)
    assert [(r["solves"], r["failures"], r["iterations"]) for r in records] \
        == [(c.stats.solves, c.stats.failures, c.stats.iterations)
            for c in contexts]
    assert all(r["driver"] == driver for r in records)
    # Folded tallies restart from zero: a second fold adds nothing.
    for context in contexts:
        assert context.solves == context.failures == context.iterations == 0


def bare_solve(compiled):
    """One :func:`newton_solve` from mid-rail, outside any driver."""
    return newton_solve(compiled, np.full(compiled.n_unknown, VDD / 2),
                        compiled.known_voltages(0.0), options=NewtonOptions())


class TestFoldContract:
    def test_gate_transient(self, contexts):
        with recording() as rec:
            result = transient(nand3_circuit("rise"), 2e-9)
        (context,) = contexts
        assert context.backend == "kernel"
        assert result.newton_iterations == context.stats.iterations
        assert_folded(rec, contexts)
        assert analysis_records(rec)[0]["outcome"] == "converged"

    def test_solve_dc(self, contexts):
        stats = NewtonStats()
        with recording() as rec:
            solve_dc(nand3_circuit(), stats=stats)
        assert contexts[0].stats is stats and stats.solves >= 1
        assert_folded(rec, contexts)

    def test_dc_sweep(self, contexts):
        circuit = Gate.inverter(PROCESS).build({"a": 0.0})
        with recording() as rec:
            dc_sweep(circuit, "va", np.linspace(0.0, VDD, 11))
        (context,) = contexts  # one analysis for the whole sweep
        assert context.stats.solves >= 11
        assert_folded(rec, contexts)

    def test_transient_batch_lanes(self, contexts):
        with recording() as rec:
            lanes = transient_batch([nand3_circuit("fall"),
                                     nand3_circuit("rise")], 2e-9)
        assert len(contexts) == 2
        assert [lane.newton_iterations for lane in lanes] == \
            [context.stats.iterations for context in contexts]
        assert_folded(rec, contexts)

    def test_bare_newton_solve(self, contexts):
        with recording() as rec:
            bare_solve(nand3_circuit().compile())
        assert_folded(rec, contexts)

    @pytest.mark.parametrize("run", [
        lambda: transient(inverter_chain(2), "0.2ns"),
        lambda: solve_dc(nand3_circuit()),
        lambda: dc_sweep(Gate.inverter(PROCESS).build({"a": 0.0}), "va",
                         np.linspace(0.0, VDD, 11)),
        lambda: solve_dc_batch([nand3_circuit("fall"),
                                nand3_circuit("rise")]),
        lambda: transient_batch([nand3_circuit("fall"),
                                 nand3_circuit("rise")], "0.5ns"),
        lambda: bare_solve(nand3_circuit().compile()),
    ], ids=["transient", "solve_dc", "dc_sweep", "solve_dc_batch",
            "transient_batch", "newton_solve"])
    def test_sparse_drivers_factorize_once_per_iteration(
            self, contexts, monkeypatch, run):
        """Every driver folds on the sparse backend, and its Newton loop
        factorizes once per iteration: no LU outlives an iteration, a
        sweep point or a lane."""
        monkeypatch.setenv(SPARSE_ENV_VAR, "1")
        with recording() as rec:
            run()
        assert {context.backend for context in contexts} == {"sparse"}
        assert_folded(rec, contexts, driver="sparse")
        counters = rec.metrics_payload()["counters"]
        assert counters["spice.sparse.factorizations"] == \
            sum(context.stats.iterations for context in contexts)
        assert counters["spice.sparse.fill_nnz"] >= 0

    def test_exhausted_ladder(self, contexts, monkeypatch):
        """Every solve fails; the raising analysis still folds, after
        the failed solves and rungs it appended as they happened."""
        monkeypatch.setenv(SPARSE_ENV_VAR, "1")
        with recording() as rec:
            with FaultInjection("sparse@factorize:always"):
                with pytest.raises(ConvergenceError):
                    transient(inverter_chain(2), "0.2ns")
        (context,) = contexts
        assert context.stats.solves == 0 and context.stats.failures > 0
        assert_folded(rec, contexts, driver="sparse")
        records = rec.flight.records()
        failed = [r for r in records
                  if r["event"] == "solve" and "solves" not in r]
        assert len(failed) == context.stats.failures
        assert {r["outcome"] for r in failed} == {"singular"}
        assert records[-1]["solves"] == 0
        assert records[-1]["outcome"] == "failed"
