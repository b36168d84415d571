"""The gate-sized float paths against the NumPy paths they replace.

Circuits below :data:`~repro.spice.stamps.SCALAR_MOS_CUTOVER` transistors
solve on Python floats through their plan's generated Newton loop
(:class:`repro.spice.engine.KernelNewton`), and their transients step
on floats too: each step's solve computes its companion stamps, the
plan's generated history code updates the capacitors, and each step
calls the loop of the analysis's context directly
(:meth:`~repro.spice.engine.SolveContext.kernel_newton`).  Patching the
cutover to 0 sends the same analyses through the array integrator, the
NumPy full-Newton loop and the grouped channel model, which
``test_assembly_equivalence.py`` already holds to the reference
assembler.  Every result here must match that path bit for bit: times
and waveforms by ``tobytes()``, Newton accounting and solver counters by
``==``.
"""

import math
import sys
import threading

import numpy as np
import pytest

from repro.charlib import GateLibrary, SingleInputGrid, simulate
from repro.charlib.library import cached_thresholds
from repro.charlib.simulate import (multi_input_response,
                                    multi_input_response_batch)
from repro.errors import ConvergenceError
from repro.gates import Gate
from repro.obs import get_recorder, recording
from repro.obs.flight import FLIGHT_ENV_VAR
from repro.obs.live import LIVE_ENV_VAR
from repro.obs.recorder import (MANIFEST_ENV_VAR, METRICS_ENV_VAR,
                                OBS_ENV_VAR, TRACE_ENV_VAR)
from repro.resilience.retry import RetryPolicy
from repro.spice import (Circuit, TransientOptions, engine, solve_dc, stamps,
                         transient)
from repro.spice.dc import _source_stepping
from repro.spice.engine import (NewtonOptions, NewtonStats, SolveContext,
                                newton_solve)
from repro.spice.sparse import SPARSE_ENV_VAR
from repro.spice.stamps import KERNELS, KernelCache
from repro.tech import default_process, submicron_process
from repro.waveform import FALL, RISE, Edge, ramp

from .test_assembly_equivalence import caps_of, ordered_stamps, random_circuit

PROCESSES = {"level1": default_process(), "alpha": submicron_process()}

GATES = {
    "inv": lambda p: Gate.inverter(p),
    "nand2": lambda p: Gate.nand(2, p),
    "nand3": lambda p: Gate.nand(3, p),
    "nand4": lambda p: Gate.nand(4, p),
    "nor2": lambda p: Gate.nor(2, p),
    "nor3": lambda p: Gate.nor(3, p),
    "aoi21": lambda p: Gate.aoi21(p),
    "oai21": lambda p: Gate.oai21(p),
}

#: Mixed shots alternate falling and rising inputs.
DIRECTIONS = ("fall", "rise", "mixed")


@pytest.fixture(autouse=True)
def default_solver(monkeypatch):
    """The default dispatch: dense."""
    monkeypatch.setenv(SPARSE_ENV_VAR, "auto")


def telemetry_off(monkeypatch):
    """Switch off telemetry that the environment may have switched on."""
    for name in (OBS_ENV_VAR, TRACE_ENV_VAR, METRICS_ENV_VAR,
                 MANIFEST_ENV_VAR, LIVE_ENV_VAR):
        monkeypatch.delenv(name, raising=False)


def both_loops(monkeypatch, run):
    """``run()`` through the kernel loop, then through the NumPy loop."""
    kernel = run()
    with monkeypatch.context() as patch:
        patch.setattr(stamps, "SCALAR_MOS_CUTOVER", 0)
        numpy_loop = run()
    return kernel, numpy_loop


def stimuli(gate: Gate, direction: str):
    vdd = gate.process.vdd
    waves = {}
    for i, name in enumerate(gate.inputs):
        falling = direction == "fall" or (direction == "mixed" and i % 2 == 0)
        v0, v1 = (vdd, 0.0) if falling else (0.0, vdd)
        waves[name] = ramp(0.2e-9 + 0.15e-9 * i, v0, v1, 0.3e-9)
    return waves


def recorded(run):
    """``run()`` under a fresh recorder: the result and its ``spice.*``
    counters."""
    with recording() as rec:
        result = run()
    counters = rec.metrics_payload()["counters"]
    return result, {key: value for key, value in counters.items()
                    if key.startswith("spice.")}


def shot(gate: Gate, direction: str):
    """One transient of ``gate`` and the solver counters it recorded."""
    return recorded(
        lambda: transient(gate.build(stimuli(gate, direction)), 2e-9))


def assert_same_result(result, ref) -> None:
    assert result.times.tobytes() == ref.times.tobytes()
    assert result.node_names == ref.node_names
    for name in ref.node_names:
        assert result.node(name).values.tobytes() == \
            ref.node(name).values.tobytes(), name
    assert (result.newton_iterations, result.newton_failures,
            result.rejected_steps, result.solver_retries,
            result.retry_attempts) == \
        (ref.newton_iterations, ref.newton_failures, ref.rejected_steps,
         ref.solver_retries, ref.retry_attempts)


def assert_same_transient(got, want) -> None:
    (result, counters), (ref, ref_counters) = got, want
    assert_same_result(result, ref)
    assert counters == ref_counters
    assert counters["spice.newton.solves"] > 0


class TestTransientIdentity:
    @pytest.mark.parametrize("direction", DIRECTIONS)
    @pytest.mark.parametrize("process", sorted(PROCESSES))
    @pytest.mark.parametrize("gate", sorted(GATES))
    def test_shot_bit_identical(self, monkeypatch, gate, process, direction):
        cell = GATES[gate](PROCESSES[process])
        assert cell.build().compile().stamp_plan.use_scalar_mos
        kernel, numpy_loop = both_loops(monkeypatch,
                                        lambda: shot(cell, direction))
        assert_same_transient(kernel, numpy_loop)

    def test_telemetry_on_matches_off_and_times_phases(self, monkeypatch):
        gate = Gate.nand(3, PROCESSES["level1"])
        circuit = gate.build(stimuli(gate, "fall"))
        off = transient(circuit, 2e-9)
        with recording() as rec:
            on = transient(circuit, 2e-9)
        assert on.times.tobytes() == off.times.tobytes()
        for name in off.node_names:
            assert on.node(name).values.tobytes() == \
                off.node(name).values.tobytes()
        assert on.newton_iterations == off.newton_iterations
        histograms = rec.metrics_payload()["histograms"]
        for phase in ("assembly", "factorize"):
            entry = histograms[
                f"spice.phase.seconds{{driver=dense,phase={phase}}}"]
            assert entry["count"] > 0 and entry["sum"] > 0.0

    @pytest.mark.parametrize("telemetry", [False, True],
                             ids=["off", "on"])
    def test_gate_solves_never_reach_the_numpy_loop(self, monkeypatch,
                                                    telemetry):
        def forbidden(*args, **kwargs):
            raise AssertionError("a gate-sized solve left the kernel loop")

        monkeypatch.setattr(engine, "assemble_into", forbidden)
        monkeypatch.setattr(engine, "dense_solve", forbidden)
        gate = Gate.nand(3, PROCESSES["level1"])
        circuit = gate.build(stimuli(gate, "rise"))
        if telemetry:
            with recording():
                result = transient(circuit, 2e-9)
        else:
            telemetry_off(monkeypatch)
            assert not get_recorder().enabled
            result = transient(circuit, 2e-9)
        assert result.newton_iterations > 0

    @pytest.mark.parametrize("telemetry", [False, True],
                             ids=["off", "on"])
    def test_gate_steps_never_reach_the_array_path(self, monkeypatch,
                                                   telemetry):
        """Scalar and batched measurement shots never build the array
        step state, and call ``load_kernel`` only for their DC points:
        every step runs on floats."""
        thresholds = cached_thresholds(NAND3)

        def forbidden(*args, **kwargs):
            raise AssertionError("a gate-sized step took the array path")

        real_load = engine.load_kernel
        stamps_seen = []

        def load_kernel(plan, known, time, caps, *args):
            stamps_seen.append(caps)
            return real_load(plan, known, time, caps, *args)

        monkeypatch.setattr(sys.modules["repro.spice.transient"],
                            "_ArraySteps", forbidden)
        monkeypatch.setattr(engine, "load_kernel", load_kernel)
        edges = {"a": Edge(FALL, 0.0, 300e-12), "b": Edge(FALL, 80e-12, 500e-12),
                 "c": Edge(FALL, 150e-12, 200e-12)}

        def shots():
            multi_input_response(NAND3, edges, thresholds, reference="a")
            multi_input_response_batch(
                NAND3, [(edges, "b", None), ({"c": edges["c"]}, "c", None)],
                thresholds)

        if telemetry:
            with recording() as rec:
                shots()
            analyses = rec.metrics_payload()["counters"][
                "spice.transient.analyses"]
        else:
            telemetry_off(monkeypatch)
            assert not get_recorder().enabled
            shots()
            analyses = 3
        assert len(stamps_seen) >= analyses >= 3
        assert all(seen is None for seen in stamps_seen)


def nand2_with(extra: str) -> Circuit:
    """A falling NAND2 shot plus one ``extra`` element or source."""
    process = PROCESSES["level1"]
    gate = Gate.nand(2, process)
    vdd = process.vdd
    waves = stimuli(gate, "fall")
    if extra == "callable_source":
        waves["a"] = lambda t: vdd * min(1.0, max(0.0, (0.5e-9 - t) / 0.3e-9))
    circuit = gate.build(waves)
    if extra == "cap_between_unknowns":
        circuit.add_capacitor("cx", "pd1", gate.output, 7e-15)
    elif extra == "cap_between_knowns":
        circuit.add_capacitor("cx", "a", "b", 5e-15)
    elif extra == "current_source":
        circuit.add_isource("ix", gate.output, "0",
                            lambda t: 2e-6 * math.sin(3e9 * t))
    return circuit


NAND3 = GATES["nand3"](PROCESSES["level1"])
VDD = PROCESSES["level1"].vdd

#: Transient runs that reach the step controller's other branches, and
#: what each must show to prove it did.
SCENARIOS = {
    "dv_reject": (
        dict(options=TransientOptions(h_initial_ratio=0.02, h_max_ratio=0.05,
                                      dv_target=0.05, dv_reject=0.1)),
        lambda r: r.rejected_steps > 0 and r.newton_failures == 0),
    "newton_failure": (  # dv never rejects: every rejection is a BE retry
        dict(options=TransientOptions(
            h_initial_ratio=0.02, h_max_ratio=0.05, dv_reject=50.0,
            newton=NewtonOptions(max_iterations=3))),
        lambda r: r.rejected_steps > 0 and r.newton_failures > 0),
    "second_attempt": (  # attempt 0 underflows mid-window
        dict(options=TransientOptions(
            h_min_ratio=1e-4, newton=NewtonOptions(max_iterations=2)),
             retry=RetryPolicy(max_attempts=2, iteration_step=3.0,
                               damping_step=1.0, gmin_step=1.0,
                               timestep_step=1.0)),
        lambda r: r.solver_retries == 1
        and "underflow" in r.retry_attempts[0].message),
    "backward_euler": (dict(options=TransientOptions(method="be")),
                       lambda r: len(r.times) > 2),
    "t_start": (dict(t_start=0.3e-9), lambda r: r.times[0] == 0.3e-9),
    "settle": (dict(settle=(NAND3.output, VDD, 0.002 * VDD)),
               lambda r: r.times[-1] < 2e-9),
}


class TestFloatSteps:
    """Step-controller branches and devices the default shots miss, on
    the float path against the array path."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_step_control_branches(self, monkeypatch, scenario):
        kwargs, reached = SCENARIOS[scenario]
        circuit = NAND3.build(stimuli(NAND3, "fall"))
        floats, arrays = both_loops(monkeypatch, lambda: recorded(
            lambda: transient(circuit, 2e-9, **kwargs)))
        assert reached(floats[0])
        assert_same_transient(floats, arrays)

    @pytest.mark.parametrize("extra", ["cap_between_unknowns",
                                       "cap_between_knowns",
                                       "current_source", "callable_source"])
    def test_device_mix(self, monkeypatch, extra):
        circuit = nand2_with(extra)
        plan = circuit.compile().stamp_plan
        assert plan.use_scalar_mos and len(plan.live_caps) < plan.n_cap
        floats, arrays = both_loops(monkeypatch, lambda: recorded(
            lambda: transient(circuit, 2e-9)))
        assert_same_transient(floats, arrays)

    def test_telemetry_off(self, monkeypatch):
        telemetry_off(monkeypatch)
        assert not get_recorder().enabled
        gate = GATES["nand3"](PROCESSES["alpha"])
        circuit = gate.build(stimuli(gate, "mixed"))
        floats, arrays = both_loops(monkeypatch,
                                    lambda: transient(circuit, 2e-9))
        assert_same_result(floats, arrays)

    @pytest.mark.parametrize("scenario", ["default", "newton_failure"])
    def test_flight_records(self, monkeypatch, scenario):
        """Every solve's flight record -- driver, size, iterations and
        outcome, failed solves included -- matches the array path's, in
        order."""
        monkeypatch.setenv(FLIGHT_ENV_VAR, "100000")
        kwargs = SCENARIOS[scenario][0] if scenario in SCENARIOS else {}
        circuit = NAND3.build(stimuli(NAND3, "rise"))
        floats, arrays = both_loops(monkeypatch, lambda: flight(
            lambda: transient(circuit, 2e-9, **kwargs)))
        assert_same_transient(floats[:2], arrays[:2])
        assert floats[2] and floats[2] == arrays[2]


def floating_stack() -> Circuit:
    """A NAND2 without parasitics whose stack node has no capacitance.

    Once both inputs have fallen, no transistor conducts into ``mid``,
    so with gmin 0 its row of every step Jacobian is zero.
    """
    process = PROCESSES["level1"]
    circuit = Circuit()
    circuit.add_vsource("vdd", "vdd", VDD)
    circuit.add_vsource("va", "a", ramp(0.2e-9, VDD, 0.0, 0.3e-9))
    circuit.add_vsource("vb", "b", ramp(0.35e-9, VDD, 0.0, 0.3e-9))
    for name, drain, gate, source, bulk, params, width in (
            ("mpa", "out", "a", "vdd", "vdd", process.pmos, 8e-6),
            ("mpb", "out", "b", "vdd", "vdd", process.pmos, 8e-6),
            ("mna", "out", "a", "mid", "0", process.nmos, 4e-6),
            ("mnb", "mid", "b", "0", "0", process.nmos, 4e-6)):
        circuit.add_mosfet(name, drain, gate, source, bulk, params, width,
                           0.8e-6, with_parasitics=False)
    circuit.add_capacitor("cl", "out", "0", 50e-15)
    return circuit


def caller_handler(kind, flag):
    """The caller's floating-point error callback in the tests below."""


class TestErrorState:
    """The float step path enters the singular-raising error state once
    per attempt, and hands the caller's back however the attempt ends."""

    @pytest.fixture
    def entries(self, monkeypatch):
        """Counts :meth:`KernelNewton.error_state` entries."""
        count = []
        real = engine.KernelNewton.error_state

        def counted():
            count.append(1)
            return real()
        monkeypatch.setattr(engine.KernelNewton, "error_state",
                            staticmethod(counted))
        return count

    def run_under_caller_state(self, run):
        with np.errstate(all="warn", under="print", call=caller_handler):
            state = np.geterr()
            try:
                run()
            finally:
                assert np.geterr() == state
                assert np.geterrcall() is caller_handler

    def test_restored_after_a_transient(self, entries):
        circuit = NAND3.build(stimuli(NAND3, "fall"))
        self.run_under_caller_state(lambda: transient(circuit, 2e-9))
        assert len(entries) == 1

    def test_restored_after_a_convergence_error(self, entries):
        circuit = NAND3.build(stimuli(NAND3, "fall"))
        options = TransientOptions(h_min_ratio=1e-4,
                                   newton=NewtonOptions(max_iterations=2))
        with pytest.raises(ConvergenceError, match="underflow"):
            self.run_under_caller_state(
                lambda: transient(circuit, 2e-9, options=options, retry=2))
        assert len(entries) == 2  # one per retry-ladder attempt

    def test_singular_step_takes_the_nudge_rung(self, monkeypatch, entries):
        """Mid-transient singular Jacobians raise inside the attempt's
        error state and walk the nudge rung as on the array path, with
        the same rung and Newton counts."""
        circuit = floating_stack()
        options = TransientOptions(newton=NewtonOptions(gmin=0.0))
        _, early = recorded(lambda: transient(circuit, 0.3e-9,
                                              options=options))
        assert "spice.guard.rung{rung=nudge}" not in early  # b still high
        floats, arrays = both_loops(monkeypatch, lambda: recorded(
            lambda: transient(circuit, 2e-9, options=options)))
        assert floats[1]["spice.guard.rung{rung=nudge}"] >= 1
        assert_same_transient(floats, arrays)
        assert len(entries) == 2  # the float runs; the array run has none

    def test_source_callables_run_under_the_callers_state(self, monkeypatch):
        """A NumPy source that turns invalid mid-transient warns and
        fails the analysis as on the array path, not as a singular
        matrix inside the attempt's error state."""
        gate = Gate.nand(2, PROCESSES["level1"])
        waves = stimuli(gate, "fall")
        waves["a"] = lambda t: float(VDD * np.sqrt(np.float64(1.0 - t / 0.5e-9)))
        circuit = gate.build(waves)

        def run():
            with pytest.warns(RuntimeWarning, match="invalid value"):
                with pytest.raises(ConvergenceError) as info:
                    transient(circuit, 2e-9)
            return str(info.value), info.value.iterations

        floats, arrays = both_loops(monkeypatch, lambda: recorded(run))
        assert floats == arrays


def flight(run):
    """:func:`recorded`, plus the flight ring's solve records without
    their timings (set ``REPRO_FLIGHT`` to hold every solve)."""
    with recording() as rec:
        result = run()
    counters = rec.metrics_payload()["counters"]
    solves = [{key: value for key, value in record.items()
               if key not in ("t", "phases")}
              for record in rec.flight.records() if record["event"] == "solve"]
    return result, {key: value for key, value in counters.items()
                    if key.startswith("spice.")}, solves


def dc_outcome(run):
    stats = NewtonStats()
    with recording() as rec:
        try:
            value = run(stats)
        except ConvergenceError as error:
            value = (str(error), error.iterations)
    counters = rec.metrics_payload()["counters"]
    return value, (stats.iterations, stats.solves, stats.failures,
                   stats.retries), counters


def assert_same_dc(got, want) -> None:
    (value, stats, counters), (ref_value, ref_stats, ref_counters) = got, want
    if isinstance(ref_value, np.ndarray):
        assert value.tobytes() == ref_value.tobytes()
    else:
        assert value == ref_value
    assert stats == ref_stats
    assert counters == ref_counters


class TestDcIdentity:
    @pytest.mark.parametrize("process", sorted(PROCESSES))
    @pytest.mark.parametrize("gate", ["inv", "nand3", "nor2", "aoi21"])
    def test_gmin_ladder(self, monkeypatch, gate, process):
        """A wild initial guess fails plain Newton: the gmin ramp runs."""
        cell = GATES[gate](PROCESSES[process])

        def run(stats):
            op = solve_dc(cell.build({cell.inputs[0]: 0.0}),
                          initial_guess={cell.output: 80.0}, stats=stats)
            return np.array([op[name] for name in sorted(op.voltages)])

        kernel, numpy_loop = both_loops(monkeypatch, lambda: dc_outcome(run))
        assert kernel[2]["spice.dc.gmin_stepping"] >= 1
        assert_same_dc(kernel, numpy_loop)

    @pytest.mark.parametrize("process", sorted(PROCESSES))
    def test_source_stepping(self, monkeypatch, process):
        cell = Gate.nand(3, PROCESSES[process])

        def run(stats):
            compiled = cell.build({"a": cell.process.vdd}).compile()
            context = SolveContext.for_analysis(compiled, stats=stats)
            return _source_stepping(context, compiled.known_voltages(0.0),
                                    NewtonOptions(), 0.0)

        kernel, numpy_loop = both_loops(monkeypatch, lambda: dc_outcome(run))
        assert kernel[1][1] == 10  # one solve per source scale
        assert_same_dc(kernel, numpy_loop)

    @pytest.mark.parametrize("seed", range(6))
    def test_every_device_kind(self, monkeypatch, seed):
        """Random circuits with resistors, current sources and
        capacitors, hand-built companion stamps in compiled order, and a
        scaled source: the kernel's other inputs."""
        rng = np.random.default_rng(600 + seed)
        process = PROCESSES["alpha" if seed % 2 else "level1"]
        compiled = random_circuit(rng, n_mos=int(rng.integers(1, 7)),
                                  process=process).compile()
        assert compiled.stamp_plan.use_scalar_mos
        x0 = rng.uniform(0.0, process.vdd, compiled.n_unknown)

        def run(stats):
            circuit = compiled.circuit.compile()
            return newton_solve(circuit, x0, circuit.known_voltages(0.13e-9),
                                options=NewtonOptions(), time=0.13e-9,
                                caps=caps_of(ordered_stamps(circuit)),
                                source_scale=0.625,
                                context=SolveContext.for_analysis(
                                    circuit, stats=stats))

        kernel, numpy_loop = both_loops(monkeypatch, lambda: dc_outcome(run))
        assert_same_dc(kernel, numpy_loop)

    def test_singular_nudge(self, monkeypatch):
        """Inputs low and no gmin: the NMOS stack nodes float, every
        Jacobian is singular, and each solve walks the nudge rung."""
        cell = Gate.nand(3, PROCESSES["level1"])

        def run(stats):
            compiled = cell.build({name: 0.0 for name in cell.inputs}).compile()
            return newton_solve(compiled, np.zeros(compiled.n_unknown),
                                compiled.known_voltages(0.0),
                                options=NewtonOptions(gmin=0.0),
                                context=SolveContext.for_analysis(
                                    compiled, stats=stats))

        kernel, numpy_loop = both_loops(monkeypatch, lambda: dc_outcome(run))
        assert kernel[2]["spice.guard.rung{rung=nudge}"] >= 1
        assert_same_dc(kernel, numpy_loop)

    def test_doubly_singular_fails_alike(self, monkeypatch):
        def always_singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix (forced)")

        monkeypatch.setattr(engine, "gesv", always_singular)
        cell = Gate.nand(2, PROCESSES["level1"])

        def run(stats):
            compiled = cell.build().compile()
            return newton_solve(compiled, np.zeros(compiled.n_unknown),
                                compiled.known_voltages(0.0),
                                options=NewtonOptions(),
                                context=SolveContext.for_analysis(
                                    compiled, stats=stats))

        kernel, numpy_loop = both_loops(monkeypatch, lambda: dc_outcome(run))
        assert "singular" in kernel[0][0]
        assert kernel[1] == (1, 0, 1, 0)
        assert_same_dc(kernel, numpy_loop)

    @pytest.mark.parametrize("process", sorted(PROCESSES))
    def test_nan_iterate_ends_like_the_numpy_loop(self, monkeypatch,
                                                  process):
        cell = Gate.nand(3, PROCESSES[process])

        def run(stats):
            compiled = cell.build().compile()
            x0 = np.full(compiled.n_unknown, np.nan)
            return newton_solve(compiled, x0, compiled.known_voltages(0.0),
                                options=NewtonOptions(),
                                context=SolveContext.for_analysis(
                                    compiled, stats=stats))

        kernel, numpy_loop = both_loops(monkeypatch, lambda: dc_outcome(run))
        message, iterations = kernel[0]
        assert "residual nan A" in message
        assert iterations == NewtonOptions().max_iterations
        assert_same_dc(kernel, numpy_loop)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_norm_is_numpys_max_abs(self, monkeypatch):
        """The loop's step norm, NaN behind finite entries included
        (Python's ``max`` would skip it): a ``gesv`` stand-in writes each
        case into ``dx``, and the kernel loop damps, updates and accepts
        or rejects it as the NumPy loop's ``np.abs(dx).max()`` does."""
        nan, inf = float("nan"), float("inf")
        options = NewtonOptions(max_iterations=1, max_step=0.5, voltol=inf,
                                abstol=inf)
        for values in ([0.0], [-0.0, 0.0], [1.0, -2.0, 0.5], [1.0, nan],
                       [nan, 1.0], [-inf, nan, 2.0], [-inf, 1.0],
                       [1e-300, -1e300], [0.25, -0.125]):
            def writes(a, b, out=None, values=values):
                out = np.empty_like(b) if out is None else out
                out[...] = values
                return out

            circuit = Circuit()
            circuit.add_vsource("vd", "d", 1.0)
            circuit.add_mosfet("m0", "d", "d", "0", "0",
                               PROCESSES["level1"].nmos, 4e-6, 0.8e-6,
                               with_parasitics=False)
            for i in range(len(values)):
                circuit.add_isource(f"i{i}", f"n{i}", "0", 0.0)

            def run(stats):
                compiled = circuit.compile()
                return newton_solve(compiled, np.zeros(compiled.n_unknown),
                                    compiled.known_voltages(0.0),
                                    options=options,
                                    context=SolveContext.for_analysis(
                                        compiled, stats=stats))

            with monkeypatch.context() as patch:
                patch.setattr(engine, "gesv", writes)
                kernel, numpy_loop = both_loops(monkeypatch,
                                                lambda: dc_outcome(run))
            assert_same_dc(kernel, numpy_loop)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_kernel_residual_is_max_abs(self, monkeypatch):
        """The loop's inline residual ``max |F|``, NaN behind finite
        entries included: one current source per unknown node puts each
        value into ``F`` as is, and a one-iteration solve that cannot
        accept ends with the residual it saw, as the NumPy loop does."""
        nan, inf = float("nan"), float("inf")
        options = NewtonOptions(max_iterations=1, voltol=-1.0)
        for values in ([0.0], [-0.0, 0.0], [1.0, -2.0, 0.5], [1.0, nan],
                       [nan, 1.0], [-inf, nan, 2.0], [-inf, 1.0],
                       [1e-300, -1e300]):
            circuit = Circuit()
            circuit.add_vsource("vd", "d", 1.0)
            # Every terminal known: the transistor never reaches F or J.
            circuit.add_mosfet("m0", "d", "d", "0", "0",
                               PROCESSES["level1"].nmos, 4e-6, 0.8e-6,
                               with_parasitics=False)
            for i, value in enumerate(values):
                circuit.add_isource(f"i{i}", f"n{i}", "0", value)

            def run():
                compiled = circuit.compile()
                with pytest.raises(ConvergenceError) as info:
                    newton_solve(compiled, np.zeros(compiled.n_unknown),
                                 compiled.known_voltages(0.0),
                                 options=options)
                return info.value.residual, info.value.iterations

            kernel, numpy_loop = both_loops(monkeypatch, run)
            assert circuit.compile().stamp_plan.use_scalar_mos
            # F is ``0.0 + x * gmin + value``: a -0.0 value reads 0.0.
            want = float(np.abs(np.array(values)).max())
            for residual, iterations in (kernel, numpy_loop):
                assert iterations == 1
                assert residual == want or (residual != residual
                                            and want != want), values


class TestKernelCache:
    def test_loads_and_directions_share_two_kernels(self, monkeypatch):
        """Loads and input directions change values, never structure:
        the first load adds the DC kernel and the transient kernel (with
        its generated step code, keyed on the live capacitors' slots),
        and no later load or direction adds another."""
        monkeypatch.setenv("REPRO_CACHE_DIR", "off")
        gate = Gate.nand(3, PROCESSES["level1"], load=100e-15)
        thresholds = cached_thresholds(gate)
        plan = gate.build().compile().stamp_plan
        live_pairs = tuple(plan.cap_pairs[c] for c in plan.live_caps)
        assert 0 < len(live_pairs) < plan.n_cap

        def characterize(load_factors):
            grid = SingleInputGrid(taus=(200e-12, 600e-12),
                                   load_factors=load_factors)
            return GateLibrary.characterize(
                gate, mode="table", directions=(RISE, FALL),
                single_grid=grid, pairs=[], thresholds=thresholds, workers=0)

        want = {(plan.structure, None), (plan.structure, live_pairs)}
        # Cached testbenches hold plans that resolved their kernels.
        simulate.TESTBENCHES.clear()
        KERNELS.clear()
        characterize((1.0,))
        assert set(KERNELS._entries) == want
        characterize((0.5, 1.5, 2.0))
        assert set(KERNELS._entries) == want

    def test_bounded_least_recently_used(self):
        cache = KernelCache(size=2)
        plans = [GATES[name](PROCESSES["level1"]).build().compile().stamp_plan
                 for name in ("inv", "nand2", "nor2")]
        first = cache.get(plans[0], False)
        second = cache.get(plans[1], False)
        assert cache.get(plans[0], False) is first  # refreshes inv
        cache.get(plans[2], False)                  # evicts nand2
        assert len(cache) == 2
        assert cache.get(plans[0], False) is first
        assert cache.get(plans[1], False) is not second

    def test_threads_share_one_kernel_per_structure(self, monkeypatch):
        """More threads than cores, a short switch interval, a fresh
        plan per solve (so each resolves its kernel from the cache):
        every thread's loop gives the same solution, and the cache holds
        one entry per structure."""
        cache = KernelCache(size=8)
        monkeypatch.setattr(stamps, "KERNELS", cache)
        circuits = [GATES[name](PROCESSES["level1"]).build()
                    for name in ("nand2", "nor3", "aoi21")]
        results, errors = [], []

        def solve(circuit):
            compiled = circuit.compile()
            x = newton_solve(compiled, np.full(compiled.n_unknown, 1.25),
                             compiled.known_voltages(0.0),
                             options=NewtonOptions())
            return compiled.stamp_plan.structure, x.tobytes()

        def worker():
            try:
                for _ in range(20):
                    for circuit in circuits:
                        results.append(solve(circuit))
            except Exception as error:  # reported by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 8 * 20 * len(circuits)
        assert len(cache) == len(circuits)
        first = {}
        for structure, output in results:
            assert first.setdefault(structure, output) == output
