"""The transient settle rule: stop once a node has settled after the
last source breakpoint, on exactly the steps the full window takes."""

import sys

import numpy as np
import pytest

from repro.errors import ConvergenceError, NetlistError
from repro.gates import Gate
from repro.obs.recorder import Recorder, reset_recorder, set_recorder
from repro.spice import transient, transient_batch
from repro.tech import default_process
from repro.waveform import Pwl, ramp

# ``repro.spice.transient`` the attribute is the function; the module
# holds ``_integrate``.
transient_module = sys.modules["repro.spice.transient"]

T_STOP = 4e-9
TOL = 0.01


@pytest.fixture(scope="module")
def inverter():
    return Gate.inverter(default_process(), load=100e-15)


def falling_input(inverter, t0=0.2e-9, tau=0.3e-9):
    vdd = inverter.process.vdd
    return inverter.build({"a": ramp(t0, vdd, 0.0, tau)})


def first_settled(result, node, level, tol, t_flat):
    """Index of the first sample at or after ``t_flat`` within ``tol``."""
    samples = result.samples(node)
    for i, t in enumerate(result.times):
        if t >= t_flat and abs(samples[i] - level) <= tol:
            return i
    return None


def assert_prefix(stopped, full):
    m = len(stopped.times)
    assert np.array_equal(stopped.times, full.times[:m])
    for name in full.node_names:
        assert np.array_equal(stopped.samples(name), full.samples(name)[:m])


class TestSettleRule:
    def test_stops_at_first_settled_step_after_last_breakpoint(self, inverter):
        circuit = falling_input(inverter)
        vdd = inverter.process.vdd
        full = transient(circuit, T_STOP)
        stopped = transient(circuit, T_STOP, settle=("z", vdd, TOL))
        assert_prefix(stopped, full)
        t_flat = circuit.compile().breakpoints[-1]
        index = first_settled(full, "z", vdd, TOL, t_flat)
        assert index is not None and index < len(full.times) - 1
        assert len(stopped.times) == index + 1
        assert stopped.newton_iterations < full.newton_iterations

    def test_settled_before_the_last_breakpoint_does_not_stop(self, inverter):
        """The output sits at 0 V from t=0, but the rule waits for the
        input's last breakpoint."""
        vdd = inverter.process.vdd
        circuit = inverter.build({"a": Pwl([0.2e-9, 0.5e-9], [vdd, vdd])})
        full = transient(circuit, T_STOP)
        stopped = transient(circuit, T_STOP, settle=("z", 0.0, TOL))
        assert_prefix(stopped, full)
        assert stopped.times[-1] >= 0.5e-9 > stopped.times[-2]
        assert len(stopped.times) < len(full.times)

    def test_node_that_never_settles_runs_the_full_window(self, inverter):
        circuit = falling_input(inverter)
        vdd = inverter.process.vdd
        full = transient(circuit, T_STOP)
        result = transient(circuit, T_STOP, settle=("z", vdd / 2, TOL))
        assert np.array_equal(result.times, full.times)
        assert np.array_equal(result.samples("z"), full.samples("z"))

    def test_callable_source_runs_the_full_window(self, inverter):
        vdd = inverter.process.vdd
        wave = ramp(0.2e-9, vdd, 0.0, 0.3e-9)
        circuit = inverter.build({"a": lambda t: float(wave(t))})
        full = transient(circuit, T_STOP)
        result = transient(circuit, T_STOP, settle=("z", vdd, TOL))
        assert result.times[-1] == pytest.approx(T_STOP)
        assert np.array_equal(result.times, full.times)

    def test_current_source_runs_the_full_window(self, inverter):
        circuit = falling_input(inverter)
        circuit.add_isource("ileak", "z", "0", 0.0)
        vdd = inverter.process.vdd
        full = transient(circuit, T_STOP)
        result = transient(circuit, T_STOP, settle=("z", vdd, TOL))
        assert np.array_equal(result.times, full.times)

    def test_sources_still_moving_at_t_stop(self, inverter):
        """A breakpoint past the window: the inputs never go flat."""
        vdd = inverter.process.vdd
        circuit = inverter.build({"a": ramp(0.2e-9, vdd, 0.0, 10e-9)})
        full = transient(circuit, 2e-9)
        result = transient(circuit, 2e-9, settle=("z", 0.0, vdd))
        assert np.array_equal(result.times, full.times)

    @pytest.mark.parametrize("node", ["0", "a", "vdd", "nowhere"])
    def test_node_must_be_solved(self, inverter, node):
        with pytest.raises(NetlistError, match="not a solved node"):
            transient(falling_input(inverter), T_STOP,
                      settle=(node, 0.0, TOL))

    def test_every_retry_attempt_applies_the_rule(self, inverter, monkeypatch):
        """Attempt 0 settles and is then failed by force; the escalated
        attempt 1 settles too, and its result is what comes back."""
        real = transient_module._integrate
        settled = []

        def failing_first(*args, **kwargs):
            outcome = real(*args, **kwargs)
            settled.append(outcome[3])
            if len(settled) == 1:
                raise ConvergenceError("forced attempt failure")
            return outcome

        monkeypatch.setattr(transient_module, "_integrate", failing_first)
        vdd = inverter.process.vdd
        result = transient(falling_input(inverter), T_STOP, retry=2,
                           settle=("z", vdd, TOL))
        assert settled == [True, True]
        assert result.solver_retries == 1
        assert result.times[-1] < T_STOP
        assert abs(result.samples("z")[-1] - vdd) <= TOL

    def test_settled_counter(self, inverter):
        vdd = inverter.process.vdd
        circuit = falling_input(inverter)
        recorder = Recorder()
        set_recorder(recorder)
        try:
            transient(circuit, T_STOP, settle=("z", vdd, TOL))
            transient(circuit, T_STOP, settle=("z", vdd / 2, TOL))
            transient(circuit, T_STOP)
        finally:
            reset_recorder()
        counters = recorder.metrics_payload()["counters"]
        assert counters["spice.transient.settled"] == 1
        assert counters["spice.transient.analyses"] == 3


class TestBatchSettle:
    def test_per_lane_rules_match_scalar(self, inverter):
        vdd = inverter.process.vdd
        circuits = [falling_input(inverter, tau=tau) for tau in (0.1e-9, 0.5e-9)]
        rules = [("z", vdd, TOL), None]
        lanes = transient_batch(circuits, T_STOP, settle=rules)
        for circuit, rule, lane in zip(circuits, rules, lanes):
            scalar = transient(circuit, T_STOP, settle=rule)
            assert np.array_equal(lane.times, scalar.times)
            assert np.array_equal(lane.samples("z"), scalar.samples("z"))
        assert lanes[0].times[-1] < T_STOP
        assert lanes[1].times[-1] == pytest.approx(T_STOP)

    def test_rule_list_length_must_match(self, inverter):
        with pytest.raises(ValueError, match="settle length"):
            transient_batch([falling_input(inverter)], T_STOP,
                            settle=[None, None])
