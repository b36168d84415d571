"""Transistor-level flattening and whole-netlist simulation."""

import pytest

from repro.errors import TimingError
from repro.spice import solve_dc
from repro.timing import TimingNetlist, flatten_to_circuit, simulate_netlist
from repro.waveform import Edge, FALL, Pwl, timing_threshold


@pytest.fixture
def chain(calculator):
    net = TimingNetlist("flat")
    for name in ("i0", "i1", "i2", "i3", "i4"):
        net.add_input(name)
    net.add_gate("g1", calculator, {"a": "i0", "b": "i1", "c": "i2"}, "w1")
    net.add_gate("g2", calculator, {"a": "w1", "b": "i3", "c": "i4"}, "out")
    return net


def const(v):
    return Pwl([0.0, 1e-12], [v, v])


class TestFlatten:
    def test_dc_logic_levels(self, chain):
        """All inputs high: w1 = NAND(1,1,1) = 0, out = NAND(0,1,1) = 1."""
        waveforms = {f"i{k}": const(5.0) for k in range(5)}
        circuit, node_of = flatten_to_circuit(chain, waveforms)
        op = solve_dc(circuit)
        assert op[node_of["w1"]] == pytest.approx(0.0, abs=0.05)
        assert op[node_of["out"]] == pytest.approx(5.0, abs=0.05)

    def test_missing_input_waveform_rejected(self, chain):
        with pytest.raises(TimingError):
            flatten_to_circuit(chain, {"i0": const(5.0)})

    def test_unknown_input_rejected(self, chain):
        waveforms = {f"i{k}": const(5.0) for k in range(5)}
        waveforms["bogus"] = const(0.0)
        with pytest.raises(TimingError):
            flatten_to_circuit(chain, waveforms)

    def test_load_caps_attached(self, chain):
        waveforms = {f"i{k}": const(5.0) for k in range(5)}
        circuit, node_of = flatten_to_circuit(chain, waveforms)
        compiled = circuit.compile()
        # Two explicit 100 fF loads plus parasitics.
        big_caps = [c for c in compiled.cap_c.tolist() if c >= 9e-14]
        assert len(big_caps) == 2


class TestSimulateNetlist:
    def test_end_to_end_transition(self, chain, thresholds):
        edges = {
            "i0": Edge(FALL, 0.0, 300e-12),
            "i1": Edge(FALL, 30e-12, 300e-12),
            "i2": Edge(FALL, 60e-12, 300e-12),
        }
        result, node_of = simulate_netlist(
            chain, edges, thresholds,
            static_levels={"i3": True, "i4": True},
        )
        out = result.node(node_of["out"])
        # inputs fall -> w1 rises -> out falls.
        assert out.initial_value() == pytest.approx(5.0, abs=0.1)
        assert out.final_value() == pytest.approx(0.0, abs=0.1)

    def test_static_level_required(self, chain, thresholds):
        edges = {"i0": Edge(FALL, 0.0, 300e-12)}
        with pytest.raises(TimingError):
            simulate_netlist(chain, edges, thresholds)

    def test_sta_matches_flat_simulation(self, chain, thresholds):
        """The headline integration check: proximity STA arrival within
        ~10% of the flat transistor-level simulation."""
        from repro.timing import ProximitySta

        edges = {
            "i0": Edge(FALL, 0.0, 250e-12),
            "i1": Edge(FALL, 40e-12, 400e-12),
            "i2": Edge(FALL, 90e-12, 150e-12),
        }
        sta = ProximitySta(chain).analyze(edges)
        sim, node_of = simulate_netlist(
            chain, edges, thresholds,
            static_levels={"i3": True, "i4": True},
        )
        out = sim.node(node_of["out"])
        level = timing_threshold(FALL, thresholds)
        t_out = out.last_crossing(level, FALL)
        i0 = sim.node(node_of["i0"])
        shift = i0.first_crossing(timing_threshold(FALL, thresholds), FALL)
        assert sta.arrival("out") == pytest.approx(t_out - shift, rel=0.12)
