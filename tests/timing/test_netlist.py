"""Timing netlist structure: drivers, loads, cycles, topological order."""

import pytest

from repro.errors import TimingError
from repro.timing import TimingNetlist


@pytest.fixture
def netlist(calculator):
    net = TimingNetlist("t")
    for name in ("i0", "i1", "i2", "i3", "i4"):
        net.add_input(name)
    net.add_gate("g1", calculator, {"a": "i0", "b": "i1", "c": "i2"}, "w1")
    net.add_gate("g2", calculator, {"a": "w1", "b": "i3", "c": "i4"}, "out")
    return net


class TestConstruction:
    def test_duplicate_input_rejected(self, calculator):
        net = TimingNetlist()
        net.add_input("i0")
        with pytest.raises(TimingError):
            net.add_input("i0")

    def test_duplicate_instance_rejected(self, netlist, calculator):
        with pytest.raises(TimingError):
            netlist.add_gate("g1", calculator,
                             {"a": "i0", "b": "i1", "c": "i2"}, "wx")

    def test_net_single_driver(self, netlist, calculator):
        with pytest.raises(TimingError):
            netlist.add_gate("g3", calculator,
                             {"a": "i0", "b": "i1", "c": "i2"}, "w1")

    def test_missing_pin_rejected(self, calculator):
        net = TimingNetlist()
        net.add_input("i0")
        with pytest.raises(TimingError):
            net.add_gate("g1", calculator, {"a": "i0"}, "w1")

    def test_extra_pin_rejected(self, calculator):
        net = TimingNetlist()
        for name in ("i0", "i1", "i2", "i3"):
            net.add_input(name)
        with pytest.raises(TimingError):
            net.add_gate("g1", calculator,
                         {"a": "i0", "b": "i1", "c": "i2", "d": "i3"}, "w1")


class TestStructure:
    def test_primary_outputs(self, netlist):
        assert netlist.primary_outputs() == ["out"]

    def test_driver_lookup(self, netlist):
        assert netlist.driver("w1").name == "g1"
        assert netlist.driver("i0") is None
        with pytest.raises(TimingError):
            netlist.driver("floating")

    def test_loads(self, netlist):
        loads = netlist.loads("w1")
        assert [(inst.name, pin) for inst, pin in loads] == [("g2", "a")]

    def test_nets_enumeration(self, netlist):
        nets = netlist.nets()
        assert set(nets) >= {"i0", "i1", "i2", "i3", "i4", "w1", "out"}

    def test_topological_order(self, netlist):
        order = [inst.name for inst in netlist.topological_order()]
        assert order.index("g1") < order.index("g2")

    def test_topological_order_pinned(self, calculator):
        """A diamond (top -> left/right -> join) with fan-out from top
        and mid, a gate with one driver on two pins, and an independent
        side chain, all inserted out of order.  The expected list is
        the order networkx's ``topological_sort`` gives for this graph;
        flattening, STA and the event simulator walk gates in it."""
        net = TimingNetlist("reconvergent")
        for name in ("i0", "i1", "i2"):
            net.add_input(name)
        net.add_gate("join", calculator, {"a": "left", "b": "right", "c": "i0"}, "mid")
        net.add_gate("sink", calculator, {"a": "mid", "b": "i0", "c": "i1"}, "out2")
        net.add_gate("side", calculator, {"a": "i0", "b": "i1", "c": "i2"}, "out3")
        net.add_gate("right", calculator, {"a": "top", "b": "top", "c": "i2"}, "right")
        net.add_gate("top", calculator, {"a": "i0", "b": "i1", "c": "i2"}, "top")
        net.add_gate("fan", calculator, {"a": "top", "b": "mid", "c": "side_in"}, "out1")
        net.add_gate("left", calculator, {"a": "top", "b": "i0", "c": "i1"}, "left")
        net.add_gate("tail", calculator, {"a": "out3", "b": "i1", "c": "i2"}, "side_in")
        order = [inst.name for inst in net.topological_order()]
        assert order == ["side", "top", "tail", "right", "left", "join",
                         "sink", "fan"]

    def test_floating_input_detected(self, calculator):
        net = TimingNetlist()
        net.add_input("i0")
        net.add_gate("g1", calculator,
                     {"a": "i0", "b": "ghost", "c": "i0x"[:2]}, "w1")
        with pytest.raises(TimingError):
            net.topological_order()

    def test_cycle_detected(self, calculator):
        net = TimingNetlist()
        net.add_input("i0")
        net.add_input("i1")
        net.add_gate("g1", calculator, {"a": "i0", "b": "i1", "c": "w2"}, "w1")
        net.add_gate("g2", calculator, {"a": "w1", "b": "i0", "c": "i1"}, "w2")
        with pytest.raises(TimingError, match="combinational cycle") as info:
            net.topological_order()
        assert "g1" in str(info.value) and "g2" in str(info.value)

    def test_instance_lookup(self, netlist):
        assert netlist.instance("g1").output_net == "w1"
        with pytest.raises(TimingError):
            netlist.instance("nope")

    def test_instance_pin_helpers(self, netlist):
        g1 = netlist.instance("g1")
        assert g1.net_of("a") == "i0"
        assert g1.pins_on_net("i1") == ["b"]
        with pytest.raises(TimingError):
            g1.net_of("q")
