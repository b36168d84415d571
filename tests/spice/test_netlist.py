"""Circuit construction and compilation."""

import numpy as np
import pytest

from repro.errors import NetlistError
from repro.spice import Circuit
from repro.tech import default_process
from repro.waveform import Pwl


@pytest.fixture
def process():
    return default_process()


class TestConstruction:
    def test_duplicate_element_names_rejected(self):
        ckt = Circuit()
        ckt.add_resistor("r1", "a", "b", 1e3)
        with pytest.raises(NetlistError):
            ckt.add_resistor("r1", "b", "c", 1e3)

    def test_resistor_must_be_positive(self):
        ckt = Circuit()
        with pytest.raises(NetlistError):
            ckt.add_resistor("r1", "a", "0", 0.0)

    def test_capacitor_negative_rejected(self):
        ckt = Circuit()
        with pytest.raises(NetlistError):
            ckt.add_capacitor("c1", "a", "0", -1e-15)

    def test_zero_capacitor_dropped(self):
        ckt = Circuit()
        ckt.add_capacitor("c0", "a", "0", 0.0)
        ckt.add_vsource("v1", "a", 1.0)
        ckt.add_resistor("r1", "a", "b", 1e3)
        ckt.add_resistor("r2", "b", "0", 1e3)
        compiled = ckt.compile()
        assert compiled.cap_c.size == 0

    def test_vsource_drives_one_node_only(self):
        ckt = Circuit()
        ckt.add_vsource("v1", "in", 1.0)
        with pytest.raises(NetlistError):
            ckt.add_vsource("v2", "in", 2.0)

    def test_vsource_cannot_drive_ground(self):
        ckt = Circuit()
        with pytest.raises(NetlistError):
            ckt.add_vsource("v1", "0", 1.0)

    def test_ground_aliases(self):
        assert Circuit.is_ground("0")
        assert Circuit.is_ground("GND")
        assert Circuit.is_ground("vss")
        assert not Circuit.is_ground("out")

    def test_replace_vsource(self):
        ckt = Circuit()
        ckt.add_vsource("v1", "in", 1.0)
        ckt.add_resistor("r1", "in", "out", 1e3)
        ckt.add_resistor("r2", "out", "0", 1e3)
        ckt.replace_vsource("v1", 2.0)
        compiled = ckt.compile()
        assert compiled.known_voltages(0.0)[1] == pytest.approx(2.0)
        with pytest.raises(NetlistError):
            ckt.replace_vsource("nope", 1.0)

    def test_mosfet_adds_parasitics(self, process):
        ckt = Circuit()
        ckt.add_vsource("vd", "vdd", 5.0)
        ckt.add_mosfet("m1", "out", "vdd", "0", "0", process.nmos, 4e-6, 0.8e-6)
        ckt.add_capacitor("cl", "out", "0", 1e-13)
        compiled = ckt.compile()
        # cgs collapses (gate=vdd both known? no: gate-source cap between
        # vdd and 0 still stamps) -- just check multiple caps exist.
        assert compiled.cap_c.size >= 3

    def test_mosfet_without_parasitics(self, process):
        ckt = Circuit()
        ckt.add_vsource("vd", "vdd", 5.0)
        ckt.add_mosfet("m1", "out", "vdd", "0", "0", process.nmos,
                       4e-6, 0.8e-6, with_parasitics=False)
        ckt.add_capacitor("cl", "out", "0", 1e-13)
        assert ckt.compile().cap_c.size == 1


class TestCompilation:
    def test_unknown_nodes_exclude_driven_and_ground(self):
        ckt = Circuit()
        ckt.add_vsource("v1", "in", 1.0)
        ckt.add_resistor("r1", "in", "mid", 1e3)
        ckt.add_resistor("r2", "mid", "0", 1e3)
        assert ckt.unknown_nodes() == ["mid"]

    def test_no_unknowns_rejected(self):
        ckt = Circuit()
        ckt.add_vsource("v1", "in", 1.0)
        ckt.add_resistor("r1", "in", "0", 1e3)
        with pytest.raises(NetlistError):
            ckt.compile()

    def test_pwl_source_breakpoints_collected(self):
        ckt = Circuit()
        wf = Pwl([1e-9, 2e-9], [0.0, 5.0])
        ckt.add_vsource("v1", "in", wf)
        ckt.add_resistor("r1", "in", "mid", 1e3)
        ckt.add_capacitor("c1", "mid", "0", 1e-15)
        compiled = ckt.compile()
        assert compiled.breakpoints == (1e-9, 2e-9)

    def test_known_voltages_time_dependent(self):
        ckt = Circuit()
        wf = Pwl([0.0, 1e-9], [0.0, 5.0])
        ckt.add_vsource("v1", "in", wf)
        ckt.add_resistor("r1", "in", "mid", 1e3)
        ckt.add_resistor("r2", "mid", "0", 1e3)
        compiled = ckt.compile()
        assert compiled.known_voltages(0.0)[1] == pytest.approx(0.0)
        assert compiled.known_voltages(0.5e-9)[1] == pytest.approx(2.5)

    def test_node_voltage_series(self):
        ckt = Circuit()
        ckt.add_vsource("v1", "in", 2.0)
        ckt.add_resistor("r1", "in", "mid", 1e3)
        ckt.add_resistor("r2", "mid", "0", 1e3)
        compiled = ckt.compile()
        times = np.array([0.0, 1.0])
        x = np.array([[1.0], [1.5]])
        assert np.allclose(compiled.node_voltage_series("mid", times, x), [1.0, 1.5])
        assert np.allclose(compiled.node_voltage_series("0", times, x), [0.0, 0.0])
        assert np.allclose(compiled.node_voltage_series("in", times, x), [2.0, 2.0])
        with pytest.raises(NetlistError):
            compiled.node_voltage_series("nope", times, x)

    def test_set_source_level_rebinds_constants_only(self):
        ckt = Circuit()
        ckt.add_vsource("v1", "in", 2.0)
        ckt.add_vsource("v2", "ramp", Pwl([0.0, 1e-9], [0.0, 5.0]))
        ckt.add_vsource("v3", "fn", lambda t: 1.0)
        ckt.add_resistor("r1", "in", "mid", 1e3)
        ckt.add_resistor("r2", "mid", "0", 1e3)
        compiled = ckt.compile()
        compiled.set_source_level("v1", 3.25)
        assert compiled.known_voltages(0.0)[1] == 3.25
        assert ckt.compile().known_voltages(0.0)[1] == 2.0
        for name in ("v2", "v3", "nope"):
            with pytest.raises(NetlistError):
                compiled.set_source_level(name, 1.0)

    def test_with_waveforms_rebinds_pwl_sources_only(self):
        ckt = Circuit()
        ckt.add_vsource("v1", "in", 2.0)
        ckt.add_vsource("v2", "ramp", Pwl([0.0, 1e-9], [0.0, 5.0]))
        ckt.add_vsource("v3", "fn", lambda t: 1.0)
        ckt.add_resistor("r1", "in", "mid", 1e3)
        ckt.add_resistor("r2", "ramp", "mid", 1e3)
        compiled = ckt.compile()
        wave = Pwl([2e-10, 4e-10, 6e-10], [5.0, 1.0, 3.0])
        view = compiled.with_waveforms({"ramp": wave})
        assert view.stamp_plan is compiled.stamp_plan
        assert view.breakpoints == (2e-10, 4e-10, 6e-10)
        assert compiled.breakpoints == (0.0, 1e-9)
        assert view.known_list(5e-10) == [0.0, 2.0, wave(5e-10), 1.0]
        assert compiled.known_list(5e-10)[2] == 2.5
        view.set_source_level("v1", 3.0)
        assert compiled.known_list(0.0)[1] == 2.0
        for waves in ({}, {"ramp": wave, "in": wave}, {"fn": wave}):
            with pytest.raises(NetlistError):
                compiled.with_waveforms(waves)

    def test_source_node_lookup(self):
        ckt = Circuit()
        ckt.add_vsource("v1", "in", 1.0)
        assert ckt.source_node("v1") == "in"
        with pytest.raises(NetlistError):
            ckt.source_node("v2")
