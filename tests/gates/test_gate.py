"""Gate cells: logic, sensitization, sizing, circuit emission."""

import gc
import itertools

import pytest

from repro.errors import NetlistError
from repro.gates import Gate, Leaf
from repro.spice import solve_dc
from repro.spice.builders import delay_chain
from repro.tech import Sizing, default_process


@pytest.fixture(scope="module")
def process():
    return default_process()


class TestLogic:
    def test_nand3_truth_table(self, process):
        gate = Gate.nand(3, process)
        for bits in itertools.product((True, False), repeat=3):
            assignment = dict(zip("abc", bits))
            assert gate.logic_output(assignment) == (not all(bits))

    def test_nor2_truth_table(self, process):
        gate = Gate.nor(2, process)
        for bits in itertools.product((True, False), repeat=2):
            assignment = dict(zip("ab", bits))
            assert gate.logic_output(assignment) == (not any(bits))

    def test_aoi21_truth_table(self, process):
        gate = Gate.aoi21(process)
        for a, b, c in itertools.product((True, False), repeat=3):
            expected = not ((a and b) or c)
            assert gate.logic_output({"a": a, "b": b, "c": c}) == expected

    def test_oai21_truth_table(self, process):
        gate = Gate.oai21(process)
        for a, b, c in itertools.product((True, False), repeat=3):
            expected = not ((a or b) and c)
            assert gate.logic_output({"a": a, "b": b, "c": c}) == expected

    def test_output_direction_inverting(self, process):
        gate = Gate.nand(2, process)
        assert gate.output_direction("rise") == "fall"
        assert gate.output_direction("fall") == "rise"


class TestSensitization:
    def test_nand_side_inputs_high(self, process):
        gate = Gate.nand(3, process)
        assert gate.sensitizing_levels(["a"]) == {"b": True, "c": True}

    def test_nor_side_inputs_low(self, process):
        gate = Gate.nor(3, process)
        assert gate.sensitizing_levels(["b"]) == {"a": False, "c": False}

    def test_aoi21_single_input(self, process):
        gate = Gate.aoi21(process)
        levels = gate.sensitizing_levels(["a"])
        # a controls only when b=1 and c=0.
        assert levels == {"b": True, "c": False}

    def test_unknown_input_rejected(self, process):
        gate = Gate.nand(2, process)
        with pytest.raises(NetlistError):
            gate.sensitizing_levels(["z"])

    def test_empty_set_rejected(self, process):
        with pytest.raises(NetlistError):
            Gate.nand(2, process).sensitizing_levels([])


class TestSizing:
    def test_stack_scaling_widens_series(self, process):
        gate = Gate.nand(3, process)
        assert gate.nmos_width("a") == pytest.approx(3 * process.sizing.wn)
        assert gate.pmos_width("a") == pytest.approx(process.sizing.wp)

    def test_nor_scales_pmos(self, process):
        gate = Gate.nor(2, process)
        assert gate.pmos_width("a") == pytest.approx(2 * process.sizing.wp)
        assert gate.nmos_width("a") == pytest.approx(process.sizing.wn)

    def test_stack_scaling_off(self, process):
        gate = Gate.nand(3, process, stack_scaling=False)
        assert gate.nmos_width("a") == pytest.approx(process.sizing.wn)

    def test_custom_sizing(self, process):
        sizing = Sizing(wn=1e-6, wp=2e-6, length=1e-6)
        gate = Gate.inverter(process, sizing=sizing)
        assert gate.nmos_width("a") == pytest.approx(1e-6)

    def test_strengths(self, process):
        gate = Gate.inverter(process)
        assert gate.strength_n() == pytest.approx(
            process.nmos.strength(process.sizing.wn, process.sizing.length))


class TestBuild:
    def test_nand2_dc_levels(self, process):
        gate = Gate.nand(2, process)
        for a, b in itertools.product((0.0, 5.0), repeat=2):
            circuit = gate.build({"a": a, "b": b}, switching=["a", "b"])
            op = solve_dc(circuit)
            expected = 0.0 if (a > 2.5 and b > 2.5) else 5.0
            assert op["z"] == pytest.approx(expected, abs=0.02), (a, b)

    def test_default_levels_sensitize(self, process):
        gate = Gate.nand(3, process)
        circuit = gate.build({"a": 5.0})
        op = solve_dc(circuit)
        # b and c default high; a high -> output low.
        assert op["z"] == pytest.approx(0.0, abs=0.02)

    def test_aoi21_dc_levels(self, process):
        gate = Gate.aoi21(process)
        for a, b, c in itertools.product((0.0, 5.0), repeat=3):
            circuit = gate.build({"a": a, "b": b, "c": c},
                                 switching=["a", "b", "c"])
            op = solve_dc(circuit)
            logic = not ((a > 2.5 and b > 2.5) or c > 2.5)
            assert op["z"] == pytest.approx(5.0 if logic else 0.0, abs=0.05)

    def test_load_override(self, process):
        gate = Gate.nand(2, process, load=100e-15)
        circuit = gate.build({"a": 0.0}, load=55e-15)
        compiled = circuit.compile()
        loads = compiled.cap_c.tolist()
        assert any(abs(c - 55e-15) < 1e-20 for c in loads)

    def test_instantiate_into_shared_circuit(self, process):
        from repro.spice import Circuit
        gate = Gate.inverter(process)
        circuit = Circuit("two-inv")
        circuit.add_vsource("vvdd", "vdd", process.vdd)
        circuit.add_vsource("vin", "nin", 0.0)
        gate.instantiate_into(circuit, "u1", {"a": "nin", "z": "mid"})
        gate.instantiate_into(circuit, "u2", {"a": "mid", "z": "nout"})
        circuit.add_capacitor("c1", "mid", "0", 1e-13)
        circuit.add_capacitor("c2", "nout", "0", 1e-13)
        op = solve_dc(circuit)
        assert op["mid"] == pytest.approx(5.0, abs=0.02)
        assert op["nout"] == pytest.approx(0.0, abs=0.02)

    def test_instantiate_into_missing_net(self, process):
        from repro.spice import Circuit
        gate = Gate.inverter(process)
        circuit = Circuit()
        circuit.add_vsource("vvdd", "vdd", process.vdd)
        with pytest.raises(NetlistError):
            gate.instantiate_into(circuit, "u1", {"a": "nin"})


class TestValidation:
    def test_reserved_input_names(self, process):
        with pytest.raises(NetlistError):
            Gate("bad", Leaf("vdd"), process)

    def test_output_collision(self, process):
        with pytest.raises(NetlistError):
            Gate("bad", Leaf("z"), process)

    def test_negative_load(self, process):
        with pytest.raises(NetlistError):
            Gate.nand(2, process, load=-1e-15)

    def test_input_count_bounds(self, process):
        with pytest.raises(NetlistError):
            Gate.nand(0, process)

    def test_cache_key_distinguishes_topologies(self, process):
        nand = Gate.nand(2, process)
        nor = Gate.nor(2, process)
        assert nand.cache_key()["topology"] != nor.cache_key()["topology"]

    def test_cache_key_includes_load(self, process):
        g1 = Gate.nand(2, process, load=50e-15)
        g2 = Gate.nand(2, process, load=100e-15)
        assert g1.cache_key() != g2.cache_key()


class TestNoReferenceCycles:
    """Gate construction and emission free by reference counting alone,
    so a built circuit never waits for the cyclic collector."""

    @pytest.mark.parametrize("make", [
        lambda p: Gate.nand(3, p).build().compile(),
        lambda p: Gate.aoi22(p).build().compile(),
        lambda p: delay_chain(12, 4, p),
    ], ids=["nand3", "aoi22", "delay_chain"])
    def test_build_leaves_nothing_unreachable(self, process, make):
        make(process)  # first use fills process-wide caches
        gc.collect()
        gc.disable()
        try:
            make(process)
            assert gc.collect() == 0
        finally:
            gc.enable()
