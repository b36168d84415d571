"""VTC extraction from gate simulations (paper Section 2 behaviour)."""

import pytest

from repro.errors import MeasurementError
from repro.gates import Gate
from repro.spice.netlist import CompiledCircuit
from repro.vtc import extract_vtc, select_thresholds, vtc_family
from repro.vtc.extract import gate_thresholds


@pytest.fixture(scope="module")
def nand3_family(nand3_module):
    return vtc_family(nand3_module, coarse_points=31, dense_points=81)


@pytest.fixture(scope="module")
def nand3_module(process_module):
    return Gate.nand(3, process_module, load=100e-15)


@pytest.fixture(scope="module")
def process_module():
    from repro.tech import default_process
    return default_process()


class TestExtract:
    def test_single_input_curve(self, nand3_module):
        curve = extract_vtc(nand3_module, ["a"], coarse_points=21,
                            dense_points=61)
        assert curve.switching == ("a",)
        assert 0.0 < curve.vil < curve.vm < curve.vih < 5.0

    def test_one_compile_per_sweep(self, nand3_module, monkeypatch):
        """The coarse and the dense sweep each compile the gate once."""
        compiles = []
        original = CompiledCircuit.__init__

        def counting(self, circuit):
            compiles.append(circuit)
            original(self, circuit)

        monkeypatch.setattr(CompiledCircuit, "__init__", counting)
        extract_vtc(nand3_module, ["a"], coarse_points=11, dense_points=21)
        assert len(compiles) == 2

    def test_empty_switching_rejected(self, nand3_module):
        with pytest.raises(MeasurementError):
            extract_vtc(nand3_module, [])

    def test_family_size(self, nand3_family):
        assert len(nand3_family) == 7  # 2^3 - 1

    def test_family_labels_unique(self, nand3_family):
        labels = [c.label for c in nand3_family]
        assert len(set(labels)) == 7

    def test_paper_ordering_single_below_joint(self, nand3_family):
        """VTCs of single switching inputs sit left of the all-switching
        VTC (paper Figure 2-1(b))."""
        by_label = {c.label: c for c in nand3_family}
        for single in ("a", "b", "c"):
            assert by_label[single].vm < by_label["abc"].vm
            assert by_label[single].vil < by_label["abc"].vil
            assert by_label[single].vih < by_label["abc"].vih

    def test_min_vil_from_input_closest_to_ground(self, nand3_family):
        """Paper: 'the V_il chosen would be from the input closest to the
        ground'.  Our NAND stacks 'c' next to ground."""
        min_curve = min(nand3_family, key=lambda c: c.vil)
        assert min_curve.label == "c"

    def test_max_vih_from_all_switching(self, nand3_family):
        min_curve = max(nand3_family, key=lambda c: c.vih)
        assert min_curve.label == "abc"

    def test_selected_thresholds_bracket_every_vm(self, nand3_family):
        thr = select_thresholds(nand3_family, 5.0)
        for curve in nand3_family:
            assert thr.vil < curve.vm < thr.vih

    def test_gate_thresholds_convenience(self, nand3_module, nand3_family):
        thr = gate_thresholds(nand3_module, family=nand3_family)
        assert thr.vil == pytest.approx(min(c.vil for c in nand3_family))

    def test_nor_max_vih_from_input_closest_to_rail(self, process_module):
        """Paper: for NOR gates V_ih comes from the input closest to the
        power rail and V_il from all switching together."""
        nor3 = Gate.nor(3, process_module, load=100e-15)
        family = vtc_family(nor3, coarse_points=31, dense_points=81)
        max_vih = max(family, key=lambda c: c.vih)
        assert max_vih.label == "a"  # 'a' is adjacent to Vdd in our NOR
        min_vil = min(family, key=lambda c: c.vil)
        assert min_vil.label == "abc"
