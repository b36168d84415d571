"""VTC extraction from gate simulations (paper Section 2 behaviour)."""

import numpy as np
import pytest

from repro.errors import MeasurementError
from repro.gates import Gate
from repro.spice.netlist import CompiledCircuit
from repro.spice.sparse import SPARSE_ENV_VAR
from repro.tech import default_process, submicron_process
from repro.vtc import extract_vtc, select_thresholds, vtc_family
from repro.vtc.extract import gate_thresholds

PROCESSES = {"level1": default_process(), "alpha": submicron_process()}

GATES = {
    "inv": lambda p: Gate.inverter(p, load=100e-15),
    "nand2": lambda p: Gate.nand(2, p, load=100e-15),
    "nand3": lambda p: Gate.nand(3, p, load=100e-15),
    "nand4": lambda p: Gate.nand(4, p, load=100e-15),
    "nor2": lambda p: Gate.nor(2, p, load=100e-15),
    "nor3": lambda p: Gate.nor(3, p, load=100e-15),
    "aoi21": lambda p: Gate.aoi21(p, load=100e-15),
    "oai21": lambda p: Gate.oai21(p, load=100e-15),
}


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


class TestSparseBackend:
    """The family's DC sweeps forced onto the sparse backend
    (``REPRO_SPARSE=1``) against the default gate kernel.

    SuperLU replaces the kernel's solve, so the sweeps are held to the
    sparse backend's tolerance contract rather than to its bits: every
    curve on the same input grid, each output sample within 1 nV.
    """

    @pytest.mark.parametrize("process", sorted(PROCESSES))
    @pytest.mark.parametrize("gate", sorted(GATES))
    def test_family_tracks_default(self, monkeypatch, gate, process):
        cell = GATES[gate](PROCESSES[process])

        def family(sparse):
            monkeypatch.setenv(SPARSE_ENV_VAR, sparse)
            return vtc_family(cell, coarse_points=21, dense_points=61)

        base, forced = family("auto"), family("1")
        assert len(base) == 2 ** len(cell.inputs) - 1
        assert [c.switching for c in forced] == [c.switching for c in base]
        for got, want in zip(forced, base):
            assert np.array_equal(got.vin, want.vin), want.label
            assert float(np.abs(got.vout - want.vout).max()) <= 1e-9, \
                want.label
