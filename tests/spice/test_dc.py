"""DC operating point and sweeps against analytic circuits."""

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.spice import Circuit, dc_sweep, solve_dc
from repro.tech import default_process


def nand2(proc) -> Circuit:
    ckt = Circuit()
    ckt.add_vsource("vvdd", "vdd", proc.vdd)
    ckt.add_vsource("va", "a", 0.0)
    ckt.add_vsource("vb", "b", 0.0)
    ckt.add_mosfet("mna", "out", "a", "mid", "0", proc.nmos, 8e-6, 0.8e-6)
    ckt.add_mosfet("mnb", "mid", "b", "0", "0", proc.nmos, 8e-6, 0.8e-6)
    ckt.add_mosfet("mpa", "out", "a", "vdd", "vdd", proc.pmos, 8e-6, 0.8e-6)
    ckt.add_mosfet("mpb", "out", "b", "vdd", "vdd", proc.pmos, 8e-6, 0.8e-6)
    return ckt


def divider(r1=1e3, r2=1e3, v=2.0) -> Circuit:
    ckt = Circuit()
    ckt.add_vsource("v1", "in", v)
    ckt.add_resistor("r1", "in", "mid", r1)
    ckt.add_resistor("r2", "mid", "0", r2)
    return ckt


class TestSolveDc:
    def test_resistor_divider(self):
        op = solve_dc(divider(1e3, 3e3, 4.0))
        assert op["mid"] == pytest.approx(3.0, rel=1e-6)

    def test_ladder(self):
        ckt = Circuit()
        ckt.add_vsource("v1", "in", 10.0)
        ckt.add_resistor("r1", "in", "a", 1e3)
        ckt.add_resistor("r2", "a", "b", 1e3)
        ckt.add_resistor("r3", "b", "0", 2e3)
        op = solve_dc(ckt)
        assert op["a"] == pytest.approx(7.5, rel=1e-6)
        assert op["b"] == pytest.approx(5.0, rel=1e-6)

    def test_current_source(self):
        ckt = Circuit()
        ckt.add_vsource("v1", "in", 0.0)
        ckt.add_resistor("r1", "in", "out", 1e3)
        ckt.add_isource("i1", "0", "out", 1e-3)  # 1 mA into out
        op = solve_dc(ckt)
        assert op["out"] == pytest.approx(1.0, rel=1e-5)

    def test_inverter_logic_levels(self):
        proc = default_process()
        for vin, expected in ((0.0, proc.vdd), (proc.vdd, 0.0)):
            ckt = Circuit()
            ckt.add_vsource("vvdd", "vdd", proc.vdd)
            ckt.add_vsource("vin", "in", vin)
            ckt.add_mosfet("mn", "out", "in", "0", "0", proc.nmos, 4e-6, 0.8e-6)
            ckt.add_mosfet("mp", "out", "in", "vdd", "vdd", proc.pmos, 8e-6, 0.8e-6)
            ckt.add_capacitor("cl", "out", "0", 1e-13)
            op = solve_dc(ckt)
            assert op["out"] == pytest.approx(expected, abs=0.01)

    def test_floating_series_stack_settles(self):
        """Both transistors off: the internal node must still solve
        (gmin pulls it to a rail ballpark, no exception)."""
        proc = default_process()
        ckt = Circuit()
        ckt.add_vsource("vvdd", "vdd", proc.vdd)
        ckt.add_vsource("va", "a", 0.0)
        ckt.add_vsource("vb", "b", 0.0)
        ckt.add_mosfet("m1", "out", "a", "mid", "0", proc.nmos, 4e-6, 0.8e-6)
        ckt.add_mosfet("m2", "mid", "b", "0", "0", proc.nmos, 4e-6, 0.8e-6)
        ckt.add_mosfet("mp1", "out", "a", "vdd", "vdd", proc.pmos, 8e-6, 0.8e-6)
        op = solve_dc(ckt)
        assert 0.0 <= op["mid"] <= proc.vdd + 0.1
        assert op["out"] == pytest.approx(proc.vdd, abs=0.01)

    def test_initial_guess_honoured(self):
        op = solve_dc(divider(), initial_guess={"mid": 0.9})
        assert op["mid"] == pytest.approx(1.0, rel=1e-6)


class TestDcSweep:
    def test_divider_tracks_input(self):
        ckt = divider(1e3, 1e3)
        grid = np.linspace(0.0, 4.0, 9)
        sweep = dc_sweep(ckt, "v1", grid)
        assert np.allclose(sweep.node("mid"), grid / 2.0, rtol=1e-6)

    def test_sweep_restores_source(self):
        ckt = divider(v=2.0)
        dc_sweep(ckt, "v1", np.linspace(0.0, 4.0, 5))
        op = solve_dc(ckt)
        assert op["in"] == pytest.approx(2.0)

    def test_multi_source_lockstep(self):
        proc = default_process()
        grid = np.linspace(0.0, proc.vdd, 21)
        sweep = dc_sweep(nand2(proc), ["va", "vb"], grid, record=["out"])
        vout = sweep.node("out")
        # NAND2 VTC: monotone decreasing from ~vdd to ~0.
        assert vout[0] == pytest.approx(proc.vdd, abs=0.05)
        assert vout[-1] == pytest.approx(0.0, abs=0.05)
        assert np.all(np.diff(vout) <= 1e-6)

    @pytest.mark.parametrize("fast_newton", ["0", "1"])
    def test_matches_fresh_compile_per_point(self, monkeypatch, fast_newton):
        """The once-compiled sweep solves every point bit for bit like a
        freshly compiled circuit warm-started from the previous point."""
        monkeypatch.setenv("REPRO_FAST_NEWTON", fast_newton)
        proc = default_process()
        grid = np.linspace(0.0, proc.vdd, 41)
        sweep = dc_sweep(nand2(proc), ["va", "vb"], grid)
        ckt = nand2(proc)
        guess = None
        expected: dict = {}
        for value in grid:
            for name in ("va", "vb"):
                ckt.replace_vsource(name, float(value))
            op = solve_dc(ckt.compile(), initial_guess=guess)
            guess = {name: op[name] for name in ckt.unknown_nodes()}
            for name, volts in op.voltages.items():
                expected.setdefault(name, []).append(volts)
        assert set(sweep.voltages) == set(expected)
        for name, volts in expected.items():
            assert sweep.node(name).tobytes() == np.array(volts).tobytes()

    def test_rejects_tiny_grid(self):
        with pytest.raises(ConvergenceError):
            dc_sweep(divider(), "v1", [1.0])

    def test_rejects_empty_sources(self):
        with pytest.raises(ConvergenceError):
            dc_sweep(divider(), [], np.linspace(0, 1, 3))

    def test_transfer_curve(self):
        sweep = dc_sweep(divider(), "v1", np.linspace(0.0, 4.0, 5))
        curve = sweep.transfer_curve("mid")
        assert curve(2.0) == pytest.approx(1.0, rel=1e-6)

    def test_missing_node_raises(self):
        from repro.errors import MeasurementError
        sweep = dc_sweep(divider(), "v1", np.linspace(0, 1, 3), record=["mid"])
        with pytest.raises(MeasurementError):
            sweep.node("nope")
