"""Assembly and Newton solver unit tests on hand-checkable systems."""

import gc
import warnings

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.gates import Gate
from repro.spice import Circuit, solve_dc, transient, transient_batch
from repro.spice.builders import delay_chain, inverter_chain
from repro.spice.engine import (NewtonOptions, NewtonStats, SolveContext,
                                assemble_system, dense_solve, newton_solve)
from repro.spice.sparse import SPARSE_ENV_VAR
from repro.tech import default_process
from repro.waveform import ramp


def divider():
    ckt = Circuit()
    ckt.add_vsource("v1", "in", 2.0)
    ckt.add_resistor("r1", "in", "mid", 1e3)
    ckt.add_resistor("r2", "mid", "0", 1e3)
    return ckt.compile()


class TestAssembly:
    def test_residual_zero_at_solution(self):
        compiled = divider()
        known = compiled.known_voltages(0.0)
        F, J = assemble_system(compiled, np.array([1.0]), known, gmin=0.0)
        assert F[0] == pytest.approx(0.0, abs=1e-15)
        assert J[0, 0] == pytest.approx(2e-3)

    def test_residual_sign(self):
        compiled = divider()
        known = compiled.known_voltages(0.0)
        # Node above the solution: net current flows out (positive F).
        F, _ = assemble_system(compiled, np.array([1.5]), known, gmin=0.0)
        assert F[0] > 0.0

    def test_gmin_stamped(self):
        compiled = divider()
        known = compiled.known_voltages(0.0)
        _, J0 = assemble_system(compiled, np.array([1.0]), known, gmin=0.0)
        _, J1 = assemble_system(compiled, np.array([1.0]), known, gmin=1e-3)
        assert J1[0, 0] - J0[0, 0] == pytest.approx(1e-3)

    def test_source_scaling(self):
        compiled = divider()
        known = compiled.known_voltages(0.0)
        F, _ = assemble_system(compiled, np.array([0.5]), known,
                               gmin=0.0, source_scale=0.5)
        # At half source, v_mid=0.5 solves.
        assert F[0] == pytest.approx(0.0, abs=1e-15)

    def test_cap_stamp_contribution(self):
        ckt = Circuit()
        ckt.add_vsource("v1", "in", 2.0)
        ckt.add_resistor("r1", "in", "mid", 1e3)
        ckt.add_resistor("r2", "mid", "0", 1e3)
        ckt.add_capacitor("c1", "mid", "0", 1e-15)
        compiled = ckt.compile()
        known = compiled.known_voltages(0.0)
        # Companion conductance pulling 'mid' toward 0.
        caps = (np.array([1e-3]), np.array([0.0]))  # c1: mid -> ground
        F, J = assemble_system(compiled, np.array([1.0]), known,
                               gmin=0.0, caps=caps)
        assert F[0] == pytest.approx(1e-3)
        assert J[0, 0] == pytest.approx(3e-3)

    def test_mosfet_stamp_conservation(self):
        """Drain current leaves one node and enters the other: KCL rows
        for drain and source carry opposite signs."""
        proc = default_process()
        ckt = Circuit()
        ckt.add_vsource("vg", "g", 5.0)
        ckt.add_resistor("rd", "g", "d", 1e5)
        ckt.add_resistor("rs", "s", "0", 1e5)
        ckt.add_mosfet("m1", "d", "g", "s", "0", proc.nmos, 4e-6, 0.8e-6,
                       with_parasitics=False)
        compiled = ckt.compile()
        known = compiled.known_voltages(0.0)
        x = np.array([3.0, 1.0])  # d, s
        F, _ = assemble_system(compiled, x, known, gmin=0.0)
        d_idx = compiled.unknown_names.index("d")
        s_idx = compiled.unknown_names.index("s")
        # Resistor currents: into d from g: (5-3)/1e5; out of s: 1/1e5.
        i_rd = (3.0 - 5.0) / 1e5
        i_rs = 1.0 / 1e5
        i_channel = F[d_idx] - i_rd
        assert F[s_idx] == pytest.approx(i_rs - i_channel)


class TestNewton:
    def test_linear_system_one_iteration_converges(self):
        compiled = divider()
        known = compiled.known_voltages(0.0)
        x = newton_solve(compiled, np.array([0.0]), known,
                         options=NewtonOptions())
        assert x[0] == pytest.approx(1.0, rel=1e-9)

    def test_damping_limits_step(self):
        compiled = divider()
        known = compiled.known_voltages(0.0)
        opts = NewtonOptions(max_step=0.1)
        # Still converges, just in more iterations.
        x = newton_solve(compiled, np.array([5.0]), known, options=opts)
        assert x[0] == pytest.approx(1.0, rel=1e-6)

    def test_iteration_budget_exhausted(self):
        compiled = divider()
        known = compiled.known_voltages(0.0)
        opts = NewtonOptions(max_step=1e-4, max_iterations=3)
        with pytest.raises(ConvergenceError) as excinfo:
            newton_solve(compiled, np.array([5.0]), known, options=opts)
        assert excinfo.value.iterations == 3

    def test_nand_dc_convergence_from_bad_guess(self):
        proc = default_process()
        from repro.gates import Gate
        gate = Gate.nand(2, proc)
        compiled = gate.build({"a": 5.0, "b": 5.0},
                              switching=["a", "b"]).compile()
        known = compiled.known_voltages(0.0)
        x0 = np.full(compiled.n_unknown, 5.0)  # everything at the rail
        x = newton_solve(compiled, x0, known, options=NewtonOptions())
        z = compiled.unknown_names.index("z")
        assert x[z] == pytest.approx(0.0, abs=0.05)


class TestNewtonStats:
    def test_stats_accumulate_on_success(self):
        compiled = divider()
        known = compiled.known_voltages(0.0)
        stats = NewtonStats()
        newton_solve(compiled, np.array([0.0]), known,
                     options=NewtonOptions(),
                     context=SolveContext.for_analysis(compiled, stats=stats))
        assert stats.iterations >= 1
        assert stats.solves == 1
        assert stats.failures == 0
        first = stats.iterations
        # A second solve keeps accumulating into the same object.
        newton_solve(compiled, np.array([0.0]), known,
                     options=NewtonOptions(),
                     context=SolveContext.for_analysis(compiled, stats=stats))
        assert stats.iterations == 2 * first
        assert stats.solves == 2

    def test_stats_accumulate_on_failure(self):
        compiled = divider()
        known = compiled.known_voltages(0.0)
        stats = NewtonStats()
        opts = NewtonOptions(max_step=1e-4, max_iterations=3)
        with pytest.raises(ConvergenceError):
            newton_solve(compiled, np.array([5.0]), known, options=opts,
                         context=SolveContext.for_analysis(compiled,
                                                           stats=stats))
        assert stats.iterations == 3
        assert stats.failures == 1
        assert stats.solves == 0


class TestSolveContext:
    @pytest.mark.parametrize("build,sparse,backend", [
        (lambda: Gate.nand(2, default_process()).build(), "auto", "kernel"),
        (lambda: Gate.nand(2, default_process()).build(), "1", "sparse"),
        (lambda: inverter_chain(20), "auto", "dense"),
        (lambda: inverter_chain(20), "1", "sparse"),
        (lambda: delay_chain(40, 4), "auto", "sparse"),
        (lambda: delay_chain(40, 4), "0", "dense"),
    ], ids=["gate", "gate-sparse", "chain", "chain-sparse", "netlist",
            "netlist-dense"])
    def test_backend_decided_by_size_and_knobs(self, monkeypatch, build,
                                               sparse, backend):
        monkeypatch.setenv(SPARSE_ENV_VAR, sparse)
        context = SolveContext.for_analysis(build().compile())
        assert context.backend == backend

    def test_analyses_leave_no_reference_cycles(self):
        """An analysis's context, its kernel loops and its compiled
        circuit go by reference counting: a cycle through them would
        hold every analysis's circuit until the cyclic collector ran."""
        proc = default_process()
        gate = Gate.nand(3, proc).build(
            {"a": ramp(0.2e-9, proc.vdd, 0.0, 0.3e-9)})
        netlist = delay_chain(4, 2, input_stimulus=ramp(50e-12, 0.0, proc.vdd,
                                                        100e-12))

        def analyses():
            transient(gate, 1e-9)
            solve_dc(gate)
            transient_batch([gate], 1e-9)
            transient(netlist, 2e-10)

        analyses()  # generated kernels and lazy plans built once
        gc.collect()
        gc.disable()
        try:
            analyses()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestDenseSolve:
    """:func:`dense_solve` is :func:`numpy.linalg.solve` minus the wrapper."""

    def test_bit_identical_to_numpy_solve(self):
        rng = np.random.default_rng(8)
        mismatches = 0
        for n in range(2, 13):
            for _ in range(1000):
                # Circuit-like scaling: conductances from gmin-ish to
                # milli-siemens, rows of very different magnitude.
                scale = 10.0 ** rng.uniform(-15.0, 2.0, (n, 1))
                J = rng.standard_normal((n, n)) * scale
                rhs = rng.standard_normal(n) * 10.0 ** rng.uniform(-15.0, 2.0)
                got = dense_solve(J, rhs)
                want = np.linalg.solve(J, rhs)
                mismatches += got.tobytes() != want.tobytes()
        assert mismatches == 0

    @pytest.mark.parametrize("J", [
        np.zeros((3, 3)),
        np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.5, 1.0, 1.5]]),
        np.array([[1.0, 1.0], [1.0, 1.0]]),
    ], ids=["zero", "rank1", "duplicate-rows"])
    def test_singular_raises_without_warning(self, J):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                dense_solve(J, np.ones(J.shape[0]))

    def test_nan_input_matches_numpy_solve(self):
        J = np.array([[2.0, np.nan, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
        rhs = np.array([1.0, 2.0, 3.0])
        for a, b in ((J, rhs), (np.eye(3), np.array([np.nan, 1.0, 2.0]))):
            got = dense_solve(a, b)
            assert np.isnan(got).all()
            assert got.tobytes() == np.linalg.solve(a, b).tobytes()
