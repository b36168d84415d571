"""Bit-identity of the compiled-stamp assembly against the scalar oracle.

The vectorized assembler (:func:`repro.spice.engine.assemble_system`,
driven by a compiled :class:`~repro.spice.stamps.StampPlan`) promises
*bit-identical* output to :func:`assemble_system_reference`, the
original scalar loop kept as the equivalence oracle.  IEEE addition is
not associative, so this holds only because the plan's ordered scatter
replays the scalar per-cell accumulation order exactly -- these tests
enforce that contract on randomized circuits, for DC and cap-stamped
assembly, on both sides of the scalar/batched channel-model cutover
and for both channel models.  Gate-sized plans solve on the generated
kernel loop instead, which evaluates each transistor with the scalar
channel model inline: at every probe point of a gate-sized plan the
kernel's ``F`` and ``J``, read from a one-iteration solve, must equal
the reference bit for bit too.
"""

import numpy as np
import pytest

from repro.gates import Gate
from repro.errors import ConvergenceError
from repro.spice import Circuit, engine, transient
from repro.spice.engine import (NewtonOptions, SolveContext, assemble_system,
                                assemble_system_reference, newton_solve)
from repro.spice.sparse import SPARSE_ENV_VAR
from repro.spice import stamps
from repro.spice.stamps import (SCALAR_MOS_CUTOVER, Workspace, assemble_into,
                                load_solve)
from repro.tech import default_process, submicron_process
from repro.waveform import ramp
from repro.waveform.pwl import Pwl

PROC = default_process()
#: Alpha-power-law model cards (alpha 1.3 NMOS, 1.4 PMOS).
ALPHA_PROC = submicron_process()


def random_circuit(rng: np.random.Generator, *, n_mos: int,
                   process=PROC) -> Circuit:
    """A random connected mess of every device type the netlist has.

    ``process`` picks the model cards (and rail); the random draws do
    not depend on it.
    """
    ckt = Circuit()
    nodes = ["0", "vdd", "in", "n1", "n2", "n3"]
    ckt.add_vsource("vvdd", "vdd", process.vdd)
    ckt.add_vsource("vin", "in", ramp(0.2e-9, 0.0, process.vdd, 0.3e-9))
    for i in range(rng.integers(2, 5)):
        a, b = rng.choice(len(nodes), size=2, replace=False)
        ckt.add_resistor(f"r{i}", nodes[a], nodes[b],
                         float(rng.uniform(1e3, 1e6)))
    for i in range(rng.integers(1, 4)):
        a, b = rng.choice(len(nodes), size=2, replace=False)
        ckt.add_capacitor(f"c{i}", nodes[a], nodes[b],
                          float(rng.uniform(1e-15, 1e-13)))
    for i in range(rng.integers(0, 2)):
        a, b = rng.choice(len(nodes), size=2, replace=False)
        ckt.add_isource(f"i{i}", nodes[a], nodes[b],
                        float(rng.uniform(-1e-5, 1e-5)))
    for i in range(n_mos):
        model = process.nmos if rng.random() < 0.5 else process.pmos
        bulk = "0" if model.is_nmos else "vdd"
        d, g, s = (nodes[j] for j in
                   rng.choice(len(nodes), size=3, replace=False))
        ckt.add_mosfet(f"m{i}", d, g, s, bulk, model,
                       float(rng.uniform(2e-6, 12e-6)), 0.8e-6,
                       with_parasitics=bool(rng.random() < 0.5))
    return ckt


def kernel_system(compiled, x, known, *, gmin: float, time: float,
                  caps, source_scale: float):
    """``(F, J)`` as the generated kernel loop builds them at ``x``.

    Runs one iteration of :func:`newton_solve` on the ``kernel``
    backend with a stand-in for ``engine.gesv`` (the loop calls
    ``gesv(J, rhs, out=dx)`` with ``rhs = -F``) that copies what it is
    handed and steps nowhere.
    """
    handed = []

    def capture(J, rhs, out):
        handed.append((-rhs, J.copy()))
        out[:] = 0.0

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "gesv", capture)
        patch.setenv(SPARSE_ENV_VAR, "0")
        with SolveContext.for_analysis(compiled) as context:
            assert context.backend == "kernel"
            try:
                newton_solve(compiled, x, known,
                             options=NewtonOptions(max_iterations=1),
                             gmin=gmin, time=time, caps=caps,
                             source_scale=source_scale, context=context)
            except ConvergenceError:
                pass  # one iteration rarely converges; F and J are read
    (system,) = handed
    return system


def assert_assembly_identical(compiled, rng: np.random.Generator,
                              *, cap_stamps, source_scale: float = 1.0,
                              gmin: float = 1e-12) -> None:
    """The compiled assembly with ``caps_of(cap_stamps)`` against the
    reference assembler with the tuple stamps, bit for bit; on a
    gate-sized plan, the kernel loop's ``F`` and ``J`` too."""
    n = compiled.n_unknown
    known = compiled.known_voltages(0.13e-9)
    for _ in range(5):
        x = rng.uniform(-1.0, PROC.vdd + 1.0, n)
        want = assemble_system_reference(
            compiled, x, known, gmin=gmin, time=0.13e-9,
            cap_stamps=cap_stamps, source_scale=source_scale)
        systems = [assemble_system(compiled, x, known, gmin=gmin,
                                   time=0.13e-9, caps=caps_of(cap_stamps),
                                   source_scale=source_scale)]
        if compiled.stamp_plan.use_scalar_mos:
            systems.append(kernel_system(
                compiled, x, known, gmin=gmin, time=0.13e-9,
                caps=caps_of(cap_stamps), source_scale=source_scale))
        for got in systems:
            # Bit-for-bit, not approx: tobytes() compares the raw IEEE
            # bits.
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1].tobytes() == want[1].tobytes()


def ordered_stamps(compiled):
    """Companion stamps in compiled capacitor order (the transient's)."""
    return [(a, b, c / 1e-12, (c / 1e-12) * 0.3)
            for (a, b), c in zip(compiled.cap_nodes.T.tolist(),
                                 compiled.cap_c.tolist())]


def caps_of(stamps):
    """The ``caps=(geq, ieq)`` arrays of compiled-order tuple stamps."""
    if stamps is None:
        return None
    return (np.array([stamp[2] for stamp in stamps], dtype=float),
            np.array([stamp[3] for stamp in stamps], dtype=float))


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_dc_assembly_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        compiled = random_circuit(rng, n_mos=int(rng.integers(0, 7))).compile()
        assert_assembly_identical(compiled, rng, cap_stamps=None)

    @pytest.mark.parametrize("seed", range(8))
    def test_cap_stamped_assembly_bit_identical(self, seed):
        rng = np.random.default_rng(100 + seed)
        compiled = random_circuit(rng, n_mos=int(rng.integers(0, 7))).compile()
        assert_assembly_identical(compiled, rng,
                                  cap_stamps=ordered_stamps(compiled))

    @pytest.mark.parametrize("seed", range(4))
    def test_source_stepping_assembly_bit_identical(self, seed):
        rng = np.random.default_rng(200 + seed)
        compiled = random_circuit(rng, n_mos=int(rng.integers(1, 5))).compile()
        assert_assembly_identical(compiled, rng, cap_stamps=None,
                                  source_scale=0.375, gmin=1e-6)

    def test_above_scalar_cutover_uses_batched_model(self):
        """Large device counts take the grouped batch-model path; the
        output must stay bit-identical there too, for both channel
        models (the alpha-power powers must round like Python's)."""
        for process, seeds in ((PROC, [42]), (ALPHA_PROC, range(300, 305))):
            for seed in seeds:
                rng = np.random.default_rng(seed)
                ckt = random_circuit(rng, n_mos=SCALAR_MOS_CUTOVER + 3,
                                     process=process)
                compiled = ckt.compile()
                assert not compiled.stamp_plan.use_scalar_mos
                assert_assembly_identical(
                    compiled, rng, cap_stamps=ordered_stamps(compiled))

    @pytest.mark.parametrize("block", [1, 4, 7])
    def test_blocked_groups_bit_identical(self, monkeypatch, block):
        """A channel-model group larger than ``MOS_BLOCK`` evaluates in
        even blocks, each with its NMOS lanes first; the output stays
        bit-identical for both channel models."""
        monkeypatch.setattr(stamps, "MOS_BLOCK", block)
        for process, seed in ((PROC, 44), (ALPHA_PROC, 305)):
            rng = np.random.default_rng(seed)
            compiled = random_circuit(rng, n_mos=SCALAR_MOS_CUTOVER + 3,
                                      process=process).compile()
            assert len(compiled.stamp_plan.groups) > 1
            assert_assembly_identical(compiled, rng,
                                      cap_stamps=ordered_stamps(compiled))

    def test_below_cutover_uses_scalar_model(self, monkeypatch):
        """A gate-sized plan's solves evaluate the scalar channel model
        inline in the kernel loop, never the grouped batch model, and
        its ``F`` and ``J`` match the reference bit for bit."""
        rng = np.random.default_rng(43)
        compiled = random_circuit(rng, n_mos=3).compile()
        assert compiled.stamp_plan.use_scalar_mos
        assert_assembly_identical(compiled, rng, cap_stamps=None)

        def forbidden(*args, **kwargs):
            raise AssertionError("kernel loop reached the batch model")

        monkeypatch.setattr(stamps, "mosfet_current_batch", forbidden)
        x = rng.uniform(-1.0, PROC.vdd + 1.0, compiled.n_unknown)
        known = compiled.known_voltages(0.13e-9)
        F, J = kernel_system(compiled, x, known, gmin=1e-12, time=0.13e-9,
                             caps=None, source_scale=1.0)
        want = assemble_system_reference(compiled, x, known, gmin=1e-12,
                                         time=0.13e-9)
        assert F.tobytes() == want[0].tobytes()
        assert J.tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_alpha_model_below_cutover_bit_identical(self, seed):
        """Gate-sized plans with alpha-power model cards."""
        rng = np.random.default_rng(400 + seed)
        compiled = random_circuit(rng, n_mos=int(rng.integers(1, 7)),
                                  process=ALPHA_PROC).compile()
        assert compiled.stamp_plan.use_scalar_mos
        assert_assembly_identical(compiled, rng, cap_stamps=None)
        assert_assembly_identical(compiled, rng,
                                  cap_stamps=ordered_stamps(compiled))

    def test_workspace_reuse_does_not_leak_state(self):
        """Back-to-back assemblies with different shapes (DC after
        cap-stamped, and back) in one workspace, as a Newton solve
        reuses it, leak no state between them."""
        rng = np.random.default_rng(11)
        compiled = random_circuit(rng, n_mos=4).compile()
        plan = compiled.stamp_plan
        ws = Workspace(plan)
        known = compiled.known_voltages(0.13e-9)
        stamps = ordered_stamps(compiled)
        for cap_stamps in (stamps, None, stamps, None):
            with_caps = load_solve(plan, ws, known, 0.13e-9,
                                   caps_of(cap_stamps), 1.0,
                                   compiled.isources)
            for _ in range(3):
                x = rng.uniform(-1.0, PROC.vdd + 1.0, compiled.n_unknown)
                F, J = assemble_into(plan, ws, x, 1e-12, with_caps)
                want = assemble_system_reference(
                    compiled, x, known, gmin=1e-12, time=0.13e-9,
                    cap_stamps=cap_stamps)
                assert F.tobytes() == want[0].tobytes()
                assert J.tobytes() == want[1].tobytes()


class TestKnownVoltages:
    def test_known_voltages_match_source_waveforms(self):
        """Each PWL source's slot must equal ``np.interp`` on its own
        breakpoints bit for bit, at and between breakpoints and past
        both ends."""
        ckt = Circuit()
        wave_a = ramp(0.2e-9, 0.0, 5.0, 0.3e-9)
        wave_b = ramp(0.35e-9, 5.0, 0.0, 0.1e-9)
        ckt.add_vsource("va", "a", wave_a)
        ckt.add_vsource("vb", "b", wave_b)
        ckt.add_resistor("r1", "a", "n1", 1e4)
        ckt.add_resistor("r2", "b", "n1", 1e4)
        ckt.add_resistor("r3", "n1", "0", 1e4)
        compiled = ckt.compile()
        idx = {name: i for i, name in enumerate(compiled._known_names)}
        probes = np.concatenate([
            wave_a.times, wave_b.times,
            np.linspace(-0.1e-9, 0.6e-9, 37),
        ])
        for t in probes:
            got = compiled.known_voltages(float(t))
            assert got[idx["a"]] == float(np.interp(t, wave_a.times,
                                                    wave_a.values))
            assert got[idx["b"]] == float(np.interp(t, wave_b.times,
                                                    wave_b.values))
            assert got[idx["0"]] == 0.0

    def test_constant_callable_and_pwl_sources_together(self):
        """Every source kind fills its own slot, in known_voltages and
        in node_voltage_series, bit for bit."""
        ckt = Circuit()
        wave = ramp(0.2e-9, 0.0, 5.0, 0.3e-9)

        def fn(t):
            return 1.5 + 1e9 * t

        ckt.add_vsource("vc", "c", 3.3)
        ckt.add_vsource("vp", "p", wave)
        ckt.add_vsource("vf", "f", fn)
        for i, node in enumerate(("c", "p", "f")):
            ckt.add_resistor(f"r{i}", node, "n1", 1e4)
        ckt.add_resistor("rg", "n1", "0", 1e4)
        compiled = ckt.compile()
        idx = {name: i for i, name in enumerate(compiled._known_names)}
        times = np.concatenate([wave.times,
                                np.linspace(-0.1e-9, 0.6e-9, 29)])
        for t in times:
            got = compiled.known_voltages(float(t))
            assert got[idx["0"]] == 0.0
            assert got[idx["c"]] == 3.3
            assert got[idx["p"]] == float(np.interp(t, wave.times,
                                                    wave.values))
            assert got[idx["f"]] == fn(float(t))
        x_series = np.zeros((times.size, compiled.n_unknown))
        series = {name: compiled.node_voltage_series(name, times, x_series)
                  for name in ("c", "p", "f")}
        assert series["c"].tobytes() == np.full(times.size, 3.3).tobytes()
        assert series["p"].tobytes() == np.interp(
            times, wave.times, wave.values).tobytes()
        assert series["f"].tobytes() == np.array(
            [fn(float(t)) for t in times]).tobytes()


class TestStampMatching:
    """The one stamp form, ``caps=(geq, ieq)`` over the compiled
    capacitors, and the reference assembler kept out of every solve."""

    def test_transient_never_reaches_reference_assembler(self, monkeypatch):
        """The integrator's stamps ride the compiled path at every step."""
        def forbidden(*args, **kwargs):
            raise AssertionError("transient reached the reference assembler")

        monkeypatch.setattr(engine, "assemble_system_reference", forbidden)
        ckt = random_circuit(np.random.default_rng(3), n_mos=4)
        ckt.add_capacitor("cload", "n1", "0", 1e-13)
        result = transient(ckt, 1e-9)
        assert result.newton_iterations > 0

    @pytest.mark.parametrize("count", [0, 1, 13, 15])
    def test_caps_of_the_wrong_length_raise(self, count):
        """``caps`` holds one ``geq`` and one ``ieq`` per compiled
        capacitor: a NAND2 has 14, and any other count is refused by the
        assembler and by the Newton solve, never assembled as if the
        missing capacitors were absent."""
        compiled = Gate.nand(2, PROC).build().compile()
        assert compiled.stamp_plan.n_cap == 14
        geq, ieq = caps_of(ordered_stamps(compiled))
        short = (np.resize(geq, count), np.resize(ieq, count))
        x = np.full(compiled.n_unknown, PROC.vdd / 2.0)
        known = compiled.known_voltages(0.0)
        with pytest.raises(ValueError, match="per compiled capacitor"):
            assemble_system(compiled, x, known, gmin=1e-12, caps=short)
        with pytest.raises(ValueError, match="per compiled capacitor"):
            assemble_system(compiled, x, known, gmin=1e-12,
                            caps=(geq, short[1]))
        with pytest.raises(ValueError, match="per compiled capacitor"):
            newton_solve(compiled, x, known, options=NewtonOptions(),
                         caps=short)

    @pytest.mark.parametrize("n_mos", [2, SCALAR_MOS_CUTOVER + 3])
    def test_newton_refuses_the_wrong_length_on_every_backend(
            self, monkeypatch, n_mos):
        compiled = random_circuit(np.random.default_rng(23),
                                  n_mos=n_mos).compile()
        assert compiled.stamp_plan.n_cap > 0
        geq, ieq = caps_of(ordered_stamps(compiled))
        x = np.zeros(compiled.n_unknown)
        known = compiled.known_voltages(0.0)
        for mode in ("0", "1"):
            monkeypatch.setenv(SPARSE_ENV_VAR, mode)
            with pytest.raises(ValueError, match="per compiled capacitor"):
                newton_solve(compiled, x, known, options=NewtonOptions(),
                             caps=(geq[1:], ieq[1:]))


class TestPwlScalarFastPath:
    def test_scalar_matches_interp(self):
        rng = np.random.default_rng(5)
        t = np.sort(rng.uniform(0.0, 1.0, 9))
        v = rng.uniform(-2.0, 2.0, 9)
        wave = Pwl(t, v)
        probes = list(t)  # exact breakpoint hits
        probes += [t[0] - 0.5, t[-1] + 0.5]  # clamped ends
        probes += list(rng.uniform(-0.2, 1.2, 50))
        for probe in probes:
            assert wave(float(probe)) == float(np.interp(probe, t, v))

    def test_int_query(self):
        wave = Pwl([0.0, 2.0], [1.0, 3.0])
        assert wave(1) == 2.0
        assert isinstance(wave(1), float)

    def test_single_breakpoint(self):
        wave = Pwl([0.5], [4.25])
        for probe in (-1.0, 0.5, 2.0):
            assert wave(probe) == 4.25

    def test_array_path_unchanged(self):
        wave = Pwl([0.0, 1.0], [0.0, 5.0])
        grid = np.linspace(-0.5, 1.5, 11)
        out = wave(grid)
        assert isinstance(out, np.ndarray)
        assert out.tobytes() == np.interp(grid, wave.times,
                                          wave.values).tobytes()

    def test_nan_query_defers_to_numpy(self):
        wave = Pwl([0.0, 1.0], [0.0, 5.0])
        got = wave(float("nan"))
        want = float(np.interp(float("nan"), wave.times, wave.values))
        assert np.isnan(got) == np.isnan(want)
