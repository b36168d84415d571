"""Bit-identity of the compiled-stamp assembly against the scalar oracle.

The vectorized assembler (:func:`repro.spice.engine.assemble_system`,
driven by a compiled :class:`~repro.spice.stamps.StampPlan`) promises
*bit-identical* output to :func:`assemble_system_reference`, the
original scalar loop kept as the equivalence oracle.  IEEE addition is
not associative, so this holds only because the plan's ordered scatter
replays the scalar per-cell accumulation order exactly -- these tests
enforce that contract on randomized circuits, for DC and cap-stamped
assembly, on both sides of the scalar/batched channel-model cutover,
for both channel models, and for the residual-only assembly the
modified-Newton loop runs.
"""

import numpy as np
import pytest

from repro.spice import Circuit, engine, transient
from repro.spice.engine import assemble_system, assemble_system_reference
from repro.spice.stamps import (SCALAR_MOS_CUTOVER, CapStampArrays,
                                assemble_into, load_solve)
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


def assert_assembly_identical(compiled, rng: np.random.Generator,
                              *, cap_stamps, source_scale: float = 1.0,
                              gmin: float = 1e-12) -> None:
    n = compiled.n_unknown
    known = compiled.known_voltages(0.13e-9)
    for _ in range(5):
        x = rng.uniform(-1.0, PROC.vdd + 1.0, n)
        got = assemble_system(compiled, x, known, gmin=gmin, time=0.13e-9,
                              cap_stamps=cap_stamps,
                              source_scale=source_scale)
        want = assemble_system_reference(
            compiled, x, known, gmin=gmin, time=0.13e-9,
            cap_stamps=cap_stamps, source_scale=source_scale)
        # Bit-for-bit, not approx: tobytes() compares the raw IEEE bits.
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


def ordered_stamps(compiled):
    """Companion stamps in compiled capacitor order (the transient's)."""
    return [(a, b, c / 1e-12, (c / 1e-12) * 0.3)
            for a, b, c in compiled.capacitors]


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

    def test_below_cutover_uses_scalar_model(self):
        rng = np.random.default_rng(43)
        compiled = random_circuit(rng, n_mos=3).compile()
        assert compiled.stamp_plan.use_scalar_mos
        assert_assembly_identical(compiled, rng, cap_stamps=None)

    @pytest.mark.parametrize("seed", range(6))
    def test_alpha_model_below_cutover_bit_identical(self, seed):
        """The flat device loop with the alpha channel function bound."""
        rng = np.random.default_rng(400 + seed)
        compiled = random_circuit(rng, n_mos=int(rng.integers(1, 7)),
                                  process=ALPHA_PROC).compile()
        assert compiled.stamp_plan.use_scalar_mos
        assert_assembly_identical(compiled, rng, cap_stamps=None)
        assert_assembly_identical(compiled, rng,
                                  cap_stamps=ordered_stamps(compiled))

    def test_out_of_order_stamps_fall_back_to_reference(self):
        """Hand-built stamp lists that do not follow the compiled
        capacitor order must still assemble correctly (via fallback)."""
        rng = np.random.default_rng(7)
        compiled = random_circuit(rng, n_mos=2).compile()
        stamps = list(reversed(ordered_stamps(compiled)))
        if len(stamps) > 1:
            assert not compiled.stamp_plan.stamps_match(stamps)
        assert_assembly_identical(compiled, rng, cap_stamps=stamps)

    def test_workspace_reuse_does_not_leak_state(self):
        """Back-to-back assemblies with different shapes (DC after
        cap-stamped, residual after full) share one workspace."""
        rng = np.random.default_rng(11)
        compiled = random_circuit(rng, n_mos=4).compile()
        stamps = ordered_stamps(compiled)
        assert_assembly_identical(compiled, rng, cap_stamps=stamps)
        assert_assembly_identical(compiled, rng, cap_stamps=None)
        assert_assembly_identical(compiled, rng, cap_stamps=stamps)


class TestResidualOnlyAssembly:
    """``need_jacobian=False`` (the modified-Newton residual check) must
    return the full assembly's ``F`` bit for bit."""

    @pytest.mark.parametrize("process", [PROC, ALPHA_PROC],
                             ids=["level1", "alpha"])
    @pytest.mark.parametrize("n_mos", [4, SCALAR_MOS_CUTOVER + 3],
                             ids=["scalar", "batched"])
    @pytest.mark.parametrize("with_caps", [False, True],
                             ids=["dc", "caps"])
    def test_residual_matches_full_assembly(self, process, n_mos,
                                            with_caps):
        rng = np.random.default_rng(500 + n_mos)
        compiled = random_circuit(rng, n_mos=n_mos,
                                  process=process).compile()
        plan = compiled.stamp_plan
        assert plan.use_scalar_mos == (n_mos < SCALAR_MOS_CUTOVER)
        ws = plan.scratch
        stamps = ordered_stamps(compiled) if with_caps else None
        loaded = load_solve(plan, ws, compiled.known_voltages(0.13e-9),
                            0.13e-9, stamps, 1.0, compiled.isources)
        assert loaded == (with_caps and plan.n_cap > 0)
        for _ in range(5):
            x = rng.uniform(-1.0, process.vdd + 1.0, compiled.n_unknown)
            F_full, J = assemble_into(plan, ws, plan.dense, x, 1e-12, loaded)
            F_full = F_full.copy()
            assert J is not None
            F_res, J_res = assemble_into(plan, ws, plan.dense, x, 1e-12, loaded,
                                         need_jacobian=False)
            assert J_res is None
            assert F_res.tobytes() == F_full.tobytes()


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
    def test_transient_never_reaches_reference_assembler(self, monkeypatch):
        """The integrator's stamps ride the compiled path at every step."""
        def forbidden(*args, **kwargs):
            raise AssertionError("transient reached the reference assembler")

        monkeypatch.setattr(engine, "assemble_system_reference", forbidden)
        ckt = random_circuit(np.random.default_rng(3), n_mos=4)
        ckt.add_capacitor("cload", "n1", "0", 1e-13)
        result = transient(ckt, 1e-9)
        assert result.newton_iterations > 0

    def test_foreign_index_arrays_fall_back_to_reference(self, monkeypatch):
        """Stamp arrays on equal but distinct index arrays are not the
        plan's own: they take the reference assembler, bit for bit."""
        rng = np.random.default_rng(17)
        compiled = random_circuit(rng, n_mos=3).compile()
        plan = compiled.stamp_plan
        geq = plan.cap_c / 1e-12
        own = CapStampArrays(plan.cap_pairs_a, plan.cap_pairs_b,
                             geq, geq * 0.3)
        foreign = CapStampArrays(plan.cap_pairs_a.copy(),
                                 plan.cap_pairs_b.copy(), geq, geq * 0.3)
        assert plan.stamps_match(own)
        assert not plan.stamps_match(foreign)
        calls = []
        reference = engine.assemble_system_reference

        def spy(*args, **kwargs):
            calls.append(1)
            return reference(*args, **kwargs)

        monkeypatch.setattr(engine, "assemble_system_reference", spy)
        x = rng.uniform(0.0, PROC.vdd, compiled.n_unknown)
        known = compiled.known_voltages(0.13e-9)
        got = assemble_system(compiled, x, known, gmin=1e-12,
                              cap_stamps=foreign)
        assert calls
        want = reference(compiled, x, known, gmin=1e-12,
                         cap_stamps=list(own))
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()


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
