"""Equivalence contract of the sparse solver backend (``REPRO_SPARSE``).

The sparse backend promises, versus the default dense path (for
gate-sized circuits the gate kernel, which ``test_gate_kernel.py`` holds
to the dense loop bit for bit):

* **bit-identical assembly** -- every stored CSC entry equals the
  corresponding dense Jacobian cell bit for bit (the emission-ordered
  data scatter replays the dense per-cell accumulation order), and the
  residual is the dense scatter itself;
* **tolerance-gated solves** -- SuperLU replaces LAPACK, so Newton
  steps match to machine precision but not bit-for-bit: waveforms must
  track the dense solution within 1 nV, measured crossings within
  1 fs, and the Newton/retry accounting must be unchanged;
* **deterministic dispatch** -- ``auto`` picks exactly one backend per
  circuit from its unknown count, so default-mode results never mix.
"""

import tracemalloc

import numpy as np
import pytest

from repro.errors import ReproError
from repro.obs import recording
from repro.spice import (
    Circuit,
    TransientOptions,
    solve_dc,
    transient,
)
from repro.spice.builders import (bitcell_array, delay_chain,
                                  hierarchical_decoder, inverter_chain)
from repro.spice.engine import NewtonOptions, newton_solve
from repro.spice.sparse import (
    SPARSE_ENV_VAR,
    SPARSE_NODE_CUTOVER,
    SparsePlan,
    sparse_enabled,
    sparse_mode,
)
from repro.spice.stamps import (Workspace, assemble_into, assemble_sparse,
                                load_solve)
from repro.tech import default_process
from repro.waveform import ramp

from .test_gate_kernel import GATES, NAND3, SCENARIOS, recorded, stimuli

PROC = default_process()

FAST = TransientOptions(h_max_ratio=2e-2)


def random_chain(rng) -> Circuit:
    """A randomized multi-gate circuit with every stamp kind present."""
    ckt = inverter_chain(int(rng.integers(3, 9)))
    ckt.add_resistor("rx", "n1", "n2", float(rng.uniform(1e3, 1e5)))
    ckt.add_capacitor("cx", "n2", "0", float(rng.uniform(1e-15, 1e-13)))
    ckt.add_isource("ix", "n1", "0", float(rng.uniform(-1e-6, 1e-6)))
    return ckt


def bit_pattern(values: np.ndarray) -> np.ndarray:
    """The IEEE bit patterns of float64 ``values`` (tells -0.0 from 0.0)."""
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


def switching_decoder(bits: int = 4) -> Circuit:
    return hierarchical_decoder(
        bits, address=0,
        stimuli={"a0": ramp(0.3e-9, 0.0, PROC.vdd, 0.2e-9)})


class TestEnvKnob:
    @pytest.mark.parametrize("value,expected", [
        ("", "auto"), ("auto", "auto"), (" AUTO ", "auto"),
        ("0", "off"), ("false", "off"), ("no", "off"), ("off", "off"),
        ("1", "on"), ("true", "on"), ("yes", "on"), ("on", "on"),
    ])
    def test_sparse_mode_parsing(self, monkeypatch, value, expected):
        monkeypatch.setenv(SPARSE_ENV_VAR, value)
        assert sparse_mode() == expected

    def test_auto_when_unset(self, monkeypatch):
        monkeypatch.delenv(SPARSE_ENV_VAR, raising=False)
        assert sparse_mode() == "auto"

    @pytest.mark.parametrize("value", ["dense", "of", "auot", "2", "sparse",
                                       "-1", "on off"])
    def test_unknown_values_are_rejected(self, monkeypatch, value):
        """A misspelt value never forces a backend: ``REPRO_SPARSE=dense``
        once made every gate dispatch to SuperLU."""
        monkeypatch.setenv(SPARSE_ENV_VAR, value)
        with pytest.raises(ReproError) as info:
            sparse_enabled(3)
        message = str(info.value)
        assert SPARSE_ENV_VAR in message and repr(value) in message
        for spelling in ("auto", "0/false/no/off", "1/true/yes/on"):
            assert spelling in message

    def test_unknown_value_fails_the_analysis(self, monkeypatch):
        """The analysis context decides the backend, so it is where a
        bad value surfaces, before any solve."""
        monkeypatch.setenv(SPARSE_ENV_VAR, "dense")
        with pytest.raises(ReproError, match=SPARSE_ENV_VAR):
            solve_dc(inverter_chain(2))

    def test_auto_dispatches_by_cutover(self, monkeypatch):
        monkeypatch.delenv(SPARSE_ENV_VAR, raising=False)
        assert not sparse_enabled(SPARSE_NODE_CUTOVER - 1)
        assert sparse_enabled(SPARSE_NODE_CUTOVER)

    def test_forced_modes_ignore_size(self, monkeypatch):
        monkeypatch.setenv(SPARSE_ENV_VAR, "1")
        assert sparse_enabled(1)
        monkeypatch.setenv(SPARSE_ENV_VAR, "0")
        assert not sparse_enabled(10 * SPARSE_NODE_CUTOVER)


class TestAssemblyBitIdentity:
    @staticmethod
    def check_bit_identical(compiled, rng) -> None:
        """Random states, with and without companion stamps: the sparse
        ``F`` and every stored CSC entry must equal the dense assembly
        bit for bit."""
        plan = compiled.stamp_plan
        ws, ws_sparse = Workspace(plan), Workspace(plan, sparse=True)
        known = compiled.known_voltages(0.0)
        draws = [(float(rng.uniform(1e-6, 1e-3)),
                  float(rng.uniform(-1e-6, 1e-6))) for _ in range(plan.n_cap)]
        caps = (np.array([geq for geq, _ in draws], dtype=float),
                np.array([ieq for _, ieq in draws], dtype=float))
        sp = plan.sparse
        # Dense cell of every stored entry, in original node order.
        columns = np.repeat(np.arange(plan.n), np.diff(sp.indptr))
        rows, cols = sp.perm[sp.indices], sp.perm[columns]
        for with_caps in (False, True):
            for space in (ws, ws_sparse):
                load_solve(plan, space, known, 0.0,
                           caps if with_caps else None, 1.0,
                           compiled.isources)
            x = rng.uniform(0.0, PROC.vdd, plan.n)
            gmin = float(rng.choice([0.0, 1e-12, 1e-9]))
            F_d, J_d = assemble_into(plan, ws, x, gmin, with_caps)
            F_s, data = assemble_sparse(plan, ws_sparse, sp, x, gmin,
                                        with_caps)
            assert np.array_equal(bit_pattern(F_s), bit_pattern(F_d))
            assert np.array_equal(bit_pattern(data), bit_pattern(J_d[rows, cols]))
            assert np.array_equal(J_d, sp.dense_jacobian(data))

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_jacobian_and_residual_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        self.check_bit_identical(random_chain(rng).compile(), rng)

    @pytest.mark.parametrize("build,args", [
        pytest.param(hierarchical_decoder, (5,), id="decoder5"),
        pytest.param(bitcell_array, (4, 4), id="bitcells4x4"),
        pytest.param(delay_chain, (4, 2), id="delay_chain4x2"),
    ])
    def test_flat_netlist_families_bit_identical(self, build, args):
        """The circuit families of the ``flat_large`` benchmark."""
        self.check_bit_identical(build(*args).compile(),
                                 np.random.default_rng(7))

    def test_structure_covers_every_dense_nonzero(self):
        rng = np.random.default_rng(99)
        compiled = random_chain(rng).compile()
        plan = compiled.stamp_plan
        sp = plan.sparse
        assert isinstance(sp, SparsePlan)
        assert plan.sparse is sp  # built once, then cached
        ws = Workspace(plan)
        load_solve(plan, ws, compiled.known_voltages(0.0), 0.0, None, 1.0,
                   compiled.isources)
        x = rng.uniform(0.0, PROC.vdd, plan.n)
        _, J = assemble_into(plan, ws, x, 1e-12, False)
        assert np.count_nonzero(J) <= sp.nnz <= plan.n * plan.n


class TestOrderingBoundsFill:
    """SuperLU's factors stay within twice the stamp structure.

    The matrix carries 1 ps companion stamps at a random state, so every
    structural entry is stored, as in a transient's factorizations.  A
    bandwidth ordering (reverse Cuthill-McKee) let the decoders' factors
    grow to 7-11x the structure."""

    @pytest.mark.parametrize("build,args", [
        pytest.param(hierarchical_decoder, (6,), id="decoder6"),
        pytest.param(hierarchical_decoder, (7,), id="decoder7"),
        pytest.param(delay_chain, (40, 4), id="delay_chain40x4"),
        pytest.param(bitcell_array, (8, 8), id="bitcells8x8"),
    ])
    def test_factor_fill_within_twice_the_structure(self, build, args):
        compiled = build(*args).compile()
        plan = compiled.stamp_plan
        ws = Workspace(plan, sparse=True)
        sp = plan.sparse
        caps = (plan.cap_c / 1e-12, np.zeros(plan.n_cap))
        load_solve(plan, ws, compiled.known_voltages(0.0), 0.0, caps, 1.0,
                   compiled.isources)
        x = np.random.default_rng(0).uniform(0.0, PROC.vdd, plan.n)
        assemble_sparse(plan, ws, sp, x, 1e-12, True)
        lu = sp.factorize(ws.data)
        assert lu.L.nnz + lu.U.nnz <= 2 * sp.nnz


class TestLazyDenseState:
    def test_sparse_dc_never_allocates_the_dense_buffer(self, monkeypatch):
        """A sparse-dispatched circuit carries no ``n + n**2`` buffer:
        compiling ``bitcell_array(32, 32)`` (2,048 unknowns) and solving
        its operating point peaks below the 33.6 MB that buffer alone
        would take."""
        monkeypatch.delenv(SPARSE_ENV_VAR, raising=False)
        ckt = bitcell_array(32, 32)
        tracemalloc.start()
        try:
            compiled = ckt.compile()
            solve_dc(ckt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = compiled.n_unknown
        assert sparse_enabled(n)
        assert peak < 8 * (n + n * n)
        assert "dense" not in vars(compiled.stamp_plan)


def waveform_gap(base, other, nodes, t_stop) -> float:
    grid = np.linspace(0.0, t_stop, 400)
    return max(float(np.abs(base.node(n)(grid) - other.node(n)(grid)).max())
               for n in nodes)


class TestSolveParity:
    """Dense and sparse runs of the same analysis, both dispatch sides."""

    def test_dc_within_nanovolt_below_cutover(self, monkeypatch):
        """Forcing sparse on a small circuit (auto would stay dense)."""
        ckt = inverter_chain(6)
        assert ckt.compile().n_unknown < SPARSE_NODE_CUTOVER
        monkeypatch.setenv(SPARSE_ENV_VAR, "0")
        base = solve_dc(inverter_chain(6))
        monkeypatch.setenv(SPARSE_ENV_VAR, "1")
        forced = solve_dc(inverter_chain(6))
        for node, value in base.voltages.items():
            assert abs(forced.voltages[node] - value) <= 1e-9

    def test_dc_within_nanovolt_above_cutover(self, monkeypatch):
        """Above the cutover, auto dispatch must match forced dense."""
        ckt = hierarchical_decoder(5, address=7)
        assert ckt.compile().n_unknown >= SPARSE_NODE_CUTOVER
        monkeypatch.setenv(SPARSE_ENV_VAR, "0")
        base = solve_dc(hierarchical_decoder(5, address=7))
        monkeypatch.delenv(SPARSE_ENV_VAR, raising=False)
        auto = solve_dc(hierarchical_decoder(5, address=7))
        for node, value in base.voltages.items():
            assert abs(auto.voltages[node] - value) <= 1e-9

    def test_transient_waveforms_within_nanovolt(self, monkeypatch):
        monkeypatch.setenv(SPARSE_ENV_VAR, "0")
        base = transient(switching_decoder(), 1.2e-9, options=FAST)
        monkeypatch.setenv(SPARSE_ENV_VAR, "1")
        sparse = transient(switching_decoder(), 1.2e-9, options=FAST)
        gap = waveform_gap(base, sparse, ("wl0", "wl1", "pre0_0", "pre0_1"),
                           1.2e-9)
        assert gap <= 1e-9

    def test_transient_crossings_within_femtosecond(self, monkeypatch):
        monkeypatch.setenv(SPARSE_ENV_VAR, "0")
        base = transient(switching_decoder(), 1.2e-9, options=FAST)
        monkeypatch.setenv(SPARSE_ENV_VAR, "1")
        sparse = transient(switching_decoder(), 1.2e-9, options=FAST)
        level = PROC.vdd / 2.0
        t_base = base.node("wl0").first_crossing(level, "fall")
        t_sparse = sparse.node("wl0").first_crossing(level, "fall")
        assert abs(t_base - t_sparse) <= 1e-15

    def test_newton_accounting_unchanged(self, monkeypatch):
        monkeypatch.setenv(SPARSE_ENV_VAR, "0")
        base = transient(switching_decoder(), 1.2e-9, options=FAST)
        monkeypatch.setenv(SPARSE_ENV_VAR, "1")
        sparse = transient(switching_decoder(), 1.2e-9, options=FAST)
        assert sparse.newton_iterations == base.newton_iterations
        assert sparse.newton_failures == base.newton_failures
        assert sparse.solver_retries == base.solver_retries
        assert sparse.rejected_steps == base.rejected_steps
        assert len(sparse.times) == len(base.times)
        assert float(np.abs(sparse.times - base.times).max()) <= 1e-15

    def test_auto_dispatch_transient_matches_dense(self, monkeypatch):
        """A decoder above the cutover, auto dispatch against forced
        dense: crossings within 1 fs and the same Newton, step and retry
        accounting."""
        def run():
            return transient(switching_decoder(5), 1.2e-9, options=FAST)

        assert switching_decoder(5).compile().n_unknown >= SPARSE_NODE_CUTOVER
        monkeypatch.setenv(SPARSE_ENV_VAR, "0")
        base = run()
        monkeypatch.delenv(SPARSE_ENV_VAR, raising=False)
        auto = run()
        level = PROC.vdd / 2.0
        for node, direction in (("wl0", "fall"), ("wl1", "rise")):
            t_base = base.node(node).first_crossing(level, direction)
            t_auto = auto.node(node).first_crossing(level, direction)
            assert abs(t_base - t_auto) <= 1e-15
        assert auto.newton_iterations == base.newton_iterations
        assert auto.newton_failures == base.newton_failures
        assert auto.solver_retries == base.solver_retries
        assert auto.rejected_steps == base.rejected_steps
        assert len(auto.times) == len(base.times)


def accounting(result) -> tuple:
    """A transient's Newton, step and retry accounting."""
    return (result.newton_iterations, result.newton_failures,
            result.rejected_steps, result.solver_retries,
            [attempt.message for attempt in result.retry_attempts])


def solver_counters(counters) -> dict:
    """``spice.*`` counters less the backend-labelled ones."""
    return {key: value for key, value in counters.items()
            if not key.startswith(("spice.newton.dispatch", "spice.sparse."))}


class TestGateParity:
    """Gate testbenches, the paper's workload, forced sparse against the
    default gate kernel: waveforms within 1 nV, the output's crossing and
    every accepted time within 1 fs, and the same accounting."""

    @pytest.mark.parametrize("direction", ["fall", "rise"])
    @pytest.mark.parametrize("gate", sorted(GATES))
    def test_shot_tracks_default(self, monkeypatch, gate, direction):
        cell = GATES[gate](PROC)

        def shot(sparse):
            monkeypatch.setenv(SPARSE_ENV_VAR, sparse)
            return transient(cell.build(stimuli(cell, direction)), 2e-9)

        base, forced = shot("auto"), shot("1")
        assert accounting(forced) == accounting(base)
        assert len(forced.times) == len(base.times)
        assert float(np.abs(forced.times - base.times).max()) <= 1e-15
        assert waveform_gap(base, forced, base.node_names, 2e-9) <= 1e-9
        # Every input falls (rises), so the output rises (falls).
        output = "rise" if direction == "fall" else "fall"
        level = PROC.vdd / 2.0
        assert abs(forced.node(cell.output).first_crossing(level, output)
                   - base.node(cell.output).first_crossing(level, output)) \
            <= 1e-15

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_step_control_branch_tracks_default(self, monkeypatch,
                                                scenario):
        """The step controller's and retry ladder's other branches:
        rejected steps, Newton failures, retries and their rung counts
        as on the gate kernel."""
        kwargs, reached = SCENARIOS[scenario]

        def run(sparse):
            monkeypatch.setenv(SPARSE_ENV_VAR, sparse)
            return recorded(lambda: transient(
                NAND3.build(stimuli(NAND3, "fall")), 2e-9, **kwargs))

        (base, base_counters), (forced, counters) = run("auto"), run("1")
        assert reached(forced)
        assert accounting(forced) == accounting(base)
        assert solver_counters(counters) == solver_counters(base_counters)
        assert counters["spice.sparse.factorizations"] == \
            forced.newton_iterations
        assert len(forced.times) == len(base.times)
        assert float(np.abs(forced.times - base.times).max()) <= 1e-15
        assert waveform_gap(base, forced, base.node_names,
                            float(base.times[-1])) <= 1e-9


class TestDispatchTelemetry:
    def test_dense_and_sparse_dispatch_counted(self, monkeypatch):
        monkeypatch.setenv(SPARSE_ENV_VAR, "0")
        with recording() as rec:
            solve_dc(inverter_chain(4))
        counters = rec.metrics_payload()["counters"]
        assert counters["spice.newton.dispatch{backend=dense}"] > 0
        monkeypatch.setenv(SPARSE_ENV_VAR, "1")
        with recording() as rec:
            solve_dc(inverter_chain(4))
        counters = rec.metrics_payload()["counters"]
        assert counters["spice.newton.dispatch{backend=sparse}"] > 0
        assert counters["spice.sparse.factorizations"] > 0
        assert "spice.newton.dispatch{backend=dense}" not in counters


class TestSingularHandling:
    def test_singular_jacobian_recovers_or_raises_like_dense(self,
                                                             monkeypatch):
        """A floating node (gmin=0) walks the same nudge-then-raise
        ladder in both backends."""
        def compiled():
            ckt = Circuit()
            ckt.add_vsource("v1", "in", 1.0)
            ckt.add_capacitor("c1", "float", "0", 1e-15)
            ckt.add_resistor("r1", "in", "mid", 1e3)
            ckt.add_resistor("r2", "mid", "0", 1e3)
            return ckt.compile()

        options = NewtonOptions(gmin=0.0)

        def attempt(sparse):
            monkeypatch.setenv(SPARSE_ENV_VAR, "1" if sparse else "0")
            cc = compiled()
            x0 = np.zeros(cc.n_unknown)
            try:
                return newton_solve(cc, x0, cc.known_voltages(0.0),
                                    options=options)
            except Exception as exc:  # ConvergenceError
                return type(exc).__name__

        dense = attempt(sparse=False)
        sparse = attempt(sparse=True)
        if isinstance(dense, str):
            assert sparse == dense
        else:
            assert float(np.abs(dense - sparse).max()) <= 1e-9
