"""Equivalence contract of the sparse solver backend (``REPRO_SPARSE``).

The sparse backend promises, versus the default dense path:

* **bit-identical assembly** -- every stored CSC entry equals the
  corresponding dense Jacobian cell bit for bit (the emission-ordered
  data scatter replays the dense per-cell accumulation order), and the
  residual is the dense scatter itself;
* **tolerance-gated solves** -- SuperLU replaces LAPACK, so Newton
  steps match to machine precision but not bit-for-bit: waveforms must
  track the dense solution within 1 nV, measured crossings within
  1 fs, and the Newton/retry accounting must be unchanged (the same
  contract ``REPRO_FAST_NEWTON`` is held to);
* **deterministic dispatch** -- ``auto`` picks exactly one backend per
  circuit from its unknown count, so default-mode results never mix.
"""

import tracemalloc

import numpy as np
import pytest

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
from repro.spice.stamps import assemble_into, assemble_sparse, load_solve
from repro.tech import default_process
from repro.waveform import ramp

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
        """Random states, with and without companion stamps, full and
        residual-only calls: the sparse ``F`` and every stored CSC entry
        must equal the dense assembly bit for bit."""
        plan = compiled.stamp_plan
        ws = plan.scratch
        known = compiled.known_voltages(0.0)
        cap_stamps = [(a, b, float(rng.uniform(1e-6, 1e-3)),
                       float(rng.uniform(-1e-6, 1e-6)))
                      for a, b in plan.cap_pairs]
        sp = plan.sparse
        # Dense cell of every stored entry, in original node order.
        columns = np.repeat(np.arange(plan.n), np.diff(sp.matrix.indptr))
        rows, cols = sp.perm[sp.matrix.indices], sp.perm[columns]
        for with_caps in (False, True):
            stamps = cap_stamps if with_caps else []
            load_solve(plan, ws, known, 0.0, stamps, 1.0, compiled.isources)
            x = rng.uniform(0.0, PROC.vdd, plan.n)
            gmin = float(rng.choice([0.0, 1e-12, 1e-9]))
            F_d, J_d = assemble_into(plan, ws, plan.dense, x, gmin,
                                     with_caps)
            F_d, J_d = F_d.copy(), J_d.copy()
            F_s, A = assemble_sparse(plan, ws, sp, x, gmin, with_caps)
            assert np.array_equal(bit_pattern(F_s), bit_pattern(F_d))
            assert np.array_equal(bit_pattern(A.data), bit_pattern(J_d[rows, cols]))
            assert np.array_equal(J_d, sp.dense_jacobian())

            x = rng.uniform(0.0, PROC.vdd, plan.n)
            F_d, J_none = assemble_into(plan, ws, plan.dense, x, gmin,
                                        with_caps, need_jacobian=False)
            assert J_none is None
            F_d = F_d.copy()
            F_s, A = assemble_sparse(plan, ws, sp, x, gmin, with_caps,
                                     need_jacobian=False)
            assert A is None
            assert np.array_equal(bit_pattern(F_s), bit_pattern(F_d))

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
        ws = plan.scratch
        load_solve(plan, ws, compiled.known_voltages(0.0), 0.0, [], 1.0,
                   compiled.isources)
        x = rng.uniform(0.0, PROC.vdd, plan.n)
        _, J = assemble_into(plan, ws, plan.dense, x, 1e-12, False)
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
        ws = plan.scratch
        sp = plan.sparse
        stamps = [(a, b, c / 1e-12, 0.0) for a, b, c in compiled.capacitors]
        load_solve(plan, ws, compiled.known_voltages(0.0), 0.0, stamps, 1.0,
                   compiled.isources)
        x = np.random.default_rng(0).uniform(0.0, PROC.vdd, plan.n)
        assemble_sparse(plan, ws, sp, x, 1e-12, True)
        lu = sp.factorize()
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

    def test_fast_newton_composes_with_sparse(self, monkeypatch):
        """The two opt-in modes stack: sparse fast-Newton must stay
        within the fast-Newton tolerance contract of the dense run."""
        monkeypatch.delenv(SPARSE_ENV_VAR, raising=False)
        monkeypatch.delenv("REPRO_FAST_NEWTON", raising=False)
        base = transient(switching_decoder(), 1.2e-9, options=FAST)
        monkeypatch.setenv(SPARSE_ENV_VAR, "1")
        monkeypatch.setenv("REPRO_FAST_NEWTON", "1")
        both = transient(switching_decoder(), 1.2e-9, options=FAST)
        gap = waveform_gap(base, both, ("wl0", "wl1"), 1.2e-9)
        assert gap <= 1e-9


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
            cc = compiled()
            x0 = np.zeros(cc.n_unknown)
            try:
                return newton_solve(cc, x0, cc.known_voltages(0.0),
                                    options=options, sparse=sparse)
            except Exception as exc:  # ConvergenceError
                return type(exc).__name__

        dense = attempt(sparse=False)
        sparse = attempt(sparse=True)
        if isinstance(dense, str):
            assert sparse == dense
        else:
            assert float(np.abs(dense - sparse).max()) <= 1e-9
