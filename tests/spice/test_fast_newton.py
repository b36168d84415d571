"""The opt-in modified-Newton mode of the sparse backend (``REPRO_FAST_NEWTON``).

Fast Newton reuses the SuperLU factorization across iterations (and
across same-``h`` accepted timesteps), so it is *tolerance-gated*
rather than bit-identical: waveforms must track the full-Newton
solution to within 1 nV, measured crossing times to within 1 fs, and
the retry/health accounting must be unchanged.  It acts on sparse
analyses only, so the small circuits here are forced sparse
(``REPRO_SPARSE=1``, the :func:`forced_sparse` fixture); gate-sized and
other dense analyses ignore the knob and keep their default bits
(:class:`TestScope`).  The default mode stays bit-identical and is
pinned elsewhere (``test_assembly_equivalence``,
``test_batch_equivalence``); these tests pin the opt-in contract.
"""

import numpy as np
import pytest

from repro.gates import Gate
from repro.obs import recording
from repro.spice import Circuit, NewtonStats, TransientOptions, solve_dc, transient
from repro.spice.builders import delay_chain, inverter_chain
from repro.spice.engine import (
    FAST_NEWTON_ENV_VAR,
    FastNewtonState,
    NewtonOptions,
    SolveContext,
    fast_newton_enabled,
    newton_solve,
)
from repro.spice.sparse import SPARSE_ENV_VAR
from repro.tech import default_process
from repro.waveform import ramp

PROC = default_process()

FAST_OPTS = TransientOptions(h_max_ratio=2e-2)


@pytest.fixture
def forced_sparse(monkeypatch):
    """Every analysis on the sparse backend, where the mode acts."""
    monkeypatch.setenv(SPARSE_ENV_VAR, "1")


def fast_context(monkeypatch, compiled, **kwargs):
    """An analysis context with ``REPRO_FAST_NEWTON`` on."""
    monkeypatch.setenv(FAST_NEWTON_ENV_VAR, "1")
    context = SolveContext.for_analysis(compiled, **kwargs)
    assert context.fast is not None
    return context


def full_context(monkeypatch, compiled):
    """An analysis context on full Newton."""
    monkeypatch.delenv(FAST_NEWTON_ENV_VAR, raising=False)
    return SolveContext.for_analysis(compiled)


def inverter(tau: float = 0.3e-9) -> Circuit:
    ckt = Circuit()
    ckt.add_vsource("vvdd", "vdd", PROC.vdd)
    ckt.add_vsource("vin", "in", ramp(0.5e-9, 0.0, PROC.vdd, tau))
    ckt.add_mosfet("mn", "out", "in", "0", "0", PROC.nmos, 4e-6, 0.8e-6)
    ckt.add_mosfet("mp", "out", "in", "vdd", "vdd", PROC.pmos, 8e-6, 0.8e-6)
    ckt.add_capacitor("cl", "out", "0", 1e-13)
    return ckt


class TestEnvKnob:
    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("true", True), ("yes", True), ("on", True),
        (" 1 ", True), ("TRUE", True),
        ("0", False), ("false", False), ("no", False), ("off", False),
        ("", False),
    ])
    def test_fast_newton_enabled_parsing(self, monkeypatch, value, expected):
        monkeypatch.setenv(FAST_NEWTON_ENV_VAR, value)
        assert fast_newton_enabled() is expected

    def test_disabled_when_unset(self, monkeypatch):
        monkeypatch.delenv(FAST_NEWTON_ENV_VAR, raising=False)
        assert not fast_newton_enabled()


@pytest.mark.usefixtures("forced_sparse")
class TestToleranceContract:
    def test_transient_waveforms_within_nanovolt(self, monkeypatch):
        monkeypatch.delenv(FAST_NEWTON_ENV_VAR, raising=False)
        base = transient(inverter(), 2e-9, options=FAST_OPTS)
        monkeypatch.setenv(FAST_NEWTON_ENV_VAR, "1")
        fast = transient(inverter(), 2e-9, options=FAST_OPTS)
        grid = np.linspace(0.0, 2e-9, 400)
        for node in ("out", "in"):
            vb = base.node(node)(grid)
            vf = fast.node(node)(grid)
            assert float(np.abs(vb - vf).max()) <= 1e-9

    def test_transient_crossings_within_femtosecond(self, monkeypatch):
        monkeypatch.delenv(FAST_NEWTON_ENV_VAR, raising=False)
        base = transient(inverter(), 2e-9, options=FAST_OPTS)
        monkeypatch.setenv(FAST_NEWTON_ENV_VAR, "1")
        fast = transient(inverter(), 2e-9, options=FAST_OPTS)
        level = PROC.vdd / 2.0
        t_base = base.node("out").first_crossing(level, "fall")
        t_fast = fast.node("out").first_crossing(level, "fall")
        assert abs(t_base - t_fast) <= 1e-15

    def test_retry_and_health_accounting_unchanged(self, monkeypatch):
        monkeypatch.delenv(FAST_NEWTON_ENV_VAR, raising=False)
        base = transient(inverter(), 2e-9, options=FAST_OPTS)
        monkeypatch.setenv(FAST_NEWTON_ENV_VAR, "1")
        fast = transient(inverter(), 2e-9, options=FAST_OPTS)
        assert fast.solver_retries == base.solver_retries
        assert fast.retry_attempts == base.retry_attempts
        assert fast.newton_failures == base.newton_failures
        assert fast.rejected_steps == base.rejected_steps

    def test_dc_operating_point_within_nanovolt(self, monkeypatch):
        monkeypatch.delenv(FAST_NEWTON_ENV_VAR, raising=False)
        base = solve_dc(inverter())
        monkeypatch.setenv(FAST_NEWTON_ENV_VAR, "1")
        fast = solve_dc(inverter())
        for node, value in base.voltages.items():
            assert abs(fast.voltages[node] - value) <= 1e-9


@pytest.mark.usefixtures("forced_sparse")
class TestLuReuse:
    def test_reuse_counter_advances(self, monkeypatch):
        """Across repeated solves under one key, the retained LU must
        actually be reused (otherwise the mode is full Newton in
        disguise)."""
        compiled = inverter().compile()
        known = compiled.known_voltages(0.0)
        context = fast_context(monkeypatch, compiled)
        fast = context.fast
        options = NewtonOptions()
        x = np.full(compiled.n_unknown, PROC.vdd / 2.0)
        for _ in range(3):
            x = context.solve(x, known, options, time=0.0)
        assert fast.refactorized >= 1
        assert fast.reused >= 1

    def test_sparse_path_reuses_retained_lu(self, monkeypatch):
        """LU reuse holds on the sparse backend too: repeated solves
        under one Jacobian key must not refactorize per call
        (``spice.sparse.factorizations`` counts every sparse
        factorization)."""
        compiled = inverter().compile()
        known = compiled.known_voltages(0.0)
        options = NewtonOptions()
        x = np.full(compiled.n_unknown, PROC.vdd / 2.0)
        with recording() as rec:
            # The context folds its tallies into ``rec`` on leaving.
            with fast_context(monkeypatch, compiled) as context:
                fast = context.fast
                for _ in range(3):
                    x = context.solve(x, known, options, time=0.0)
        assert fast.refactorized >= 1
        assert fast.reused >= 1
        counters = rec.metrics_payload()["counters"]
        # Reused iterations skip the factorization entirely.
        assert counters["spice.sparse.factorizations"] == \
            counters["spice.newton.iterations"] - fast.reused

    def test_matches_full_newton_solution(self, monkeypatch):
        compiled = inverter().compile()
        known = compiled.known_voltages(0.0)
        options = NewtonOptions()
        x0 = np.full(compiled.n_unknown, PROC.vdd / 2.0)
        ref = newton_solve(compiled, x0, known, options=options,
                           context=full_context(monkeypatch, compiled))
        fast = newton_solve(compiled, x0, known, options=options,
                            context=fast_context(monkeypatch, compiled))
        assert float(np.abs(ref - fast).max()) <= 1e-9

    def test_stats_still_recorded(self, monkeypatch):
        compiled = inverter().compile()
        known = compiled.known_voltages(0.0)
        stats = NewtonStats()
        x0 = np.full(compiled.n_unknown, PROC.vdd / 2.0)
        newton_solve(compiled, x0, known, options=NewtonOptions(),
                     context=fast_context(monkeypatch, compiled,
                                          stats=stats))
        assert stats.solves == 1
        assert stats.iterations >= 1

    def test_singular_jacobian_recovers_or_raises_like_default(
            self, monkeypatch):
        """A floating node (gmin=0) gives a singular J; the fast path
        must walk the same nudge-then-raise ladder as full Newton."""
        ckt = Circuit()
        ckt.add_vsource("v1", "in", 1.0)
        ckt.add_capacitor("c1", "float", "0", 1e-15)
        ckt.add_resistor("r1", "in", "mid", 1e3)
        ckt.add_resistor("r2", "mid", "0", 1e3)
        compiled = ckt.compile()
        known = compiled.known_voltages(0.0)
        options = NewtonOptions(gmin=0.0)
        x0 = np.zeros(compiled.n_unknown)
        def attempt(make_context):
            try:
                return newton_solve(compiled, x0, known, options=options,
                                    context=make_context(monkeypatch,
                                                         compiled))
            except Exception as exc:  # ConvergenceError
                return type(exc).__name__
        ref = attempt(full_context)
        fast = attempt(fast_context)
        if isinstance(ref, str):
            assert fast == ref
        else:
            assert float(np.abs(ref - fast).max()) <= 1e-9


def nand3_testbench() -> Circuit:
    """A loaded NAND3 with a falling input ramp, as a measurement shot
    builds it."""
    gate = Gate.nand(3, PROC, load=100e-15)
    return gate.build({"a": ramp(0.1e-9, PROC.vdd, 0.0, 0.1e-9)})


def chain() -> Circuit:
    """A 20-stage inverter chain: 20 unknowns, 40 transistors."""
    return inverter_chain(20, input_stimulus=ramp(0.1e-9, 0.0, PROC.vdd,
                                                  0.1e-9))


class TestScope:
    """The mode acts on sparse analyses only."""

    @pytest.mark.parametrize("build,sparse,backend", [
        (nand3_testbench, "auto", "kernel"),
        (chain, "auto", "dense"),
        (nand3_testbench, "1", "sparse"),
        (lambda: delay_chain(40, 4), "auto", "sparse"),
    ], ids=["gate", "chain", "gate-forced-sparse", "netlist"])
    def test_only_sparse_contexts_carry_state(self, monkeypatch, build,
                                              sparse, backend):
        """Gate and dense contexts keep their default backend and carry
        no fast-Newton state; a sparse context, dispatched by size or
        forced, carries it."""
        monkeypatch.setenv(SPARSE_ENV_VAR, sparse)
        monkeypatch.setenv(FAST_NEWTON_ENV_VAR, "1")
        context = SolveContext.for_analysis(build().compile())
        assert context.backend == backend
        if backend == "sparse":
            assert isinstance(context.fast, FastNewtonState)
        else:
            assert context.fast is None

    @pytest.mark.parametrize("build,t_stop", [
        (nand3_testbench, 1.5e-9), (chain, 0.6e-9)], ids=["gate", "chain"])
    def test_gate_and_dense_transients_keep_default_bits(
            self, monkeypatch, build, t_stop):
        monkeypatch.setenv(SPARSE_ENV_VAR, "auto")
        monkeypatch.delenv(FAST_NEWTON_ENV_VAR, raising=False)
        base = transient(build(), t_stop)
        monkeypatch.setenv(FAST_NEWTON_ENV_VAR, "1")
        knob = transient(build(), t_stop)
        assert knob.times.tobytes() == base.times.tobytes()
        assert knob.node_names == base.node_names
        for name in base.node_names:
            assert knob.node(name).values.tobytes() == \
                base.node(name).values.tobytes(), name
        assert (knob.newton_iterations, knob.newton_failures,
                knob.rejected_steps, knob.solver_retries,
                knob.retry_attempts) == \
            (base.newton_iterations, base.newton_failures,
             base.rejected_steps, base.solver_retries, base.retry_attempts)
