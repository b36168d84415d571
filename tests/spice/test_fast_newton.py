"""The opt-in modified-Newton mode (``REPRO_FAST_NEWTON``).

Fast Newton reuses the LU factorization across iterations (and across
same-``h`` accepted timesteps), so it is *tolerance-gated* rather than
bit-identical: waveforms must track the full-Newton solution to within
1 nV, measured crossing times to within 1 fs, and the retry/health
accounting must be unchanged.  The default mode stays bit-identical and
is pinned elsewhere (``test_assembly_equivalence``,
``test_batch_equivalence``); these tests pin the opt-in contract.
"""

import numpy as np
import pytest

from repro.obs import recording
from repro.spice import Circuit, NewtonStats, TransientOptions, solve_dc, transient
from repro.spice.engine import (
    FAST_NEWTON_ENV_VAR,
    FastNewtonState,
    NewtonOptions,
    fast_newton_enabled,
    newton_solve,
)
from repro.tech import default_process
from repro.waveform import ramp

PROC = default_process()

FAST_OPTS = TransientOptions(h_max_ratio=2e-2)


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


class TestLuReuse:
    def test_reuse_counter_advances(self):
        """Across repeated solves under one key, the retained LU must
        actually be reused (otherwise the mode is full Newton in
        disguise)."""
        compiled = inverter().compile()
        known = compiled.known_voltages(0.0)
        fast = FastNewtonState()
        options = NewtonOptions()
        x = np.full(compiled.n_unknown, PROC.vdd / 2.0)
        for _ in range(3):
            x = newton_solve(compiled, x, known, options=options, fast=fast)
        assert fast.refactorized >= 1
        assert fast.reused >= 1

    def test_sparse_path_reuses_retained_lu(self):
        """LU reuse holds on the sparse backend too: repeated solves
        under one Jacobian key must not refactorize per call
        (``spice.sparse.factorizations`` counts every sparse
        factorization)."""
        compiled = inverter().compile()
        known = compiled.known_voltages(0.0)
        fast = FastNewtonState()
        options = NewtonOptions()
        x = np.full(compiled.n_unknown, PROC.vdd / 2.0)
        with recording() as rec:
            for _ in range(3):
                x = newton_solve(compiled, x, known, options=options,
                                 sparse=True, fast=fast)
        assert fast.refactorized >= 1
        assert fast.reused >= 1
        counters = rec.metrics_payload()["counters"]
        # Reused iterations skip the factorization entirely.
        assert counters["spice.sparse.factorizations"] == \
            counters["spice.newton.iterations"] - fast.reused

    def test_matches_full_newton_solution(self):
        compiled = inverter().compile()
        known = compiled.known_voltages(0.0)
        options = NewtonOptions()
        x0 = np.full(compiled.n_unknown, PROC.vdd / 2.0)
        ref = newton_solve(compiled, x0, known, options=options)
        fast = newton_solve(compiled, x0, known, options=options,
                            fast=FastNewtonState())
        assert float(np.abs(ref - fast).max()) <= 1e-9

    def test_stats_still_recorded(self):
        compiled = inverter().compile()
        known = compiled.known_voltages(0.0)
        stats = NewtonStats()
        x0 = np.full(compiled.n_unknown, PROC.vdd / 2.0)
        newton_solve(compiled, x0, known, options=NewtonOptions(),
                     stats=stats, fast=FastNewtonState())
        assert stats.solves == 1
        assert stats.iterations >= 1

    def test_singular_jacobian_recovers_or_raises_like_default(self):
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
        def attempt(**kwargs):
            try:
                return newton_solve(compiled, x0, known,
                                    options=options, **kwargs)
            except Exception as exc:  # ConvergenceError
                return type(exc).__name__
        ref = attempt()
        fast = attempt(fast=FastNewtonState())
        if isinstance(ref, str):
            assert fast == ref
        else:
            assert float(np.abs(ref - fast).max()) <= 1e-9
