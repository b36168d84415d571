"""Regressions for singular-Jacobian handling in batch lanes.

Each batch lane binds its own solver under
:meth:`~repro.spice.engine.SolveContext.for_analysis` and walks the
scalar Newton loop's nudge-then-fail ladder.  Two properties are pinned
here:

* a **doubly singular** lane (LU fails even after the diagonal nudge)
  must finish on the failure path -- never report *false convergence*
  from a zero step at a near-solution iterate.
* the diagonal nudge (:func:`~repro.spice.engine.nudge_diagonal` /
  :func:`~repro.spice.engine.singular_nudge`) gives batched and scalar
  solves of a deliberately singular circuit bit-identical solutions.
"""

import numpy as np
import pytest

from repro.errors import ConvergenceError
from repro.obs import get_recorder
from repro.spice import Circuit, engine
from repro.spice.sparse import SPARSE_ENV_VAR
from repro.spice.engine import (
    FAST_NEWTON_ENV_VAR,
    NewtonOptions,
    NewtonStats,
    SolveContext,
    newton_solve,
    nudge_diagonal,
    singular_nudge,
)


@pytest.fixture(autouse=True)
def dense_backend(monkeypatch):
    """Pin the dense full-Newton loop: the
    :func:`repro.spice.engine.dense_solve` monkeypatch reaches only that
    loop.  A ``REPRO_SPARSE=1`` environment (the CI
    sparse smoke leg) would divert every lane to SuperLU, and
    ``REPRO_FAST_NEWTON=1`` to the LU-reusing loop, whose singular path
    ``test_fast_newton.py`` covers."""
    monkeypatch.setenv(SPARSE_ENV_VAR, "0")
    monkeypatch.delenv(FAST_NEWTON_ENV_VAR, raising=False)


def divider() -> Circuit:
    """v(in)=1 through an equal divider: exact solution v(mid)=0.5."""
    ckt = Circuit("divider")
    ckt.add_vsource("v1", "in", 1.0)
    ckt.add_resistor("r1", "in", "mid", 1e3)
    ckt.add_resistor("r2", "mid", "0", 1e3)
    return ckt


def floating_node() -> Circuit:
    """A capacitor-only node: singular in DC whenever gmin is zero."""
    ckt = Circuit("floating")
    ckt.add_vsource("v1", "in", 1.0)
    ckt.add_resistor("r1", "in", "mid", 1e3)
    ckt.add_resistor("r2", "mid", "0", 1e3)
    ckt.add_capacitor("c1", "float", "0", 1e-15)
    return ckt


def run_lanes(lanes):
    """Run ``(circuit, x0, options, stats)`` lanes as a batch does.

    Each lane binds its own solver under its own analysis context and
    solves once; the outcome is the solution or the lane's
    :class:`~repro.errors.ConvergenceError`, left in its slot.
    """
    outcomes = []
    for circuit, x0, options, stats in lanes:
        compiled = circuit.compile()
        solve = SolveContext.for_analysis(
            get_recorder(), compiled.n_unknown).bind(
                engine.newton_solve, compiled, stats)
        try:
            outcomes.append(solve(np.asarray(x0, dtype=float),
                                  compiled.known_voltages(0.0), options,
                                  time=0.0))
        except ConvergenceError as error:
            outcomes.append(error)
    return outcomes


class TestDoublySingularLanes:
    def test_no_false_convergence_at_exact_solution(self, monkeypatch):
        """Lanes parked AT the solution, every LU declared singular.

        The iterate already satisfies ``residual < abstol``, so a zero
        step from the failed solve would also satisfy ``step < voltol``;
        both lanes must still finish as failures rather than return x0.
        """
        exact = [0.5]

        def always_singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix (forced)")

        monkeypatch.setattr(engine, "dense_solve", always_singular)
        options = NewtonOptions()
        outcomes = run_lanes([
            (divider(), exact, options, NewtonStats()),
            (divider(), exact, options, NewtonStats()),
        ])
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert isinstance(outcome, ConvergenceError), \
                f"doubly singular lane reported convergence: {outcome!r}"
            assert "singular" in str(outcome)

    def test_stats_count_singular_lanes_as_failures(self, monkeypatch):
        def always_singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix (forced)")

        monkeypatch.setattr(engine, "dense_solve", always_singular)
        lanes = [(divider(), [0.5], NewtonOptions(), NewtonStats())
                 for _ in range(2)]
        run_lanes(lanes)
        for _, _, _, stats in lanes:
            assert stats.failures == 1
            assert stats.solves == 0


class TestNudgeEquivalence:
    def test_batch_matches_scalar_on_singular_circuit(self):
        """gmin=0 leaves the floating node's row all-zero: both drivers
        must take the same nudge (``singular_nudge``) and land on
        bit-identical solutions."""
        options = NewtonOptions(gmin=0.0)
        compiled = floating_node().compile()
        x0 = np.zeros(compiled.n_unknown)
        scalar = newton_solve(compiled, x0.copy(),
                              compiled.known_voltages(0.0), options=options)
        outcomes = run_lanes([
            (floating_node(), x0, options, NewtonStats()),
            (floating_node(), x0, options, NewtonStats()),
        ])
        for outcome in outcomes:
            assert isinstance(outcome, np.ndarray)
            assert np.array_equal(outcome, scalar)

    def test_singular_nudge_floor(self):
        assert singular_nudge(0.0) == 1e-9
        assert singular_nudge(1e-12) == 1e-9
        assert singular_nudge(1e-6) == 1e-6


class TestNudgeDiagonal:
    def test_contiguous_matches_eye_addition(self):
        rng = np.random.default_rng(7)
        J = rng.normal(size=(5, 5))
        expected = J + 1e-9 * np.eye(5)
        nudge_diagonal(J, 1e-9)
        assert np.array_equal(J, expected)

    def test_non_contiguous_view_not_corrupted(self):
        """The flat-stride trick is only valid on C-contiguous storage;
        on a transposed / sliced view it would smear the nudge across
        off-diagonal cells."""
        rng = np.random.default_rng(8)
        base = rng.normal(size=(10, 10))
        J = base[::2, ::2]  # non-contiguous square view
        assert not J.flags.c_contiguous
        expected = J + 0.5 * np.eye(5)
        nudge_diagonal(J, 0.5)
        assert np.array_equal(J, expected)

    def test_fortran_order_matches(self):
        J = np.asfortranarray(np.arange(16.0).reshape(4, 4))
        expected = J + 2.0 * np.eye(4)
        nudge_diagonal(J, 2.0)
        assert np.array_equal(J, expected)
