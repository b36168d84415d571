"""Solver guardrails: escalation accounting and numerical health monitoring.

The Newton core recovers from hard operating points through a fixed
escalation ladder, each rung owned by the layer that can retry most
cheaply:

1. **Jacobian refresh** -- the modified-Newton mode refactorizes when a
   stale LU stops contracting the residual (``spice/engine.py``),
2. **diagonal nudge** -- a singular factorization retries once with
   :func:`~repro.spice.engine.singular_nudge` added to the diagonal
   (full, fast and sparse paths share the arithmetic),
3. **gmin ramp** -- DC homotopy relaxing a large leak conductance decade
   by decade (``spice/dc.py``),
4. **source stepping** -- DC homotopy ramping the sources from zero
   (``spice/dc.py``),
5. **timestep cut** -- the transient integrator shrinks ``h`` and falls
   back to backward Euler (``spice/transient.py``).

This module is the ladder's single accounting point: every engagement is
counted in ``spice.guard.rung{rung=...}`` (always on when telemetry
records, batch-size and worker-count invariant because the count happens
inside the shared plan/solver code), so a run can name exactly how hard
the solver had to fight.

On top sits the opt-in **guard monitor** (``REPRO_GUARD=1`` or
``--guard``), which watches every Newton solve for numerical trouble
*before* it becomes a wrong answer or a stuck process:

* **divergence detection** -- a residual that stays above
  ``diverge_factor`` times the best residual seen for ``diverge_streak``
  consecutive iterations aborts the solve with a
  :class:`GuardAbort` (counted in ``spice.guard.aborts{reason=divergence}``)
  instead of burning the full iteration budget; the abort enters the
  normal escalation/degradation path (homotopy rungs, retry ladder,
  NaN cell).
* **watchdog** -- ``REPRO_GUARD_WALL`` seconds of wall clock per solve;
  expiry aborts with ``reason=watchdog``.
* **condition monitoring** -- a Hager-style 1-norm condition estimate of
  the first iteration's Jacobian (two extra triangular/dense solves,
  sampled once per analysis); estimates above 1e12 log a
  ``repro.spice.guard`` warning and count ``spice.guard.illconditioned``.
  Warn-only: results are never changed.

The thresholds other than the watchdog's are :class:`GuardPolicy`
defaults, not environment knobs.

The monitors never perturb the iteration itself -- with the guard on, a
clean run produces bit-identical results to a guard-off run, which is
what lets ``benchmarks/bench_guard.py`` gate the overhead (<5%) while
asserting waveform equality.  Batched calls run every lane through the
same scalar solver, so their guard accounting is the scalar driver's.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import ConvergenceError, ReproError
from ..log import get_logger
from ..obs import get_recorder

__all__ = [
    "GUARD_ENV_VAR", "WALL_ENV_VAR", "ESCALATION_RUNGS",
    "GuardAbort", "GuardPolicy", "GuardMonitor", "SolveGuard",
    "guard_enabled", "record_rung", "note_illconditioned",
    "condition_estimate_dense", "condition_estimate_sparse",
]

#: Environment knob enabling the opt-in solver guard monitors.
GUARD_ENV_VAR = "REPRO_GUARD"
#: Per-solve wall-clock budget in seconds (default: no watchdog).
WALL_ENV_VAR = "REPRO_GUARD_WALL"

#: The escalation ladder, cheapest rung first.  Every engagement is
#: counted in ``spice.guard.rung{rung=...}`` by the owning layer.
ESCALATION_RUNGS = ("refresh", "nudge", "gmin_ramp", "source_step",
                    "timestep_cut")

#: Consecutive growing iterations before a divergence abort.
DIVERGE_STREAK = 5

_log = get_logger("spice.guard")


def guard_enabled() -> bool:
    """Whether ``REPRO_GUARD`` opts into the solve monitors."""
    value = os.environ.get(GUARD_ENV_VAR, "").strip().lower()
    return value not in ("", "0", "false", "no", "off")


def record_rung(rung: str, recorder=None) -> None:
    """Count one engagement of an escalation-ladder rung.

    Always-on telemetry (gated only on the recorder, never on
    ``REPRO_GUARD``): the rung counters are how a degraded run explains
    itself, so they must not depend on the monitoring opt-in.  Counted
    where the escalation happens -- inside the shared plan/solver code
    -- which makes the totals identical across worker counts and batch
    sizes.
    """
    rec = recorder if recorder is not None else get_recorder()
    if rec.enabled:
        rec.counter("spice.guard.rung", rung=rung).inc()
        flight = rec.flight
        if flight.enabled:
            # The flight ring interleaves rung events with solve records,
            # so a post-mortem dump shows which ladder rungs the failing
            # solve walked and in what order.
            flight.note_rung(rung)


def note_illconditioned(estimate: float, limit: float, recorder=None) -> None:
    """Log + count one ill-conditioned Jacobian detection (warn-only)."""
    rec = recorder if recorder is not None else get_recorder()
    if rec.enabled:
        rec.counter("spice.guard.illconditioned").inc()
    _log.warning(
        "ill-conditioned Jacobian: 1-norm condition estimate %.3e exceeds "
        "%.3e; voltages near this operating point may lose precision",
        estimate, limit)


class GuardAbort(ConvergenceError):
    """A guard-triggered solve abort (divergence or watchdog expiry).

    A :class:`~repro.errors.ConvergenceError` subclass, so every
    existing recovery layer -- homotopy rungs, the retry ladder, the
    NaN-cell degradation path -- handles it like any other failed
    solve; ``reason`` (``"divergence"`` or ``"watchdog"``) feeds the
    abort accounting.
    """

    def __init__(self, message: str, *, reason: str,
                 iterations: int, residual: float) -> None:
        super().__init__(message, iterations=iterations, residual=residual)
        self.reason = reason


def _parse_wall() -> Optional[float]:
    raw = os.environ.get(WALL_ENV_VAR, "").strip().lower()
    if raw in ("", "off", "none", "no", "false"):
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ReproError(
            f"{WALL_ENV_VAR} must be a number of seconds, got {raw!r}"
        ) from None
    if value < 0.0:
        raise ReproError(f"{WALL_ENV_VAR} must be >= 0 seconds")
    return value


@dataclass(frozen=True)
class GuardPolicy:
    """Resolved guard thresholds, shared by every solve of an analysis.

    ``condition_limit`` is the 1-norm condition estimate above which a
    warning is emitted (``inf`` disables the estimate entirely);
    ``condition_every`` samples the estimate every Nth solve of an
    analysis on top of the always-checked first solve (0 = first solve
    only).  ``diverge_factor`` declares an iteration *growing* when its
    residual exceeds ``diverge_factor`` times the best residual seen;
    :data:`DIVERGE_STREAK` consecutive growing iterations abort the
    solve.  ``max_wall_seconds`` is the per-solve watchdog budget
    (``None`` disables it).
    """

    condition_limit: float = 1e12
    condition_every: int = 0
    diverge_factor: float = 1e3
    diverge_streak: int = DIVERGE_STREAK
    max_wall_seconds: Optional[float] = None

    @classmethod
    def from_env(cls) -> Optional["GuardPolicy"]:
        """The default policy with ``REPRO_GUARD_WALL``'s watchdog, or
        ``None`` when ``REPRO_GUARD`` is off.

        ``None`` (the default state) means *no guard anywhere*: callers
        omit the ``guard=`` keyword entirely, so the default solver path
        is byte-for-byte the pre-guard code.
        """
        if not guard_enabled():
            return None
        return cls(max_wall_seconds=_parse_wall())


class GuardMonitor:
    """Per-analysis guard state: the policy plus the solve counter.

    One monitor per analysis (a ``solve_dc`` call, a ``transient`` call,
    one lane of a batch) keeps the condition-estimate sampling cadence a
    function of the analysis's own solve sequence, so guard counters
    stay batch-size invariant.  ``worst_condition`` retains the largest
    estimate seen, for reports and tests.
    """

    __slots__ = ("policy", "solves", "worst_condition")

    def __init__(self, policy: GuardPolicy) -> None:
        self.policy = policy
        self.solves = 0
        self.worst_condition = 0.0

    @classmethod
    def from_env(cls) -> Optional["GuardMonitor"]:
        """A fresh monitor under the environment's policy, or ``None``."""
        policy = GuardPolicy.from_env()
        return None if policy is None else cls(policy)

    def start_solve(self) -> "SolveGuard":
        """Begin monitoring one Newton solve."""
        index = self.solves
        self.solves += 1
        return SolveGuard(self, index)


class SolveGuard:
    """Per-solve monitor: divergence streak, watchdog deadline, sampling.

    Created by :meth:`GuardMonitor.start_solve`; the Newton loops call
    :meth:`check` once per iteration (after the residual, before the
    linear solve).
    """

    __slots__ = ("monitor", "policy", "deadline", "best", "streak",
                 "check_condition")

    def __init__(self, monitor: GuardMonitor, index: int) -> None:
        policy = monitor.policy
        self.monitor = monitor
        self.policy = policy
        self.deadline = (None if policy.max_wall_seconds is None
                         else time.monotonic() + policy.max_wall_seconds)
        self.best = float("inf")
        self.streak = 0
        every = policy.condition_every
        self.check_condition = bool(
            np.isfinite(policy.condition_limit)
            and (index == 0 or (every > 0 and index % every == 0)))

    def check(self, iteration: int, residual: float) -> Optional[GuardAbort]:
        """Returns the abort for this iteration, or ``None`` to continue.

        Returned -- not raised -- so the Newton loops can fold the abort
        into their stats/telemetry before raising.
        """
        policy = self.policy
        if self.deadline is not None and time.monotonic() > self.deadline:
            return GuardAbort(
                f"solver watchdog expired after {policy.max_wall_seconds:g}s "
                f"at Newton iteration {iteration}",
                reason="watchdog", iterations=iteration, residual=residual)
        if residual > policy.diverge_factor * self.best:
            self.streak += 1
            if self.streak >= policy.diverge_streak:
                return GuardAbort(
                    f"diverging Newton iteration: residual {residual:.3e} A "
                    f"stayed above {policy.diverge_factor:g}x the best "
                    f"{self.best:.3e} A for {self.streak} consecutive "
                    f"iterations",
                    reason="divergence", iterations=iteration,
                    residual=residual)
        else:
            self.streak = 0
        if residual < self.best:
            self.best = residual
        return None

    def note_condition(self, estimate: float) -> bool:
        """Record a condition estimate; True when it breaches the limit."""
        self.check_condition = False
        monitor = self.monitor
        if estimate > monitor.worst_condition:
            monitor.worst_condition = estimate
        return estimate > self.policy.condition_limit


def condition_estimate_dense(J: np.ndarray) -> float:
    """Hager-style lower bound on the 1-norm condition number of ``J``.

    ``||J||_1`` is exact (max column abs-sum); ``||J^-1||_1`` is bounded
    below with one solve against ``J`` and one against ``J.T`` (the
    first step of Hager's iteration, the same estimator LAPACK's
    ``gecon`` family refines).  A lower bound is the right direction
    for a warning threshold: it can only under-report, never cry wolf.
    Singular or non-finite systems report ``inf``.
    """
    n = J.shape[0]
    if n == 0:
        return 0.0
    norm = float(np.abs(J).sum(axis=0).max())
    if not np.isfinite(norm) or norm == 0.0:
        return float("inf")
    try:
        x = np.linalg.solve(J, np.full(n, 1.0 / n))
        xi = np.where(x >= 0.0, 1.0, -1.0)
        y = np.linalg.solve(J.T, xi)
    except np.linalg.LinAlgError:
        return float("inf")
    inv_norm = max(float(np.abs(x).sum()), float(np.abs(y).max()))
    if not np.isfinite(inv_norm):
        return float("inf")
    return norm * inv_norm


def condition_estimate_sparse(sp, lu) -> float:
    """:func:`condition_estimate_dense` against a retained SuperLU factor.

    ``sp`` is the :class:`~repro.spice.sparse.SparsePlan` holding the
    assembled matrix (permuted by its minimum-degree ordering), ``lu``
    the factorization of it that the current iteration just solved with
    -- reusing it makes the two extra triangular solves nearly free.  The 1-norm is invariant under
    the symmetric permutation, so the estimate matches the dense
    backend's to factorization accuracy.
    """
    if lu is None:
        return float("inf")
    matrix = sp.matrix
    norm = float(np.abs(matrix).sum(axis=0).max())
    if not np.isfinite(norm) or norm == 0.0:
        return float("inf")
    n = sp.n
    try:
        x = lu.solve(np.full(n, 1.0 / n))
        xi = np.where(x >= 0.0, 1.0, -1.0)
        y = lu.solve(xi, trans="T")
    except (RuntimeError, np.linalg.LinAlgError):
        return float("inf")
    inv_norm = max(float(np.abs(x).sum()), float(np.abs(y).max()))
    if not np.isfinite(inv_norm):
        return float("inf")
    return norm * inv_norm
