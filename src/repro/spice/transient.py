"""Adaptive-timestep transient analysis.

The integrator implements the two classic implicit companion models:

* **Backward Euler** -- ``i_C = (C/h)(v_n - v_{n-1})``; L-stable, used
  for the first step and immediately after source breakpoints (where
  trapezoidal integration would ring).
* **Trapezoidal** -- ``i_C = (2C/h)(v_n - v_{n-1}) - i_{n-1}``;
  second-order, used everywhere else.

Step control is voltage-budget based, which suits gate characterization:
a step is rejected when any unknown node moves more than ``dv_reject``
volts; accepted steps grow or shrink the next step to target
``dv_target``.  Source PWL corners are hard breakpoints so that input
ramps start and end exactly on grid.

An optional *settle rule* ``(node, level, tol)`` ends the analysis
early: at the first accepted step, at or after the last source
breakpoint, where ``node`` sits within ``tol`` of ``level``.  Every step
taken up to there is the full window's step, so the result is a prefix
of the full-window result.  The rule needs the end of all source
activity to be known, so it applies only when every time-varying source
is a PWL (no callable voltage sources, no current sources); otherwise
the whole window runs.

On top of the in-step recovery (step halving, backward-Euler fallback)
sits the :class:`~repro.resilience.RetryPolicy` ladder: when an analysis
attempt still dies with :class:`~repro.errors.ConvergenceError` -- step
underflow, an unsolvable DC point -- the whole analysis re-runs with a
raised gmin, more Newton headroom, stronger damping and a halved initial
timestep.  Every consumed attempt is logged on the result
(``retry_attempts``) and counted in its Newton accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import ConvergenceError, NetlistError
from ..obs import get_recorder, traced
from ..obs.flight import dump_flight
from ..resilience import faults
from ..resilience.retry import AttemptRecord, RetryPolicy
from ..units import parse_quantity
from .dc import dc_solution
from .engine import NewtonOptions, NewtonStats, SolveContext, newton_solve
from .guard import record_rung
from .netlist import Circuit, CompiledCircuit
from .stamps import CapStampArrays
from .results import TransientResult

__all__ = ["TransientOptions", "transient", "transient_result"]

#: A settle rule ``(node, level, tol)``: stop once ``node`` is within
#: ``tol`` volts of ``level`` after the sources have gone flat.
SettleRule = Tuple[str, float, float]


@dataclass(frozen=True)
class TransientOptions:
    """Integration control knobs.

    ``dv_target``/``dv_reject`` are the per-step voltage budgets driving
    step-size adaptation; ``h_min_ratio`` expresses the minimum step as a
    fraction of ``t_stop``.
    """

    h_initial_ratio: float = 1e-4
    h_max_ratio: float = 5e-3
    h_min_ratio: float = 1e-9
    dv_target: float = 0.06
    dv_reject: float = 0.25
    grow_factor: float = 1.5
    shrink_factor: float = 0.5
    method: str = "trap"
    newton: NewtonOptions = NewtonOptions()

    def __post_init__(self) -> None:
        if self.method not in ("trap", "be"):
            raise ConvergenceError(f"unknown integration method {self.method!r}")
        if not 0.0 < self.dv_target < self.dv_reject:
            raise ConvergenceError("need 0 < dv_target < dv_reject")


def _resolve_settle(compiled: CompiledCircuit, settle: Optional[SettleRule],
                     t_end: float):
    """``(slot, level, tol, t_flat)`` for a settle rule, or ``None``.

    ``t_flat`` is the last source breakpoint: from there on every source
    is constant.  ``None`` when there is no rule, when some source has no
    known end (see :attr:`CompiledCircuit.sources_flat_from`), or when
    the sources are still moving at ``t_end``.
    """
    if settle is None:
        return None
    node, level, tol = settle
    if node not in compiled.unknown_names:
        raise NetlistError(f"settle node {node!r} is not a solved node")
    t_flat = compiled.sources_flat_from
    if t_flat is None or t_flat >= t_end:
        return None
    return compiled.unknown_names.index(node), float(level), float(tol), t_flat


def _integrate(compiled: CompiledCircuit, solve, t_start: float,
               t_end: float, initial_op: Optional[Dict[str, float]],
               opts: TransientOptions, stats: NewtonStats,
               retry: Union[RetryPolicy, int, None],
               recorder=None, settle=None):
    """One integration attempt; returns ``(times, series, rejected, settled)``.

    Every Newton solve -- the initial DC ladder included -- goes through
    the bound solver ``solve``.  ``settle`` is a rule resolved by
    :func:`_resolve_settle`; ``settled`` tells whether it ended the
    attempt.  Raises
    :class:`~repro.errors.ConvergenceError` on step underflow or an
    unsolvable initial operating point; :func:`transient_result` owns
    the retry ladder around this.
    """
    span = t_end - t_start
    h_max = span * opts.h_max_ratio
    h_min = max(span * opts.h_min_ratio, 1e-18)
    h = span * opts.h_initial_ratio

    breakpoints = sorted(
        {t for t in compiled.breakpoints if t_start < t < t_end} | {t_end}
    )

    # Initial condition: DC operating point with sources frozen at t_start.
    # ``stats`` accumulates Newton iterations over the whole analysis:
    # the DC solve plus every accepted *and* rejected timestep.
    x = dc_solution(compiled, solve, initial_guess=initial_op, time=t_start,
                    options=opts.newton, stats=stats, retry=retry,
                    recorder=recorder)
    known = compiled.known_voltages(t_start)

    # Per-capacitor history for the trapezoidal rule: previous branch
    # voltage and previous branch current (zero at the DC point).
    # Everything per-capacitor is vectorized -- the stamp plan's fused
    # ``[x | known]`` gather columns, companion values and history
    # updates are elementwise array expressions with the scalar
    # per-capacitor operand order, so the stamps stay bit-identical to
    # the tuple-built ones while a 10k-cap netlist builds them in a
    # handful of numpy calls per step instead of a Python loop.  The
    # stamps carry the plan's own node-slot arrays, which the solver
    # recognizes by identity.
    n_cap = len(compiled.capacitors)
    if n_cap:
        plan = compiled.stamp_plan
        cap_a, cap_b = plan.cap_pairs_a, plan.cap_pairs_b
        cap_af, cap_bf, cap_c = plan.cap_a, plan.cap_b, plan.cap_c
        fused = np.concatenate([x, known])
        cap_v_prev = fused[cap_af] - fused[cap_bf]
        cap_i_prev = np.zeros(n_cap)

    times = [t_start]
    series = [x.copy()]
    t = t_start
    rejected = 0
    force_be = True  # first step: backward Euler
    next_bp_idx = 0
    n_bp = len(breakpoints)
    newton_opts = opts.newton
    method_be = opts.method == "be"
    shrink = opts.shrink_factor
    dv_reject = opts.dv_reject
    dv_target = opts.dv_target
    grow = opts.grow_factor
    known_voltages = compiled.known_voltages
    has_unknown = bool(compiled.n_unknown)
    settle_slot, settle_level, settle_tol, t_settle = settle or (0, 0.0, 0.0, np.inf)

    while t < t_end - h_min:
        # Snap tolerance h_min: a breakpoint within one minimum step of t
        # counts as reached (floating-point stepping can land a hair
        # short of a corner, leaving an un-steppable residual otherwise).
        while next_bp_idx < n_bp and breakpoints[next_bp_idx] <= t + h_min:
            next_bp_idx += 1
        next_bp = breakpoints[next_bp_idx] if next_bp_idx < n_bp else t_end
        h = min(h, h_max, t_end - t)
        h_unclamped = h
        hit_breakpoint = False
        if t + h >= next_bp - h_min:
            h = next_bp - t
            hit_breakpoint = True

        accepted = False
        retry_with_be = False
        while not accepted:
            if h < h_min:
                raise ConvergenceError(
                    f"transient step size underflow at t={t:.4e}s "
                    f"(h={h:.3e} after {rejected} rejections)"
                )
            t_new = t + h
            known_new = known_voltages(t_new)
            # Retries after a Newton failure fall back to backward Euler:
            # trapezoidal's current history can drive the iteration into
            # a corner near sharp source breakpoints.
            use_be = force_be or retry_with_be or method_be
            if n_cap:
                if use_be:
                    geq = cap_c / h
                    ieq = geq * cap_v_prev
                else:
                    geq = 2.0 * cap_c / h
                    ieq = geq * cap_v_prev + cap_i_prev
                stamps = CapStampArrays(cap_a, cap_b, geq, ieq)
            else:
                stamps = ()
            try:
                x_new = solve(x, known_new, newton_opts, time=t_new,
                              cap_stamps=stamps)
            except ConvergenceError:
                record_rung("timestep_cut", recorder)
                h *= shrink
                rejected += 1
                hit_breakpoint = False
                retry_with_be = True
                continue

            dv = float(np.abs(x_new - x).max()) if has_unknown else 0.0
            if dv > dv_reject:
                record_rung("timestep_cut", recorder)
                h *= shrink
                rejected += 1
                hit_breakpoint = False
                continue
            accepted = True

        # Update capacitor history using the companion relations; the
        # accepted step's ``geq`` is the rule's ``C/h`` or ``2C/h``.
        if n_cap:
            fused = np.concatenate([x_new, known_new])
            v_new = fused[cap_af] - fused[cap_bf]
            if use_be:
                cap_i_prev = geq * (v_new - cap_v_prev)
            else:
                cap_i_prev = geq * (v_new - cap_v_prev) - cap_i_prev
            cap_v_prev = v_new

        t = t_new
        x = x_new
        times.append(t)
        series.append(x.copy())
        if t >= t_settle and abs(x[settle_slot] - settle_level) <= settle_tol:
            return times, series, rejected, True
        force_be = hit_breakpoint  # damp the ringing right after a corner
        if hit_breakpoint:
            # Do not let a tiny breakpoint-alignment step depress the
            # step size going forward.
            h = h_unclamped

        # Step-size adaptation toward the voltage budget.  ``dv`` from
        # the acceptance test is exactly |series[-1] - series[-2]|.
        if dv < 0.25 * dv_target:
            h *= grow
        elif dv > dv_target:
            h *= max(dv_target / dv, shrink)

    return times, series, rejected, False


def transient_result(compiled: CompiledCircuit, t_stop: float | str, *,
                     solve, stats: NewtonStats,
                     t_start: float = 0.0,
                     record: Optional[List[str]] = None,
                     initial_op: Optional[Dict[str, float]] = None,
                     options: Optional[TransientOptions] = None,
                     retry: Union[RetryPolicy, int, None] = None,
                     recorder=None,
                     settle: Optional[SettleRule] = None) -> TransientResult:
    """One full transient analysis on the bound solver ``solve``.

    Validation, the retry ladder (fault firing, escalated options,
    attempt log), step-rejection accounting and result assembly all live
    here, so :func:`transient` and :func:`~repro.spice.batch.transient_batch`
    produce identical :class:`~repro.spice.results.TransientResult`
    objects.  ``stats`` must be the one ``solve`` was bound with.
    ``settle`` is the early-stop rule described in :func:`transient`;
    every retry-ladder attempt applies it.
    """
    opts = options or TransientOptions()
    policy = RetryPolicy.resolve(retry)
    t_end = parse_quantity(t_stop, unit="s")
    if t_end <= t_start:
        raise ConvergenceError(f"t_stop ({t_end}) must exceed t_start ({t_start})")

    rule = _resolve_settle(compiled, settle, t_end)
    if recorder is None:
        recorder = get_recorder()
    recorder.counter("spice.transient.analyses").inc()
    attempt_log: List[AttemptRecord] = []
    last_error: Optional[ConvergenceError] = None
    outcome = None
    for attempt in range(policy.max_attempts):
        attempt_opts = policy.escalate_transient(opts, attempt)
        if attempt > 0:
            stats.retries += 1
            recorder.counter("spice.retries", phase="transient",
                             rung=attempt).inc()
        try:
            faults.fire_transient()
            outcome = _integrate(compiled, solve, t_start, t_end,
                                 initial_op, attempt_opts, stats, policy,
                                 recorder=recorder, settle=rule)
            break
        except ConvergenceError as error:
            last_error = error
            attempt_log.append(AttemptRecord(
                attempt=attempt, message=str(error),
                iterations=error.iterations, residual=error.residual,
            ))
    if outcome is None:
        assert last_error is not None
        # Retry-ladder exhaustion is a flight-dump trigger: the ring
        # holds the failing solves (phase timings, rung history).
        dump_flight(recorder, "retry_ladder_exhausted", context={
            "phase": "transient", "attempts": policy.max_attempts,
            "n": compiled.n_unknown, "error": str(last_error),
        })
        raise ConvergenceError(
            f"transient analysis failed after {policy.max_attempts} "
            f"retry-ladder attempts: {last_error}",
            iterations=last_error.iterations, residual=last_error.residual,
        ) from last_error
    times, series, rejected, settled = outcome
    if rejected:
        recorder.counter("spice.transient.rejected_steps").inc(rejected)
    if settled:
        recorder.counter("spice.transient.settled").inc()

    time_array = np.asarray(times)
    x_series = np.asarray(series)
    names = record
    if names is None:
        names = list(compiled.unknown_names)
        names.extend(
            compiled.known_name(-k - 1) for k in range(1, len(compiled._known_names))
        )
    waveforms = {
        name: compiled.node_voltage_series(name, time_array, x_series)
        for name in names
    }
    return TransientResult(
        time_array, waveforms,
        rejected_steps=rejected, newton_iterations=stats.iterations,
        newton_failures=stats.failures, solver_retries=stats.retries,
        retry_attempts=tuple(attempt_log),
    )


@traced("spice.transient")
def transient(circuit: Circuit | CompiledCircuit, t_stop: float | str, *,
              t_start: float = 0.0,
              record: Optional[List[str]] = None,
              initial_op: Optional[Dict[str, float]] = None,
              options: Optional[TransientOptions] = None,
              retry: Union[RetryPolicy, int, None] = None,
              settle: Optional[SettleRule] = None) -> TransientResult:
    """Integrate the circuit from a DC operating point at ``t_start``.

    ``record`` limits which nodes end up in the result (default: all
    unknown and source-driven nodes).  ``initial_op`` optionally seeds
    the operating-point solve (useful to pick a desired initial logic
    state when the circuit is bistable).

    ``retry`` resolves via :meth:`RetryPolicy.resolve`.  An attempt that
    dies with :class:`~repro.errors.ConvergenceError` re-runs the whole
    analysis with escalated options (attempt ``k`` gets ``gmin *
    gmin_step**k``, a ``timestep_step**k`` smaller initial step, etc.);
    the per-attempt log rides on the result as ``retry_attempts`` and
    consumed escalations appear in ``solver_retries``.  A fault-free
    first attempt returns a result identical to the pre-ladder code.

    ``settle=(node, level, tol)`` ends the analysis at the first
    accepted step, at or after the last source breakpoint, where the
    solved node ``node`` is within ``tol`` volts of ``level``; the
    result is then a prefix of the full-window result, step for step.
    It applies only when every time-varying source is a PWL (no callable
    voltage sources, no current sources); otherwise, or when the node
    never settles, the analysis runs to ``t_stop``.  Analyses it ends
    count in ``spice.transient.settled``.
    """
    compiled = circuit if isinstance(circuit, CompiledCircuit) else circuit.compile()
    stats = NewtonStats()
    recorder = get_recorder()
    # Binds this module's ``newton_solve``, the initial DC ladder
    # included, so tests can wrap the transient solver on its own.
    solve = SolveContext.for_analysis(recorder, compiled.n_unknown).bind(
        newton_solve, compiled, stats)
    return transient_result(
        compiled, t_stop, solve=solve, stats=stats, t_start=t_start,
        record=record, initial_op=initial_op, options=options, retry=retry,
        recorder=recorder, settle=settle,
    )
