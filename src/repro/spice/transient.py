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

One step controller serves every circuit: breakpoints, rejection,
backward Euler after corners, step adaptation, the settle rule and the
underflow error live once, in :func:`_march`.  The per-step numeric
work -- companion stamps, the Newton solve, the acceptance norm, the
capacitor history -- is a small state object picked by the backend the
analysis's :class:`~repro.spice.engine.SolveContext` decided:

* **floats** (:class:`_FloatSteps`) on the ``kernel`` backend:
  gate-sized plans (fewer than
  :data:`~repro.spice.stamps.SCALAR_MOS_CUTOVER` transistors) that
  ``REPRO_SPARSE`` leaves dense.  The unknowns, known voltages and
  history are Python float lists, and only capacitors with an unknown
  terminal carry stamps or history.  Each step calls the
  plan's generated Newton loop directly
  (:meth:`~repro.spice.engine.SolveContext.kernel_newton`) with the
  history, from which the loop computes the companion stamps, and the
  plan's generated code computes the history and the step's move norm;
  all of an attempt's steps run under one error state (a singular
  Jacobian raises inside it; source callables run under the caller's,
  which is back when the attempt ends).  On arrays of 3 to 21 entries
  a numpy call costs more than its arithmetic: an accepted NAND3 step
  went from 64 to 42 us of thread time, and ``validate_oracle`` from
  12.49 to 17.69 configs/s over 10 alternating ``bench/compare.py``
  pairs (2-vCPU Xeon container); see :mod:`repro.spice.engine` for the
  gains of the generated loop since.
* **arrays** (:class:`_ArraySteps`) on ``dense`` and ``sparse``, every
  solve through :meth:`~repro.spice.engine.SolveContext.solve` with the
  companion stamps as ``caps=(geq, ieq)`` arrays over the compiled
  capacitors.

The two are bit-identical: the generated code applies the same IEEE
operations in the same order as the elementwise numpy expressions
(``2.0 * c / h``, ``g * v + i``, ``g * (v_new - v) - i``), a capacitor
between two known nodes never reaches ``F`` or ``J``, the acceptance
norm is NaN-propagating like ``np.abs(dx).max()``, and the loop is the
one :func:`~repro.spice.engine.newton_solve` runs for these plans.
``tests/spice/test_gate_kernel.py`` holds the float path to the array
path on gates, step-control branches, devices and flight records.
The DC point always goes through
:meth:`~repro.spice.engine.SolveContext.solve`.

On top of the in-step recovery (step halving, backward-Euler fallback)
sits the :class:`~repro.resilience.RetryPolicy` ladder: when an analysis
attempt still dies with :class:`~repro.errors.ConvergenceError` -- step
underflow, an unsolvable DC point -- the whole analysis re-runs with a
raised gmin, more Newton headroom, stronger damping and a halved initial
timestep.  Every consumed attempt is logged on the result
(``retry_attempts``) and counted in its Newton accounting.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..errors import ConvergenceError, NetlistError
from ..obs import traced
from ..obs.flight import dump_flight
from ..resilience import faults
from ..resilience.retry import AttemptRecord, RetryPolicy
from ..units import parse_quantity
from .dc import dc_solution
from .engine import KernelNewton, NewtonOptions, SolveContext
from .guard import record_rung
from .netlist import Circuit, CompiledCircuit
from .stamps import source_currents
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


class _ArraySteps:
    """One attempt's per-step numeric work on arrays, every solve through ``solve``.

    Holds the unknowns, the capacitor history (previous branch voltage
    and current, zero current at the DC point) and the series.  The
    companion stamps ``(geq, ieq)`` and the history updates are
    elementwise array expressions over every compiled capacitor with the
    scalar per-capacitor operand order, so a 10k-cap netlist builds them
    in a handful of numpy calls per step.
    """

    __slots__ = ("solve", "known_voltages", "x", "series", "cap_a", "cap_b",
                 "cap_c", "v", "i", "pending")

    def __init__(self, compiled: CompiledCircuit, solve, x: np.ndarray,
                 t: float) -> None:
        plan = compiled.stamp_plan
        self.solve = solve
        self.known_voltages = compiled.known_voltages
        self.x = x
        self.series = [x.copy()]
        self.cap_a, self.cap_b, self.cap_c = plan.cap_a, plan.cap_b, plan.cap_c
        fused = np.concatenate([x, compiled.known_voltages(t)])
        self.v = fused[self.cap_a] - fused[self.cap_b]
        self.i = np.zeros(plan.n_cap)

    def step(self, t_new: float, h: float, use_be: bool,
             options: NewtonOptions) -> float:
        """Solve the step to ``t_new``; returns the largest node move."""
        known = self.known_voltages(t_new)
        if use_be:
            geq = self.cap_c / h
            ieq = geq * self.v
        else:
            geq = 2.0 * self.cap_c / h
            ieq = geq * self.v + self.i
        x_new = self.solve(self.x, known, options, time=t_new,
                           caps=(geq, ieq))
        self.pending = (x_new, known, geq)
        return float(np.abs(x_new - self.x).max())

    def accept(self, use_be: bool) -> np.ndarray:
        """Take the last solved step; returns its unknowns.

        The history update is the companion relation with the accepted
        step's ``geq`` (the rule's ``C/h`` or ``2C/h``).
        """
        x_new, known, geq = self.pending
        fused = np.concatenate([x_new, known])
        v_new = fused[self.cap_a] - fused[self.cap_b]
        if use_be:
            self.i = geq * (v_new - self.v)
        else:
            self.i = geq * (v_new - self.v) - self.i
        self.v = v_new
        self.x = x_new
        self.series.append(x_new.copy())
        return x_new

    def solution(self) -> np.ndarray:
        """The accepted unknowns, one row per time point."""
        return np.asarray(self.series)


class _FloatSteps:
    """One attempt's per-step numeric work on Python floats.

    For gate-sized plans whose solves run the kernel loop
    (:meth:`~repro.spice.engine.SolveContext.kernel_newton`).  The
    unknowns, the known voltages and the history are float lists, and
    only the live capacitors (an unknown terminal; one between two
    known nodes never reaches ``F`` or ``J``) carry stamps or history.
    Each step's solve computes the companion values from the history
    itself, and the plan's generated history and move-norm code keeps
    the array path's operand order, so every value is the array path's,
    bit for bit.  Steps run inside the attempt's
    :meth:`~repro.spice.engine.KernelNewton.error_state`; source
    callables, under the caller's.
    """

    __slots__ = ("solve", "history", "move", "known_list", "isources",
                 "caller", "caps", "x", "u", "i", "series", "pending")

    def __init__(self, compiled: CompiledCircuit, newton: KernelNewton,
                 x: np.ndarray, t: float) -> None:
        code = compiled.stamp_plan.kernel(True)
        self.solve = partial(newton.newton, newton)
        self.history, self.move = code.history, code.move
        self.known_list = compiled.known_list
        self.isources = compiled.isources
        #: The caller's error state when the circuit has source callables
        #: (callable voltage sources, current sources), else ``None``.
        self.caller = (None if compiled.sources_flat_from is not None
                       else dict(np.geterr(), call=np.geterrcall()))
        self.caps = newton.caps
        self.x: List[float] = x.tolist()
        self.u = code.branches(self.x, compiled.known_list(t))
        self.i = [0.0] * len(self.caps)
        self.series = [self.x]

    def step(self, t_new: float, h: float, use_be: bool,
             options: NewtonOptions) -> float:
        """Solve the step to ``t_new``; returns the largest node move."""
        if self.caller is None:
            known, isrc = self.known_list(t_new), ()
        else:
            # Source callables run under the caller's error state, as on
            # the array path: inside the attempt's, an invalid value
            # would raise as a singular matrix.
            with np.errstate(**self.caller):
                known = self.known_list(t_new)
                isrc = source_currents(self.isources, t_new)
        x_new = self.solve(self.x, known, isrc, options.gmin, options, h,
                           use_be, self.u, self.i)
        self.pending = (x_new, known, h)
        return self.move(x_new, self.x)

    def accept(self, use_be: bool) -> List[float]:
        """Take the last solved step; returns its unknowns."""
        x_new, known, h = self.pending
        self.u, self.i = self.history[use_be](x_new, known, h, self.caps,
                                              self.u, self.i)
        self.x = x_new
        self.series.append(x_new)
        return x_new

    def solution(self) -> np.ndarray:
        """The accepted unknowns, one row per time point: the float
        lists' values, built from one flat iterator (half the time of
        ``np.asarray`` on the nested lists)."""
        rows, n = len(self.series), len(self.x)
        return np.fromiter(chain.from_iterable(self.series), float,
                           count=rows * n).reshape(rows, n)


def _integrate(context: SolveContext, t_start: float, t_end: float,
               initial_op: Optional[Dict[str, float]],
               opts: TransientOptions,
               retry: Union[RetryPolicy, int, None], settle,
               newton: Optional[KernelNewton]):
    """One integration attempt; returns ``(times, solution, rejected, settled)``.

    The initial DC ladder solves through ``context``.  The steps go
    through ``newton`` on floats (:class:`_FloatSteps`) when it is
    given, all under one error state, else through
    :meth:`~repro.spice.engine.SolveContext.solve` on arrays
    (:class:`_ArraySteps`); the step control (:func:`_march`) is the
    same either way.  ``settle`` is a rule resolved by
    :func:`_resolve_settle`; ``settled`` tells whether it ended the
    attempt.  Raises :class:`~repro.errors.ConvergenceError` on step
    underflow or an unsolvable initial operating point;
    :func:`transient_result` owns the retry ladder around this.
    """
    # Initial condition: DC operating point with sources frozen at
    # t_start.  The context's stats accumulate Newton iterations over
    # the whole analysis: the DC solve plus every accepted *and*
    # rejected timestep.
    compiled = context.compiled
    x = dc_solution(context, initial_guess=initial_op, time=t_start,
                    options=opts.newton, retry=retry)
    state: Union[_ArraySteps, _FloatSteps]
    if newton is None:
        # Each solve enters its own error state in newton_solve.
        state = _ArraySteps(compiled, context.solve, x, t_start)
        errors = nullcontext()
    else:
        state = _FloatSteps(compiled, newton, x, t_start)
        errors = newton.error_state()
    with errors:
        return _march(state, compiled, t_start, t_end, opts,
                      context.recorder, settle)


def _march(state, compiled: CompiledCircuit, t_start: float, t_end: float,
           opts: TransientOptions, recorder, settle):
    """The step controller of :func:`_integrate`, from its DC point on.

    Breakpoints, rejection, backward Euler after corners, adaptation,
    the settle rule and the underflow error, the same for both step
    states; returns ``(times, solution, rejected, settled)`` with the
    state's :meth:`solution`.
    """
    span = t_end - t_start
    h_max = span * opts.h_max_ratio
    h_min = max(span * opts.h_min_ratio, 1e-18)
    h = span * opts.h_initial_ratio

    breakpoints = sorted(
        {t for t in compiled.breakpoints if t_start < t < t_end} | {t_end}
    )
    step, accept = state.step, state.accept

    times = [t_start]
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
            # Retries after a Newton failure fall back to backward Euler:
            # trapezoidal's current history can drive the iteration into
            # a corner near sharp source breakpoints.
            use_be = force_be or retry_with_be or method_be
            try:
                dv = step(t_new, h, use_be, newton_opts)
            except ConvergenceError:
                record_rung("timestep_cut", recorder)
                h *= shrink
                rejected += 1
                hit_breakpoint = False
                retry_with_be = True
                continue

            if dv > dv_reject:
                record_rung("timestep_cut", recorder)
                h *= shrink
                rejected += 1
                hit_breakpoint = False
                continue
            accepted = True

        x = accept(use_be)
        t = t_new
        times.append(t)
        if t >= t_settle and abs(x[settle_slot] - settle_level) <= settle_tol:
            return times, state.solution(), rejected, True
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

    return times, state.solution(), rejected, False


def transient_result(context: SolveContext, t_stop: float | str, *,
                     t_start: float = 0.0,
                     record: Optional[List[str]] = None,
                     initial_op: Optional[Dict[str, float]] = None,
                     options: Optional[TransientOptions] = None,
                     retry: Union[RetryPolicy, int, None] = None,
                     settle: Optional[SettleRule] = None) -> TransientResult:
    """One full transient analysis of ``context.compiled``.

    Validation, the retry ladder (fault firing, escalated options,
    attempt log), step-rejection accounting and result assembly all live
    here, so :func:`transient` and :func:`~repro.spice.batch.transient_batch`
    produce identical :class:`~repro.spice.results.TransientResult`
    objects.  ``context`` is the analysis's
    :class:`~repro.spice.engine.SolveContext`: its stats and tallies
    account the analysis (the caller folds them into the recorder when
    the analysis ends), and its backend decides whether the steps run
    on floats through its kernel loop
    (:meth:`~repro.spice.engine.SolveContext.kernel_newton`) or through
    :meth:`~repro.spice.engine.SolveContext.solve`.  ``settle`` is the
    early-stop rule described in :func:`transient`; every retry-ladder
    attempt applies it.
    """
    opts = options or TransientOptions()
    policy = RetryPolicy.resolve(retry)
    t_end = parse_quantity(t_stop, unit="s")
    if t_end <= t_start:
        raise ConvergenceError(f"t_stop ({t_end}) must exceed t_start ({t_start})")

    compiled, stats, recorder = context.compiled, context.stats, context.recorder
    rule = _resolve_settle(compiled, settle, t_end)
    recorder.counter("spice.transient.analyses").inc()
    newton = context.kernel_newton() if context.backend == "kernel" else None
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
            outcome = _integrate(context, t_start, t_end, initial_op,
                                 attempt_opts, policy, rule, newton)
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
    times, x_series, rejected, settled = outcome
    if rejected:
        recorder.counter("spice.transient.rejected_steps").inc(rejected)
    if settled:
        recorder.counter("spice.transient.settled").inc()

    time_array = np.asarray(times)
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
    with SolveContext.for_analysis(compiled) as context:
        return transient_result(
            context, t_stop, t_start=t_start, record=record,
            initial_op=initial_op, options=options, retry=retry,
            settle=settle,
        )
