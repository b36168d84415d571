"""Batched entry points over many independent solver plans.

Characterization grids and the serve broker hand the simulator whole
lists of independent DC or transient analyses.  The functions here
accept such lists and run every analysis, lane by lane, through the
scalar plan driver :func:`~repro.spice.engine.run_plan` -- so each
lane's result, Newton accounting and solver counters are the scalar
driver's by construction, for any batch size and any backend.  A lane's
failure is returned in its slot and never aborts its siblings.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..errors import ConvergenceError
from ..obs import get_recorder
from ..resilience.retry import RetryPolicy
from .dc import dc_plan, operating_point_from_vector
from .engine import NewtonOptions, NewtonStats, SolveContext, run_plan
from .netlist import Circuit, CompiledCircuit
from .transient import TransientOptions, transient_result_plan

__all__ = ["run_plans_batched", "solve_dc_batch", "transient_batch"]


def run_plans_batched(entries: Sequence[tuple]) -> list:
    """Execute ``(compiled, plan, stats)`` triples, one after another.

    Returns one outcome per entry: the plan's return value, or the
    :class:`~repro.errors.ConvergenceError` it raised.  Each entry runs
    under its own :meth:`~repro.spice.engine.SolveContext.for_analysis`
    context, exactly like a scalar analysis, so guard counters, the
    fast-Newton mode and the sparse dispatch do not depend on how the
    entries were batched.
    """
    recorder = get_recorder()
    outcomes = []
    for compiled, plan, stats in entries:
        context = SolveContext.for_analysis(recorder, compiled.n_unknown)
        try:
            outcomes.append(run_plan(compiled, plan, stats, context=context))
        except ConvergenceError as error:
            outcomes.append(error)
    return outcomes


def solve_dc_batch(circuits: Sequence[Union[Circuit, CompiledCircuit]], *,
                   initial_guesses: Optional[Sequence[Optional[dict]]] = None,
                   time: float = 0.0,
                   options: Optional[NewtonOptions] = None,
                   stats: Optional[Sequence[Optional[NewtonStats]]] = None,
                   retry: Union[RetryPolicy, int, None] = None) -> list:
    """Batched :func:`~repro.spice.dc.solve_dc` over many circuits.

    ``initial_guesses`` and ``stats``, when given, hold one entry per
    circuit.  Returns a list of :class:`~repro.spice.dc.OperatingPoint`
    or the per-lane :class:`~repro.errors.ConvergenceError`.
    """
    compiled = [c if isinstance(c, CompiledCircuit) else c.compile()
                for c in circuits]
    guesses = (list(initial_guesses) if initial_guesses is not None
               else [None] * len(compiled))
    if len(guesses) != len(compiled):
        raise ValueError("initial_guesses length must match circuits")
    stats_list = list(stats) if stats is not None else [None] * len(compiled)
    if len(stats_list) != len(compiled):
        raise ValueError("stats length must match circuits")
    recorder = get_recorder()
    entries = [
        (c, dc_plan(c, initial_guess=guess, time=time, options=options,
                    stats=st, retry=retry, recorder=recorder), st)
        for c, guess, st in zip(compiled, guesses, stats_list)
    ]
    recorder.counter("spice.batch.lanes").inc(len(entries))
    results = []
    for c, outcome in zip(compiled, run_plans_batched(entries)):
        if isinstance(outcome, ConvergenceError):
            results.append(outcome)
        else:
            results.append(operating_point_from_vector(
                c, outcome, c.known_voltages(time)))
    return results


def transient_batch(circuits: Sequence[Union[Circuit, CompiledCircuit]],
                    t_stops, *,
                    t_start: float = 0.0,
                    record: Optional[List[str]] = None,
                    initial_op: Optional[Dict[str, float]] = None,
                    options: Optional[TransientOptions] = None,
                    retry: Union[RetryPolicy, int, None] = None) -> list:
    """Batched :func:`~repro.spice.transient.transient` over many circuits.

    ``t_stops`` is either one stop time shared by every lane or a
    per-lane sequence (characterization windows differ per point).
    Returns a list of :class:`~repro.spice.results.TransientResult` or
    the per-lane :class:`~repro.errors.ConvergenceError`; lane failures
    never abort sibling lanes.
    """
    compiled = [c if isinstance(c, CompiledCircuit) else c.compile()
                for c in circuits]
    if isinstance(t_stops, (list, tuple)):
        stops = list(t_stops)
        if len(stops) != len(compiled):
            raise ValueError("t_stops length must match circuits")
    else:
        stops = [t_stops] * len(compiled)
    stats_list = [NewtonStats() for _ in compiled]
    recorder = get_recorder()
    entries = [
        (c, transient_result_plan(c, stop, stats=st, t_start=t_start,
                                  record=record, initial_op=initial_op,
                                  options=options, retry=retry,
                                  recorder=recorder), st)
        for c, stop, st in zip(compiled, stops, stats_list)
    ]
    recorder.counter("spice.batch.lanes").inc(len(entries))
    return run_plans_batched(entries)
