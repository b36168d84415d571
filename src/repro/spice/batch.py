"""Batched entry points over many independent analyses.

The serve broker hands the simulator whole lists of independent
transient analyses.  The functions here accept such lists and run
every analysis, lane by lane, on the scalar solver: each lane solves
through its own :class:`~repro.spice.engine.SolveContext`
(:meth:`~repro.spice.engine.SolveContext.for_analysis`) and folds its
telemetry when the lane ends, exactly like a scalar analysis -- so each
lane's result, Newton accounting and solver counters are the scalar
path's by construction, for any batch size and any backend.  A lane's
failure is returned in its slot and never aborts its siblings.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

from ..errors import ConvergenceError
from ..obs import get_recorder
from ..resilience.retry import RetryPolicy
from .dc import dc_solution, operating_point_from_vector
from .engine import NewtonOptions, NewtonStats, SolveContext
from .netlist import Circuit, CompiledCircuit
from .transient import SettleRule, TransientOptions, transient_result

__all__ = ["solve_dc_batch", "transient_batch"]


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
    recorder.counter("spice.batch.lanes").inc(len(compiled))
    results: list = []
    for c, guess, st in zip(compiled, guesses, stats_list):
        try:
            with SolveContext.for_analysis(c, stats=st,
                                           recorder=recorder) as context:
                x = dc_solution(context, initial_guess=guess, time=time,
                                options=options, retry=retry)
        except ConvergenceError as error:
            results.append(error)
            continue
        results.append(operating_point_from_vector(c, x, c.known_voltages(time)))
    return results


def transient_batch(circuits: Sequence[Union[Circuit, CompiledCircuit]],
                    t_stops, *,
                    t_start: float = 0.0,
                    record: Optional[List[str]] = None,
                    initial_op: Optional[Dict[str, float]] = None,
                    options: Optional[TransientOptions] = None,
                    retry: Union[RetryPolicy, int, None] = None,
                    settle: Optional[Sequence[Optional[SettleRule]]] = None
                    ) -> list:
    """Batched :func:`~repro.spice.transient.transient` over many circuits.

    ``t_stops`` is either one stop time shared by every lane or a
    per-lane sequence (characterization windows differ per point).
    ``settle``, when given, holds one settle rule ``(node, level, tol)``
    or ``None`` per lane (see :func:`~repro.spice.transient.transient`).
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
    rules = list(settle) if settle is not None else [None] * len(compiled)
    if len(rules) != len(compiled):
        raise ValueError("settle length must match circuits")
    recorder = get_recorder()
    recorder.counter("spice.batch.lanes").inc(len(compiled))
    results: list = []
    for c, stop, rule in zip(compiled, stops, rules):
        try:
            with SolveContext.for_analysis(c, recorder=recorder) as context:
                results.append(transient_result(
                    context, stop, t_start=t_start, record=record,
                    initial_op=initial_op, options=options, retry=retry,
                    settle=rule))
        except ConvergenceError as error:
            results.append(error)
    return results
