"""DC operating point and DC sweeps.

The operating point drives Section 2 of the reproduction: VTC families
are DC sweeps of an input source, solved by continuation (each point
warm-starts from the previous solution).  The solver escalates through
the standard SPICE homotopies when plain Newton fails:

1. plain Newton from the supplied (or mid-rail) initial guess,
2. **gmin stepping** -- solve with a large leak conductance and relax it
   decade by decade,
3. **source stepping** -- ramp all sources from zero (where ``x = 0``
   solves trivially) to full value.

When the whole ladder fails, the solve re-runs under the
:class:`~repro.resilience.RetryPolicy` escalation (raised gmin, larger
iteration budget, stronger damping); every escalation is counted in
``stats.retries``.

Every rung solves through the analysis's one
:class:`~repro.spice.engine.SolveContext`: :func:`solve_dc` and each
:func:`dc_sweep` build one, and :func:`dc_solution` takes it, so the
ladder's solves share one backend decision, one ``NewtonStats`` and one
recorder, and fold their telemetry into it once, when the analysis
ends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Union

import numpy as np

from ..errors import ConvergenceError
from ..obs import traced
from ..obs.flight import dump_flight
from ..resilience.retry import RetryPolicy
from .engine import NewtonOptions, NewtonStats, SolveContext
from .guard import record_rung
from .netlist import Circuit, CompiledCircuit
from .results import SweepResult

__all__ = ["OperatingPoint", "dc_solution", "solve_dc", "dc_sweep"]


@dataclass(frozen=True)
class OperatingPoint:
    """A solved DC operating point: node name -> voltage."""

    voltages: Dict[str, float]

    def __getitem__(self, node: str) -> float:
        return self.voltages[node]

    def as_vector(self, compiled: CompiledCircuit) -> np.ndarray:
        """The unknown-node voltages in the compiled ordering."""
        return np.array([self.voltages[name] for name in compiled.unknown_names])


def _gmin_stepping(context: SolveContext, x0: np.ndarray, known: np.ndarray,
                   options: NewtonOptions, time: float) -> np.ndarray:
    context.recorder.counter("spice.dc.gmin_stepping").inc()
    record_rung("gmin_ramp", context.recorder)
    x = np.array(x0, dtype=float)
    gmin = 1e-2
    while gmin >= options.gmin:
        x = context.solve(x, known, options, time=time, gmin=gmin)
        gmin /= 10.0
    return context.solve(x, known, options, time=time)


def _source_stepping(context: SolveContext, known: np.ndarray,
                     options: NewtonOptions, time: float) -> np.ndarray:
    context.recorder.counter("spice.dc.source_stepping").inc()
    record_rung("source_step", context.recorder)
    x = np.zeros(context.compiled.n_unknown)
    for scale in np.linspace(0.1, 1.0, 10):
        x = context.solve(x, known, options, time=time,
                          source_scale=float(scale))
    return x


def dc_solution(context: SolveContext, *,
                initial_guess: Optional[Dict[str, float]] = None,
                time: float = 0.0,
                options: Optional[NewtonOptions] = None,
                retry: Union[RetryPolicy, int, None] = None) -> np.ndarray:
    """The DC operating point's unknown vector, by the homotopy ladder.

    Solves ``context.compiled`` through the analysis's
    :class:`~repro.spice.engine.SolveContext`.  The ladder tries plain
    Newton, then gmin stepping, then source stepping, and re-runs all
    three per retry rung; the context's ``stats.retries`` and the
    homotopy counters are bumped here.
    """
    compiled = context.compiled
    opts = options or NewtonOptions()
    rec = context.recorder
    policy = RetryPolicy.resolve(retry)
    known = compiled.known_voltages(time)
    mid = 0.5 * (float(known.max()) + float(known.min()))
    x0 = np.full(compiled.n_unknown, mid)
    if initial_guess:
        for idx, name in enumerate(compiled.unknown_names):
            if name in initial_guess:
                x0[idx] = initial_guess[name]

    last_error: Optional[ConvergenceError] = None
    for attempt in range(policy.max_attempts):
        attempt_opts = policy.escalate_newton(opts, attempt)
        if attempt > 0:
            context.stats.retries += 1
            rec.counter("spice.retries", phase="dc", rung=attempt).inc()
        try:
            return context.solve(x0, known, attempt_opts, time=time)
        except ConvergenceError:
            pass
        try:
            return _gmin_stepping(context, x0, known, attempt_opts, time)
        except ConvergenceError:
            pass
        try:
            return _source_stepping(context, known, attempt_opts, time)
        except ConvergenceError as error:
            last_error = error
    assert last_error is not None
    # Retry-ladder exhaustion is a flight-dump trigger: the ring holds
    # the failing solve (phase timings, rung history) and its context.
    dump_flight(rec, "retry_ladder_exhausted", context={
        "phase": "dc", "attempts": policy.max_attempts,
        "n": compiled.n_unknown, "error": str(last_error),
    })
    raise ConvergenceError(
        f"DC solve failed after {policy.max_attempts} retry-ladder "
        f"attempts: {last_error}",
        iterations=last_error.iterations, residual=last_error.residual,
    ) from last_error


def operating_point_from_vector(compiled: CompiledCircuit, x: np.ndarray,
                                known: np.ndarray) -> OperatingPoint:
    """Package a solved unknown vector as an :class:`OperatingPoint`."""
    voltages = {name: float(x[idx]) for idx, name in enumerate(compiled.unknown_names)}
    voltages["0"] = 0.0
    for kidx, name in enumerate(compiled._known_names[1:], start=1):
        voltages[name] = float(known[kidx])
    return OperatingPoint(voltages)


def solve_dc(circuit: Circuit | CompiledCircuit, *,
             initial_guess: Optional[Dict[str, float]] = None,
             time: float = 0.0,
             options: Optional[NewtonOptions] = None,
             stats: Optional[NewtonStats] = None,
             retry: Union[RetryPolicy, int, None] = None) -> OperatingPoint:
    """Solve the DC operating point with sources evaluated at ``time``.

    Capacitors are open circuits.  ``initial_guess`` maps node names to
    starting voltages; unlisted unknowns start mid-range of the known
    voltages, which works well for CMOS structures.  ``stats``
    accumulates Newton iterations across every attempted solve,
    homotopy fallbacks included.

    ``retry`` resolves via :meth:`RetryPolicy.resolve` (policy object,
    attempt count, ``REPRO_RETRY``, or the default ladder).  When even
    source stepping fails, the whole homotopy sequence re-runs with
    escalated Newton options; each escalation bumps ``stats.retries``.
    A solve that succeeds on attempt 0 is untouched by the ladder.
    """
    compiled = circuit if isinstance(circuit, CompiledCircuit) else circuit.compile()
    with SolveContext.for_analysis(compiled, stats=stats) as context:
        x = dc_solution(context, initial_guess=initial_guess, time=time,
                        options=options, retry=retry)
    return operating_point_from_vector(compiled, x,
                                       compiled.known_voltages(time))


@traced("spice.dc_sweep")
def dc_sweep(circuit: Circuit, source: str | Sequence[str],
             values: Sequence[float] | np.ndarray,
             *, record: Optional[Iterable[str]] = None,
             options: Optional[NewtonOptions] = None) -> SweepResult:
    """Sweep one or more voltage sources together over ``values``.

    Passing several source names drives them in lockstep -- this is how
    VTCs "when k inputs switch together" (paper Figure 2-1) are
    extracted.  ``record`` selects which nodes to keep (default: every
    node).  Each point warm-starts from the previous solution, which
    tracks the steep transition region of a VTC reliably.

    The circuit compiles once per sweep: the swept sources become
    constants, and each point rebinds their level on the compiled
    circuit (:meth:`~repro.spice.netlist.CompiledCircuit.set_source_level`).
    Every point solves exactly as a freshly compiled circuit would.
    """
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ConvergenceError("dc_sweep requires a 1-D grid of at least 2 points")
    source_names = [source] if isinstance(source, str) else list(source)
    if not source_names:
        raise ConvergenceError("dc_sweep requires at least one source name")
    nodes = [circuit.source_node(name) for name in source_names]

    opts = options or NewtonOptions()
    recorded = list(record) if record is not None else None
    samples: Dict[str, list[float]] = {}
    guess: Optional[Dict[str, float]] = None
    originals = {name: circuit._vsources[name] for name in source_names}
    try:
        for name in source_names:
            circuit.replace_vsource(name, float(grid[0]))
        compiled = circuit.compile()
        # One context for the whole sweep: one recorder handle (per-point
        # solves skip the environment-signature check), one backend
        # decision, one telemetry fold.
        with SolveContext.for_analysis(compiled) as context:
            for value in grid:
                for name in source_names:
                    compiled.set_source_level(name, float(value))
                x = dc_solution(context, initial_guess=guess, options=opts)
                op = operating_point_from_vector(
                    compiled, x, compiled.known_voltages(0.0))
                guess = {name: op[name] for name in compiled.unknown_names}
                names = recorded if recorded is not None else list(op.voltages)
                for name in names:
                    samples.setdefault(name, []).append(op.voltages[name])
    finally:
        for name, original in originals.items():
            circuit._vsources[name] = original
    for node in nodes:
        samples.setdefault(node, list(grid))
    return SweepResult(
        sweep_source=",".join(source_names),
        sweep_values=grid,
        voltages={name: np.asarray(vals) for name, vals in samples.items()},
    )
