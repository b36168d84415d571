"""Gate stimulus construction, transient runs and measurements.

These are the "lab bench" routines of the reproduction: they place PWL
edges on a gate's inputs with exact threshold-crossing times, run the
transient engine, and measure delay / output transition time / extremum
voltage under the paper's conventions.  Everything higher up
(characterization grids, the validation experiment, the oracle models)
funnels through :func:`single_input_response` and
:func:`multi_input_response`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ConvergenceError, MeasurementError
from ..gates import Gate
from ..spice import transient, transient_batch
from ..spice.transient import SettleRule
from ..units import parse_quantity
from ..waveform import (
    RISE,
    Edge,
    Pwl,
    Thresholds,
    gate_delay,
    transition_time,
)

__all__ = [
    "SingleShot",
    "MultiShot",
    "estimate_settle_time",
    "single_input_response",
    "multi_input_response",
    "multi_input_response_batch",
    "set_shot_router",
    "get_shot_router",
]

#: After the last input edge, a shot ends once its output is within this
#: fraction of Vdd (10 mV at 5 V) of the rail its transition ends on.
#: The thresholds sit far inside the rails, so no crossing is lost.
SETTLE_TOLERANCE = 0.002

#: The installed shot router (see :func:`set_shot_router`), or ``None``.
_SHOT_ROUTER = None


def set_shot_router(router):
    """Install ``router`` as the process-wide shot router; returns the
    previous one (``None`` clears).

    A router intercepts :func:`multi_input_response` calls: its
    ``route(gate, edges, thresholds, *, reference, load, max_retries,
    retry)`` method either returns the :class:`MultiShot` (or raises the
    exception the scalar path would have raised), or returns ``None`` to
    decline, in which case the call proceeds scalar as usual.  The serve
    daemon's coalescing broker uses this seam to gather concurrent
    requests into lanes of :func:`multi_input_response_batch` -- which
    is bit-identical per lane -- without the measurement call sites
    knowing.
    """
    global _SHOT_ROUTER
    previous = _SHOT_ROUTER
    _SHOT_ROUTER = router
    return previous


def get_shot_router():
    """The currently installed shot router, or ``None``."""
    return _SHOT_ROUTER


@dataclass(frozen=True)
class SingleShot:
    """Measured response to a single switching input."""

    input_name: str
    direction: str
    tau: float
    load: float
    delay: float
    out_ttime: float
    output: Pwl


@dataclass(frozen=True)
class MultiShot:
    """Measured response to multiple switching inputs.

    ``delay`` is measured from ``reference`` (the paper measures delay
    "relative to input x_i, the reference input").  ``vmin``/``vmax``
    record the output extrema after the first edge -- the Section-6
    glitch observables.  ``output`` ends where the output settled (see
    :func:`multi_input_response`), so ``vmin``/``vmax`` are within
    :data:`SETTLE_TOLERANCE` of Vdd of the full window's.
    """

    reference: str
    delay: float
    out_ttime: float
    output: Pwl
    vmin: float
    vmax: float


def estimate_settle_time(gate: Gate, load: float) -> float:
    """A generous upper bound on how long the output takes to finish.

    Uses the weakest saturated drive through either network:
    ``t = C_L * Vdd / I_min``, padded by an order of magnitude.  The
    transient window logic retries with doubled windows, so this only
    needs to be the right magnitude.  The padding costs nothing: a shot
    stops once its output has settled (:data:`SETTLE_TOLERANCE`), so
    the window only bounds how long an unsettled output is followed.
    """
    vdd = gate.process.vdd
    i_n = min(
        gate.process.nmos.strength(gate.nmos_width(x), gate.sizing.length)
        for x in gate.inputs
    ) * (vdd - gate.process.nmos.vt0) ** 2
    i_p = min(
        gate.process.pmos.strength(gate.pmos_width(x), gate.sizing.length)
        for x in gate.inputs
    ) * (vdd + gate.process.pmos.vt0) ** 2
    slew = load * vdd / min(i_n, i_p)
    return 10.0 * slew


def _edge_ramps(gate: Gate, edges: Mapping[str, Edge],
                thresholds: Thresholds) -> tuple[Dict[str, Pwl], float, float]:
    """Lower edges to ramps, shifting so every ramp starts after t=0.

    Returns ``(ramps, shift, last_ramp_end)`` where ``shift`` was added
    to every edge time (measurements are differences, so the shift
    cancels; callers that need absolute times subtract it).
    """
    margin = 50e-12
    starts = []
    for edge in edges.values():
        pwl = edge.to_pwl(thresholds)
        starts.append(pwl.t_start)
    shift = max(0.0, margin - min(starts)) if starts else 0.0
    ramps: Dict[str, Pwl] = {}
    last_end = 0.0
    for name, edge in edges.items():
        pwl = edge.shifted(shift).to_pwl(thresholds)
        ramps[name] = pwl
        last_end = max(last_end, pwl.t_end)
    return ramps, shift, last_end


@dataclass
class _ShotPlan:
    """Everything one multi-input measurement needs, prepared up front.

    The scalar and batched drivers share this preparation so a batched
    run makes exactly the scalar run's decisions -- same circuit, same
    window schedule, same error text.  ``attempt`` is the window-doubling
    state the batched driver advances per lane; ``glitch_returns``
    (:func:`_glitch_returns`) gives a shot one window only.
    """

    edges: Mapping[str, Edge]
    ref: str
    ref_edge: Edge
    out_dir: str
    cl: float
    ramps: Dict[str, Pwl]
    shift: float
    last_end: float
    settle_time: float
    circuit: object
    settle_rule: Optional[SettleRule]
    glitch_returns: bool
    attempt: int = 0

    def t_stop(self) -> float:
        return self.last_end + self.settle_time * (2.0 ** self.attempt)


def _glitch_returns(gate: Gate, edges: Mapping[str, Edge], out_dir: str) -> bool:
    """Whether the final input levels (edge directions plus the
    sensitizing levels) hold the output at the other rail from the one
    ``out_dir`` ends on: a glitch that returns."""
    final = gate.sensitizing_levels(list(edges))
    final.update({name: edge.is_rising for name, edge in edges.items()})
    return gate.logic_output(final) != (out_dir == RISE)


def _settle_rule(gate: Gate, edges: Mapping[str, Edge],
                 out_dir: str) -> Optional[SettleRule]:
    """The transient's early stop: the output near the rail ``out_dir``
    ends on.

    ``None`` for a glitch that returns (:func:`_glitch_returns`): the
    output could touch the measured rail and leave it again.
    """
    if _glitch_returns(gate, edges, out_dir):
        return None
    vdd = gate.process.vdd
    rising = out_dir == RISE
    return gate.output, (vdd if rising else 0.0), SETTLE_TOLERANCE * vdd


def _prepare_shot(gate: Gate, edges: Mapping[str, Edge],
                  thresholds: Thresholds,
                  reference: Optional[str],
                  load: Optional[float | str]) -> _ShotPlan:
    """Validate one measurement request and build its circuit."""
    if not edges:
        raise MeasurementError("multi_input_response needs at least one edge")
    for name in edges:
        if name not in gate.inputs:
            raise MeasurementError(f"{name!r} is not an input of {gate.name!r}")
    ref = reference or min(edges, key=lambda n: edges[n].t_cross)
    if ref not in edges:
        raise MeasurementError(f"reference {ref!r} has no edge")

    cl = gate.load if load is None else parse_quantity(load, unit="F")
    ramps, shift, last_end = _edge_ramps(gate, edges, thresholds)
    settle_time = estimate_settle_time(gate, cl) + max(e.tau for e in edges.values())

    ref_edge = edges[ref]
    out_dir = gate.output_direction(ref_edge.direction)
    circuit = gate.build(ramps, load=cl, switching=list(edges))
    return _ShotPlan(edges=edges, ref=ref, ref_edge=ref_edge, out_dir=out_dir,
                     cl=cl, ramps=ramps, shift=shift, last_end=last_end,
                     settle_time=settle_time, circuit=circuit,
                     settle_rule=_settle_rule(gate, edges, out_dir),
                     glitch_returns=_glitch_returns(gate, edges, out_dir))


def _enrich_convergence(gate: Gate, plan: _ShotPlan,
                        exc: ConvergenceError) -> ConvergenceError:
    """The scalar path's gate/edges-enriched convergence error."""
    edges_text = ", ".join(
        f"{name}:{edge.direction}@tau={edge.tau:g}s"
        for name, edge in plan.edges.items()
    )
    return ConvergenceError(
        f"simulation of {gate.name!r} ({edges_text}) failed: {exc}",
        iterations=exc.iterations, residual=exc.residual,
    )


def _measure_shot(gate: Gate, plan: _ShotPlan, result,
                  thresholds: Thresholds) -> Union[MultiShot, MeasurementError]:
    """Measure one transient result.

    An incomplete output transition comes back as the
    :class:`MeasurementError` itself (the window-doubling trigger);
    any other failure propagates, exactly as the scalar path's narrow
    ``try`` block behaves.
    """
    output = result.node(gate.output)
    try:
        delay = gate_delay(
            plan.ramps[plan.ref], plan.ref_edge.direction, output,
            plan.out_dir, thresholds,
        )
        ttime = transition_time(output, plan.out_dir, thresholds)
    except MeasurementError as exc:
        return exc
    first_start = min(p.t_start for p in plan.ramps.values())
    window = output.windowed(first_start, output.t_end)
    return MultiShot(
        reference=plan.ref,
        delay=delay,
        out_ttime=ttime,
        output=output.shifted(-plan.shift),
        vmin=window.min(),
        vmax=window.max(),
    )


def _exhausted_error(gate: Gate, plan: _ShotPlan, max_retries: int,
                     last_error: Optional[MeasurementError]) -> MeasurementError:
    return MeasurementError(
        f"output of {gate.name!r} never completed its {plan.out_dir} "
        f"transition within {max_retries} window doublings: {last_error}"
    )


def multi_input_response(gate: Gate, edges: Mapping[str, Edge],
                         thresholds: Thresholds, *,
                         reference: Optional[str] = None,
                         load: Optional[float | str] = None,
                         max_retries: int = 3,
                         retry=None) -> MultiShot:
    """Simulate the gate with the given edges and measure the response.

    All edges must share one direction (the proximity case); opposite
    directions are legal too (the Section-6 glitch case), in which case
    ``delay``/``out_ttime`` are measured for the *completed* output
    transition caused by the reference input and may raise
    :class:`~repro.errors.MeasurementError` if the output never completes
    it (that is precisely the inertial-delay phenomenon, and callers of
    the glitch experiment catch it).

    Undriven inputs sit at levels that sensitize the output to the driven
    set.  The transient window is sized from
    :func:`estimate_settle_time` and doubled on incomplete measurements,
    up to ``max_retries`` times -- except when the final input levels
    hold the output at the other rail from the one the measured
    transition ends on: once every input is flat no longer window can
    complete that transition, so the first incomplete window raises.
    The transient stops early, after the last input edge, once the
    output is within :data:`SETTLE_TOLERANCE` of Vdd of the rail its
    transition ends on, so the returned ``output`` waveform ends at
    that settle point.  Every step up to there is the full window's,
    and no threshold crossing comes later: delay and transition time
    are exactly the full window's.

    ``retry`` is forwarded to :func:`repro.spice.transient` as its
    solver retry ladder (see :class:`~repro.resilience.RetryPolicy`); a
    solve that exhausts the ladder re-raises its
    :class:`~repro.errors.ConvergenceError` enriched with which gate and
    edges were being measured, so a health report can name the point.
    """
    router = _SHOT_ROUTER
    if router is not None:
        routed = router.route(gate, edges, thresholds, reference=reference,
                              load=load, max_retries=max_retries, retry=retry)
        if routed is not None:
            return routed
    plan = _prepare_shot(gate, edges, thresholds, reference, load)
    last_error: Optional[MeasurementError] = None
    for attempt in range(max_retries):
        plan.attempt = attempt
        try:
            result = transient(plan.circuit, plan.t_stop(),
                               record=[gate.output], retry=retry,
                               settle=plan.settle_rule)
        except ConvergenceError as exc:
            raise _enrich_convergence(gate, plan, exc) from exc
        shot = _measure_shot(gate, plan, result, thresholds)
        if isinstance(shot, MeasurementError):
            last_error = shot
            if plan.glitch_returns:
                break
            continue
        return shot
    raise _exhausted_error(gate, plan, max_retries, last_error)


def single_input_response(gate: Gate, input_name: str, direction: str,
                          tau: float | str, thresholds: Thresholds, *,
                          load: Optional[float | str] = None,
                          retry=None) -> SingleShot:
    """Simulate one switching input (others sensitizing) and measure.

    The edge's threshold crossing is placed at a comfortable margin after
    t=0; the reported delay/transition time are position-independent.
    ``retry`` forwards the solver retry ladder, as in
    :func:`multi_input_response`.
    """
    tau_s = parse_quantity(tau, unit="s")
    edge = Edge(direction, t_cross=0.0, tau=tau_s)
    shot = multi_input_response(
        gate, {input_name: edge}, thresholds, reference=input_name, load=load,
        retry=retry,
    )
    cl = gate.load if load is None else parse_quantity(load, unit="F")
    return SingleShot(
        input_name=input_name,
        direction=edge.direction,
        tau=tau_s,
        load=cl,
        delay=shot.delay,
        out_ttime=shot.out_ttime,
        output=shot.output,
    )


#: One batched measurement request: (edges, reference, load) with the
#: same semantics as the :func:`multi_input_response` keyword arguments.
ShotRequest = Tuple[Mapping[str, Edge], Optional[str], Optional[float]]

#: What a batched driver hands back per request: the measured shot, or
#: the exception the scalar path would have raised for that request.
ShotOutcome = Union[MultiShot, ConvergenceError, MeasurementError]


def multi_input_response_batch(gate: Gate, requests: Sequence[ShotRequest],
                               thresholds: Thresholds, *,
                               max_retries: int = 3,
                               retry=None) -> List[ShotOutcome]:
    """Measure many independent edge configurations in one call.

    Each request runs the *same* per-point state machine as
    :func:`multi_input_response` -- circuit built once, transient window
    doubled up to ``max_retries`` times on incomplete measurements --
    and the transients of all still-pending requests go to one
    :func:`repro.spice.transient_batch` call, which runs each lane on
    the scalar engine.  Results are therefore bit-identical to calling
    :func:`multi_input_response` per request, for any batch size.

    Failures are isolated per request: instead of raising, the slot
    holds the exception the scalar call would have raised, carrying the
    same message (the health reports downstream record ``str(exc)``).
    """
    results: List[Optional[ShotOutcome]] = [None] * len(requests)
    plans: Dict[int, _ShotPlan] = {}
    errors: Dict[int, Optional[MeasurementError]] = {}
    for i, (edges, reference, load) in enumerate(requests):
        try:
            plans[i] = _prepare_shot(gate, edges, thresholds, reference, load)
            errors[i] = None
        except MeasurementError as exc:
            results[i] = exc

    pending = sorted(plans)
    while pending:
        outcomes = transient_batch(
            [plans[i].circuit for i in pending],
            [plans[i].t_stop() for i in pending],
            record=[gate.output], retry=retry,
            settle=[plans[i].settle_rule for i in pending],
        )
        retrying: List[int] = []
        for i, outcome in zip(pending, outcomes):
            plan = plans[i]
            if isinstance(outcome, ConvergenceError):
                error = _enrich_convergence(gate, plan, outcome)
                error.__cause__ = outcome
                results[i] = error
                continue
            shot = _measure_shot(gate, plan, outcome, thresholds)
            if isinstance(shot, MeasurementError):
                errors[i] = shot
                plan.attempt += 1
                if plan.attempt >= max_retries or plan.glitch_returns:
                    results[i] = _exhausted_error(
                        gate, plan, max_retries, errors[i])
                else:
                    retrying.append(i)
                continue
            results[i] = shot
        pending = retrying
    return results
