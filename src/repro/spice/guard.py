"""Solver guardrails: escalation accounting.

The Newton core recovers from hard operating points through a fixed
escalation ladder, each rung owned by the layer that can retry most
cheaply:

1. **diagonal nudge** -- a singular factorization retries once with
   :func:`~repro.spice.engine.singular_nudge` added to the diagonal
   (the kernel, dense and sparse paths share the arithmetic),
2. **gmin ramp** -- DC homotopy relaxing a large leak conductance decade
   by decade (``spice/dc.py``),
3. **source stepping** -- DC homotopy ramping the sources from zero
   (``spice/dc.py``),
4. **timestep cut** -- the transient integrator shrinks ``h`` and falls
   back to backward Euler (``spice/transient.py``).

Convergence itself comes from the Newton tolerances, the iteration cap
and the :class:`~repro.resilience.RetryPolicy` ladder above these rungs.
This module is the ladder's single accounting point: every engagement is
counted in ``spice.guard.rung{rung=...}`` (always on when telemetry
records, batch-size and worker-count invariant because the count happens
inside the shared plan/solver code), so a run can name exactly how hard
the solver had to fight.
"""

from __future__ import annotations

from ..obs import get_recorder

__all__ = ["record_rung"]


def record_rung(rung: str, recorder=None) -> None:
    """Count one engagement of an escalation-ladder rung.

    Always-on telemetry (gated only on the recorder): the rung counters
    are how a degraded run explains itself.  Counted where the
    escalation happens -- inside the shared plan/solver code -- which
    makes the totals identical across worker counts and batch sizes.
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
