"""Phase-attributed solver timing: where does a Newton solve spend time?

The solver stack has exactly four cost centers, and the scaling story
of each driver hangs on their ratio:

* ``assembly``    -- device evaluation + residual/Jacobian scatter,
* ``factorize``   -- LU/SuperLU factorization (the dense LAPACK
  ``gesv`` call fuses factorization and back-substitution, so the
  dense scalar loop's whole linear solve is attributed here),
* ``back_solve``  -- triangular back-substitution (split out on the
  sparse backend and in the LU-reusing fast-Newton mode),
* ``guard``       -- the opt-in guard monitors: per-iteration checks
  plus condition estimates (zero with ``REPRO_GUARD`` unset).

:class:`PhaseProfiler` records the per-solve phase seconds into
labelled histograms ``spice.phase.seconds{driver=...,phase=...}`` with
``driver`` one of ``dense | sparse``.  The accumulator object
(:class:`PhaseTimes`) is a plain slotted float bag and the timing
source is ``time.monotonic()``, so an instrumented iteration pays a
handful of clock reads -- cheap enough that the live-telemetry bench
(``benchmarks/bench_obs_live.py``) holds the whole telemetry plane,
profiling included, under its 5% budget.  With telemetry disabled no
profiler exists and the hot loops skip every timing site.

The histograms feed three consumers: the flight recorder
(:mod:`repro.obs.flight`) attaches the failing solve's phase split to
its postmortem record, ``BENCH_*.json`` records carry per-driver phase
sums for ``repro stats --trend`` regression attribution, and
``repro top`` renders the live phase breakdown.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

__all__ = ["PHASES", "PHASE_METRIC", "PHASE_EDGES", "PhaseTimes",
           "PhaseProfiler", "phase_breakdown"]

#: The four phase labels, in reporting order.
PHASES: Tuple[str, ...] = ("assembly", "factorize", "back_solve", "guard")

#: The histogram family phase seconds are recorded under.
PHASE_METRIC = "spice.phase.seconds"

#: Bucket edges (seconds) for the phase histograms: per-solve phase
#: costs run from microseconds (an 8-node assembly) to tens of
#: milliseconds (a 10k-unknown factorization).
PHASE_EDGES: Tuple[float, ...] = (
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1,
)


class PhaseTimes:
    """Per-solve phase-second accumulator.

    A plain slotted float bag: the hot loops add elapsed seconds to the
    named attribute directly (``times.assembly += dt``), no dict or
    method-call overhead per timing site.
    """

    __slots__ = PHASES

    def __init__(self) -> None:
        self.assembly = 0.0
        self.factorize = 0.0
        self.back_solve = 0.0
        self.guard = 0.0

    def as_dict(self) -> Dict[str, float]:
        """The non-zero phases, for flight-recorder records."""
        return {phase: value for phase in PHASES
                if (value := getattr(self, phase)) > 0.0}

    @property
    def total(self) -> float:
        return (self.assembly + self.factorize + self.back_solve
                + self.guard)


class PhaseProfiler:
    """Records :class:`PhaseTimes` into per-driver labelled histograms.

    One profiler per analysis (bound into the analysis's solver by
    :meth:`~repro.spice.engine.SolveContext.bind`); histogram handles are
    resolved once per ``(driver, phase)`` and cached, so finishing a
    solve costs four cached-dict lookups and at most four
    ``Histogram.observe`` calls -- no registry lock traffic on the
    steady state.
    """

    __slots__ = ("_recorder", "_hists")

    def __init__(self, recorder) -> None:
        self._recorder = recorder
        self._hists: Dict[str, tuple] = {}

    @classmethod
    def from_recorder(cls, recorder) -> Optional["PhaseProfiler"]:
        """A profiler for ``recorder``, or ``None`` when disabled."""
        if recorder is None or not recorder.enabled:
            return None
        return cls(recorder)

    def begin(self) -> PhaseTimes:
        """A fresh accumulator for one solve."""
        return PhaseTimes()

    def _handles(self, driver: str) -> tuple:
        handles = self._hists.get(driver)
        if handles is None:
            handles = tuple(
                self._recorder.histogram(PHASE_METRIC, PHASE_EDGES,
                                         driver=driver, phase=phase)
                for phase in PHASES
            )
            self._hists[driver] = handles
        return handles

    def finish(self, driver: str, times: PhaseTimes) -> None:
        """Fold one accumulator into the ``driver``-labelled histograms."""
        handles = self._handles(driver)
        for idx, phase in enumerate(PHASES):
            value = getattr(times, phase)
            if value > 0.0:
                handles[idx].observe(value)


def phase_breakdown(histograms) -> Dict[str, Dict[str, float]]:
    """Per-driver phase sums from a metrics payload's histogram dict.

    Parses ``spice.phase.seconds{driver=...,phase=...}`` keys out of a
    payload (as written by snapshots/metrics reports) into
    ``{driver: {phase: seconds}}`` -- the shape ``repro top`` and the
    bench-trend attribution consume.  Unknown keys are ignored.
    """
    prefix = PHASE_METRIC + "{"
    out: Dict[str, Dict[str, float]] = {}
    for key, entry in histograms.items():
        if not key.startswith(prefix) or not key.endswith("}"):
            continue
        labels = {}
        for part in key[len(prefix):-1].split(","):
            name, _, value = part.partition("=")
            labels[name] = value
        driver = labels.get("driver")
        phase = labels.get("phase")
        if driver is None or phase is None:
            continue
        try:
            seconds = float(entry["sum"])
        except (KeyError, TypeError, ValueError):
            continue
        out.setdefault(driver, {})[phase] = seconds
    return out
