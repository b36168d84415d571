"""The grid-point sweep under both macromodel characterizations.

A single-input table (eq. 3.7 / 3.8) and a dual-input table (eq. 3.11 /
3.12) are both grids of independent transient shots.  :class:`GridSweep`
runs such a grid for either: every point is one
:func:`~repro.charlib.simulate.multi_input_response` shot in
:func:`_point_task`, fanned out by the journaled
:func:`~repro.resilience.runtime.resilient_map` with ``batch`` points per
pooled task.  A point whose shot fails (convergence loss past the retry
ladder, a crashed worker, a task timeout) becomes a NaN cell and a
``failed_points`` record in the cached payload, which the model's
:class:`~repro.resilience.health.HealthReport` reads back.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import monotonic
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import CharacterizationError
from ..gates import Gate
from ..obs import get_recorder
from ..parallel import resolve_batch
from ..resilience import faults
from ..resilience.health import FailedPoint, HealthReport
from ..resilience.runtime import resilient_map, resolve_resume
from ..waveform import Edge, Thresholds
from .cache import CharacterizationCache
from .simulate import multi_input_response

__all__ = ["GridSweep", "GridPoint"]

#: One grid point: ``(edges, reference, load, scale)``.  ``load`` of
#: ``None`` means the gate's own load.  The shot's delay and transition
#: time are divided by ``scale``: single-input sweeps pass the input's
#: tau, because their journals hold tau-normalized samples; dual-input
#: sweeps pass 1.0, which leaves both values exact.
GridPoint = Tuple[Mapping[str, Edge], str, Optional[float], float]


def _point_task(task) -> Tuple[float, float]:
    """Worker: one grid point's shot, as ``(delay, out_ttime) / scale``."""
    kind, index, gate, thresholds, (edges, reference, load, scale) = task
    faults.fire_point(kind, index)
    recorder = get_recorder()
    start = monotonic()
    with recorder.span("charlib.point", scope=kind, index=index):
        shot = multi_input_response(gate, edges, thresholds,
                                    reference=reference, load=load)
    if recorder.enabled:
        recorder.histogram("charlib.point_seconds",
                           scope=kind).observe(monotonic() - start)
    return shot.delay / scale, shot.out_ttime / scale


@dataclass(frozen=True)
class GridSweep:
    """One characterization grid of a gate and where its results live.

    ``kind`` (``"single"`` or ``"dual"``) names the cache entry, the
    progress journal and the fault-injection scope of its points;
    ``pins`` describes the swept inputs (``a/fall``, ``a->b/fall``);
    ``key`` is the content key of the cache entry and the journal.
    """

    kind: str
    gate: Gate
    pins: str
    thresholds: Thresholds
    key: Dict[str, Any]
    cache: CharacterizationCache

    def payload(self, compute: Callable[[], dict]) -> dict:
        """The cached payload, computed and stored on a miss.

        A degraded cached sweep under ``--resume`` (``REPRO_RESUME=1``)
        is computed again -- the journal still holds every completed
        point, so only the failed ones run -- and the repaired payload
        replaces the cache entry.
        """
        payload = self.cache.get_or_compute(self.kind, self.key, compute)
        if payload.get("failed_points") and resolve_resume():
            payload = compute()
            self.cache.store(self.kind, self.key, payload)
        return payload

    def run(self, points: Sequence[GridPoint], coords: Sequence[dict], *,
            workers: Optional[int], batch: Optional[int],
            ) -> Tuple[List[Tuple[float, float]], List[dict]]:
        """Measure every point; returns ``(values, failed_points)``.

        ``values`` holds one ``(delay, out_ttime) / scale`` pair per
        point in sweep order, ``(nan, nan)`` where the point was lost;
        ``failed_points`` records each loss with its ``coords``.  Raises
        :class:`~repro.errors.CharacterizationError` when every point is
        lost.
        """
        tasks = [(self.kind, index, self.gate, self.thresholds, point)
                 for index, point in enumerate(points)]
        values, failures = resilient_map(
            _point_task, tasks,
            journal_kind=self.kind, journal_key=self.key,
            directory=self.cache.directory, workers=workers,
            chunksize=resolve_batch(batch), decode=tuple,
        )
        failed = []
        for failure in failures:
            values[failure.index] = (float("nan"), float("nan"))
            get_recorder().counter("charlib.points.failed",
                                   kind=failure.kind).inc()
            failed.append({
                "index": failure.index, "kind": failure.kind,
                "message": failure.message, "coords": coords[failure.index],
            })
        if len(failed) == len(tasks):
            raise CharacterizationError(
                f"{self.kind}-input sweep for {self.gate.name!r} "
                f"({self.pins}) lost all {len(tasks)} grid points"
            )
        return values, failed

    def health(self, payload: dict, total_points: int, *,
               filled: int = 0) -> HealthReport:
        """The health report of a sweep from its cached payload."""
        return HealthReport(
            label=f"{self.kind} {self.gate.name}:{self.pins}",
            total_points=total_points,
            failed=tuple(
                FailedPoint(index=int(f["index"]), kind=f["kind"],
                            message=f["message"], coords=dict(f["coords"]))
                for f in payload.get("failed_points", ())
            ),
            filled=filled,
        )
