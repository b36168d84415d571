"""Dual-input macromodel characterization (paper eq. 3.11 / 3.12).

The sweep grid is rectangular **in the normalized coordinates** of the
macromodel: for each reference transition time ``tau_ref`` the
single-input delay ``Delta1(tau_ref)`` is measured first, then the other
input's transition time and the separation are chosen as multiples of
``Delta1``.  Each grid point is one two-input transient simulation; the
measured ``Delta2/Delta1`` and ``tau2/tau1`` ratios fill the two tables
of a :class:`~repro.models.dual.TableDualInputModel`.

The separation axis is chosen to bracket the proximity window: ratios
saturate at 1 for ``s > Delta1`` (delay window) and the model clamps
beyond the grid, so the default axis spans ``[-3, +1.5]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import CharacterizationError
from ..gates import Gate
from ..models.dual import TableDualInputModel
from ..obs import get_recorder
from ..parallel import parallel_map
from ..resilience.health import neighbor_fill
from ..waveform import Edge, Thresholds, normalize_direction
from .cache import CharacterizationCache, default_cache
from .simulate import multi_input_response
from .sweep import GridSweep

__all__ = ["DualInputGrid", "characterize_dual_input"]


@dataclass(frozen=True)
class DualInputGrid:
    """Sweep grid for dual-input characterization.

    ``tau_refs`` are physical reference transition times; ``a2`` and
    ``a3`` are the normalized other-input transition time
    (``tau_other/Delta1``) and separation (``sep/Delta1``) axes.
    """

    tau_refs: Tuple[float, ...] = tuple(
        float(t) for t in np.geomspace(50e-12, 2000e-12, 5)
    )
    a2: Tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
    a3: Tuple[float, ...] = (-3.0, -2.0, -1.0, -0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5)

    def __post_init__(self) -> None:
        if len(self.tau_refs) < 2 or any(t <= 0 for t in self.tau_refs):
            raise CharacterizationError("tau_refs must be >= 2 positive values")
        if len(self.a2) < 2 or any(a <= 0 for a in self.a2):
            raise CharacterizationError("a2 axis must be >= 2 positive values")
        if len(self.a3) < 2:
            raise CharacterizationError("a3 axis must have >= 2 values")
        for name in ("tau_refs", "a2", "a3"):
            axis = np.asarray(getattr(self, name))
            if np.any(np.diff(axis) <= 0):
                raise CharacterizationError(f"{name} must be strictly increasing")

    @classmethod
    def fast(cls) -> "DualInputGrid":
        """A coarse grid for tests and quick demos."""
        return cls(
            tau_refs=(100e-12, 500e-12, 2000e-12),
            a2=(0.5, 1.5, 5.0),
            a3=(-2.0, -1.0, 0.0, 0.5, 1.0),
        )

    def key(self) -> dict:
        return {"tau_refs": list(self.tau_refs), "a2": list(self.a2),
                "a3": list(self.a3)}

    @property
    def n_points(self) -> int:
        return len(self.tau_refs) * len(self.a2) * len(self.a3)


def _single_ref_task(task) -> Tuple[float, float]:
    """Worker: the single-input response for one reference tau."""
    gate, reference, direction, tau_ref, thresholds = task
    edge = Edge(direction, 0.0, tau_ref)
    single = multi_input_response(gate, {reference: edge}, thresholds,
                                  reference=reference)
    return single.delay, single.out_ttime


def characterize_dual_input(
    gate: Gate, reference: str, other: str, direction: str,
    thresholds: Thresholds, *,
    grid: Optional[DualInputGrid] = None,
    cache: Optional[CharacterizationCache] = None,
    workers: Optional[int] = None,
    batch: Optional[int] = None,
) -> TableDualInputModel:
    """Build the dual-input proximity table for an ordered input pair.

    ``reference`` must differ from ``other``; both must be gate inputs.
    The table's first axis is ``tau_ref/Delta1(tau_ref)``, which is
    strictly increasing in ``tau_ref`` for CMOS gates (delay grows
    sublinearly with input slew); a violation raises, as it would break
    interpolation.

    ``workers`` fans the grid's independent transients over a process
    pool (see :mod:`repro.parallel`); grid points are merged back in
    sweep order, so the resulting table is bit-identical to a serial
    run.  ``batch`` (default: ``REPRO_BATCH``, else one point per task)
    sets how many grid points one pooled task carries; results are
    identical for any batch size, and the cache key is deliberately
    batch-blind.

    A grid point whose transient fails (convergence loss past the retry
    ladder, crashed worker, task timeout) becomes a NaN cell: the loss
    is recorded in the payload's ``failed_points`` and the model's
    :class:`HealthReport` (``model.health``), and the interpolation
    tables are repaired by :func:`neighbor_fill` before the model is
    built -- surviving cells are untouched.  Completed points are
    journaled, so ``--resume`` (``REPRO_RESUME=1``) recomputes only the
    missing ones.  (The per-``tau_ref`` single-input stage still fails
    hard: it defines the grid's normalization, so nothing downstream is
    meaningful without it.)
    """
    direction = normalize_direction(direction)
    if reference == other:
        raise CharacterizationError("reference and other input must differ")
    for name in (reference, other):
        if name not in gate.inputs:
            raise CharacterizationError(f"{name!r} is not an input of {gate.name!r}")
    grid = grid or DualInputGrid()
    cache = cache or default_cache()
    key = {
        **gate.cache_key(),
        "reference": reference,
        "other": other,
        "direction": direction,
        "vil": thresholds.vil,
        "vih": thresholds.vih,
        **grid.key(),
    }

    sweep = GridSweep("dual", gate, f"{reference}->{other}/{direction}",
                      thresholds, key, cache)

    def compute() -> dict:
        # Stage 1: the per-tau_ref single-input responses (the grid's
        # normalization constants), themselves independent transients.
        singles = parallel_map(
            _single_ref_task,
            [(gate, reference, direction, tau_ref, thresholds)
             for tau_ref in grid.tau_refs],
            workers=workers,
        )
        a1_axis = []
        for tau_ref, (delta1, tau1) in zip(grid.tau_refs, singles):
            if delta1 <= 0 or tau1 <= 0:
                raise CharacterizationError(
                    f"non-positive single-input response at tau={tau_ref:g}s "
                    f"(delay={delta1:g}, ttime={tau1:g})"
                )
            a1_axis.append(tau_ref / delta1)

        # Stage 2: every grid point is one independent two-input
        # transient; fan out and merge back in sweep order.
        points = []
        coords = []
        for tau_ref, (delta1, _tau1) in zip(grid.tau_refs, singles):
            for a2 in grid.a2:
                for a3 in grid.a3:
                    points.append(({
                        reference: Edge(direction, 0.0, tau_ref),
                        other: Edge(direction, a3 * delta1, a2 * delta1),
                    }, reference, None, 1.0))
                    coords.append({"tau_ref": tau_ref, "a2": a2, "a3": a3})
        shots, failed = sweep.run(points, coords, workers=workers, batch=batch)

        delay_table = np.empty((len(grid.tau_refs), len(grid.a2), len(grid.a3)))
        ttime_table = np.empty_like(delay_table)
        flat = iter(shots)
        for i, (delta1, tau1) in enumerate(singles):
            for j in range(len(grid.a2)):
                for k in range(len(grid.a3)):
                    delay, ttime = next(flat)
                    delay_table[i, j, k] = delay / delta1
                    ttime_table[i, j, k] = ttime / tau1
        if np.any(np.diff(a1_axis) <= 0):
            raise CharacterizationError(
                "tau_ref/Delta1 axis is not increasing; widen the tau_refs "
                "spacing or check the single-input responses"
            )
        return {
            "a1": a1_axis,
            "a2": list(grid.a2),
            "a3": list(grid.a3),
            "delay_table": delay_table.tolist(),
            "ttime_table": ttime_table.tolist(),
            "failed_points": failed,
        }

    payload = sweep.payload(compute)

    axes = (
        np.asarray(payload["a1"]),
        np.asarray(payload["a2"]),
        np.asarray(payload["a3"]),
    )
    delay_table = np.asarray(payload["delay_table"], dtype=float)
    ttime_table = np.asarray(payload["ttime_table"], dtype=float)
    delay_table, filled_d = neighbor_fill(delay_table)
    ttime_table, filled_t = neighbor_fill(ttime_table)
    if filled_d or filled_t:
        get_recorder().counter("charlib.cells.filled").inc(filled_d + filled_t)
    model = TableDualInputModel(
        reference, other, direction, axes, delay_table, ttime_table,
    )
    model.health = sweep.health(payload, grid.n_points,
                                filled=filled_d + filled_t)
    return model
