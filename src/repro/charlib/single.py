"""Single-input macromodel characterization (paper eq. 3.7 / 3.8).

For each (pin, direction) the sweep varies the input transition time and
the output load, measures delay and output transition time by
simulation, and stores the responses *normalized by tau* against the
dimensionless drive factor ``u = (C_L + C_par)/(K V_dd tau)``.

The paper's eq. 3.7 uses ``u = C_L/(K V_dd tau)``; that exact
one-argument collapse holds for the idealized device but breaks by tens
of percent once output parasitics (junction/overlap capacitance, which
do not scale with C_L) enter -- they add a second dimensionless group
``C_par/C_L``.  Characterization therefore *fits* an effective parasitic
capacitance ``C_par`` that minimizes the spread between the per-load
curves, restoring a single-argument model to a few percent over a 4x
load range.  With one swept load, ``C_par = 0`` (the model is exact at
the characterization load anyway).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..errors import CharacterizationError
from ..gates import Gate
from ..models.single import TableSingleInputModel
from ..waveform import RISE, Edge, Thresholds, normalize_direction
from .cache import CharacterizationCache, default_cache
from .sweep import GridSweep

__all__ = ["SingleInputGrid", "characterize_single_input", "drive_strength"]


@dataclass(frozen=True)
class SingleInputGrid:
    """Sweep grid for single-input characterization.

    ``taus`` are full-swing input transition times (seconds);
    ``load_factors`` multiply the gate's nominal load.  The defaults
    cover the paper's 50 ps - 2000 ps range with margin.
    """

    taus: Tuple[float, ...] = tuple(
        float(t) for t in np.geomspace(40e-12, 3000e-12, 8)
    )
    load_factors: Tuple[float, ...] = (0.5, 1.0, 2.0)

    def __post_init__(self) -> None:
        if not self.taus or any(t <= 0 for t in self.taus):
            raise CharacterizationError("taus must be positive and non-empty")
        if not self.load_factors or any(f <= 0 for f in self.load_factors):
            raise CharacterizationError("load_factors must be positive and non-empty")
        if len(self.taus) * len(self.load_factors) < 2:
            raise CharacterizationError(
                "taus x load_factors must be >= 2 (load factor, tau) points")

    @classmethod
    def fast(cls) -> "SingleInputGrid":
        """A small grid for tests and quick demos."""
        return cls(
            taus=tuple(float(t) for t in np.geomspace(50e-12, 2000e-12, 5)),
            load_factors=(1.0,),
        )

    def key(self) -> dict:
        return {"taus": list(self.taus), "load_factors": list(self.load_factors)}


def drive_strength(gate: Gate, input_name: str, direction: str) -> float:
    """The strength K of the network that drives the output for this edge.

    A rising input fires the pull-down (NMOS) network; a falling input
    fires the pull-up (PMOS) network.  This is the K in the drive factor
    ``u = C_L/(K V_dd tau)``.
    """
    if normalize_direction(direction) == RISE:
        return gate.strength_n(input_name)
    return gate.strength_p(input_name)


def characterize_single_input(
    gate: Gate, input_name: str, direction: str, thresholds: Thresholds, *,
    grid: Optional[SingleInputGrid] = None,
    cache: Optional[CharacterizationCache] = None,
    workers: Optional[int] = None,
    batch: Optional[int] = None,
) -> TableSingleInputModel:
    """Build the single-input macromodel table for one pin and direction.

    Results are cached on the full (process, gate, thresholds, grid)
    content key.  ``workers`` fans the independent (load, tau) sweep
    points over a process pool; samples merge back in sweep order, so
    the table is bit-identical to a serial run.  ``batch`` (default:
    ``REPRO_BATCH``, else one point per task) sets how many sweep
    points one pooled task carries; results are identical for any
    batch size, and the cache key is deliberately batch-blind.

    The sweep **degrades gracefully**: a point whose simulation fails
    (convergence loss past the retry ladder, a crashed worker, a task
    timeout) becomes a NaN sample that the table build drops, and the
    loss is recorded in the model's :class:`HealthReport`
    (``model.health``) and in the cached payload's ``failed_points``.
    Completed points are journaled as the sweep runs; under ``--resume``
    (``REPRO_RESUME=1``) an interrupted or degraded sweep recomputes
    only its missing points.
    """
    direction = normalize_direction(direction)
    if input_name not in gate.inputs:
        raise CharacterizationError(f"{input_name!r} is not an input of {gate.name!r}")
    grid = grid or SingleInputGrid()
    cache = cache or default_cache()
    key = {
        **gate.cache_key(),
        "input": input_name,
        "direction": direction,
        "vil": thresholds.vil,
        "vih": thresholds.vih,
        **grid.key(),
    }
    key["schema_single"] = 2  # c_par-fitted drive factor
    points = [(gate.load * factor, tau)
              for factor in grid.load_factors for tau in grid.taus]
    sweep = GridSweep("single", gate, f"{input_name}/{direction}",
                      thresholds, key, cache)

    def compute() -> dict:
        k_drive = drive_strength(gate, input_name, direction)
        shots, failed = sweep.run(
            [({input_name: Edge(direction, 0.0, tau)}, input_name, load, tau)
             for load, tau in points],
            [{"load": load, "tau": tau} for load, tau in points],
            workers=workers, batch=batch,
        )
        samples = [  # (load, tau, delay_norm, ttime_norm)
            (load, tau, delay_norm, ttime_norm)
            for (load, tau), (delay_norm, ttime_norm) in zip(points, shots)
        ]
        finite = [s for s in samples if np.isfinite(s[2])]
        c_par = _fit_effective_parasitic(
            finite, k_drive, gate.process.vdd,
        ) if len(grid.load_factors) > 1 else 0.0
        denominator = k_drive * gate.process.vdd
        return {
            "u": [(load + c_par) / (denominator * tau)
                  for load, tau, _, _ in samples],
            "delay_norm": [d for _, _, d, _ in samples],
            "ttime_norm": [t for _, _, _, t in samples],
            "k_drive": k_drive,
            "c_par": c_par,
            "failed_points": failed,
        }

    payload = sweep.payload(compute)

    u = np.asarray(payload["u"])
    d = np.asarray(payload["delay_norm"])
    t = np.asarray(payload["ttime_norm"])
    keep = np.isfinite(d) & np.isfinite(t)
    if keep.sum() < 2:
        lost = int(keep.size - keep.sum())
        raise CharacterizationError(
            f"single-input sweep for {gate.name!r} ({input_name}/{direction}) "
            f"has fewer than 2 surviving points: {lost} of {keep.size} lost"
            + ("; re-run with --resume" if lost else "")
        )
    u, d, t = _merge_duplicates(u[keep], d[keep], t[keep])
    model = TableSingleInputModel(
        input_name, direction, u, d, t,
        k_drive=float(payload["k_drive"]), vdd=gate.process.vdd,
        char_load=gate.load, c_par=float(payload.get("c_par", 0.0)),
    )
    model.health = sweep.health(payload, len(points))
    return model


def _fit_effective_parasitic(samples, k_drive: float, vdd: float) -> float:
    """Effective output parasitic minimizing the per-load curve spread.

    Scans c_par over [0, 3x the largest swept load]; the objective is
    the worst relative disagreement between per-load normalized-delay
    curves interpolated onto a common log-u grid.
    """
    loads = sorted({load for load, *_ in samples})
    if len(loads) < 2:
        return 0.0

    def spread(c_par: float) -> float:
        curves = []
        for load in loads:
            pts = sorted(
                (np.log((load + c_par) / (k_drive * vdd * tau)), d)
                for sample_load, tau, d, _ in samples
                if sample_load == load
            )
            x = np.array([p[0] for p in pts])
            y = np.array([p[1] for p in pts])
            curves.append((x, y))
        lo = max(c[0][0] for c in curves)
        hi = min(c[0][-1] for c in curves)
        if hi <= lo:
            return float("inf")
        grid_x = np.linspace(lo, hi, 25)
        values = np.array([np.interp(grid_x, x, y) for x, y in curves])
        return float(np.max(
            (values.max(axis=0) - values.min(axis=0))
            / np.maximum(values.mean(axis=0), 1e-12)
        ))

    candidates = np.linspace(0.0, 3.0 * loads[-1], 61)
    spreads = [spread(float(c)) for c in candidates]
    return float(candidates[int(np.argmin(spreads))])


def _merge_duplicates(u: np.ndarray, d: np.ndarray, t: np.ndarray,
                      rel_tol: float = 1e-6) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort by u and average samples whose u coincide (different
    (tau, load) pairs can land on the same drive factor)."""
    order = np.argsort(u)
    u, d, t = u[order], d[order], t[order]
    merged_u, merged_d, merged_t = [u[0]], [d[0]], [t[0]]
    counts = [1]
    for i in range(1, len(u)):
        if abs(u[i] - merged_u[-1]) <= rel_tol * merged_u[-1]:
            n = counts[-1]
            merged_d[-1] = (merged_d[-1] * n + d[i]) / (n + 1)
            merged_t[-1] = (merged_t[-1] * n + t[i]) / (n + 1)
            counts[-1] += 1
        else:
            merged_u.append(u[i])
            merged_d.append(d[i])
            merged_t.append(t[i])
            counts.append(1)
    return np.asarray(merged_u), np.asarray(merged_d), np.asarray(merged_t)
