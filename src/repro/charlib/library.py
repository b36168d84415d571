"""The :class:`GateLibrary`: a fully characterized gate.

A library bundles, for one gate:

* the Section-2 measurement :class:`~repro.waveform.Thresholds`
  (min V_il / max V_ih over the cached VTC family),
* a single-input macromodel per (pin, direction),
* a dual-input macromodel per ordered pin pair and direction.

Two modes mirror the paper:

* ``mode="table"`` -- models are interpolation tables built by
  simulation sweeps (the deployable form; 2n + 2n models as the paper's
  Figure 4-2 storage analysis counts them, or all ordered pairs when
  ``pairs="all"``).
* ``mode="oracle"`` -- models answer queries with memoized simulations,
  reproducing the paper's Section-5 methodology ("we used HSPICE as the
  macromodel for processing the dual-input case").

Table libraries serialize to JSON with :meth:`GateLibrary.save` /
:meth:`GateLibrary.load`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import CharacterizationError, ModelError
from ..gates import Gate
from ..obs import degradation_summary, get_recorder
from ..models import (
    DualInputModel,
    SimulatorDualInputModel,
    SimulatorSingleInputModel,
    SingleInputModel,
    TableDualInputModel,
    TableSingleInputModel,
)
from ..resilience import HealthReport
from ..vtc import select_thresholds, vtc_family
from ..vtc.thresholds import VtcCurve, analyze_vtc
from ..waveform import FALL, RISE, Thresholds, normalize_direction
from .cache import CharacterizationCache, default_cache
from .dual import DualInputGrid, characterize_dual_input
from .single import SingleInputGrid, characterize_single_input

__all__ = ["GateLibrary", "cached_thresholds", "cached_vtc_family"]


def cached_vtc_family(gate: Gate, *, cache: Optional[CharacterizationCache] = None,
                      coarse_points: int = 41, dense_points: int = 161) -> List[VtcCurve]:
    """The gate's VTC family, via the characterization cache."""
    cache = cache or default_cache()
    key = {**gate.cache_key(), "coarse": coarse_points, "dense": dense_points}

    def compute() -> dict:
        family = vtc_family(gate, coarse_points=coarse_points,
                            dense_points=dense_points)
        return {
            "curves": [
                {
                    "switching": list(curve.switching),
                    "vin": curve.vin.tolist(),
                    "vout": curve.vout.tolist(),
                }
                for curve in family
            ]
        }

    payload = cache.get_or_compute("vtc", key, compute)
    return [
        analyze_vtc(entry["vin"], entry["vout"], entry["switching"])
        for entry in payload["curves"]
    ]


def cached_thresholds(gate: Gate, *,
                      cache: Optional[CharacterizationCache] = None) -> Thresholds:
    """Section-2 thresholds from the cached VTC family."""
    family = cached_vtc_family(gate, cache=cache)
    return select_thresholds(family, gate.process.vdd)


class GateLibrary:
    """A characterized gate, ready for the Section-4 algorithm."""

    def __init__(self, gate: Gate, thresholds: Thresholds,
                 singles: Dict[Tuple[str, str], SingleInputModel],
                 duals: Dict[Tuple[str, str, str], DualInputModel],
                 *, mode: str = "table") -> None:
        if mode not in ("table", "oracle"):
            raise CharacterizationError(f"unknown library mode {mode!r}")
        self.gate = gate
        self.thresholds = thresholds
        self._singles = dict(singles)
        self._duals = dict(duals)
        self.mode = mode

    # ------------------------------------------------------------------
    # Model lookup
    # ------------------------------------------------------------------
    def single(self, input_name: str, direction: str) -> SingleInputModel:
        direction = normalize_direction(direction)
        try:
            return self._singles[(input_name, direction)]
        except KeyError:
            raise ModelError(
                f"library for {self.gate.name!r} has no single-input model "
                f"for ({input_name!r}, {direction!r})"
            ) from None

    def dual(self, reference: str, other: str, direction: str) -> DualInputModel:
        """Dual-input model for an ordered pair, with sharing fallbacks.

        Exact pair first; then any model with the same reference pin
        (the paper's observation that n dual models suffice -- models
        are shared across the 'other' pin); then any model for the
        direction.
        """
        direction = normalize_direction(direction)
        model = self._duals.get((reference, other, direction))
        if model is not None:
            return model
        for (ref, _other, direc), candidate in self._duals.items():
            if ref == reference and direc == direction:
                return candidate
        for (_ref, _other, direc), candidate in self._duals.items():
            if direc == direction:
                return candidate
        raise ModelError(
            f"library for {self.gate.name!r} has no dual-input model for "
            f"direction {direction!r}"
        )

    @property
    def single_keys(self) -> List[Tuple[str, str]]:
        return sorted(self._singles)

    @property
    def dual_keys(self) -> List[Tuple[str, str, str]]:
        return sorted(self._duals)

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def health_reports(self) -> List[HealthReport]:
        """The per-sweep :class:`~repro.resilience.HealthReport` s.

        One report per table-backed model that carries one (degraded or
        clean); oracle models and models loaded from pre-resilience
        payloads contribute nothing.
        """
        reports = []
        for key in self.single_keys:
            model = self._singles[key]
            if getattr(model, "health", None) is not None:
                reports.append(model.health)
        for key in self.dual_keys:
            model = self._duals[key]
            if getattr(model, "health", None) is not None:
                reports.append(model.health)
        return reports

    @property
    def healthy(self) -> bool:
        """True when no characterization sweep lost a grid point."""
        return all(report.ok for report in self.health_reports())

    def health_summary(self) -> str:
        """A printable summary of every sweep's outcome (CLI uses this).

        With telemetry enabled, a registry-derived accounting line
        (solver retries, per-kind fault counts, neighbor-filled cells)
        is appended -- the same totals the run manifest reports, so
        degradation shows up in one place.
        """
        summary = HealthReport.summarize(self.health_reports())
        extra = degradation_summary()
        return f"{summary}\n{extra}" if extra else summary

    # ------------------------------------------------------------------
    # Characterization
    # ------------------------------------------------------------------
    @classmethod
    def characterize(
        cls, gate: Gate, *,
        mode: str = "table",
        directions: Sequence[str] = (RISE, FALL),
        single_grid: Optional[SingleInputGrid] = None,
        dual_grid: Optional[DualInputGrid] = None,
        pairs: str | Iterable[Tuple[str, str]] = "reference",
        thresholds: Optional[Thresholds] = None,
        cache: Optional[CharacterizationCache] = None,
        workers: Optional[int] = None,
        batch: Optional[int] = None,
    ) -> "GateLibrary":
        """Characterize ``gate`` into a ready-to-use library.

        ``pairs`` selects which ordered pin pairs get dual models in
        table mode: ``"all"`` (n^2 - n models -- the paper's Figure 4-2
        matrix), ``"reference"`` (n models, one per reference pin paired
        with a neighbour -- the paper's practical choice), or an explicit
        iterable of ``(reference, other)`` tuples.  Oracle mode always
        covers all pairs (simulator models are free).

        ``workers`` parallelizes the table-mode characterization sweeps
        over a process pool (default: serial; see :mod:`repro.parallel`).
        ``batch`` sets how many sweep points one pooled task carries
        (default: ``REPRO_BATCH``, else one).  Tables are deterministic
        regardless of the worker count or batch size.
        """
        with get_recorder().span("charlib.characterize", gate=gate.name,
                                 mode=mode):
            return cls._characterize(
                gate, mode=mode, directions=directions,
                single_grid=single_grid, dual_grid=dual_grid, pairs=pairs,
                thresholds=thresholds, cache=cache, workers=workers,
                batch=batch,
            )

    @classmethod
    def _characterize(
        cls, gate: Gate, *, mode, directions, single_grid, dual_grid,
        pairs, thresholds, cache, workers, batch,
    ) -> "GateLibrary":
        cache = cache or default_cache()
        thr = thresholds or cached_thresholds(gate, cache=cache)
        dirs = [normalize_direction(d) for d in directions]
        inputs = gate.inputs

        singles: Dict[Tuple[str, str], SingleInputModel] = {}
        duals: Dict[Tuple[str, str, str], DualInputModel] = {}
        if mode == "oracle":
            for name in inputs:
                for direction in dirs:
                    singles[(name, direction)] = SimulatorSingleInputModel(
                        gate, name, direction, thr,
                    )
            for ref in inputs:
                for other in inputs:
                    if ref == other:
                        continue
                    for direction in dirs:
                        duals[(ref, other, direction)] = SimulatorDualInputModel(
                            gate, ref, other, direction, thr,
                        )
            return cls(gate, thr, singles, duals, mode="oracle")

        if mode != "table":
            raise CharacterizationError(f"unknown library mode {mode!r}")
        for name in inputs:
            for direction in dirs:
                singles[(name, direction)] = characterize_single_input(
                    gate, name, direction, thr, grid=single_grid, cache=cache,
                    workers=workers, batch=batch,
                )
        for ref, other in cls._select_pairs(inputs, pairs):
            for direction in dirs:
                duals[(ref, other, direction)] = characterize_dual_input(
                    gate, ref, other, direction, thr,
                    grid=dual_grid, cache=cache, workers=workers, batch=batch,
                )
        return cls(gate, thr, singles, duals, mode="table")

    @staticmethod
    def _select_pairs(inputs: Tuple[str, ...],
                      pairs: str | Iterable[Tuple[str, str]]) -> List[Tuple[str, str]]:
        if len(inputs) < 2:
            return []
        if pairs == "all":
            return [(r, o) for r in inputs for o in inputs if r != o]
        if pairs == "reference":
            # One model per reference pin, paired with its nearest
            # neighbour in declaration (stack) order.
            out = []
            for idx, ref in enumerate(inputs):
                other = inputs[idx + 1] if idx + 1 < len(inputs) else inputs[idx - 1]
                out.append((ref, other))
            return out
        explicit = list(pairs)  # type: ignore[arg-type]
        for ref, other in explicit:
            if ref == other or ref not in inputs or other not in inputs:
                raise CharacterizationError(f"invalid dual pair ({ref!r}, {other!r})")
        return explicit

    # ------------------------------------------------------------------
    # Serialization (table mode only)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """A table-mode library as a plain-JSON payload.

        The same document :meth:`save` writes (and :meth:`load` reads);
        the serve daemon returns it directly from ``/characterize``
        without touching the filesystem.
        """
        if self.mode != "table":
            raise CharacterizationError("only table-mode libraries are serializable")
        return {
            "gate": self.gate.cache_key(),
            "thresholds": {
                "vil": self.thresholds.vil,
                "vih": self.thresholds.vih,
                "vdd": self.thresholds.vdd,
                "vm": self.thresholds.vm,
            },
            "singles": [m.to_payload() for m in self._singles.values()],
            "duals": [m.to_payload() for m in self._duals.values()],
        }

    def save(self, path: str | Path) -> None:
        """Write a table-mode library to a JSON file."""
        with open(path, "w") as handle:
            json.dump(self.to_payload(), handle)

    @classmethod
    def load(cls, path: str | Path, gate: Gate) -> "GateLibrary":
        """Load a table-mode library saved by :meth:`save`.

        The caller supplies the (re-built) :class:`~repro.gates.Gate`;
        a topology mismatch against the stored key raises.
        """
        with open(path) as handle:
            payload = json.load(handle)
        stored = payload["gate"]
        current = gate.cache_key()
        if stored.get("topology") != current.get("topology"):
            raise CharacterizationError(
                f"library file was characterized for topology "
                f"{stored.get('topology')!r}, not {current.get('topology')!r}"
            )
        thr = Thresholds(**payload["thresholds"])
        singles = {}
        for entry in payload["singles"]:
            model = TableSingleInputModel.from_payload(entry)
            singles[(model.input_name, model.direction)] = model
        duals = {}
        for entry in payload["duals"]:
            model = TableDualInputModel.from_payload(entry)
            duals[(model.reference, model.other, model.direction)] = model
        return cls(gate, thr, singles, duals, mode="table")
