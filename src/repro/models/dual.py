"""Dual-input proximity macromodels (paper eq. 3.11 / 3.12).

The delay form is

    Delta^(2)/Delta^(1) = D^(2)( tau_i/Delta1, tau_j/Delta1, s_ij/Delta1 )

with *i* the dominant (reference) input; the transition-time form
returns ``tau^(2)/tau^(1)``.  The table backend stores rectangular grids
**in normalized coordinates** -- this is exactly the dimensional-analysis
collapse, and it is what lets a table built at the characterization load
serve other loads.

One deliberate deviation from the paper's notation: eq. 3.12 normalizes
the transition-time model's *arguments* by ``tau^(1)``; we normalize the
arguments of both tables by ``Delta^(1)`` (the returned ratio is still
``tau2/tau1``).  Any fixed time scale gives an equally valid
three-argument reduction, and sharing one coordinate system lets a
single simulation sweep fill both tables.  DESIGN.md records this.

The simulator backend plays the role HSPICE played in the paper's own
validation: it answers each query with a two-input transient simulation.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..errors import ModelError
from ..parallel import parallel_map
from ..waveform import Edge
from .base import DualInputModel
from .interp import ClampedTrilinear

__all__ = ["TableDualInputModel", "SimulatorDualInputModel"]


class TableDualInputModel(DualInputModel):
    """Trilinear interpolation over one normalized (a1, a2, a3) grid.

    ``axes`` are the ``tau_ref/Delta1``, ``tau_other/Delta1`` and
    ``sep/Delta1`` axis arrays shared by both tables; ``delay_table``
    holds ``Delta2/Delta1`` and ``ttime_table`` holds ``tau2/tau1``.
    """

    def __init__(self, reference: str, other: str, direction: str,
                 axes: Tuple[np.ndarray, np.ndarray, np.ndarray],
                 delay_table: np.ndarray, ttime_table: np.ndarray) -> None:
        self.reference = reference
        self.other = other
        self.direction = direction
        self.axes = tuple(np.asarray(a, dtype=float) for a in axes)
        self._delay_table = np.asarray(delay_table, dtype=float)
        self._ttime_table = np.asarray(ttime_table, dtype=float)
        if any(axis.size < 2 for axis in self.axes):
            raise ModelError("axes must have >= 2 points")
        self._delay_eval = ClampedTrilinear(self.axes, self._delay_table)
        self._ttime_eval = ClampedTrilinear(self.axes, self._ttime_table)

    def _point(self, tau_ref: float, tau_other: float, sep: float,
               delta1: float) -> Tuple[float, float, float]:
        if delta1 <= 0.0:
            raise ModelError(f"delta1 must be positive, got {delta1}")
        return tau_ref / delta1, tau_other / delta1, sep / delta1

    def delay_ratio(self, tau_ref: float, tau_other: float, sep: float, *,
                    delta1: float, load: Optional[float] = None) -> float:
        return self._delay_eval(*self._point(tau_ref, tau_other, sep, delta1))

    def ttime_ratio(self, tau_ref: float, tau_other: float, sep: float, *,
                    tau1: float, delta1: float,
                    load: Optional[float] = None) -> float:
        if tau1 <= 0.0:
            raise ModelError(f"tau1 must be positive, got {tau1}")
        return self._ttime_eval(*self._point(tau_ref, tau_other, sep, delta1))

    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        return {
            "reference": self.reference,
            "other": self.other,
            "direction": self.direction,
            "axes": [a.tolist() for a in self.axes],
            "delay_table": self._delay_table.tolist(),
            "ttime_table": self._ttime_table.tolist(),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "TableDualInputModel":
        return cls(
            payload["reference"], payload["other"], payload["direction"],
            tuple(np.asarray(a) for a in payload["axes"]),
            np.asarray(payload["delay_table"]),
            np.asarray(payload["ttime_table"]),
        )


def _oracle_query_task(task) -> Tuple[float, float]:
    """Worker: one memoizable oracle query as a two-input transient."""
    from ..charlib.simulate import multi_input_response

    gate, reference, other, direction, thresholds, tau_ref, tau_other, \
        sep, cl = task
    edges = {
        reference: Edge(direction, 0.0, tau_ref),
        other: Edge(direction, sep, tau_other),
    }
    shot = multi_input_response(
        gate, edges, thresholds, reference=reference, load=cl,
    )
    return shot.delay, shot.out_ttime


class SimulatorDualInputModel(DualInputModel):
    """Answers dual-input queries with two-input transient simulations.

    This reproduces the paper's Section-5 setup verbatim: "We used HSPICE
    as the macromodel for processing the dual-input case."  Queries are
    memoized on femtosecond-rounded arguments; :meth:`prefetch` fills
    the memo for a batch of queries in parallel.
    """

    def __init__(self, gate, reference: str, other: str, direction: str,
                 thresholds) -> None:
        self.gate = gate
        self.reference = reference
        self.other = other
        self.direction = direction
        self.thresholds = thresholds
        self._memo: Dict[Tuple[int, int, int, int], Tuple[float, float]] = {}

    def _key(self, tau_ref: float, tau_other: float, sep: float,
             cl: float) -> Tuple[int, int, int, int]:
        return (
            round(tau_ref * 1e15), round(tau_other * 1e15),
            round(sep * 1e15), round(cl * 1e18),
        )

    def _task(self, tau_ref: float, tau_other: float, sep: float,
              cl: float) -> tuple:
        return (self.gate, self.reference, self.other, self.direction,
                self.thresholds, tau_ref, tau_other, sep, cl)

    def _simulate(self, tau_ref: float, tau_other: float, sep: float,
                  load: Optional[float]) -> Tuple[float, float]:
        cl = self.gate.load if load is None else float(load)
        key = self._key(tau_ref, tau_other, sep, cl)
        if key not in self._memo:
            self._memo[key] = _oracle_query_task(
                self._task(tau_ref, tau_other, sep, cl)
            )
        return self._memo[key]

    def prefetch(self, queries: Sequence[Sequence[float]], *,
                 workers: Optional[int] = None) -> int:
        """Run a batch of oracle queries, filling the memo in parallel.

        Each query is ``(tau_ref, tau_other, sep)`` or
        ``(tau_ref, tau_other, sep, load)``; duplicates (after the
        memo's femtosecond rounding) and already-memoized entries are
        simulated once.  Results land in the memo in query order, so
        later :meth:`delay_ratio` / :meth:`ttime_ratio` calls are pure
        lookups with values identical to on-demand simulation.  Returns
        the number of fresh simulations performed.
        """
        pending: list[tuple] = []
        keys: list[Tuple[int, int, int, int]] = []
        seen = set(self._memo)
        for query in queries:
            tau_ref, tau_other, sep = (float(v) for v in query[:3])
            cl = self.gate.load if len(query) < 4 else float(query[3])
            key = self._key(tau_ref, tau_other, sep, cl)
            if key in seen:
                continue
            seen.add(key)
            keys.append(key)
            pending.append(self._task(tau_ref, tau_other, sep, cl))
        results = parallel_map(_oracle_query_task, pending, workers=workers)
        self._memo.update(zip(keys, results))
        return len(pending)

    def delay_ratio(self, tau_ref: float, tau_other: float, sep: float, *,
                    delta1: float, load: Optional[float] = None) -> float:
        if delta1 <= 0.0:
            raise ModelError(f"delta1 must be positive, got {delta1}")
        delay2, _ = self._simulate(tau_ref, tau_other, sep, load)
        return delay2 / delta1

    def ttime_ratio(self, tau_ref: float, tau_other: float, sep: float, *,
                    tau1: float, delta1: float,
                    load: Optional[float] = None) -> float:
        if tau1 <= 0.0:
            raise ModelError(f"tau1 must be positive, got {tau1}")
        _, ttime2 = self._simulate(tau_ref, tau_other, sep, load)
        return ttime2 / tau1
