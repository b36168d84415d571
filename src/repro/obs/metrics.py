"""Typed metrics with deterministic cross-process aggregation.

Three metric types cover every number the characterization stack needs
to account for:

* :class:`Counter` -- a monotonically increasing total (Newton
  iterations, cache hits, lost grid points).  Merging adds.
* :class:`Gauge` -- a last-written value (effective worker count, bench
  scale).  Merging keeps the incoming value.
* :class:`Histogram` -- a distribution over **fixed bucket edges**
  chosen at creation time (per-point wall time, task queue wait).
  Because every process buckets against the same edges, merging is a
  plain element-wise addition of bucket counts -- associative and
  commutative, so aggregated totals are invariant to how the work was
  sharded over workers.

All metrics live in a :class:`MetricRegistry`, addressed by a name plus
optional labels (``registry.counter("cache.hits", kind="vtc")``).  The
registry serializes to a plain-JSON payload (:meth:`MetricRegistry.snapshot`)
and merges payloads back in (:meth:`MetricRegistry.merge`); worker
processes ship per-task payload deltas (:meth:`MetricRegistry.mark` /
:meth:`MetricRegistry.delta_since`) to the parent, which is what makes
metric totals identical for any worker count on a fault-free run.
Timing histograms still record *different values* per sharding (wall
time is not deterministic); it is their bucketing scheme, not their
content, that merging keeps deterministic -- run manifests therefore
compare counters, never timings.
"""

from __future__ import annotations

import operator
import threading
from bisect import bisect_right
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ReproError

__all__ = [
    "DEFAULT_TIME_EDGES", "DEFAULT_COUNT_EDGES",
    "Counter", "Gauge", "Histogram", "MetricRegistry",
    "metric_key", "merge_payloads", "subtract_payloads",
]

#: Default bucket edges (seconds) for wall-time histograms: 1 ms .. 100 s.
DEFAULT_TIME_EDGES: Tuple[float, ...] = (
    0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0,
)

#: Default bucket edges for per-analysis iteration-count histograms.
DEFAULT_COUNT_EDGES: Tuple[float, ...] = (
    10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0, 10000.0, 30000.0,
)


def metric_key(name: str, labels: Optional[Mapping[str, Any]] = None) -> str:
    """The canonical registry key: ``name`` or ``name{k=v,...}``.

    Labels are sorted by key, so the same (name, labels) pair always
    produces the same string regardless of call-site keyword order --
    a requirement for payload merging across processes.
    """
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_metric_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Split a registry key ``name{k=v,...}`` into (name, labels)."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels: Dict[str, str] = {}
    for part in inner[:-1].split(","):
        if not part:
            continue
        label, _, value = part.partition("=")
        labels[label] = value
    return name, labels


def counter_total(counters: Mapping[str, float], name: str) -> float:
    """Counter ``name`` summed over every label set in a payload's
    ``counters``."""
    prefix = name + "{"
    return sum(value for key, value in counters.items()
               if key == name or key.startswith(prefix))


def labelled_counters(counters: Mapping[str, float], name: str,
                      label: str) -> List[Tuple[str, float]]:
    """``(label value, count)`` for every ``name{...}`` counter key that
    carries ``label``, in key order."""
    out = []
    for key, value in sorted(counters.items()):
        key_name, labels = parse_metric_key(key)
        if key_name == name and label in labels:
            out.append((labels[label], value))
    return out


def _number(value) -> "int | float":
    """A payload counter or gauge value: integers as ``int``, else ``float``.

    Raises ``TypeError``/``ValueError`` on a non-numeric value.
    """
    try:
        return operator.index(value)
    except TypeError:
        return float(value)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ReproError("Counter.inc amount must be >= 0")
        self.value += amount


class Gauge:
    """A last-written value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """A fixed-edge bucket histogram.

    ``edges`` are the ascending upper bounds of the first ``len(edges)``
    buckets; one overflow bucket catches everything above the last edge.
    ``sum`` and ``count`` ride along so means survive aggregation.
    """

    __slots__ = ("edges", "counts", "sum", "count")

    def __init__(self, edges: Sequence[float] = DEFAULT_TIME_EDGES) -> None:
        edges = tuple(float(e) for e in edges)
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise ReproError("histogram edges must be non-empty and increasing")
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.edges, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        """Element-wise bucket addition; associative by construction."""
        if other.edges != self.edges:
            raise ReproError(
                f"cannot merge histograms with different edges "
                f"({self.edges} vs {other.edges})"
            )
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.sum += other.sum
        self.count += other.count

    def to_payload(self) -> Dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Histogram":
        hist = cls(payload["edges"])
        counts = list(payload["counts"])
        if len(counts) != len(hist.counts):
            raise ReproError("histogram payload counts do not match its edges")
        hist.counts = [int(c) for c in counts]
        hist.sum = float(payload["sum"])
        hist.count = int(payload["count"])
        return hist


class MetricRegistry:
    """A thread-safe collection of named, labelled metrics.

    ``counter``/``gauge``/``histogram`` get-or-create; asking for an
    existing name with a different type (or a histogram with different
    edges) raises, so one name always aggregates one way.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Get-or-create accessors
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        key = metric_key(name, labels)
        with self._lock:
            metric = self._counters.get(key)
            if metric is None:
                self._check_free(key, self._counters)
                metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = metric_key(name, labels)
        with self._lock:
            metric = self._gauges.get(key)
            if metric is None:
                self._check_free(key, self._gauges)
                metric = self._gauges[key] = Gauge()
        return metric

    def histogram(self, name: str,
                  edges: Sequence[float] = DEFAULT_TIME_EDGES,
                  **labels: Any) -> Histogram:
        key = metric_key(name, labels)
        with self._lock:
            metric = self._histograms.get(key)
            if metric is None:
                self._check_free(key, self._histograms)
                metric = self._histograms[key] = Histogram(edges)
            elif (metric.edges != edges
                  and metric.edges != tuple(float(e) for e in edges)):
                raise ReproError(
                    f"histogram {key!r} already exists with different edges"
                )
        return metric

    def _check_free(self, key: str, owner: Dict[str, Any]) -> None:
        for family in (self._counters, self._gauges, self._histograms):
            if family is not owner and key in family:
                raise ReproError(f"metric {key!r} already exists with another type")

    # ------------------------------------------------------------------
    # Serialization, merging, deltas
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The registry as a plain-JSON payload (deterministic order)."""
        with self._lock:
            return {
                "counters": {k: self._counters[k].value
                             for k in sorted(self._counters)},
                "gauges": {k: self._gauges[k].value
                           for k in sorted(self._gauges)},
                "histograms": {k: self._histograms[k].to_payload()
                               for k in sorted(self._histograms)},
            }

    def merge(self, payload: Mapping[str, Any]) -> None:
        """Fold a payload (another process' delta or snapshot) in.

        Counters add, gauges take the incoming value, histograms add
        bucket-wise (same edges required).  Integer values stay integers,
        so a pooled run's totals serialize exactly like a serial run's.

        Absorption is **transactional**: the whole payload is parsed
        and validated against the registry before any metric mutates.
        A malformed entry (non-numeric value, bad histogram shape,
        mismatched edges, cross-type key conflict) therefore rejects
        the payload with the registry untouched -- previously an error
        raised mid-iteration could apply half of a task's delta and
        silently drop the rest, skewing worker-invariant totals.
        """
        # Parse everything up front; nothing below this block may raise
        # after the first mutation.
        try:
            counters = {key: _number(value) for key, value
                        in dict(payload.get("counters", {})).items()}
            gauges = {key: _number(value) for key, value
                      in dict(payload.get("gauges", {})).items()}
            incoming_hists = {key: Histogram.from_payload(entry)
                              for key, entry
                              in dict(payload.get("histograms", {})).items()}
        except ReproError:
            raise
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed metrics payload: {exc}") from exc
        with self._lock:
            for key in counters:
                if key in self._gauges or key in self._histograms:
                    raise ReproError(
                        f"metric {key!r} already exists with another type")
            for key in gauges:
                if key in self._counters or key in self._histograms:
                    raise ReproError(
                        f"metric {key!r} already exists with another type")
            for key, incoming in incoming_hists.items():
                if key in self._counters or key in self._gauges:
                    raise ReproError(
                        f"metric {key!r} already exists with another type")
                existing = self._histograms.get(key)
                if existing is not None and existing.edges != incoming.edges:
                    raise ReproError(
                        f"cannot merge histograms with different edges "
                        f"({existing.edges} vs {incoming.edges})"
                    )
            # Validated; apply the whole payload.
            for key, value in counters.items():
                counter = self._counters.get(key)
                if counter is None:
                    counter = self._counters[key] = Counter()
                counter.value += value
            for key, value in gauges.items():
                gauge = self._gauges.get(key)
                if gauge is None:
                    gauge = self._gauges[key] = Gauge()
                gauge.value = value
            for key, incoming in incoming_hists.items():
                existing = self._histograms.get(key)
                if existing is None:
                    self._histograms[key] = incoming
                else:
                    existing.merge(incoming)

    def mark(self) -> Dict[str, Any]:
        """A snapshot suitable for :meth:`delta_since`."""
        return self.snapshot()

    def delta_since(self, mark: Mapping[str, Any]) -> Dict[str, Any]:
        """What changed since ``mark``, as a mergeable payload.

        This is how worker processes ship per-task telemetry: snapshot
        before the task, delta after, merge in the parent.  Gauges carry
        their current value (they are not additive).
        """
        return subtract_payloads(self.snapshot(), mark)

    def counter_total(self, name: str) -> float:
        """Sum of a counter over all of its label combinations."""
        prefix = name + "{"
        with self._lock:
            return sum(
                c.value for key, c in self._counters.items()
                if key == name or key.startswith(prefix)
            )

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def merge_payloads(a: Mapping[str, Any], b: Mapping[str, Any]) -> Dict[str, Any]:
    """Pure payload merge (associative); used by tests and exporters."""
    registry = MetricRegistry()
    registry.merge(a)
    registry.merge(b)
    return registry.snapshot()


def subtract_payloads(after: Mapping[str, Any],
                      before: Mapping[str, Any]) -> Dict[str, Any]:
    """``after - before`` for counters/histograms; gauges keep ``after``.

    Entries whose delta is zero are dropped, so per-task payloads stay
    small for pickling back to the parent.
    """
    counters = {}
    for key, value in after.get("counters", {}).items():
        delta = value - before.get("counters", {}).get(key, 0)
        if delta:
            counters[key] = delta
    gauges = dict(after.get("gauges", {}))
    histograms = {}
    for key, entry in after.get("histograms", {}).items():
        prior = before.get("histograms", {}).get(key)
        if prior is None:
            if entry["count"]:
                histograms[key] = dict(entry)
            continue
        if prior["edges"] != entry["edges"]:
            raise ReproError(f"histogram {key!r} changed edges between marks")
        counts = [a - b for a, b in zip(entry["counts"], prior["counts"])]
        count = entry["count"] - prior["count"]
        if count:
            histograms[key] = {
                "edges": list(entry["edges"]),
                "counts": counts,
                "sum": entry["sum"] - prior["sum"],
                "count": count,
            }
    return {"counters": counters, "gauges": gauges, "histograms": histograms}
