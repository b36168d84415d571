"""Exporters: Chrome trace-event files, metrics JSON, human summaries.

Three consumers, three formats:

* :func:`write_chrome_trace` -- a ``chrome://tracing`` / Perfetto
  loadable JSON object (``traceEvents`` of ``ph: "X"`` complete events
  with ``ts``/``dur`` in microseconds and real ``pid``/``tid``), plus
  ``M`` metadata events naming the parent and worker processes.
* :func:`write_metrics` -- the registry snapshot under a versioned
  schema, the machine-readable perf record benchmarks and CI consume.
* :func:`format_stats` -- the ``repro stats`` rendering: counters and
  histogram digests as aligned text for humans.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from .metrics import Histogram, counter_total, labelled_counters

__all__ = [
    "METRICS_SCHEMA", "trace_document", "write_chrome_trace",
    "metrics_document", "write_metrics", "format_stats", "format_bench",
    "headline_summary", "bench_trend", "degradation_summary",
]

#: Bump when the exported metrics/manifest JSON layout changes.
METRICS_SCHEMA = 1


def trace_document(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """A Chrome trace-event document for ``events``.

    Adds ``process_name`` metadata so Perfetto labels the parent process
    and each worker; events keep whatever pid/tid they were recorded
    under, which is what splits worker tracks out visually.
    """
    parent_pid = os.getpid()
    pids = {event["pid"] for event in events} | {parent_pid}
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "repro" if pid == parent_pid
                     else f"repro worker {pid}"},
        }
        for pid in sorted(pids)
    ]
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs", "schema": METRICS_SCHEMA},
    }


def write_chrome_trace(path: str | Path, events: List[Dict[str, Any]]) -> None:
    """Write ``events`` as a Perfetto-loadable trace file."""
    with open(path, "w") as handle:
        json.dump(trace_document(events), handle)


def metrics_document(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """The metrics registry payload under its versioned envelope."""
    return {
        "schema": METRICS_SCHEMA,
        "kind": "repro-metrics",
        "counters": dict(payload.get("counters", {})),
        "gauges": dict(payload.get("gauges", {})),
        "histograms": dict(payload.get("histograms", {})),
    }


def write_metrics(path: str | Path, payload: Mapping[str, Any]) -> None:
    """Write a registry snapshot as the metrics JSON report."""
    with open(path, "w") as handle:
        json.dump(metrics_document(payload), handle, indent=2, sort_keys=True)


def _format_number(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.6g}"
    return str(int(value))


def _histogram_line(key: str, entry: Mapping[str, Any]) -> str:
    hist = Histogram.from_payload(entry)
    if not hist.count:
        return f"  {key}: empty"
    # Approximate p50/p90 from the cumulative bucket counts: report the
    # upper edge of the bucket the quantile falls in (deterministic, no
    # interpolation guesswork).
    quantiles = {}
    for q in (0.5, 0.9):
        target = q * hist.count
        seen = 0
        for idx, count in enumerate(hist.counts):
            seen += count
            if seen >= target:
                quantiles[q] = (hist.edges[idx] if idx < len(hist.edges)
                                else float("inf"))
                break
    return (f"  {key}: n={hist.count} mean={hist.mean:.4g} "
            f"p50<={quantiles[0.5]:g} p90<={quantiles[0.9]:g} "
            f"sum={hist.sum:.4g}")


def headline_summary(payload: Mapping[str, Any]) -> str:
    """The ``repro stats`` headline block: solver health at a glance.

    Surfaces the totals an operator actually triages by -- Newton
    solves/iterations/failures, transient analyses and how many of them
    a settle rule ended early, escalation-ladder rung counts
    (``spice.guard.rung{rung=...}``), the ``spice.sparse.*`` family,
    and flight dumps -- instead of leaving them buried in the raw
    counter listing.  Empty string when none of those families recorded
    anything.
    """
    counters = payload.get("counters", {})
    lines: List[str] = []
    solves = counter_total(counters, "spice.newton.solves")
    if solves:
        iters = counter_total(counters, "spice.newton.iterations")
        failures = counter_total(counters, "spice.newton.failures")
        line = (f"  newton: solves {_format_number(solves)}, "
                f"iterations {_format_number(iters)}")
        if failures:
            line += f", failures {_format_number(failures)}"
        lines.append(line)
    analyses = counter_total(counters, "spice.transient.analyses")
    if analyses:
        settled = counter_total(counters, "spice.transient.settled")
        lines.append(f"  transients: analyses {_format_number(analyses)}, "
                     f"settled early {_format_number(settled)}")
    for name, label, title in (("spice.guard.rung", "rung", "guard rungs"),
                               ("obs.flight.dumps", "reason", "flight dumps")):
        values = labelled_counters(counters, name, label)
        if values:
            listed = ", ".join(f"{value}={_format_number(count)}"
                               for value, count in values)
            lines.append(f"  {title}: {listed}")
    sparse = {
        key: value for key, value in counters.items()
        if key.startswith("spice.sparse.")
    }
    if sparse:
        listed = ", ".join(
            f"{key[len('spice.sparse.'):].partition('{')[0]}"
            f"={_format_number(value)}"
            for key, value in sorted(sparse.items()))
        lines.append(f"  sparse: {listed}")
    if not lines:
        return ""
    return "headline:\n" + "\n".join(lines)


def format_stats(payload: Mapping[str, Any],
                 *, title: Optional[str] = None) -> str:
    """Render a metrics payload (or document) as human-readable text."""
    counters = payload.get("counters", {})
    gauges = payload.get("gauges", {})
    histograms = payload.get("histograms", {})
    lines: List[str] = []
    if title:
        lines.append(title)
    headline = headline_summary(payload)
    if headline:
        lines.append(headline)
    if counters:
        lines.append("counters:")
        width = max(len(k) for k in counters)
        lines.extend(f"  {key.ljust(width)}  {_format_number(value)}"
                     for key, value in sorted(counters.items()))
    if gauges:
        lines.append("gauges:")
        width = max(len(k) for k in gauges)
        lines.extend(f"  {key.ljust(width)}  {_format_number(value)}"
                     for key, value in sorted(gauges.items()))
    if histograms:
        lines.append("histograms:")
        lines.extend(_histogram_line(key, entry)
                     for key, entry in sorted(histograms.items()))
    if len(lines) == (1 if title else 0):
        lines.append("no metrics recorded")
    return "\n".join(lines)


_BENCH_COLUMNS = (
    ("wall_seconds", "wall"),
    ("speedup", "speedup"),
    ("newton_iterations", "newton-iters"),
    ("transient_analyses", "transients"),
    ("cache_hit_rate", "cache-hit"),
)


def format_bench(document: Mapping[str, Any]) -> str:
    """Render a ``BENCH_*.json`` benchmark record as human-readable text.

    Tolerates an empty trajectory: a record with no ``tests`` entries
    (the state before any benchmark has run) renders as a note rather
    than an error.
    """
    name = document.get("name") or "?"
    tests = document.get("tests")
    lines = [f"benchmark record: {name}"]
    if not isinstance(tests, Mapping) or not tests:
        lines.append("no benchmark history recorded yet")
        return "\n".join(lines)
    wall = document.get("wall_seconds")
    if isinstance(wall, (int, float)):
        lines[0] += f" (total wall {wall:.2f}s)"
    width = max(len(test) for test in tests)
    for test, entry in sorted(tests.items()):
        if not isinstance(entry, Mapping):
            continue
        fields = []
        for key, label in _BENCH_COLUMNS:
            value = entry.get(key)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if key == "wall_seconds":
                fields.append(f"{label}={value:.2f}s")
            elif key == "cache_hit_rate":
                fields.append(f"{label}={value:.0%}")
            elif key == "speedup":
                fields.append(f"{label}={value:.2f}x")
            else:
                fields.append(f"{label}={_format_number(value)}")
        scale = entry.get("scale")
        if isinstance(scale, (int, float)) and scale != 1:
            fields.append(f"scale={scale:g}")
        lines.append(f"  {test.ljust(width)}  " + " ".join(fields))
    return "\n".join(lines)


def _load_bench(path: Path) -> Optional[Dict[str, Any]]:
    try:
        with open(path) as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(document, Mapping) or not isinstance(
            document.get("tests"), Mapping):
        return None
    return dict(document)


def _flat_phases(entry: Mapping[str, Any]) -> Dict[str, float]:
    """``{"driver/phase": seconds}`` from a bench entry's phases dict."""
    phases = entry.get("phases")
    if not isinstance(phases, Mapping):
        return {}
    out: Dict[str, float] = {}
    for driver, per_phase in phases.items():
        if not isinstance(per_phase, Mapping):
            continue
        for phase, seconds in per_phase.items():
            if isinstance(seconds, (int, float)):
                out[f"{driver}/{phase}"] = float(seconds)
    return out


def _phase_attribution(base: Mapping[str, Any],
                       cur: Mapping[str, Any]) -> Optional[str]:
    """Which phase histogram moved the most, as a human-readable clause."""
    base_phases = _flat_phases(base)
    cur_phases = _flat_phases(cur)
    if not base_phases and not cur_phases:
        return None
    moved = None
    worst = 0.0
    for key in set(base_phases) | set(cur_phases):
        delta = cur_phases.get(key, 0.0) - base_phases.get(key, 0.0)
        if delta > worst:
            worst, moved = delta, key
    if moved is None:
        return None
    before = base_phases.get(moved, 0.0)
    if before > 0:
        return f"{moved} +{worst:.4g}s (+{100.0 * worst / before:.0f}%)"
    return f"{moved} +{worst:.4g}s (new)"


def bench_trend(baseline_dir: str | Path,
                current_dir: Optional[str | Path] = None,
                *, threshold: float = 0.25) -> str:
    """Compare committed ``BENCH_*.json`` baselines against a later run.

    Walks every ``BENCH_*.json`` under ``baseline_dir``; when
    ``current_dir`` holds a record of the same name, compares per-test
    wall time and flags anything slower than ``threshold`` (fractional),
    attributing the regression to the phase histogram that moved the
    most (from the records' per-driver ``phases`` sums).  Tests whose
    ``scale`` differs between the records are reported but not judged
    -- their walls are not comparable.
    """
    base_dir = Path(baseline_dir)
    lines = [f"bench trend vs {base_dir} (wall threshold +{threshold:.0%})"]
    records = sorted(base_dir.glob("BENCH_*.json"))
    if not records:
        lines.append("  no baseline BENCH_*.json records found")
        return "\n".join(lines)
    regressions = 0
    for path in records:
        baseline = _load_bench(path)
        if baseline is None:
            lines.append(f"{path.name}: unreadable baseline record")
            continue
        name = baseline.get("name") or path.stem
        current = (_load_bench(Path(current_dir) / path.name)
                   if current_dir is not None else None)
        if current is None:
            wall = baseline.get("wall_seconds")
            note = (f" baseline wall {wall:.2f}s," if
                    isinstance(wall, (int, float)) else "")
            lines.append(f"{name}:{note} no current record")
            continue
        for test, base_entry in sorted(baseline["tests"].items()):
            cur_entry = current["tests"].get(test)
            if not isinstance(base_entry, Mapping):
                continue
            if not isinstance(cur_entry, Mapping):
                lines.append(f"{name}/{test}: missing from current run")
                continue
            base_wall = base_entry.get("wall_seconds")
            cur_wall = cur_entry.get("wall_seconds")
            if not isinstance(base_wall, (int, float)) or base_wall <= 0 \
                    or not isinstance(cur_wall, (int, float)):
                continue
            if base_entry.get("scale") != cur_entry.get("scale"):
                lines.append(
                    f"{name}/{test}: scale changed "
                    f"({base_entry.get('scale')} -> {cur_entry.get('scale')})"
                    ", walls not comparable")
                continue
            change = cur_wall / base_wall - 1.0
            line = (f"{name}/{test}: wall {base_wall:.3f}s -> {cur_wall:.3f}s "
                    f"({change:+.0%})")
            if change > threshold:
                regressions += 1
                line = "REGRESSION " + line
                attribution = _phase_attribution(base_entry, cur_entry)
                if attribution:
                    line += f" — phase moved: {attribution}"
            else:
                line = "ok " + line
            lines.append("  " + line)
    lines.append(f"{regressions} regression(s) flagged"
                 if regressions else "no regressions flagged")
    return "\n".join(lines)


def degradation_summary(recorder=None) -> str:
    """One line of registry-sourced loss accounting, or ``""``.

    Pulls solver retry totals, per-kind grid-point fault counts and
    neighbor-filled cell counts from the current metric registry -- the
    single place degradation is accumulated -- for
    :meth:`repro.charlib.GateLibrary.health_summary` and the
    experiment summaries.  Routine escalation-ladder engagements
    (``spice.guard.rung``) are deliberately *not* summarized here:
    homotopy rungs and timestep cuts are healthy solver behavior, and a
    clean run must keep reporting an empty summary.  Empty when
    telemetry is disabled or nothing was lost.
    """
    if recorder is None:
        from .recorder import get_recorder

        recorder = get_recorder()
    if not recorder.enabled:
        return ""
    registry = recorder.registry
    retries = registry.counter_total("spice.retries")
    filled = registry.counter_total("charlib.cells.filled")
    prefix = "charlib.points.failed{kind="
    kinds = {key[len(prefix):-1]: value
             for key, value in registry.snapshot()["counters"].items()
             if key.startswith(prefix)}
    if not (retries or filled or kinds):
        return ""
    parts = []
    if retries:
        parts.append(f"solver retries {_format_number(retries)}")
    if kinds:
        listed = ", ".join(f"{kind}={_format_number(kinds[kind])}"
                           for kind in sorted(kinds))
        parts.append(f"grid-point faults: {listed}")
    if filled:
        parts.append(f"cells neighbor-filled {_format_number(filled)}")
    return "metrics: " + "; ".join(parts)
