"""Live metric snapshots: periodic atomic JSON + OpenMetrics exports.

Post-mortem telemetry (PR 3) dumps metrics at process exit; a
characterization grid that runs for hours needs to be observable *while
it runs*.  This module adds a background :class:`Snapshotter` thread
that periodically writes the merged :class:`~repro.obs.metrics.MetricRegistry`
state to two files in a live directory:

* ``metrics.json`` -- the full registry snapshot wrapped in a small
  envelope (schema, pid, sequence number, wall time, uptime).  This is
  what ``repro top`` tails.
* ``metrics.prom`` -- the same state rendered in OpenMetrics/Prometheus
  text format, so a future ``repro serve`` (or a plain node-exporter
  textfile collector) can scrape the run without bespoke parsing.

Both files are written atomically (temp file in the target directory +
``os.replace``, the cache's idiom), so a reader never observes a torn
snapshot.  Because worker deltas are folded into the parent registry by
the existing ``capture_task``/``absorb_task`` shipping as each task
completes, the snapshot totals are worker-count-invariant at every
completed-task boundary -- mid-run numbers mean the same thing at
``--workers 1`` and ``--workers 4``.

Activation is ``--live`` / ``REPRO_LIVE`` (a directory path, or a bare
truthy value meaning ``./live``); off means no thread, no files, and no
instrumentation cost anywhere.  ``REPRO_LIVE_INTERVAL`` tunes the
cadence (seconds, default 1.0, floor 0.05).

File layout (documented for future scrapers)::

    <run_dir>/live/metrics.json   # envelope + counters/gauges/histograms
    <run_dir>/live/metrics.prom   # OpenMetrics text, '# EOF' terminated
    <run_dir>/live/flight_*.json  # flight-recorder postmortems, if any

Metric names map to OpenMetrics as ``repro_`` + name with every
non-alphanumeric character replaced by ``_`` (``spice.newton.solves``
-> ``repro_spice_newton_solves``); counters gain the ``_total`` suffix,
histograms emit cumulative ``_bucket{le=...}`` series plus ``_sum`` and
``_count``, and label values are escaped per the spec.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .profile import phase_breakdown

__all__ = [
    "LIVE_ENV_VAR", "LIVE_INTERVAL_ENV_VAR", "LIVE_SCHEMA",
    "DEFAULT_INTERVAL", "MIN_INTERVAL", "SNAPSHOT_NAME", "OPENMETRICS_NAME",
    "live_dir_from_env", "live_interval_from_env", "atomic_write_text",
    "parse_metric_key", "render_openmetrics", "live_document",
    "Snapshotter", "read_snapshot", "format_top",
]

#: Live-snapshot activation: a directory path, or truthy for ``./live``.
LIVE_ENV_VAR = "REPRO_LIVE"
#: Snapshot cadence in seconds (default 1.0, floor 0.05).
LIVE_INTERVAL_ENV_VAR = "REPRO_LIVE_INTERVAL"

LIVE_SCHEMA = 1
DEFAULT_INTERVAL = 1.0
MIN_INTERVAL = 0.05
SNAPSHOT_NAME = "metrics.json"
OPENMETRICS_NAME = "metrics.prom"

_FALSY = ("", "0", "false", "no", "off")
_TRUTHY = ("1", "true", "yes", "on")


def live_dir_from_env() -> Optional[str]:
    """The live directory ``REPRO_LIVE`` names, or ``None`` when off.

    A bare truthy value ("1", "true", ...) means ``./live``; anything
    else non-falsy is taken as the directory path itself.
    """
    raw = os.environ.get(LIVE_ENV_VAR, "").strip()
    if raw.lower() in _FALSY:
        return None
    if raw.lower() in _TRUTHY:
        return "live"
    return raw


def live_interval_from_env() -> float:
    raw = os.environ.get(LIVE_INTERVAL_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_INTERVAL
    try:
        interval = float(raw)
    except ValueError:
        return DEFAULT_INTERVAL
    return max(MIN_INTERVAL, interval)


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via temp-file + rename (same directory)."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".live-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


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


# ----------------------------------------------------------------------
# OpenMetrics text rendering
# ----------------------------------------------------------------------

def _om_name(name: str) -> str:
    sanitized = "".join(
        ch if (ch.isascii() and (ch.isalnum() or ch in "_:")) else "_"
        for ch in name
    )
    return "repro_" + sanitized


def _om_escape(value: str) -> str:
    return (value.replace("\\", "\\\\")
                 .replace("\"", "\\\"")
                 .replace("\n", "\\n"))


def _om_labels(labels: Mapping[str, str],
               extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = [(k, labels[k]) for k in sorted(labels)]
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_om_escape(str(v))}"' for k, v in pairs)
    return "{" + inner + "}"


def _om_value(value: float) -> str:
    number = float(value)
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _group_by_family(entries: Mapping[str, Any]):
    """Registry keys grouped by metric name, names sorted, keys sorted."""
    families: Dict[str, List[Tuple[str, Dict[str, str], Any]]] = {}
    for key in sorted(entries):
        name, labels = parse_metric_key(key)
        families.setdefault(name, []).append((key, labels, entries[key]))
    return sorted(families.items())


def render_openmetrics(payload: Mapping[str, Any]) -> str:
    """A metrics payload in OpenMetrics text format (``# EOF`` terminated).

    One ``# TYPE`` line per family (shared by all label sets), counter
    samples suffixed ``_total``, histogram samples as cumulative
    ``_bucket{le=...}`` + ``+Inf`` plus ``_sum``/``_count``.
    """
    lines: List[str] = []
    for name, series in _group_by_family(payload.get("counters", {})):
        om = _om_name(name)
        lines.append(f"# TYPE {om} counter")
        for _, labels, value in series:
            lines.append(f"{om}_total{_om_labels(labels)} {_om_value(value)}")
    for name, series in _group_by_family(payload.get("gauges", {})):
        om = _om_name(name)
        lines.append(f"# TYPE {om} gauge")
        for _, labels, value in series:
            lines.append(f"{om}{_om_labels(labels)} {_om_value(value)}")
    for name, series in _group_by_family(payload.get("histograms", {})):
        om = _om_name(name)
        lines.append(f"# TYPE {om} histogram")
        for _, labels, entry in series:
            cumulative = 0
            for edge, count in zip(entry["edges"], entry["counts"]):
                cumulative += count
                le = format(float(edge), "g")
                lines.append(
                    f"{om}_bucket{_om_labels(labels, ('le', le))} "
                    f"{_om_value(cumulative)}"
                )
            lines.append(
                f"{om}_bucket{_om_labels(labels, ('le', '+Inf'))} "
                f"{_om_value(entry['count'])}"
            )
            lines.append(f"{om}_sum{_om_labels(labels)} "
                         f"{_om_value(entry['sum'])}")
            lines.append(f"{om}_count{_om_labels(labels)} "
                         f"{_om_value(entry['count'])}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Snapshot documents + the snapshotter thread
# ----------------------------------------------------------------------

def live_document(payload: Mapping[str, Any], seq: int,
                  started: float) -> Dict[str, Any]:
    """The ``metrics.json`` envelope around one registry snapshot."""
    return {
        "schema": LIVE_SCHEMA,
        "kind": "repro-live",
        "pid": os.getpid(),
        "seq": seq,
        "time": time.time(),
        "uptime": max(0.0, time.monotonic() - started),
        "counters": dict(payload.get("counters", {})),
        "gauges": dict(payload.get("gauges", {})),
        "histograms": dict(payload.get("histograms", {})),
    }


class Snapshotter:
    """Background thread writing periodic atomic snapshots of a recorder.

    Only the parent process runs one (worker deltas arrive through
    ``absorb_task``, so the parent registry *is* the merged view).  The
    thread is a daemon -- it can never hold the process open -- and
    :meth:`stop` performs a final write so the files always end at the
    run's terminal state.
    """

    def __init__(self, recorder, directory: str,
                 interval: Optional[float] = None) -> None:
        self.recorder = recorder
        self.directory = directory
        self.interval = (live_interval_from_env()
                         if interval is None else max(MIN_INTERVAL, interval))
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._seq = 0
        self._started = time.monotonic()
        self._lock = threading.Lock()

    @property
    def snapshot_path(self) -> str:
        return os.path.join(self.directory, SNAPSHOT_NAME)

    @property
    def openmetrics_path(self) -> str:
        return os.path.join(self.directory, OPENMETRICS_NAME)

    def write_now(self) -> Dict[str, Any]:
        """Write one snapshot pair immediately; returns the document."""
        with self._lock:
            self._seq += 1
            seq = self._seq
            payload = self.recorder.metrics_payload()
            document = live_document(payload, seq, self._started)
            os.makedirs(self.directory, exist_ok=True)
            atomic_write_text(
                self.snapshot_path,
                json.dumps(document, indent=2, sort_keys=True) + "\n",
            )
            atomic_write_text(self.openmetrics_path,
                              render_openmetrics(payload))
        return document

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.write_now()
            except OSError:
                # A transient filesystem error must not kill the run;
                # the next tick retries.
                continue

    def start(self) -> "Snapshotter":
        if self._thread is None:
            self._started = time.monotonic()
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._run, name="repro-live-snapshotter", daemon=True,
            )
            self._thread.start()
        return self

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def stop(self, final: bool = True) -> None:
        """Stop the thread; with ``final``, write the terminal snapshot."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None
        if final:
            try:
                self.write_now()
            except OSError:
                pass


# ----------------------------------------------------------------------
# `repro top` rendering
# ----------------------------------------------------------------------

def read_snapshot(path: str) -> Optional[Dict[str, Any]]:
    """Load one ``metrics.json`` document, or ``None`` if absent/torn.

    Atomic writes mean a *complete* file is the only steady state, but
    the file may simply not exist yet early in a run.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(document, dict) or document.get("kind") != "repro-live":
        return None
    return document


def _counter_total(counters: Mapping[str, float], name: str) -> float:
    prefix = name + "{"
    return sum(value for key, value in counters.items()
               if key == name or key.startswith(prefix))


def _labelled(counters: Mapping[str, float], name: str,
              label: str) -> List[Tuple[str, float]]:
    """(label value, count) pairs for ``name{...label=...}`` keys."""
    out = []
    for key, value in sorted(counters.items()):
        key_name, labels = parse_metric_key(key)
        if key_name == name and label in labels:
            out.append((labels[label], value))
    return out


def _fmt_rate(value: float) -> str:
    if value >= 100:
        return f"{value:.0f}"
    if value >= 1:
        return f"{value:.1f}"
    return f"{value:.2f}"


def format_top(document: Mapping[str, Any],
               previous: Optional[Mapping[str, Any]] = None,
               now: Optional[float] = None) -> str:
    """Render one snapshot as the ``repro top`` one-screen summary.

    With a ``previous`` snapshot, rates are computed over the
    inter-snapshot interval; otherwise they fall back to the uptime
    mean.  ``now`` (wall clock) is injectable for tests.
    """
    counters = document.get("counters", {})
    gauges = document.get("gauges", {})
    histograms = document.get("histograms", {})
    wall = document.get("time", 0.0)
    uptime = float(document.get("uptime", 0.0))
    age = max(0.0, (now if now is not None else time.time()) - wall)

    solves = _counter_total(counters, "spice.newton.solves")
    iterations = _counter_total(counters, "spice.newton.iterations")
    failures = _counter_total(counters, "spice.newton.failures")

    if previous is not None:
        dt = max(1e-9, wall - float(previous.get("time", 0.0)))
        prev_solves = _counter_total(previous.get("counters", {}),
                                     "spice.newton.solves")
        rate = max(0.0, solves - prev_solves) / dt
        rate_src = f"over last {dt:.1f}s"
    else:
        rate = solves / uptime if uptime > 0 else 0.0
        rate_src = "uptime mean"

    lines = [
        f"repro top — pid {document.get('pid', '?')}"
        f"  seq {document.get('seq', '?')}"
        f"  uptime {uptime:.1f}s  snapshot age {age:.1f}s",
        "",
        f"solves     {int(solves):>10d}   ({_fmt_rate(rate)}/s, {rate_src})",
        f"iterations {int(iterations):>10d}   failures {int(failures)}",
    ]

    dispatch = _labelled(counters, "spice.newton.dispatch", "backend")
    if dispatch:
        parts = ", ".join(f"{backend}={int(count)}"
                          for backend, count in dispatch)
        lines.append(f"dispatch   {parts}")

    rungs = _labelled(counters, "spice.guard.rung", "rung")
    if rungs:
        parts = ", ".join(f"{rung}={int(count)}" for rung, count in rungs)
        lines.append(f"rungs      {parts}")
    aborts = _labelled(counters, "spice.guard.aborts", "reason")
    if aborts:
        parts = ", ".join(f"{reason}={int(count)}" for reason, count in aborts)
        lines.append(f"aborts     {parts}")

    sparse_bits = []
    for key, value in sorted(counters.items()):
        name, _ = parse_metric_key(key)
        if name.startswith("spice.sparse."):
            sparse_bits.append(f"{name.rsplit('.', 1)[-1]}={int(value)}")
    if sparse_bits:
        lines.append(f"sparse     {', '.join(sparse_bits)}")

    dumps = _counter_total(counters, "obs.flight.dumps")
    if dumps:
        lines.append(f"flight     {int(dumps)} dump(s) written")

    breakdown = phase_breakdown(histograms)
    if breakdown:
        lines.append("")
        lines.append("phase breakdown (share of measured solver seconds)")
        for driver in sorted(breakdown):
            phases = breakdown[driver]
            total = sum(phases.values())
            if total <= 0:
                continue
            parts = ", ".join(
                f"{phase} {100.0 * seconds / total:.0f}%"
                for phase, seconds in sorted(phases.items(),
                                             key=lambda kv: -kv[1])
            )
            lines.append(f"  {driver:<7s} {total:8.3f}s  {parts}")

    workers = gauges.get("parallel.workers")
    completed = _counter_total(counters, "parallel.tasks.completed")
    failed = _counter_total(counters, "parallel.tasks.failed")
    inflight = gauges.get("parallel.tasks.inflight")
    if workers is not None or completed or failed:
        lines.append("")
        bits = []
        if workers is not None:
            bits.append(f"workers={int(workers)}")
        if inflight is not None:
            bits.append(f"inflight={int(inflight)}")
        bits.append(f"tasks ok={int(completed)}")
        if failed:
            bits.append(f"failed={int(failed)}")
        resub = _counter_total(counters, "parallel.tasks.resubmitted")
        if resub:
            bits.append(f"resubmitted={int(resub)}")
        lines.append("pool       " + "  ".join(bits))

    return "\n".join(lines) + "\n"
