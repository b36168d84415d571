"""Hierarchical tracing spans and the process-wide telemetry recorder.

The recorder is the single object the instrumented hot paths talk to:

* :meth:`Recorder.span` opens a timed span (context manager) on the
  calling thread's span stack; closed spans land in a buffer in Chrome
  trace-event form (``ph``/``ts``/``dur``/``pid``/``tid``), so nesting
  is visible in ``chrome://tracing`` / Perfetto without any id plumbing.
* :meth:`Recorder.counter` / :meth:`Recorder.gauge` /
  :meth:`Recorder.histogram` delegate to the recorder's
  :class:`~repro.obs.metrics.MetricRegistry`.
* :func:`capture_task` / :meth:`Recorder.absorb_task` are the
  worker-process seam: a pooled task records into its *worker's*
  recorder, ships the metric delta and its spans back with the result,
  and the parent merges -- which is what keeps metric totals invariant
  to the worker count.

Telemetry is **off by default**.  :func:`get_recorder` resolves from the
environment -- ``REPRO_TRACE``/``REPRO_METRICS`` (output paths, set by
the CLI flags) or ``REPRO_OBS=1`` -- and hands back the
:class:`NullRecorder` singleton otherwise, whose every operation is a
no-op on a pre-built object; a disabled hot path pays only an
environment check.  Because activation rides on environment variables,
worker processes inherit it exactly like ``REPRO_WORKERS`` does.

All clocks are ``time.monotonic()`` (CLOCK_MONOTONIC), which on Linux
is shared across processes of one boot -- parent and worker span
timestamps land on one comparable timeline.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .flight import FlightRecorder
from .live import LIVE_ENV_VAR
from .metrics import (
    DEFAULT_TIME_EDGES,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)

__all__ = [
    "TRACE_ENV_VAR", "METRICS_ENV_VAR", "OBS_ENV_VAR", "MANIFEST_ENV_VAR",
    "Recorder", "MetricsRecorder", "NullRecorder", "get_recorder",
    "set_recorder", "reset_recorder", "pinned_recorder", "recording",
    "traced", "capture_task",
]

#: Chrome trace-event output path; any value also enables recording.
TRACE_ENV_VAR = "REPRO_TRACE"
#: Metrics JSON output path; any value also enables recording.
METRICS_ENV_VAR = "REPRO_METRICS"
#: Run-manifest output path; any value also enables recording.
MANIFEST_ENV_VAR = "REPRO_MANIFEST"
#: Set to 1/true/on to enable recording without choosing output files.
OBS_ENV_VAR = "REPRO_OBS"

_FALSY = ("", "0", "false", "no", "off")


class _SpanHandle:
    """One open span; records itself into the owning buffer on exit."""

    __slots__ = ("_recorder", "name", "args", "_start")

    def __init__(self, recorder: "Recorder", name: str, args: Dict[str, Any]):
        self._recorder = recorder
        self.name = name
        self.args = args
        self._start = 0.0

    def __enter__(self) -> "_SpanHandle":
        self._start = time.monotonic()
        return self

    def __exit__(self, *exc_info) -> None:
        end = time.monotonic()
        event = {
            "name": self.name,
            "cat": "repro",
            "ph": "X",
            "ts": self._start * 1e6,
            "dur": (end - self._start) * 1e6,
            "pid": os.getpid(),
            "tid": threading.get_ident() % 2**31,
        }
        if self.args:
            event["args"] = self.args
        self._recorder._record_event(event)


class _NullSpan:
    """The reusable no-op span handle of the :class:`NullRecorder`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullRecorder:
    """The disabled recorder: every operation is a pre-built no-op.

    Instrumented code can call it unconditionally; hot loops that want
    to skip even argument construction check :attr:`enabled` first.
    """

    enabled = False

    def span(self, name: str, **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def counter(self, name: str, **labels: Any) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return _NULL_GAUGE

    def histogram(self, name: str,
                  edges: Sequence[float] = DEFAULT_TIME_EDGES,
                  **labels: Any) -> Histogram:
        return _NULL_HISTOGRAM

    def trace_events(self) -> List[Dict[str, Any]]:
        return []

    def metrics_payload(self) -> Dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def absorb_task(self, telemetry: Optional[Dict[str, Any]]) -> None:
        pass

    def drain_spans(self) -> List[Dict[str, Any]]:
        return []

    #: A permanently disabled flight ring shared by all null recorders.
    flight = FlightRecorder(size=0)


class Recorder:
    """An enabled recorder: span buffer + metric registry, thread-safe."""

    enabled = True

    def __init__(self) -> None:
        self.registry = MetricRegistry()
        self._events: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._flight: Optional[FlightRecorder] = None

    @property
    def flight(self) -> FlightRecorder:
        """This recorder's solve flight ring, created on first use.

        Sized from ``REPRO_FLIGHT`` at first access; worker processes
        get their own ring (it is postmortem context, not an aggregated
        metric, so it is deliberately not shipped through
        ``capture_task``).
        """
        flight = self._flight
        if flight is None:
            with self._lock:
                if self._flight is None:
                    self._flight = FlightRecorder()
                flight = self._flight
        return flight

    # -- spans ----------------------------------------------------------
    def span(self, name: str, **args: Any) -> _SpanHandle:
        """A timed span as a context manager; nests by thread and time."""
        return _SpanHandle(self, name, args)

    def _record_event(self, event: Dict[str, Any]) -> None:
        with self._lock:
            self._events.append(event)

    def drain_spans(self) -> List[Dict[str, Any]]:
        """Remove and return all buffered span events (worker shipping)."""
        with self._lock:
            events, self._events = self._events, []
        return events

    def trace_events(self) -> List[Dict[str, Any]]:
        """The buffered span events, oldest first (parent + absorbed)."""
        with self._lock:
            return list(self._events)

    # -- metrics --------------------------------------------------------
    def counter(self, name: str, **labels: Any) -> Counter:
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str,
                  edges: Sequence[float] = DEFAULT_TIME_EDGES,
                  **labels: Any) -> Histogram:
        return self.registry.histogram(name, edges, **labels)

    def metrics_payload(self) -> Dict[str, Any]:
        return self.registry.snapshot()

    # -- worker telemetry ----------------------------------------------
    def absorb_task(self, telemetry: Optional[Dict[str, Any]]) -> None:
        """Merge one pooled task's shipped telemetry into this recorder.

        ``telemetry`` is the payload built by :func:`capture_task` in
        the worker; ``None`` (telemetry disabled worker-side) is a
        no-op.  Metric deltas merge into the registry; worker spans
        append to the trace buffer with their own pid/tid intact.
        """
        if not telemetry:
            return
        self.registry.merge(telemetry.get("metrics", {}))
        spans = telemetry.get("spans")
        if spans:
            with self._lock:
                self._events.extend(spans)


class MetricsRecorder(Recorder):
    """An enabled recorder without a span buffer: metrics and flight ring.

    For a long-lived process whose spans nothing drains or writes.  The
    ``repro serve`` daemon pins one so that ``/metrics`` has a registry
    to scrape; a :class:`Recorder` would keep every shot's
    ``spice.transient`` span for the life of the daemon.  Spans are the
    no-op handle, and a pooled task's shipped spans are dropped while
    its metric delta merges.
    """

    def span(self, name: str, **args: Any) -> _NullSpan:
        return _NULL_SPAN

    def absorb_task(self, telemetry: Optional[Dict[str, Any]]) -> None:
        if telemetry:
            self.registry.merge(telemetry.get("metrics", {}))


def capture_task(fn: Callable[[Any], Any], item: Any,
                 index: int) -> Tuple[Any, Optional[Dict[str, Any]]]:
    """Run one pooled task under the worker's recorder and package its
    telemetry for the parent.

    Returns ``(result, telemetry)`` where ``telemetry`` is ``None`` when
    recording is disabled, else a picklable dict carrying the metric
    delta this task produced, the spans it opened (wrapped in one
    ``parallel.task`` span), and its monotonic start/end stamps (the
    parent derives queue-wait and execute time from them).  A task that
    raises ships nothing -- its failure is accounted parent-side.
    """
    recorder = get_recorder()
    if not recorder.enabled:
        return fn(item), None
    # A forked worker inherits the parent's registry contents and span
    # buffer; marking at task start (and discarding any pre-existing
    # spans) keeps the shipped delta to exactly this task's work.
    recorder.drain_spans()
    mark = recorder.registry.mark()
    start = time.monotonic()
    with recorder.span("parallel.task", index=index):
        value = fn(item)
    end = time.monotonic()
    return value, {
        "metrics": recorder.registry.delta_since(mark),
        "spans": recorder.drain_spans(),
        "start": start,
        "end": end,
        "pid": os.getpid(),
    }


# ----------------------------------------------------------------------
# The process-wide current recorder
# ----------------------------------------------------------------------

_CURRENT: Optional[object] = None
_ORIGIN: Optional[Tuple[str, str, str, str, str]] = None
_EXPLICIT = False
_STATE_LOCK = threading.Lock()


def _env_signature() -> Tuple[str, str, str, str, str]:
    return (
        os.environ.get(TRACE_ENV_VAR, ""),
        os.environ.get(METRICS_ENV_VAR, ""),
        os.environ.get(MANIFEST_ENV_VAR, ""),
        os.environ.get(OBS_ENV_VAR, ""),
        os.environ.get(LIVE_ENV_VAR, ""),
    )


def _env_enabled(sig: Tuple[str, str, str, str, str]) -> bool:
    trace, metrics, manifest, obs, live = sig
    if trace.strip() or metrics.strip() or manifest.strip():
        return True
    if live.strip().lower() not in _FALSY:
        # Live snapshots need a real registry in every process so worker
        # deltas exist to ship; REPRO_LIVE therefore implies recording.
        return True
    return obs.strip().lower() not in _FALSY


def get_recorder():
    """The process-wide recorder (honours the ``REPRO_*`` telemetry vars).

    Resolution is memoized against the environment values it came from,
    so flipping ``REPRO_TRACE``/``REPRO_OBS`` mid-process (tests, CLI
    arming) re-resolves instead of returning a stale instance.  An
    explicitly :func:`set_recorder`-installed instance always wins.
    """
    global _CURRENT, _ORIGIN
    if _EXPLICIT:
        return _CURRENT
    sig = _env_signature()
    if _CURRENT is None or sig != _ORIGIN:
        with _STATE_LOCK:
            if _CURRENT is None or sig != _ORIGIN:
                _CURRENT = Recorder() if _env_enabled(sig) else NullRecorder()
                _ORIGIN = sig
    return _CURRENT


def set_recorder(recorder) -> None:
    """Install ``recorder`` as the current one (tests, benchmarks, CLI).

    An installed recorder pins itself until :func:`reset_recorder`; the
    environment is not consulted while it is pinned.
    """
    global _CURRENT, _ORIGIN, _EXPLICIT
    with _STATE_LOCK:
        _CURRENT = recorder
        _ORIGIN = None
        _EXPLICIT = True


def pinned_recorder():
    """The explicitly-installed recorder, or ``None`` when resolution is
    environment-driven.  Lets a nested CLI run (``main()`` called inside
    a serving process) restore the host's pin instead of dropping it."""
    with _STATE_LOCK:
        return _CURRENT if _EXPLICIT else None


def reset_recorder() -> None:
    """Forget any pinned/memoized recorder; the next call re-resolves."""
    global _CURRENT, _ORIGIN, _EXPLICIT
    with _STATE_LOCK:
        _CURRENT = None
        _ORIGIN = None
        _EXPLICIT = False


@contextmanager
def recording(recorder: Optional[Recorder] = None) -> Iterator[Recorder]:
    """Pin a fresh (or given) enabled recorder for the enclosed block.

    >>> from repro.obs import recording
    >>> with recording() as rec:
    ...     pass  # instrumented calls here record into `rec`
    >>> rec.metrics_payload()["counters"]
    {}

    Restores the previous recorder state on exit.  Note the pin is
    process-local: worker processes spawned inside the block still
    resolve from their inherited environment (set ``REPRO_OBS=1`` or
    use the CLI flags to reach them).
    """
    global _CURRENT, _ORIGIN, _EXPLICIT
    rec = recorder if recorder is not None else Recorder()
    with _STATE_LOCK:
        saved = (_CURRENT, _ORIGIN, _EXPLICIT)
        _CURRENT, _ORIGIN, _EXPLICIT = rec, None, True
    try:
        yield rec
    finally:
        with _STATE_LOCK:
            _CURRENT, _ORIGIN, _EXPLICIT = saved


def traced(name: Optional[str] = None, **static_args: Any):
    """Decorator form of :meth:`Recorder.span`.

    >>> @traced("experiment.table5_1")
    ... def run(...): ...

    The span name defaults to the function's qualified name; the
    recorder is resolved at call time, so decorated functions stay
    zero-overhead while telemetry is disabled.
    """
    def decorate(fn: Callable) -> Callable:
        label = name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            recorder = get_recorder()
            if not recorder.enabled:
                return fn(*args, **kwargs)
            with recorder.span(label, **static_args):
                return fn(*args, **kwargs)

        return wrapper

    return decorate
