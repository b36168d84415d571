"""Observability layer: tracing spans, typed metrics, run manifests.

``repro.obs`` is the telemetry backbone of the characterization stack.
It provides hierarchical tracing spans (context-manager and decorator
APIs, monotonic-clock timed, thread- and process-safe), typed metrics
(counters, gauges, fixed-edge histograms whose aggregation is
deterministic), and exporters for three audiences: a Chrome
trace-event file loadable in ``chrome://tracing``/Perfetto, a metrics
JSON report, and the human-readable ``repro stats`` summary.  Worker
processes record into their own recorder and ship per-task deltas back
to the parent, so metric totals are invariant to the worker count.

Telemetry is off by default; enable it with the ``--trace``/
``--metrics``/``--manifest``/``--live`` CLI flags or the
``REPRO_TRACE``/``REPRO_METRICS``/``REPRO_MANIFEST``/``REPRO_OBS``/
``REPRO_LIVE`` environment variables.  Disabled, every instrumented
path hits the no-op :class:`NullRecorder` and costs almost nothing.

The live-telemetry plane (this PR's additions) layers three modules on
the recorder: :mod:`repro.obs.live` (periodic atomic snapshots as
``metrics.json`` + OpenMetrics ``metrics.prom``, tailed by
``repro top``), :mod:`repro.obs.flight` (a per-solve ring buffer dumped
to ``flight_*.json`` on retry-ladder exhaustion or guard aborts), and
:mod:`repro.obs.profile` (phase-attributed solver timing histograms per
dense/sparse driver).
"""

from .metrics import (
    DEFAULT_COUNT_EDGES,
    DEFAULT_TIME_EDGES,
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    merge_payloads,
    metric_key,
    subtract_payloads,
)
from .recorder import (
    MANIFEST_ENV_VAR,
    METRICS_ENV_VAR,
    OBS_ENV_VAR,
    TRACE_ENV_VAR,
    NullRecorder,
    Recorder,
    capture_task,
    get_recorder,
    recording,
    reset_recorder,
    set_recorder,
    traced,
)
from .export import (
    METRICS_SCHEMA,
    bench_trend,
    degradation_summary,
    format_bench,
    format_stats,
    headline_summary,
    metrics_document,
    trace_document,
    write_chrome_trace,
    write_metrics,
)
from .flight import (
    FLIGHT_DIR_ENV_VAR,
    FLIGHT_ENV_VAR,
    FlightRecorder,
    dump_flight,
)
from .live import (
    LIVE_ENV_VAR,
    LIVE_INTERVAL_ENV_VAR,
    Snapshotter,
    format_top,
    live_dir_from_env,
    read_snapshot,
    render_openmetrics,
)
from .manifest import ENV_KNOBS, RunContext, build_manifest, git_sha, write_manifest
from .profile import PHASE_METRIC, PHASES, PhaseProfiler, PhaseTimes, phase_breakdown

__all__ = [
    # metrics
    "Counter", "Gauge", "Histogram", "MetricRegistry",
    "DEFAULT_TIME_EDGES", "DEFAULT_COUNT_EDGES",
    "metric_key", "merge_payloads", "subtract_payloads",
    # recorder
    "Recorder", "NullRecorder", "get_recorder", "set_recorder",
    "reset_recorder", "recording", "traced", "capture_task",
    "TRACE_ENV_VAR", "METRICS_ENV_VAR", "MANIFEST_ENV_VAR", "OBS_ENV_VAR",
    # exporters
    "METRICS_SCHEMA", "trace_document", "write_chrome_trace",
    "metrics_document", "write_metrics", "format_stats", "format_bench",
    "headline_summary", "bench_trend", "degradation_summary",
    # live snapshots
    "LIVE_ENV_VAR", "LIVE_INTERVAL_ENV_VAR", "Snapshotter", "format_top",
    "live_dir_from_env", "read_snapshot", "render_openmetrics",
    # flight recorder
    "FLIGHT_ENV_VAR", "FLIGHT_DIR_ENV_VAR", "FlightRecorder", "dump_flight",
    # phase profiling
    "PHASES", "PHASE_METRIC", "PhaseProfiler", "PhaseTimes",
    "phase_breakdown",
    # manifests
    "ENV_KNOBS", "RunContext", "build_manifest", "write_manifest", "git_sha",
]
