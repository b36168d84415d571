"""Run manifests and the CLI run context.

A run manifest is the provenance record a ``characterize`` /
``experiment`` / ``validate`` invocation leaves next to its outputs:
what was asked for (argv, subcommand, process preset), under which
environment knobs (``REPRO_WORKERS``/``REPRO_RETRY``/``REPRO_FAULTS``
and friends), on which code (git SHA, best effort), and what it cost
(metric counter totals -- counters only, because counter totals are
worker-count invariant on a fault-free run while timings are not).

:class:`RunContext` is the CLI's bracket around one command: it arms
telemetry from the parsed ``--trace``/``--metrics``/``--manifest``
flags by *publishing them to the environment* (so pool workers inherit
the decision, exactly like ``--workers`` does), opens the root span,
and on exit writes every requested artifact and restores the
environment so in-process callers (tests) see no leakage.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional

from . import recorder as _recorder
from .export import METRICS_SCHEMA, write_chrome_trace, write_metrics
from .flight import FLIGHT_DIR_ENV_VAR, FLIGHT_ENV_VAR
from .live import (
    LIVE_ENV_VAR,
    LIVE_INTERVAL_ENV_VAR,
    Snapshotter,
    live_dir_from_env,
)
from .recorder import (
    MANIFEST_ENV_VAR,
    METRICS_ENV_VAR,
    OBS_ENV_VAR,
    TRACE_ENV_VAR,
    Recorder,
    get_recorder,
    pinned_recorder,
    reset_recorder,
    set_recorder,
)

__all__ = ["ENV_KNOBS", "git_sha", "build_manifest", "write_manifest",
           "RunContext", "TOTALS"]

#: The environment knobs a manifest records (set or not).  Every
#: ``REPRO_*`` variable read anywhere under ``src/`` must appear here --
#: ``tests/obs/test_env_knobs.py`` greps the tree and fails the build on
#: a knob that would otherwise go missing from run provenance.
ENV_KNOBS = (
    "REPRO_WORKERS", "REPRO_BATCH", "REPRO_RETRY", "REPRO_TASK_TIMEOUT",
    "REPRO_RESUME", "REPRO_FAULTS", "REPRO_FAULTS_STATE", "REPRO_FAULT_HANG",
    "REPRO_CACHE_DIR", "REPRO_FAST_NEWTON",
    "REPRO_SPARSE", "REPRO_GUARD", "REPRO_GUARD_WALL",
    "REPRO_SERVE_TTL", "REPRO_SERVE_CACHE_MAX", "REPRO_SERVE_COALESCE",
    "REPRO_SERVE_GATHER", "REPRO_SERVE_LANES",
    TRACE_ENV_VAR, METRICS_ENV_VAR, MANIFEST_ENV_VAR, OBS_ENV_VAR,
    LIVE_ENV_VAR, LIVE_INTERVAL_ENV_VAR, FLIGHT_ENV_VAR, FLIGHT_DIR_ENV_VAR,
)

#: The headline counter totals a manifest surfaces (summed over labels).
#: Zero totals are filtered out, so the guard names only appear in
#: manifests of runs where the escalation ladder actually engaged.
TOTALS = (
    "spice.newton.iterations", "spice.newton.solves", "spice.retries",
    "cache.hits", "cache.misses", "parallel.tasks.completed",
    "charlib.points.failed",
    "spice.guard.rung", "spice.guard.aborts", "spice.guard.illconditioned",
)


def git_sha(repo_dir: Optional[str] = None) -> Optional[str]:
    """The current git commit SHA, or ``None`` when unavailable."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_dir or os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def build_manifest(recorder, *,
                   command: Optional[str] = None,
                   args: Optional[Mapping[str, Any]] = None,
                   argv: Optional[List[str]] = None,
                   extra: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
    """Assemble the manifest document for ``recorder``'s run."""
    payload = recorder.metrics_payload()
    registry = getattr(recorder, "registry", None)
    totals = {}
    if registry is not None:
        totals = {name: registry.counter_total(name) for name in TOTALS}
        totals = {name: value for name, value in totals.items() if value}
    document: Dict[str, Any] = {
        "schema": METRICS_SCHEMA,
        "kind": "repro-manifest",
        "command": command,
        "argv": list(argv) if argv is not None else list(sys.argv),
        "args": dict(args) if args else {},
        "env": {knob: os.environ[knob] for knob in ENV_KNOBS
                if knob in os.environ},
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "totals": totals,
        "counters": payload["counters"],
        "gauges": payload["gauges"],
    }
    if extra:
        document.update(extra)
    return document


def write_manifest(path: str | Path, recorder, **kwargs: Any) -> None:
    """Write the run manifest for ``recorder`` to ``path``."""
    with open(path, "w") as handle:
        json.dump(build_manifest(recorder, **kwargs), handle,
                  indent=2, sort_keys=True)


class RunContext:
    """Arm telemetry for one CLI command and export on the way out.

    Usage (what :func:`repro.cli.main` does)::

        ctx = RunContext.from_args(args)
        ctx.arm()
        try:
            with ctx.root_span("characterize"):
                ...run the command...
        finally:
            ctx.finalize()

    ``arm`` publishes the requested output paths to the ``REPRO_*``
    environment (so worker processes record too) and pins a fresh
    :class:`Recorder`; ``finalize`` writes whichever of trace, metrics
    and manifest files were requested, then restores the environment and
    recorder state exactly -- repeated in-process ``main()`` calls (the
    test suite) start clean each time.
    """

    def __init__(self, *, trace: Optional[str] = None,
                 metrics: Optional[str] = None,
                 manifest: Optional[str] = None,
                 live: Optional[str] = None,
                 command: Optional[str] = None,
                 cli_args: Optional[Mapping[str, Any]] = None) -> None:
        self.trace_path = trace
        self.metrics_path = metrics
        self.manifest_path = manifest
        self.live_dir = live
        self.command = command
        self.cli_args = dict(cli_args) if cli_args else {}
        self._saved_env: Dict[str, Optional[str]] = {}
        self._prev_pinned: Optional[Any] = None
        self._armed = False
        self._start = 0.0
        self._snapshotter: Optional[Snapshotter] = None

    @classmethod
    def from_args(cls, args: Any) -> "RunContext":
        """Build from an argparse namespace (absent flags tolerated)."""
        cli_args = {
            key: value for key, value in sorted(vars(args).items())
            if key != "func" and isinstance(value, (str, int, float, bool,
                                                    type(None)))
        }
        return cls(
            trace=getattr(args, "trace", None),
            metrics=getattr(args, "metrics", None),
            manifest=getattr(args, "manifest", None),
            live=getattr(args, "live", None),
            command=getattr(args, "command", None),
            cli_args=cli_args,
        )

    @property
    def wants_telemetry(self) -> bool:
        env_on = _recorder._env_enabled(_recorder._env_signature())
        return bool(self.trace_path or self.metrics_path
                    or self.manifest_path or self.live_dir or env_on)

    def arm(self) -> None:
        """Publish the telemetry decision to the env; pin a recorder.

        With ``--live`` (or ``REPRO_LIVE``) the parent additionally
        starts the background :class:`Snapshotter` over the pinned
        recorder, and points ``REPRO_FLIGHT_DIR`` at the live directory
        (unless already set) so flight postmortems land next to the
        snapshots.  Workers inherit ``REPRO_LIVE`` only as an
        enable-recording signal -- they never start their own
        snapshotter; the parent registry is the merged view.
        """
        for var, value in ((TRACE_ENV_VAR, self.trace_path),
                           (METRICS_ENV_VAR, self.metrics_path),
                           (MANIFEST_ENV_VAR, self.manifest_path),
                           (LIVE_ENV_VAR, self.live_dir)):
            self._saved_env[var] = os.environ.get(var)
            if value:
                os.environ[var] = str(value)
        # Flags may name paths the env already does not; fold env-named
        # paths back so finalize() writes them even on env-only runs.
        self.trace_path = self.trace_path or os.environ.get(TRACE_ENV_VAR)
        self.metrics_path = (self.metrics_path
                             or os.environ.get(METRICS_ENV_VAR))
        self.manifest_path = (self.manifest_path
                              or os.environ.get(MANIFEST_ENV_VAR))
        self.live_dir = live_dir_from_env()
        if self.live_dir:
            self._saved_env[FLIGHT_DIR_ENV_VAR] = os.environ.get(
                FLIGHT_DIR_ENV_VAR)
            os.environ.setdefault(FLIGHT_DIR_ENV_VAR, self.live_dir)
        self._armed = True
        self._start = time.monotonic()
        # A host process (the serve daemon, a test harness) may already
        # have pinned a recorder; remember it so finalize() can restore
        # the pin instead of silently dropping the host's telemetry.
        self._prev_pinned = pinned_recorder()
        if self.wants_telemetry:
            rec = Recorder()
            set_recorder(rec)
            if self.live_dir:
                self._snapshotter = Snapshotter(rec, self.live_dir).start()

    def root_span(self, name: str):
        """The root span for the command body."""
        return get_recorder().span(name, command=self.command)

    def finalize(self) -> List[str]:
        """Export requested artifacts; restore env and recorder state.

        Returns the list of file paths written (for the CLI to report).
        """
        if not self._armed:
            return []
        written: List[str] = []
        try:
            if self._snapshotter is not None:
                self._snapshotter.stop(final=True)
                written.append(self._snapshotter.snapshot_path)
                written.append(self._snapshotter.openmetrics_path)
                self._snapshotter = None
            rec = get_recorder()
            if rec.enabled:
                if self.trace_path:
                    write_chrome_trace(self.trace_path, rec.trace_events())
                    written.append(self.trace_path)
                if self.metrics_path:
                    write_metrics(self.metrics_path, rec.metrics_payload())
                    written.append(self.metrics_path)
                if self.manifest_path:
                    write_manifest(
                        self.manifest_path, rec,
                        command=self.command, args=self.cli_args,
                        extra={"wall_seconds": time.monotonic() - self._start},
                    )
                    written.append(self.manifest_path)
        finally:
            for var, value in self._saved_env.items():
                if value is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = value
            self._saved_env.clear()
            self._armed = False
            reset_recorder()
            if self._prev_pinned is not None:
                set_recorder(self._prev_pinned)
                self._prev_pinned = None
        return written
