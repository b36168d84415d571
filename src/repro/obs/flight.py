"""Solve flight recorder: a ring of failed solves and analyses, dumped on failure.

A ``ConvergenceError`` postmortem used to say only *that* the retry
ladder ran out -- nothing about the iterations that led up to it.  The
flight recorder turns every such failure into an actionable artifact:
a fixed-size ring of small solve records, dumped when a solve exhausts
the retry ladder -- atomically, temp-file + rename -- to
``flight_<ts>_<pid>_<seq>.json``.

The ring takes three kinds of entry, each as it happens:

* every *failed* Newton solve (circuit size, driver, iteration count,
  outcome, and the phase seconds its analysis had spent so far);
* every escalation rung (via :meth:`FlightRecorder.note_rung`), so a
  dump shows the *history* of ladder escalation around the failure;
* one record per *analysis*, when it ends and folds its accounting
  (:meth:`~repro.spice.engine.SolveContext.fold`): a solve record that
  also counts the analysis's ``solves`` and ``failures``, with
  ``iterations`` their sum and ``phases`` its phase split.

A healthy solve appends nothing, so the ring costs a constant per
analysis.

The ring rides on the telemetry :class:`~repro.obs.recorder.Recorder`
(lazily, as ``recorder.flight``), so it exists only while telemetry is
enabled and its memory is bounded by ``REPRO_FLIGHT`` (default
64 entries; ``0`` disables the ring while leaving the rest of the
telemetry plane on).  ``REPRO_FLIGHT_DIR`` chooses where dumps land
(default: the working directory; the CLI's ``--live`` arming points it
at ``<run_dir>/live``).
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

__all__ = [
    "FLIGHT_ENV_VAR", "FLIGHT_DIR_ENV_VAR", "DEFAULT_RING_SIZE",
    "FlightRecorder", "flight_ring_size", "flight_dump_dir", "dump_flight",
]

#: Ring capacity (entries); ``0`` disables the flight recorder.
FLIGHT_ENV_VAR = "REPRO_FLIGHT"
#: Directory flight dumps are written to (default: current directory).
FLIGHT_DIR_ENV_VAR = "REPRO_FLIGHT_DIR"

DEFAULT_RING_SIZE = 64

#: Counter family incremented once per dump, labelled by trigger reason.
DUMP_COUNTER = "obs.flight.dumps"


def flight_ring_size() -> int:
    """The configured ring capacity (``REPRO_FLIGHT``, default 64)."""
    raw = os.environ.get(FLIGHT_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_RING_SIZE
    try:
        size = int(raw)
    except ValueError:
        return DEFAULT_RING_SIZE
    return max(0, size)


def flight_dump_dir() -> str:
    """The configured dump directory (``REPRO_FLIGHT_DIR``, default cwd)."""
    return os.environ.get(FLIGHT_DIR_ENV_VAR, "").strip() or "."


class FlightRecorder:
    """A thread-safe fixed-size ring of solve and rung events.

    Entries are plain dicts.  Solve records carry ``"event": "solve"``
    plus whatever the solver attached (driver, n, iterations, outcome,
    phases; an analysis's record also ``solves`` and ``failures``);
    rung records carry ``"event": "rung"`` and the rung name.  Every
    entry is stamped with a monotonic ``t`` so dump readers can order
    and interval the history.
    """

    def __init__(self, size: Optional[int] = None) -> None:
        if size is None:
            size = flight_ring_size()
        self.size = size
        self._ring: deque = deque(maxlen=size) if size > 0 else deque(maxlen=1)
        self._lock = threading.Lock()
        self._seq = 0
        self.enabled = size > 0

    def note_solve(self, **record: Any) -> None:
        """Append one solve record (a failed solve, or an analysis's
        solves) to the ring."""
        if not self.enabled:
            return
        record["event"] = "solve"
        record["t"] = time.monotonic()
        with self._lock:
            self._ring.append(record)

    def note_rung(self, rung: str) -> None:
        """Append one escalation-rung event to the ring."""
        if not self.enabled:
            return
        entry = {"event": "rung", "rung": rung, "t": time.monotonic()}
        with self._lock:
            self._ring.append(entry)

    def records(self) -> List[Dict[str, Any]]:
        """The current ring contents, oldest first."""
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def dump(self, reason: str,
             context: Optional[Dict[str, Any]] = None,
             directory: Optional[str] = None) -> Optional[str]:
        """Write the ring to ``flight_<ts>_<pid>_<seq>.json``, atomically.

        Returns the written path, or ``None`` when the ring is disabled
        (``REPRO_FLIGHT=0``) or the write failed.  An *empty* ring still
        dumps -- a fault that killed every attempt before its first
        Newton solve leaves no solve records, but the dump's ``reason``
        and ``context`` are exactly the postmortem wanted.  Never
        raises: a failed dump must not mask the solver error that
        triggered it.
        """
        if not self.enabled:
            return None
        records = self.records()
        with self._lock:
            self._seq += 1
            seq = self._seq
        directory = directory or flight_dump_dir()
        stamp = int(time.time() * 1000)
        name = f"flight_{stamp}_{os.getpid()}_{seq}.json"
        path = os.path.join(directory, name)
        document = {
            "schema": 1,
            "kind": "repro-flight",
            "reason": reason,
            "time": time.time(),
            "pid": os.getpid(),
            "ring_size": self.size,
            "context": context or {},
            "records": records,
        }
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, prefix=".flight-",
                                       suffix=".tmp")
            try:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    json.dump(document, handle, indent=2, sort_keys=True)
                    handle.write("\n")
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return None
        return path


def dump_flight(recorder, reason: str,
                context: Optional[Dict[str, Any]] = None) -> Optional[str]:
    """Dump ``recorder``'s flight ring, counting the trigger by reason.

    The convenience wrapper the failure sites call: a no-op (returning
    ``None``) when telemetry is off or the ring is disabled/empty, else
    the written dump path.  Increments ``obs.flight.dumps{reason=...}``
    so dumps are visible in metric summaries even if the files are
    swept away.
    """
    if recorder is None or not recorder.enabled:
        return None
    path = recorder.flight.dump(reason, context)
    if path is not None:
        recorder.counter(DUMP_COUNTER, reason=reason).inc()
    return path
