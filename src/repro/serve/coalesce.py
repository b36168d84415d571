"""Request coalescing: concurrent shot requests merged into batch lanes.

Every delay query the server computes bottoms out in one or more
:func:`repro.charlib.simulate.multi_input_response` transients.  The
broker gathers concurrent ones into one
:func:`repro.charlib.simulate.multi_input_response_batch` call, which
runs each lane on the scalar engine -- so coalescing changes
scheduling, never results.

The :class:`ShotBroker` is the shot router the server installs via
:func:`repro.charlib.simulate.set_shot_router`: handler threads that
hit the seam block while a dispatcher thread gathers their requests,
groups them by compatibility (same gate/threshold objects, same retry
configuration -- only identical solver settings may share a batch), and
flushes a group when every active request is already waiting *and*
arrivals have quiesced for the dwell window (half the gather window by
default), when a group reaches the lane cap (``REPRO_SERVE_LANES``,
default 16), or when the oldest entry has waited out the gather window
(``REPRO_SERVE_GATHER`` seconds, default 2 ms -- the deadlock-safety
net).  Failures stay per-lane: the slot's exception is re-raised in the
submitting thread, exactly as the scalar call would have raised it.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..charlib.simulate import multi_input_response_batch, set_shot_router
from ..obs import get_recorder

__all__ = [
    "COALESCE_ENV_VAR", "GATHER_ENV_VAR", "LANES_ENV_VAR",
    "DEFAULT_GATHER", "DEFAULT_LANES",
    "coalescing_enabled", "serve_gather", "serve_lanes", "ShotBroker",
]

#: Set to 0/false/off to disable request coalescing (scalar fallback).
COALESCE_ENV_VAR = "REPRO_SERVE_COALESCE"
#: Gather window in seconds before a partial lane group flushes.
GATHER_ENV_VAR = "REPRO_SERVE_GATHER"
#: Maximum requests coalesced into one batched call.
LANES_ENV_VAR = "REPRO_SERVE_LANES"

DEFAULT_GATHER = 0.002
DEFAULT_LANES = 16

#: Histogram edges for lane fill (requests per flushed batch).
LANE_FILL_EDGES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def coalescing_enabled() -> bool:
    """Whether coalescing is on (``REPRO_SERVE_COALESCE``, default on)."""
    raw = os.environ.get(COALESCE_ENV_VAR, "").strip().lower()
    return raw not in ("0", "false", "no", "off")


def serve_gather() -> float:
    """The gather window (``REPRO_SERVE_GATHER`` seconds, default 2 ms)."""
    raw = os.environ.get(GATHER_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_GATHER
    try:
        gather = float(raw)
    except ValueError:
        return DEFAULT_GATHER
    return max(0.0, gather)


def serve_lanes() -> int:
    """The lane cap per batch (``REPRO_SERVE_LANES``, default 16)."""
    raw = os.environ.get(LANES_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_LANES
    try:
        lanes = int(raw)
    except ValueError:
        return DEFAULT_LANES
    return max(1, lanes)


class _PendingShot:
    """One blocked scalar request waiting for its batch lane."""

    __slots__ = ("key", "gate", "edges", "thresholds", "reference", "load",
                 "max_retries", "retry", "event", "outcome", "arrived")

    def __init__(self, key, gate, edges, thresholds, reference, load,
                 max_retries, retry) -> None:
        self.key = key
        self.gate = gate
        self.edges = edges
        self.thresholds = thresholds
        self.reference = reference
        self.load = load
        self.max_retries = max_retries
        self.retry = retry
        self.event = threading.Event()
        self.outcome: Any = None
        self.arrived = time.monotonic()


class ShotBroker:
    """Gathers concurrent shot requests and flushes them as batch lanes.

    Use :meth:`install` / :meth:`remove` to hook the simulate seam, and
    wrap each server-side computation in :meth:`active` so the broker
    knows how many threads could still submit: the moment every active
    computation is blocked in :meth:`route`, waiting any longer cannot
    grow the lane, so the group flushes immediately -- a lone request
    coalesces with nobody and pays (almost) no gather latency.
    """

    def __init__(self, *, gather: Optional[float] = None,
                 max_lanes: Optional[int] = None,
                 dwell: Optional[float] = None) -> None:
        self.gather = serve_gather() if gather is None else gather
        self.max_lanes = serve_lanes() if max_lanes is None else max(1, max_lanes)
        # The all-waiting flush debounces on arrival quiescence: under a
        # client stampede, requests trickle in over several GIL slices,
        # and flushing the instant the *current* arrivals are all blocked
        # would shred the stampede into tiny lanes.  Waiting until no new
        # request has arrived for ``dwell`` seconds (default: half the
        # gather window) lets the pile-up complete; a lone client pays at
        # most the dwell on top of its solve.
        self.dwell = (self.gather / 2.0) if dwell is None else max(0.0, dwell)
        self._cond = threading.Condition()
        self._pending: List[_PendingShot] = []
        self._active = 0
        self._stopped = True
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "ShotBroker":
        with self._cond:
            if not self._stopped:
                return self
            self._stopped = False
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve-broker")
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop gathering; pending requests are flushed, not dropped."""
        with self._cond:
            if self._stopped:
                return
            self._stopped = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def install(self) -> "ShotBroker":
        """Start and hook :func:`set_shot_router`; returns self."""
        self.start()
        set_shot_router(self)
        return self

    def remove(self) -> None:
        """Unhook the router seam (if we own it) and stop."""
        from ..charlib.simulate import get_shot_router
        if get_shot_router() is self:
            set_shot_router(None)
        self.stop()

    # -- server bookkeeping --------------------------------------------
    def enter_active(self) -> None:
        with self._cond:
            self._active += 1

    def exit_active(self) -> None:
        with self._cond:
            self._active = max(0, self._active - 1)
            self._cond.notify_all()

    def active(self):
        """Context manager bracketing one server-side computation."""
        broker = self

        class _Active:
            def __enter__(self):
                broker.enter_active()
                return broker

            def __exit__(self, *exc_info):
                broker.exit_active()

        return _Active()

    # -- the router seam ------------------------------------------------
    def route(self, gate, edges: Mapping[str, Any], thresholds, *,
              reference: Optional[str], load, max_retries: int,
              retry) -> Optional[Any]:
        """Block until a batch lane computed this request; None declines.

        Compatibility is by object identity on (gate, thresholds) plus
        the retry configuration -- the warm server state shares one gate
        and thresholds object per configuration, so identity grouping is
        exact and can never merge requests whose solves would differ.
        """
        if threading.current_thread() is self._thread:
            return None  # the dispatcher itself must run scalar
        key = (id(gate), id(thresholds), max_retries, id(retry))
        entry = _PendingShot(key, gate, edges, thresholds, reference, load,
                             max_retries, retry)
        with self._cond:
            if self._stopped:
                return None
            self._pending.append(entry)
            self._cond.notify_all()
        entry.event.wait()
        recorder = get_recorder()
        if recorder.enabled:
            recorder.histogram("serve.queue.wait").observe(
                time.monotonic() - entry.arrived)
        if isinstance(entry.outcome, Exception):
            raise entry.outcome
        return entry.outcome

    # -- the dispatcher --------------------------------------------------
    def _ready_reason(self, now: float) -> Optional[str]:
        """Why the oldest group should flush now, or ``None`` to wait."""
        if not self._pending:
            return None
        if self._stopped:
            return "drain"
        counts: Dict[Tuple, int] = {}
        for entry in self._pending:
            counts[entry.key] = counts.get(entry.key, 0) + 1
        if max(counts.values()) >= self.max_lanes:
            return "lane_cap"
        if (len(self._pending) >= max(1, self._active)
                and now - self._pending[-1].arrived >= self.dwell):
            return "all_waiting"
        if now - self._pending[0].arrived >= self.gather:
            return "gather_timeout"
        return None

    def _take_group(self) -> List[_PendingShot]:
        """Remove and return the largest compatible group (lane-capped)."""
        counts: Dict[Tuple, int] = {}
        for entry in self._pending:
            counts[entry.key] = counts.get(entry.key, 0) + 1
        key = max(counts, key=lambda k: counts[k])
        group: List[_PendingShot] = []
        keep: List[_PendingShot] = []
        for entry in self._pending:
            if entry.key == key and len(group) < self.max_lanes:
                group.append(entry)
            else:
                keep.append(entry)
        self._pending = keep
        return group

    def _run(self) -> None:
        while True:
            with self._cond:
                if self._stopped and not self._pending:
                    return
                now = time.monotonic()
                reason = self._ready_reason(now)
                if reason is None:
                    if self._pending:
                        remaining = self.gather - (now - self._pending[0].arrived)
                        if len(self._pending) >= max(1, self._active):
                            remaining = min(
                                remaining,
                                self.dwell - (now - self._pending[-1].arrived))
                        self._cond.wait(max(1e-4, min(remaining, 0.05)))
                    else:
                        self._cond.wait(0.1)
                    continue
                group = self._take_group()
            self._flush(group, reason)

    def _flush(self, group: List[_PendingShot], reason: str) -> None:
        first = group[0]
        requests = [(e.edges, e.reference, e.load) for e in group]
        try:
            outcomes = multi_input_response_batch(
                first.gate, requests, first.thresholds,
                max_retries=first.max_retries, retry=first.retry)
        except Exception as exc:  # defensive: batch isolates per-lane errors
            for entry in group:
                entry.outcome = exc
                entry.event.set()
        else:
            for entry, outcome in zip(group, outcomes):
                entry.outcome = outcome
                entry.event.set()
        recorder = get_recorder()
        if recorder.enabled:
            recorder.counter("serve.coalesce.flushes", reason=reason).inc()
            recorder.histogram("serve.coalesce.lane_fill",
                               edges=LANE_FILL_EDGES).observe(len(group))
