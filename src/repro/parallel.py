"""Fault-tolerant process-pool fan-out for the embarrassingly parallel
hot paths.

Characterization sweeps, oracle prefetches and experiment populations
are all lists of independent transient simulations; this module gives
them one shared execution primitive, :func:`parallel_map`, built on
:class:`concurrent.futures.ProcessPoolExecutor` with per-future
submission so that one bad task can no longer take the sweep down.

Design rules, enforced here so every call site inherits them:

* **Serial by default.**  The worker count resolves from an explicit
  argument first, then the ``REPRO_WORKERS`` environment variable, then
  ``0`` (serial, in-process).  Unless the caller opts in, behavior --
  including cache population order -- is exactly the pre-parallel code
  path.
* **Deterministic merge.**  Results always come back in input order
  regardless of completion order, so a parallel run produces tables
  bit-identical to a serial run of the same work list.
* **Fault containment.**  Each pooled task (one item, or a chunk of
  ``chunksize`` items) is its own future.  A worker that
  dies (:class:`~concurrent.futures.process.BrokenProcessPool`) triggers
  an automatic pool rebuild and resubmission of the in-flight tasks,
  bounded by ``pool_retries`` per task; a task that exceeds the per-task
  ``timeout`` is abandoned and the pool rebuilt (a hung worker cannot be
  interrupted, only replaced).  With ``on_error="collect"`` every lost
  or failing task yields an ordered :class:`TaskFailure` record in its
  result slot instead of aborting the sweep.
* **Picklable tasks.**  Worker functions must be module-level and their
  arguments picklable; every call site in :mod:`repro` ships plain
  dataclasses (gates, edges, thresholds) that satisfy this.

Worker processes inherit the environment, so ``REPRO_CACHE_DIR``
redirection, the ``REPRO_RETRY`` solver ladder and the ``REPRO_FAULTS``
fault-injection plan (see :mod:`repro.resilience.faults`) all apply to
them too; concurrent cache writes are safe because
:meth:`repro.charlib.cache.CharacterizationCache.store` stages each
write in a unique per-writer temp file before its atomic rename.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool, _ExceptionWithTraceback
from dataclasses import dataclass
from time import monotonic
from typing import Callable, Dict, Iterable, List, Optional, TypeVar, Union

from .errors import ReproError, TaskError
from .obs import capture_task, get_recorder
from .resilience import faults

__all__ = [
    "WORKERS_ENV_VAR", "TIMEOUT_ENV_VAR", "BATCH_ENV_VAR", "TaskFailure",
    "resolve_workers", "resolve_timeout", "resolve_batch", "parallel_map",
]

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Environment variable consulted when no explicit task timeout is given.
TIMEOUT_ENV_VAR = "REPRO_TASK_TIMEOUT"

#: Environment variable consulted when no explicit batch size is given.
BATCH_ENV_VAR = "REPRO_BATCH"

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class TaskFailure:
    """The ordered record of one task the sweep could not complete.

    In ``on_error="collect"`` mode, :func:`parallel_map` puts one of
    these in the failed task's result slot (results stay input-ordered).
    ``kind`` is ``"error"`` (the task raised; ``exception`` holds it),
    ``"timeout"`` (exceeded the per-task timeout) or ``"crash"`` (its
    worker died past the resubmission budget).  ``attempts`` counts pool
    rebuild resubmissions the task consumed.
    """

    index: int
    kind: str
    message: str
    error_type: str = ""
    attempts: int = 1
    exception: Optional[BaseException] = None

    def describe(self) -> str:
        """One line suitable for logs and health reports."""
        label = f"{self.kind}:{self.error_type}" if self.error_type else self.kind
        return f"task {self.index} [{label}] {self.message}"


def resolve_workers(workers: Optional[int] = None) -> int:
    """The effective worker count for a parallelizable call.

    Resolution order: the explicit ``workers`` argument, then the
    ``REPRO_WORKERS`` environment variable, then ``0``.  ``0`` and ``1``
    both mean serial in-process execution; a negative count means "all
    cores" (:func:`os.cpu_count`).
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV_VAR, "").strip()
        if not env:
            return 0
        try:
            workers = int(env)
        except ValueError:
            raise ReproError(
                f"{WORKERS_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    workers = int(workers)
    if workers < 0:
        workers = os.cpu_count() or 1
    return workers


def resolve_timeout(timeout: Optional[float] = None) -> Optional[float]:
    """The effective per-task timeout in seconds (``None`` = no limit).

    Resolution order: the explicit ``timeout`` argument, then the
    ``REPRO_TASK_TIMEOUT`` environment variable, then no limit.  Zero
    and negative values disable the limit.
    """
    if timeout is None:
        env = os.environ.get(TIMEOUT_ENV_VAR, "").strip()
        if not env:
            return None
        try:
            timeout = float(env)
        except ValueError:
            raise ReproError(
                f"{TIMEOUT_ENV_VAR} must be a number of seconds, got {env!r}"
            ) from None
    timeout = float(timeout)
    return timeout if timeout > 0 else None


def resolve_batch(batch: Optional[int] = None) -> int:
    """The effective batch size for a characterization sweep.

    Resolution order: the explicit ``batch`` argument, then the
    ``REPRO_BATCH`` environment variable, then ``0``.  The batch size is
    the number of grid points one pooled task carries (the
    ``chunksize`` of :func:`parallel_map`); ``0`` and ``1`` both mean
    one point per task.  It only chunks pool tasks, so it has no effect
    at ``workers <= 1``, and it never changes results.
    """
    if batch is None:
        env = os.environ.get(BATCH_ENV_VAR, "").strip()
        if not env:
            return 0
        try:
            batch = int(env)
        except ValueError:
            raise ReproError(
                f"{BATCH_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    batch = int(batch)
    if batch < 0:
        raise ReproError(f"batch size must be >= 0, got {batch}")
    return batch


def _invoke(fn: Callable[[T], R], indices: range, items: List[T]) -> list:
    """Worker-side wrapper of one pooled chunk: the fault-injection and
    telemetry seam.

    Runs ``fn`` on each item of the chunk in turn.  ``crash`` and
    ``hang`` faults (:mod:`repro.resilience.faults`) fire before each
    item, addressed by its index in the map -- only on the pool path,
    since they model *worker* failures.  Returns one outcome per item:
    the ``(result, telemetry)`` envelope of :func:`repro.obs.capture_task`
    (the task records into its worker's recorder and ships the metric
    delta plus its spans back with the result, which is what keeps
    parent-side totals invariant to the worker count; ``telemetry`` is
    ``None`` with telemetry disabled), or the :class:`TaskFailure` of an
    item that raised, so its chunk-mates keep their results.
    """
    outcomes: list = []
    for index, item in zip(indices, items):
        faults.fire_task(index)
        try:
            outcomes.append(capture_task(fn, item, index))
        except Exception as exc:
            # The wrapper the pool itself ships exceptions in: unpickled
            # in the parent, it is ``exc`` with the worker's traceback as
            # its ``__cause__``.
            outcomes.append(TaskFailure(
                index=index, kind="error", message=str(exc),
                error_type=type(exc).__name__,
                exception=_ExceptionWithTraceback(exc, exc.__traceback__),
            ))
    return outcomes


def parallel_map(fn: Callable[[T], R], items: Iterable[T], *,
                 workers: Optional[int] = None,
                 chunksize: int = 1,
                 timeout: Optional[float] = None,
                 on_error: str = "raise",
                 pool_retries: int = 2,
                 on_result: Optional[Callable[[int, R], None]] = None,
                 ) -> List[Union[R, TaskFailure]]:
    """Map ``fn`` over ``items``, returning results in input order.

    With a resolved worker count of 0 or 1 (the default), this is a
    plain in-process loop -- same objects, same call order, no pickling.
    Otherwise each chunk of items is submitted as its own future over a
    process pool; ``fn`` must then be a module-level function and every
    item picklable.

    ``timeout`` (or ``REPRO_TASK_TIMEOUT``) bounds each task's run time
    on the pool path; a task past its deadline is abandoned and the pool
    rebuilt, since a hung worker can only be replaced, not interrupted.
    (The serial path cannot preempt a running call, so timeouts apply
    only when fanned out.)  A worker crash rebuilds the pool and
    resubmits the in-flight tasks up to ``pool_retries`` extra attempts
    each.

    ``on_error="raise"`` (the default) propagates the first task
    exception -- or raises :class:`~repro.errors.TaskError` for crashes
    and timeouts, which have no exception object -- exactly like the
    pre-resilience behavior.  ``on_error="collect"`` never aborts: each
    lost task's slot holds an ordered :class:`TaskFailure` record and
    every other slot its real result.

    ``chunksize`` items ride in each pooled task (values below 1 mean
    1), which saves pickling the arguments they share.  A chunk applies
    ``fn`` to each of its items and returns a value or a failure record
    per item, so a failing item loses only itself; a chunk lost to a
    worker crash or a timeout fails each of its items with that record.
    ``timeout`` and ``pool_retries`` apply to the pooled task, that is
    to a whole chunk.  The serial path ignores chunking.

    ``on_result(index, value)`` is called in the parent process as each
    item completes (in completion order); the progress journal hooks in
    here.  Like the ``parallel.tasks.*`` counters it sees one event per
    item, whatever the chunk size.
    """
    if on_error not in ("raise", "collect"):
        raise ReproError(f"on_error must be 'raise' or 'collect', got {on_error!r}")
    items = list(items)
    count = resolve_workers(workers)
    limit = resolve_timeout(timeout)
    size = max(1, int(chunksize))
    chunks = [range(start, min(start + size, len(items)))
              for start in range(0, len(items), size)]
    if count <= 1 or len(chunks) <= 1:
        return _serial_map(fn, items, on_error, on_result)
    return _pool_map(fn, items, chunks, min(count, len(chunks)), limit,
                     on_error, max(0, int(pool_retries)), on_result)


def _serial_map(fn, items, on_error, on_result):
    recorder = get_recorder()
    results: List = []
    for index, item in enumerate(items):
        try:
            if recorder.enabled:
                start = monotonic()
                with recorder.span("parallel.task", index=index):
                    value = fn(item)
                recorder.histogram("parallel.task_execute_seconds").observe(
                    monotonic() - start)
            else:
                value = fn(item)
        except Exception as exc:
            if on_error == "raise":
                raise
            recorder.counter("parallel.tasks.failed", kind="error").inc()
            results.append(TaskFailure(
                index=index, kind="error", message=str(exc),
                error_type=type(exc).__name__, exception=exc,
            ))
            continue
        recorder.counter("parallel.tasks.completed").inc()
        if on_result is not None:
            on_result(index, value)
        results.append(value)
    return results


def _shutdown_pool(pool: ProcessPoolExecutor) -> None:
    """Shut a pool down without waiting, terminating stuck workers.

    After a timeout or crash the old pool may hold hung or dying
    processes; ``terminate`` guarantees they release their cores and do
    not stall interpreter exit.  (``_processes`` is executor-internal
    but stable across supported Python versions; degrade gracefully if
    it ever disappears.)
    """
    internal = getattr(pool, "_processes", None)
    processes = list(internal.values()) if isinstance(internal, dict) else []
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            if process.is_alive():
                process.terminate()
        except Exception:  # pragma: no cover - best-effort cleanup
            pass


_PENDING = object()


def _pool_map(fn, items, chunks, count, limit, on_error, pool_retries,
              on_result):
    recorder = get_recorder()
    recorder.gauge("parallel.workers").set(count)
    results: List = [_PENDING] * len(items)
    attempts = [0] * len(chunks)  # crashed runs per chunk
    queue = deque(range(len(chunks)))  # unsubmitted chunks, ascending
    pool = ProcessPoolExecutor(max_workers=count)
    inflight: Dict[object, int] = {}       # future -> chunk
    deadlines: Dict[object, float] = {}    # future -> abs deadline
    submitted: Dict[object, float] = {}    # future -> submission stamp

    def fail(indices, kind: str, message: str, *, runs: int,
             error_type: str = "", exception=None) -> None:
        """Record one failure per item of ``indices`` (or raise it).

        ``runs`` is the number of times the chunk ran: its crashed runs,
        plus one for an error or timeout.
        """
        if on_error == "raise":
            if exception is not None:
                raise exception
            raise TaskError(f"task {indices[0]} {kind}: {message}")
        for index in indices:
            recorder.counter("parallel.tasks.failed", kind=kind).inc()
            results[index] = TaskFailure(
                index=index, kind=kind, message=message,
                error_type=error_type, attempts=runs, exception=exception,
            )

    def absorb(submit, telemetry) -> None:
        """Fold one item's shipped telemetry into the parent recorder."""
        if telemetry is None or not recorder.enabled:
            return
        try:
            recorder.absorb_task(telemetry)
        except ReproError:
            # The merge is transactional, so a rejected payload left the
            # registry untouched; dropping the delta (and counting it)
            # beats failing the task whose *result* arrived fine.
            recorder.counter("parallel.telemetry.dropped").inc()
            return
        if submit is not None:
            recorder.histogram("parallel.task_queue_wait_seconds").observe(
                max(0.0, telemetry["start"] - submit))
        recorder.histogram("parallel.task_execute_seconds").observe(
            max(0.0, telemetry["end"] - telemetry["start"]))

    def complete(chunk: int, outcomes, submit) -> None:
        """Take one finished chunk's per-item outcomes."""
        for index, outcome in zip(chunks[chunk], outcomes):
            if isinstance(outcome, TaskFailure):
                fail((index,), "error", outcome.message,
                     runs=attempts[chunk] + 1,
                     error_type=outcome.error_type,
                     exception=outcome.exception)
                continue
            value, telemetry = outcome
            absorb(submit, telemetry)
            recorder.counter("parallel.tasks.completed").inc()
            results[index] = value
            if on_result is not None:
                on_result(index, value)

    def recycle_inflight(*, broken: bool) -> None:
        """Requeue in-flight chunks around a pool rebuild.

        After a crash (``broken=True``) each resubmission consumes one
        of the chunk's ``pool_retries`` attempts -- a chunk that keeps
        killing workers must eventually be declared lost, not retried
        forever.  After a timeout the surviving in-flight chunks are
        innocent bystanders and resubmit for free.
        """
        pending = sorted(inflight.values())
        inflight.clear()
        deadlines.clear()
        submitted.clear()
        for chunk in reversed(pending):  # appendleft keeps ascending order
            if broken:
                attempts[chunk] += 1
                if attempts[chunk] > pool_retries:
                    fail(chunks[chunk], "crash",
                         f"worker process died {attempts[chunk]} times "
                         f"running this task", runs=attempts[chunk])
                    continue
            recorder.counter("parallel.tasks.resubmitted").inc(
                len(chunks[chunk]))
            queue.appendleft(chunk)

    try:
        while queue or inflight:
            # Keep exactly `count` chunks in flight: a submitted chunk
            # starts (almost) immediately, which is what makes the
            # submission-time deadline a faithful per-task timeout.
            rebuild = False
            while queue and len(inflight) < count:
                chunk = queue.popleft()
                indices = chunks[chunk]
                try:
                    future = pool.submit(_invoke, fn, indices,
                                         [items[i] for i in indices])
                except BrokenProcessPool:
                    queue.appendleft(chunk)
                    rebuild = True
                    break
                inflight[future] = chunk
                submitted[future] = monotonic()
                if limit is not None:
                    deadlines[future] = monotonic() + limit
            # Worker-health signal for `repro top`: how many items the
            # pool currently has in flight (live snapshots read gauges
            # from the parent recorder only, so this is pool-side state,
            # never shipped from workers).
            recorder.gauge("parallel.tasks.inflight").set(
                sum(len(chunks[c]) for c in inflight.values()))
            if rebuild:
                recorder.counter("parallel.pool.rebuilds", cause="crash").inc()
                recycle_inflight(broken=True)
                _shutdown_pool(pool)
                pool = ProcessPoolExecutor(max_workers=count)
                continue

            wait_for = None
            if deadlines:
                wait_for = max(0.0, min(deadlines.values()) - monotonic())
            done, _ = wait(set(inflight), timeout=wait_for,
                           return_when=FIRST_COMPLETED)

            broken = False
            for future in done:
                chunk = inflight.pop(future)
                deadlines.pop(future, None)
                exc = future.exception()
                if exc is None:
                    complete(chunk, future.result(), submitted.pop(future, None))
                elif isinstance(exc, BrokenProcessPool):
                    # Victim of a died worker; requeue with the rest.
                    inflight[future] = chunk
                    broken = True
                else:
                    submitted.pop(future, None)
                    fail(chunks[chunk], "error", str(exc),
                         runs=attempts[chunk] + 1,
                         error_type=type(exc).__name__, exception=exc)
            if broken:
                recorder.counter("parallel.pool.rebuilds", cause="crash").inc()
                recycle_inflight(broken=True)
                _shutdown_pool(pool)
                pool = ProcessPoolExecutor(max_workers=count)
                continue

            if limit is not None and deadlines:
                now = monotonic()
                expired = [f for f, deadline in deadlines.items()
                           if deadline <= now]
                if expired:
                    for future in expired:
                        chunk = inflight.pop(future)
                        deadlines.pop(future, None)
                        fail(chunks[chunk], "timeout",
                             f"exceeded the {limit:g}s task timeout",
                             runs=attempts[chunk] + 1)
                    # The hung workers still occupy pool slots; replace
                    # the pool and resubmit the innocent in-flight chunks.
                    recorder.counter("parallel.pool.rebuilds",
                                     cause="timeout").inc()
                    recycle_inflight(broken=False)
                    _shutdown_pool(pool)
                    pool = ProcessPoolExecutor(max_workers=count)
    finally:
        recorder.gauge("parallel.tasks.inflight").set(0)
        _shutdown_pool(pool)

    assert all(slot is not _PENDING for slot in results)
    return results
