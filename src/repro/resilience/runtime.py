"""The journaled, failure-collecting fan-out under every long sweep.

:func:`resilient_map` composes the two lower layers -- the fault-tolerant
:func:`repro.parallel.parallel_map` and the per-point
:class:`~repro.resilience.journal.ProgressJournal` -- into the execution
primitive the characterization sweeps and experiments actually call:

* every completed point is journaled as it lands, so an interrupted run
  (Ctrl-C, OOM kill, power cut) can **resume** and recompute only the
  missing points;
* failures come back as ordered
  :class:`~repro.parallel.TaskFailure` records instead of aborting, so
  a sweep **degrades** (NaN cell + health report) rather than dies.

This module imports :mod:`repro.parallel`, which imports the fault hooks
from :mod:`repro.resilience.faults`; keeping it out of the package
``__init__`` is what keeps that import chain acyclic.

Resume is opt-in per run: pass ``resume=True`` or set ``REPRO_RESUME=1``
(the CLI's ``--resume`` flag does the latter, so worker processes and
nested sweeps inherit it).  A fresh (non-resume) run truncates any stale
journal for its key first, so two back-to-back runs of the same sweep
stay independent and bit-identical.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import ReproError
from ..obs import get_recorder
from ..parallel import TaskFailure, parallel_map
from .journal import ProgressJournal

__all__ = ["RESUME_ENV_VAR", "resolve_resume", "resilient_map"]

#: Set to a truthy value ("1", "true", "yes", "on") to resume journaled sweeps.
RESUME_ENV_VAR = "REPRO_RESUME"


def resolve_resume(resume: Optional[bool] = None) -> bool:
    """The effective resume flag: explicit argument, then ``REPRO_RESUME``."""
    if resume is not None:
        return bool(resume)
    env = os.environ.get(RESUME_ENV_VAR, "").strip().lower()
    if not env:
        return False
    if env in ("1", "true", "yes", "on"):
        return True
    if env in ("0", "false", "no", "off"):
        return False
    raise ReproError(f"{RESUME_ENV_VAR} must be a boolean flag, got {env!r}")


def resilient_map(fn: Callable[[Any], Any], items: Sequence[Any], *,
                  journal_kind: str,
                  journal_key: Dict[str, Any],
                  directory: Optional[Union[str, Path]],
                  workers: Optional[int] = None,
                  chunksize: int = 1,
                  timeout: Optional[float] = None,
                  on_error: str = "collect",
                  resume: Optional[bool] = None,
                  encode: Optional[Callable[[Any], Any]] = None,
                  decode: Optional[Callable[[Any], Any]] = None,
                  ) -> Tuple[List[Any], List[TaskFailure]]:
    """Journaled fault-tolerant map; returns ``(results, failures)``.

    ``results`` is input-ordered with one entry per item: the computed
    (or journal-replayed) value, or the :class:`TaskFailure` that lost
    it (``on_error="collect"``).  ``failures`` lists those records
    separately for health reporting.  With ``on_error="raise"`` the
    first failure propagates -- but the journal still holds every point
    completed before it, which is what makes resume-after-abort work.

    The journal lives in ``directory`` (the sweep's cache directory),
    keyed by ``journal_kind`` + the content hash of ``journal_key`` --
    the same identity discipline as the result cache, so a journal can
    never replay against a different grid or process card.  A ``None``
    directory (caching disabled) runs without journaling; resume then
    has nothing to read and every point computes.  ``encode`` maps a
    result to its JSON form before journaling; ``decode`` maps the JSON
    form back on replay (e.g. ``tuple``, since JSON round-trips tuples
    as lists).  Values must otherwise be JSON-representable.

    When every item succeeds the journal is deleted -- the sweep's cache
    entry supersedes it.  While failures remain the journal is kept, so
    a later ``--resume`` run retries only the failed/missing points.

    ``chunksize`` is handed to :func:`~repro.parallel.parallel_map`: how
    many items one pooled task carries.  Every item is still journaled
    and reported on its own, so a sweep interrupted under one chunk size
    resumes under any other.
    """
    items = list(items)
    journal: Optional[ProgressJournal] = None
    if directory is not None:
        journal = ProgressJournal.for_key(directory, journal_kind, journal_key)
    done: Dict[int, Any] = {}
    if journal is not None:
        if resolve_resume(resume):
            done = journal.load(decode=decode)
            if done:
                get_recorder().counter("charlib.journal.resumed_points",
                                       kind=journal_kind).inc(len(done))
        else:
            journal.clear()

    todo = [i for i in range(len(items)) if i not in done]
    index_map = dict(enumerate(todo))  # local pool index -> global index

    def journal_result(local_index: int, value: Any) -> None:
        payload = encode(value) if encode is not None else value
        journal.record(index_map[local_index], payload)

    computed = parallel_map(
        fn, [items[i] for i in todo],
        workers=workers, chunksize=chunksize, timeout=timeout,
        on_error=on_error,
        on_result=journal_result if journal is not None else None,
    )

    results: List[Any] = [None] * len(items)
    failures: List[TaskFailure] = []
    for global_index, value in done.items():
        if 0 <= global_index < len(items):
            results[global_index] = value
    for local_index, value in enumerate(computed):
        global_index = index_map[local_index]
        if isinstance(value, TaskFailure):
            value = TaskFailure(
                index=global_index, kind=value.kind, message=value.message,
                error_type=value.error_type, attempts=value.attempts,
                exception=value.exception,
            )
            failures.append(value)
        results[global_index] = value
    if journal is not None and not failures:
        journal.clear()
    return results, failures
