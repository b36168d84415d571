"""Deterministic fault injection for the characterization runtime.

Every recovery path in :mod:`repro` -- the solver retry ladder, the
fault-tolerant process pool, cache quarantine, checkpoint/resume -- is
only trustworthy if it can be *exercised on demand*.  This module plants
hooks at the failure-prone seams and fires them according to a fault
plan described by the ``REPRO_FAULTS`` environment variable, so the
plan reaches worker processes (which inherit the environment) exactly
like ``REPRO_WORKERS`` and ``REPRO_CACHE_DIR`` do.

Fault plan grammar
------------------

``REPRO_FAULTS`` is a comma-separated list of ``kind@selector[:times]``
clauses:

``point@INDEX[:times]`` / ``point@SCOPE/INDEX[:times]``
    Raise a :class:`~repro.errors.ConvergenceError` inside the
    characterization task for grid point ``INDEX``.  ``SCOPE`` narrows
    the fault to one sweep family (``single`` or ``dual``); a bare index
    matches every scope.
``crash@INDEX[:times]``
    Kill the worker process (``os._exit``) when it reaches item
    ``INDEX`` of a pooled map -- models a segfaulting or OOM-killed
    worker.  The item's whole chunk is lost with it.
``hang@INDEX[:times]``
    Make the worker sleep for ``REPRO_FAULT_HANG`` seconds (default 30)
    when it reaches item ``INDEX`` -- models a hung solve, for
    exercising task timeouts.
``transient@*[:times]``
    Raise a :class:`~repro.errors.ConvergenceError` at the start of a
    transient-analysis attempt -- exercises the solver retry ladder.
``corrupt@KIND[:times]``
    Scribble garbage over the cache entry of the given kind (``vtc``,
    ``single``, ``dual``, ...) right after it is stored -- exercises
    quarantine and recompute-on-corruption.
``sparse@factorize[:times]``
    Raise :class:`numpy.linalg.LinAlgError` from the sparse backend's
    SuperLU factorization -- the exact error a singular matrix
    produces -- exercising the diagonal-nudge rung and the homotopy
    ladder above it on sparse-dispatched solves.  (``sparse@*`` also
    matches, for symmetry with the other wildcard clauses.)

``times`` is how often the clause fires (default ``1``); ``always``
never exhausts.  Counted clauses claim *marker files* in the directory
named by ``REPRO_FAULTS_STATE`` with ``O_EXCL`` atomicity, so a budget
of ``N`` firings holds across any number of worker processes -- and a
worker that crashed still leaves its claim behind, which is what lets a
resubmitted task succeed.  Setting ``REPRO_FAULTS`` without
``REPRO_FAULTS_STATE`` is an error for counted clauses (a stale state
directory would silently disarm the plan); :class:`FaultInjection`
manages a fresh state directory for you.

Every hook is a no-op when ``REPRO_FAULTS`` is unset, and the check is
one environment lookup, so production paths pay nothing.
"""

from __future__ import annotations

import hashlib
import os
import re
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..errors import ConvergenceError, ReproError

__all__ = [
    "FAULTS_ENV_VAR", "STATE_ENV_VAR", "HANG_ENV_VAR",
    "FaultSpec", "FaultInjection", "parse_faults",
    "fire_point", "fire_task", "fire_transient", "corrupt_after_store",
    "fire_sparse_factorize",
]

#: The fault plan (see module docstring for the grammar).
FAULTS_ENV_VAR = "REPRO_FAULTS"
#: Directory holding the cross-process firing-count marker files.
STATE_ENV_VAR = "REPRO_FAULTS_STATE"
#: How long an injected hang sleeps, in seconds.
HANG_ENV_VAR = "REPRO_FAULT_HANG"

_KINDS = ("point", "crash", "hang", "transient", "corrupt", "sparse")


@dataclass(frozen=True)
class FaultSpec:
    """One parsed ``kind@selector[:times]`` clause of a fault plan."""

    kind: str
    selector: str
    times: Optional[int]  # None means "always"

    @property
    def fault_id(self) -> str:
        """A filesystem-safe identifier for marker files."""
        raw = f"{self.kind}@{self.selector}"
        safe = re.sub(r"[^A-Za-z0-9_.-]", "_", raw)
        digest = hashlib.sha256(raw.encode()).hexdigest()[:8]
        return f"{safe}-{digest}"


def parse_faults(spec: str) -> Tuple[FaultSpec, ...]:
    """Parse a ``REPRO_FAULTS`` plan string into :class:`FaultSpec` s."""
    faults = []
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        if "@" not in clause:
            raise ReproError(
                f"fault clause {clause!r} must look like kind@selector[:times]"
            )
        kind, _, rest = clause.partition("@")
        kind = kind.strip().lower()
        if kind not in _KINDS:
            raise ReproError(
                f"unknown fault kind {kind!r}; expected one of {', '.join(_KINDS)}"
            )
        selector, _, times_text = rest.partition(":")
        selector = selector.strip()
        if not selector:
            raise ReproError(f"fault clause {clause!r} has an empty selector")
        times_text = times_text.strip().lower()
        if not times_text:
            times: Optional[int] = 1
        elif times_text == "always":
            times = None
        else:
            try:
                times = int(times_text)
            except ValueError:
                raise ReproError(
                    f"fault count in {clause!r} must be an integer or 'always'"
                ) from None
            if times < 1:
                raise ReproError(f"fault count in {clause!r} must be >= 1")
        faults.append(FaultSpec(kind=kind, selector=selector, times=times))
    return tuple(faults)


class _Plan:
    """A resolved, active fault plan bound to its marker directory."""

    def __init__(self, specs: Tuple[FaultSpec, ...], state_dir: Optional[Path]):
        self.specs = specs
        self.state_dir = state_dir
        if state_dir is None and any(s.times is not None for s in specs):
            raise ReproError(
                f"{FAULTS_ENV_VAR} has counted clauses but {STATE_ENV_VAR} "
                f"is unset; point it at a fresh directory (or use "
                f"repro.resilience.FaultInjection, which manages one)"
            )

    def try_fire(self, spec: FaultSpec) -> bool:
        """Claim one firing slot for ``spec``; True when the fault fires.

        Counted clauses claim ``O_EXCL`` marker files, which is atomic
        across processes; ``always`` clauses fire unconditionally.
        """
        if spec.times is None:
            return True
        assert self.state_dir is not None
        for slot in range(1, spec.times + 1):
            marker = self.state_dir / f"{spec.fault_id}.{slot}"
            try:
                fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            os.close(fd)
            return True
        return False

    def matches(self, kind: str, *selectors: str):
        for spec in self.specs:
            if spec.kind == kind and spec.selector in selectors:
                yield spec


_PLAN_CACHE: Dict[Tuple[str, str], Optional[_Plan]] = {}


def _active_plan() -> Optional[_Plan]:
    spec = os.environ.get(FAULTS_ENV_VAR, "")
    if not spec.strip():
        return None
    state = os.environ.get(STATE_ENV_VAR, "")
    cache_key = (spec, state)
    if cache_key not in _PLAN_CACHE:
        state_dir: Optional[Path] = None
        if state.strip():
            state_dir = Path(state)
            state_dir.mkdir(parents=True, exist_ok=True)
        _PLAN_CACHE[cache_key] = _Plan(parse_faults(spec), state_dir)
    return _PLAN_CACHE[cache_key]


# ----------------------------------------------------------------------
# Hook points.  Each is called from exactly one seam in the library.
# ----------------------------------------------------------------------

def fire_point(scope: str, index: int) -> None:
    """Characterization-task hook: fail grid point ``index`` on demand.

    Called at the top of the per-point worker functions in
    :mod:`repro.charlib.single` / :mod:`repro.charlib.dual` with the
    sweep family as ``scope``.  Raises
    :class:`~repro.errors.ConvergenceError` when a matching ``point``
    clause fires, imitating a grid corner where the solver gives up.
    """
    plan = _active_plan()
    if plan is None:
        return
    for spec in plan.matches("point", str(index), f"{scope}/{index}"):
        if plan.try_fire(spec):
            raise ConvergenceError(
                f"injected convergence fault at {scope} grid point {index}",
                iterations=0, residual=float("inf"),
            )


def fire_task(index: int) -> None:
    """Worker-process hook: crash or hang at item ``index`` of a map.

    Called by the process-pool task wrapper in :mod:`repro.parallel`
    before each item of a chunk (never on the serial path -- these
    model *worker* faults).  A ``crash`` clause terminates the worker
    with ``os._exit`` so not even ``finally`` blocks run, exactly like a
    segfault; a ``hang`` clause sleeps for ``REPRO_FAULT_HANG`` seconds.
    """
    plan = _active_plan()
    if plan is None:
        return
    for spec in plan.matches("crash", str(index)):
        if plan.try_fire(spec):
            os._exit(3)
    for spec in plan.matches("hang", str(index)):
        if plan.try_fire(spec):
            time.sleep(float(os.environ.get(HANG_ENV_VAR, "") or 30.0))


def fire_transient() -> None:
    """Solver hook: fail one transient-analysis attempt.

    Called at the start of every attempt inside
    :func:`repro.spice.transient.transient`, *inside* the retry ladder,
    so a counted ``transient@*`` clause proves the ladder recovers.
    """
    plan = _active_plan()
    if plan is None:
        return
    for spec in plan.matches("transient", "*"):
        if plan.try_fire(spec):
            raise ConvergenceError(
                "injected transient-analysis fault",
                iterations=0, residual=float("inf"),
            )


def fire_sparse_factorize() -> None:
    """Sparse-backend hook: fail one SuperLU factorization.

    Called at the top of
    :meth:`repro.spice.sparse.SparsePlan.factorize`.  Raises the same
    :class:`numpy.linalg.LinAlgError` a singular matrix produces, so
    the solve walks the genuine recovery ladder: diagonal nudge first,
    then (if the clause keeps firing) the homotopy rungs and the
    NaN-cell degradation path.
    """
    plan = _active_plan()
    if plan is None:
        return
    for spec in plan.matches("sparse", "factorize", "*"):
        if plan.try_fire(spec):
            import numpy as np

            raise np.linalg.LinAlgError(
                "injected sparse-factorization fault")


def corrupt_after_store(kind: str, path: os.PathLike) -> None:
    """Cache hook: corrupt the just-stored entry of the given kind.

    Called by :meth:`repro.charlib.cache.CharacterizationCache.store`
    after its atomic rename, imitating a torn write / bad disk.  The
    next load of the entry must quarantine it and recompute.
    """
    plan = _active_plan()
    if plan is None:
        return
    for spec in plan.matches("corrupt", kind):
        if plan.try_fire(spec):
            with open(path, "w") as handle:
                handle.write('{"truncated by injected corruption fault"')


class FaultInjection:
    """Context manager that arms a fault plan for the enclosed block.

    Sets ``REPRO_FAULTS`` (and a fresh ``REPRO_FAULTS_STATE`` marker
    directory, unless one is supplied) so the plan reaches both the
    current process and any worker processes spawned inside the block;
    restores the previous environment on exit.

    >>> with FaultInjection("point@dual/3:always,crash@2"):
    ...     characterize_dual_input(...)   # doctest: +SKIP
    """

    def __init__(self, spec: str, *, state_dir: Optional[str | Path] = None,
                 hang_seconds: Optional[float] = None) -> None:
        parse_faults(spec)  # validate eagerly, before arming
        self.spec = spec
        self._given_state_dir = state_dir
        self._hang_seconds = hang_seconds
        self.state_dir: Optional[Path] = None
        self._saved: Dict[str, Optional[str]] = {}

    def __enter__(self) -> "FaultInjection":
        self._saved = {
            name: os.environ.get(name)
            for name in (FAULTS_ENV_VAR, STATE_ENV_VAR, HANG_ENV_VAR)
        }
        if self._given_state_dir is not None:
            self.state_dir = Path(self._given_state_dir)
            self.state_dir.mkdir(parents=True, exist_ok=True)
        else:
            self.state_dir = Path(tempfile.mkdtemp(prefix="repro-faults-"))
        os.environ[FAULTS_ENV_VAR] = self.spec
        os.environ[STATE_ENV_VAR] = str(self.state_dir)
        if self._hang_seconds is not None:
            os.environ[HANG_ENV_VAR] = str(self._hang_seconds)
        return self

    def __exit__(self, *exc_info) -> None:
        for name, value in self._saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
        if self._given_state_dir is None and self.state_dir is not None:
            import shutil

            shutil.rmtree(self.state_dir, ignore_errors=True)

    def fired_count(self, kind: Optional[str] = None) -> int:
        """How many counted firings have been claimed so far.

        Counts marker files in the state directory, optionally filtered
        by fault kind; useful for asserting that an injected fault
        actually triggered.  ``always`` clauses leave no markers.
        """
        if self.state_dir is None or not self.state_dir.exists():
            return 0
        prefix = "" if kind is None else kind
        return sum(
            1 for p in self.state_dir.iterdir()
            if p.name.startswith(prefix)
        )
