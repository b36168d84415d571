"""Nonlinear system assembly and the damped Newton solver.

Both analyses reduce each solve to the same shape: find the unknown node
voltages ``x`` such that KCL holds at every unknown node,

    F_i(x) = sum of currents leaving node i = 0.

DC analysis stamps only resistive elements (plus ``gmin`` leaks);
transient analysis additionally passes *companion stamps* for the
capacitors (Norton equivalents of the implicit integration rule).
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field
from time import monotonic as _monotonic
from typing import Optional, Sequence, Tuple

import numpy as np
from numpy.linalg import _umath_linalg
from scipy.linalg import lu_factor, lu_solve

from ..errors import ConvergenceError
from ..obs import get_recorder
from ..obs.flight import dump_flight
from ..obs.profile import PhaseProfiler, PhaseTimes
from .guard import (GuardMonitor, SolveGuard, condition_estimate_dense,
                    condition_estimate_sparse, note_illconditioned,
                    record_rung)
from .mosfet import mosfet_current
from .netlist import CompiledCircuit
from .sparse import sparse_enabled
from .stamps import (CapStampArrays, assemble_into, assemble_sparse,
                     load_solve)

__all__ = ["NewtonOptions", "NewtonStats", "CapStamp", "assemble_system",
           "assemble_system_reference", "newton_solve", "SolveContext",
           "FastNewtonState", "fast_newton_enabled", "FAST_NEWTON_ENV_VAR",
           "dense_solve", "nudge_diagonal", "singular_nudge"]

#: Environment knob enabling the opt-in modified-Newton mode.
FAST_NEWTON_ENV_VAR = "REPRO_FAST_NEWTON"


def fast_newton_enabled() -> bool:
    """Whether ``REPRO_FAST_NEWTON`` opts into LU-reusing modified Newton."""
    value = os.environ.get(FAST_NEWTON_ENV_VAR, "").strip().lower()
    return value not in ("", "0", "false", "no", "off")

#: Companion-model stamp for one capacitor: current (a -> b) is
#: ``geq * (va - vb) - ieq``.
CapStamp = Tuple[int, int, float, float]


@dataclass(frozen=True)
class NewtonOptions:
    """Knobs of the damped Newton iteration.

    ``abstol`` is the KCL residual tolerance in amperes, ``voltol`` the
    voltage-update tolerance in volts, ``max_step`` the per-iteration
    voltage damping limit (SPICE-style limiting), and ``gmin`` the
    convergence-aid conductance from every unknown node to ground.
    """

    abstol: float = 1e-9
    voltol: float = 1e-6
    max_iterations: int = 60
    max_step: float = 0.6
    gmin: float = 1e-12


@dataclass
class NewtonStats:
    """Mutable accumulator for Newton-iteration accounting.

    :func:`newton_solve` adds every iteration it performs -- converged
    or not -- so callers that retry after a
    :class:`~repro.errors.ConvergenceError` (gmin stepping, transient
    step halving) still account for the rejected work.  ``retries``
    counts escalations of the :class:`~repro.resilience.RetryPolicy`
    ladder that the owning analysis consumed (the ladder increments it;
    :func:`newton_solve` itself never does).
    """

    iterations: int = 0
    solves: int = 0
    failures: int = 0
    retries: int = 0

    def record(self, iterations: int, *, converged: bool) -> None:
        self.iterations += iterations
        if converged:
            self.solves += 1
        else:
            self.failures += 1


def assemble_system(compiled: CompiledCircuit, x: np.ndarray, known: np.ndarray,
                    *, gmin: float, time: float = 0.0,
                    cap_stamps: Optional[Sequence[CapStamp]] = None,
                    source_scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the KCL residual ``F`` and Jacobian ``J = dF/dx``.

    ``known`` holds the known-node voltages (ground first); it is scaled
    by ``source_scale`` to support source stepping.  ``cap_stamps`` adds
    the transient companion models.

    Assembly is vectorized through the circuit's compiled
    :class:`~repro.spice.stamps.StampPlan`, bit-identical to
    :func:`assemble_system_reference` (the original scalar loop, kept
    as the equivalence oracle).  Stamp lists that do not follow the
    compiled capacitor order -- hand-built test stamps -- fall back to
    the reference assembler.
    """
    plan = compiled.stamp_plan
    if cap_stamps is not None and not plan.stamps_match(cap_stamps):
        return assemble_system_reference(
            compiled, x, known, gmin=gmin, time=time,
            cap_stamps=cap_stamps, source_scale=source_scale)
    ws = plan.scratch
    with_caps = load_solve(plan, ws, np.asarray(known, dtype=float), time,
                           cap_stamps, source_scale, compiled.isources)
    F, J = assemble_into(plan, ws, plan.dense, np.asarray(x, dtype=float),
                         gmin, with_caps)
    # Fresh copies: callers compare/retain results across calls.
    return F.copy(), J.copy()


def assemble_system_reference(
        compiled: CompiledCircuit, x: np.ndarray, known: np.ndarray,
        *, gmin: float, time: float = 0.0,
        cap_stamps: Optional[Sequence[CapStamp]] = None,
        source_scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """The original scalar-loop assembler, kept as the bit-identity oracle.

    Walks every device in Python, accumulating ``F``/``J`` cell by cell.
    The vectorized :func:`assemble_system` must reproduce this output
    bit for bit (``tests/spice/test_assembly_equivalence.py``); it is
    also the fallback for cap-stamp lists that do not line up with the
    compiled capacitors.
    """
    n = compiled.n_unknown
    F = np.zeros(n)
    J = np.zeros((n, n))
    if source_scale != 1.0:
        known = known * source_scale

    def v_of(slot: int) -> float:
        if slot >= 0:
            return float(x[slot])
        return float(known[-slot - 1])

    # gmin leaks to ground stabilize floating regions (e.g. a series
    # stack whose transistors are all off).
    F += gmin * x
    J[np.diag_indices(n)] += gmin

    for a, b, g in compiled.resistors:
        va, vb = v_of(a), v_of(b)
        current = g * (va - vb)
        if a >= 0:
            F[a] += current
            J[a, a] += g
            if b >= 0:
                J[a, b] -= g
        if b >= 0:
            F[b] -= current
            J[b, b] += g
            if a >= 0:
                J[b, a] -= g

    for a, b, fn in compiled.isources:
        current = fn(time) * source_scale
        if a >= 0:
            F[a] += current
        if b >= 0:
            F[b] -= current

    for d, g_node, s, params, k in compiled.mosfets:
        vd, vg, vs = v_of(d), v_of(g_node), v_of(s)
        i_d, di_dvd, di_dvg, di_dvs = mosfet_current(params, k, vg, vd, vs)
        # i_d enters the drain terminal from the node -> leaves node d.
        if d >= 0:
            F[d] += i_d
            J[d, d] += di_dvd
            if g_node >= 0:
                J[d, g_node] += di_dvg
            if s >= 0:
                J[d, s] += di_dvs
        if s >= 0:
            F[s] -= i_d
            J[s, s] -= di_dvs
            if d >= 0:
                J[s, d] -= di_dvd
            if g_node >= 0:
                J[s, g_node] -= di_dvg

    if cap_stamps is not None:
        for a, b, geq, ieq in cap_stamps:
            va, vb = v_of(a), v_of(b)
            current = geq * (va - vb) - ieq
            if a >= 0:
                F[a] += current
                J[a, a] += geq
                if b >= 0:
                    J[a, b] -= geq
            if b >= 0:
                F[b] -= current
                J[b, b] += geq
                if a >= 0:
                    J[b, a] -= geq

    return F, J


def singular_nudge(effective_gmin: float) -> float:
    """The diagonal escalation value for a singular Jacobian.

    Both Newton loops escalate a singular system by adding this to every
    diagonal entry; sharing the expression keeps the recovery arithmetic
    identical across the full, fast and sparse paths.
    """
    return max(effective_gmin, 1e-9)


def nudge_diagonal(J: np.ndarray, value: float) -> None:
    """Add ``value`` to the diagonal of square ``J``, in place.

    The flat-stride trick ``J.reshape(-1)[:: n + 1]`` only addresses
    the diagonal of a C-contiguous matrix -- on a sliced or transposed
    view ``reshape`` silently copies (losing the write) or the stride
    walks the wrong cells -- so non-contiguous inputs go through a
    writable :func:`numpy.einsum` diagonal view instead.
    """
    n = J.shape[0]
    if J.flags.c_contiguous:
        J.reshape(-1)[:: n + 1] += value
    else:
        np.einsum("ii->i", J)[...] += value


def _observe_solve(iterations: int, converged: bool, recorder=None,
                   backend: Optional[str] = None) -> None:
    """Fold one Newton solve into the metric registry (if enabled).

    This is the single place Newton iterations are counted, so parent
    and worker processes account identically -- whoever runs the solve
    records it, and pooled tasks ship the delta back.  Drivers that
    perform many solves under one recorder pass it in to skip the
    per-solve environment-signature check.  ``backend`` labels the
    linear-solver dispatch choice (``"dense"`` or ``"sparse"``).
    """
    if recorder is None:
        recorder = get_recorder()
    if not recorder.enabled:
        return
    recorder.counter("spice.newton.iterations").inc(iterations)
    if converged:
        recorder.counter("spice.newton.solves").inc()
    else:
        recorder.counter("spice.newton.failures").inc()
    if backend is not None:
        recorder.counter("spice.newton.dispatch", backend=backend).inc()


def _guard_abort(error, stats: Optional[NewtonStats], recorder,
                 backend: Optional[str], *,
                 n: Optional[int] = None,
                 times: Optional[PhaseTimes] = None,
                 profile: Optional[PhaseProfiler] = None) -> None:
    """Account one guard-aborted solve before the abort is raised.

    The burned iterations land in ``stats``/the Newton counters exactly
    like an exhausted iteration budget would, plus the abort reason in
    ``spice.guard.aborts{reason=...}``.

    A guard abort is also one of the two flight-dump triggers: the
    aborted solve's record (with its phase split, when profiling) joins
    the ring, then the whole ring dumps to ``flight_*.json``.
    """
    if stats is not None:
        stats.record(error.iterations, converged=False)
    _observe_solve(error.iterations, converged=False, recorder=recorder,
                   backend=backend)
    rec = recorder if recorder is not None else get_recorder()
    if rec.enabled:
        rec.counter("spice.guard.aborts", reason=error.reason).inc()
    outcome = f"guard_{error.reason}"
    _finish_solve(profile, times, backend or "dense", recorder,
                  n, error.iterations, outcome)
    if rec.enabled:
        dump_flight(rec, outcome,
                    context={"driver": backend, "n": n,
                             "reason": error.reason,
                             "iterations": error.iterations})


def _finish_solve(profile: Optional[PhaseProfiler],
                  times: Optional[PhaseTimes], backend: str, recorder,
                  n: Optional[int], iterations: int, outcome: str,
                  condition: Optional[float] = None) -> None:
    """Close out one solve: fold phase timings, append the flight record.

    Called at every solve exit (converged, iteration limit, singular,
    guard abort), so the flight ring holds failures *and* the healthy
    solves around them.
    """
    if profile is not None and times is not None:
        profile.finish(backend, times)
    rec = recorder if recorder is not None else get_recorder()
    if not rec.enabled:
        return
    flight = rec.flight
    if not flight.enabled:
        return
    record = {"driver": backend, "n": n, "iterations": iterations,
              "outcome": outcome}
    if times is not None:
        phases = times.as_dict()
        if phases:
            record["phases"] = phases
    if condition is not None:
        record["condition"] = condition
    flight.note_solve(**record)


class FastNewtonState:
    """Cross-solve state of the opt-in modified-Newton mode.

    Holds the most recent LU factorization together with the key it was
    computed under: the compiled circuit (by reference), the effective
    gmin, the source scale and the capacitor companion conductances.
    Consecutive accepted timesteps of the same ``h`` share the same
    ``geq`` vector, so their solves start from the previous step's LU;
    a key mismatch (new ``h``, a homotopy rung, a different circuit)
    forces refactorization on the first iteration.  ``reused`` and
    ``refactorized`` count factorization reuse for tests/telemetry.
    """

    __slots__ = ("compiled", "key", "lu", "reused", "refactorized")

    def __init__(self) -> None:
        self.compiled = None
        self.key = None
        self.lu = None
        self.reused = 0
        self.refactorized = 0


def _raise_singular(err: str, flag: int) -> None:
    raise np.linalg.LinAlgError("Singular matrix")


def dense_solve(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``J @ dx = rhs`` for float64 ``J`` of shape ``(n, n)``.

    Calls the LAPACK ``gesv`` gufunc :func:`numpy.linalg.solve` uses,
    under its error state (a singular ``J`` raises ``LinAlgError``), so
    the result is bit-identical minus the wrapper's conversion work.
    """
    with np.errstate(call=_raise_singular, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return _umath_linalg.solve1(J, rhs, signature="dd->d")


def _fast_factorize(J: np.ndarray):
    """LU-factorize a fresh Jacobian."""
    with warnings.catch_warnings():
        # A singular J makes dgetrf warn; we detect it from the
        # non-finite solution and walk the nudge path instead.
        warnings.simplefilter("ignore")
        return lu_factor(J, check_finite=False)


def _fast_solve(lu, rhs: np.ndarray) -> np.ndarray:
    return lu_solve(lu, rhs, check_finite=False)


#: Sentinel LU of a singular sparse factorization attempt: its solve
#: returns all-inf, steering the modified-Newton loop onto the same
#: non-finite nudge path a singular dense factorization takes.
_SPARSE_SINGULAR = object()


class _DenseOps:
    """Dense linear-algebra backend behind the Newton loops.

    Static methods only -- the dense path carries no per-circuit state.
    ``direct_solve`` calls the ``gesv`` gufunc through
    :func:`dense_solve`, bit-identical to :func:`numpy.linalg.solve`.
    """

    @staticmethod
    def direct_solve(J: np.ndarray, F: np.ndarray) -> np.ndarray:
        return dense_solve(J, -F)

    @staticmethod
    def fast_factorize(J: np.ndarray):
        return _fast_factorize(J)

    @staticmethod
    def fast_solve(lu, rhs: np.ndarray) -> np.ndarray:
        return _fast_solve(lu, rhs)

    @staticmethod
    def nudge(J: np.ndarray, value: float) -> None:
        nudge_diagonal(J, value)

    @staticmethod
    def condition_estimate(J: np.ndarray) -> float:
        return condition_estimate_dense(J)


class _TimedDenseOps:
    """The dense backend with phase timing, substituted when profiling.

    Runs the exact same LAPACK calls as :class:`_DenseOps` (the
    ``gesv`` gufunc through :func:`dense_solve`, scipy's ``lu_factor``
    and ``lu_solve``) -- results stay bit-identical -- but brackets
    them with monotonic reads.  The fused ``gesv`` of ``direct_solve``
    lands wholly in ``factorize`` (LAPACK does not expose the split);
    the fast-Newton path splits ``lu_factor`` / ``lu_solve`` into
    factorize / back_solve properly.
    """

    __slots__ = ("times",)

    def __init__(self, times: PhaseTimes) -> None:
        self.times = times

    def direct_solve(self, J: np.ndarray, F: np.ndarray) -> np.ndarray:
        start = _monotonic()
        dx = dense_solve(J, -F)
        self.times.factorize += _monotonic() - start
        return dx

    def fast_factorize(self, J: np.ndarray):
        start = _monotonic()
        lu = _fast_factorize(J)
        self.times.factorize += _monotonic() - start
        return lu

    def fast_solve(self, lu, rhs: np.ndarray) -> np.ndarray:
        start = _monotonic()
        out = _fast_solve(lu, rhs)
        self.times.back_solve += _monotonic() - start
        return out

    @staticmethod
    def nudge(J: np.ndarray, value: float) -> None:
        nudge_diagonal(J, value)

    @staticmethod
    def condition_estimate(J: np.ndarray) -> float:
        return condition_estimate_dense(J)


class _SparseOps:
    """SuperLU backend: factorizations count into the metric registry."""

    __slots__ = ("sp", "recorder", "last_lu", "times")

    def __init__(self, sp, recorder, times: Optional[PhaseTimes] = None) -> None:
        self.sp = sp
        self.recorder = recorder
        self.last_lu = None
        self.times = times

    def factorize(self):
        """Factorize the assembled matrix; raises ``LinAlgError`` if
        singular, and records factorization/fill telemetry."""
        lu = self.sp.factorize(times=self.times)
        recorder = self.recorder if self.recorder is not None \
            else get_recorder()
        if recorder.enabled:
            recorder.counter("spice.sparse.factorizations").inc()
            # SuperLU drops numerically-zero pattern entries (common when
            # many devices are cut off), so L+U can hold fewer entries
            # than the structural pattern: report that as zero fill.
            recorder.counter("spice.sparse.fill_nnz").inc(
                max(0, int(lu.L.nnz + lu.U.nnz) - self.sp.nnz))
        return lu

    def direct_solve(self, A, F: np.ndarray) -> np.ndarray:
        lu = self.factorize()
        self.last_lu = lu
        return self.sp.solve_factored(lu, -F, times=self.times)

    def fast_factorize(self, A):
        try:
            return self.factorize()
        except np.linalg.LinAlgError:
            return _SPARSE_SINGULAR

    def fast_solve(self, lu, rhs: np.ndarray) -> np.ndarray:
        if lu is _SPARSE_SINGULAR:
            return np.full(rhs.shape, np.inf)
        return self.sp.solve_factored(lu, rhs, times=self.times)

    def nudge(self, A, value: float) -> None:
        self.sp.nudge(value)

    def condition_estimate(self, A) -> float:
        # The factor the iteration just solved with is retained, so the
        # estimate's two extra triangular solves are nearly free.
        return condition_estimate_sparse(self.sp, self.last_lu)


def _newton_fast(compiled: CompiledCircuit, x: np.ndarray,
                 assemble, key, options: NewtonOptions,
                 effective_gmin: float, fast: FastNewtonState,
                 stats: Optional[NewtonStats], recorder,
                 ops=_DenseOps, backend: Optional[str] = None,
                 guard: Optional[SolveGuard] = None,
                 times: Optional[PhaseTimes] = None,
                 profile: Optional[PhaseProfiler] = None) -> np.ndarray:
    """Modified-Newton loop: reuse the LU factorization while it contracts.

    A *stale* iteration evaluates only the residual and steps with the
    retained LU; the factorization refreshes when the key changes, the
    residual stops contracting (safeguarded fallback to full Newton),
    or on the accepting iteration -- convergence is only declared on a
    fresh-Jacobian step, which polishes the solution to well inside the
    full-Newton tolerances.  ``ops`` selects the linear-algebra backend
    (dense LAPACK or the compiled sparse SuperLU plan); a singular
    sparse factorization surfaces as an all-inf solve, joining the
    dense path's non-finite nudge ladder.
    """
    nudge = singular_nudge(effective_gmin)
    fresh = (fast.lu is None or fast.compiled is not compiled
             or fast.key != key)
    last_residual = np.inf
    for iteration in range(1, options.max_iterations + 1):
        if not fresh:
            F, _ = assemble(need_jacobian=False)
            residual = float(np.abs(F).max())
            if residual >= 0.5 * last_residual:
                fresh = True  # stalled contraction: refactorize here
                record_rung("refresh", recorder)
        if fresh:
            F, J = assemble()
            residual = float(np.abs(F).max())
            fast.lu = ops.fast_factorize(J)
            fast.compiled = compiled
            fast.key = key
            fast.refactorized += 1
        else:
            fast.reused += 1
        if guard is not None:
            guard_start = _monotonic() if times is not None else 0.0
            abort = guard.check(iteration, residual)
            if times is not None:
                times.guard += _monotonic() - guard_start
            if abort is not None:
                _guard_abort(abort, stats, recorder, backend,
                             n=x.shape[0], times=times, profile=profile)
                raise abort
        dx = ops.fast_solve(fast.lu, -F)
        if not np.all(np.isfinite(dx)):
            # Singular factorization: rebuild with a nudged diagonal.
            record_rung("nudge", recorder)
            F, J = assemble()
            ops.nudge(J, nudge)
            fast.lu = ops.fast_factorize(J)
            fast.key = None  # the nudged LU must not outlive this solve
            dx = ops.fast_solve(fast.lu, -F)
            if not np.all(np.isfinite(dx)):
                if stats is not None:
                    stats.record(iteration, converged=False)
                _observe_solve(iteration, converged=False, recorder=recorder,
                               backend=backend)
                _finish_solve(profile, times, backend or "dense", recorder,
                              x.shape[0], iteration, "singular")
                raise ConvergenceError(
                    "singular Jacobian during Newton iteration",
                    iterations=iteration, residual=residual,
                ) from None
            fresh = True
        step = float(np.abs(dx).max())
        if step > options.max_step:
            dx *= options.max_step / step
        x += dx
        if step < options.voltol and residual < options.abstol:
            if fresh:
                if stats is not None:
                    stats.record(iteration, converged=True)
                _observe_solve(iteration, converged=True, recorder=recorder,
                               backend=backend)
                _finish_solve(profile, times, backend or "dense", recorder,
                              x.shape[0], iteration, "converged")
                return x
            # Tolerance hit on a stale step: polish with a fresh
            # Jacobian before accepting.
            fresh = True
            last_residual = residual
            continue
        last_residual = residual
        fresh = False
    if stats is not None:
        stats.record(options.max_iterations, converged=False)
    _observe_solve(options.max_iterations, converged=False,
                   recorder=recorder, backend=backend)
    _finish_solve(profile, times, backend or "dense", recorder,
                  x.shape[0], options.max_iterations, "iteration_limit")
    raise ConvergenceError(
        f"Newton failed to converge in {options.max_iterations} iterations "
        f"(residual {last_residual:.3e} A)",
        iterations=options.max_iterations, residual=last_residual,
    )


def newton_solve(compiled: CompiledCircuit, x0: np.ndarray, known: np.ndarray,
                 *, options: NewtonOptions, gmin: Optional[float] = None,
                 time: float = 0.0,
                 cap_stamps: Optional[Sequence[CapStamp]] = None,
                 source_scale: float = 1.0,
                 stats: Optional[NewtonStats] = None,
                 recorder=None,
                 fast: Optional[FastNewtonState] = None,
                 sparse: Optional[bool] = None,
                 guard: Optional[GuardMonitor] = None,
                 profile: Optional[PhaseProfiler] = None) -> np.ndarray:
    """Damped Newton-Raphson solve of the KCL system.

    Raises :class:`~repro.errors.ConvergenceError` when the iteration
    fails; callers (gmin stepping, transient step halving) catch it and
    retry on an easier problem.  ``stats``, when given, accumulates the
    iteration count of this solve whether it converges or not (the
    raised error also carries its count in ``iterations``).

    ``recorder``, when given, skips the per-solve recorder lookup
    (drivers resolve one handle per analysis).  ``fast`` opts this
    solve into the tolerance-gated modified-Newton mode; the default
    ``None`` keeps the bit-identical full-Newton iteration.  ``sparse``
    selects the linear-solver backend: ``None`` dispatches by unknown
    count through :func:`~repro.spice.sparse.sparse_enabled` (drivers
    resolve this once per analysis and pass the choice down), an
    explicit bool forces dense LAPACK or sparse SuperLU.  The sparse
    backend requires the compiled stamp path; hand-built cap-stamp
    lists fall back to the dense reference assembler.

    ``guard``, when given, is the analysis's
    :class:`~repro.spice.guard.GuardMonitor`: each iteration is checked
    for divergence and watchdog expiry (aborting with a
    :class:`~repro.spice.guard.GuardAbort`), and sampled solves get a
    1-norm condition estimate of their first Jacobian.  ``None`` (the
    default, and the state with ``REPRO_GUARD`` unset) leaves the
    iteration untouched.

    ``profile``, when given, is the analysis's
    :class:`~repro.obs.profile.PhaseProfiler`: assembly, factorization,
    back-substitution and guard overhead of this solve are timed and
    folded into the per-driver phase histograms (and the per-solve
    flight record).  ``None`` -- the default, and the state whenever
    telemetry is off -- skips every timing site.
    """
    x = np.array(x0, dtype=float)
    effective_gmin = options.gmin if gmin is None else gmin
    solve_guard = guard.start_solve() if guard is not None else None
    times = profile.begin() if profile is not None else None
    plan = compiled.stamp_plan
    compiled_path = cap_stamps is None or plan.stamps_match(cap_stamps)
    use_sparse = compiled_path and (
        sparse_enabled(compiled.n_unknown) if sparse is None
        else bool(sparse))
    if use_sparse:
        ops = _SparseOps(plan.sparse, recorder, times)
    elif times is not None:
        ops = _TimedDenseOps(times)
    else:
        ops = _DenseOps
    backend = "sparse" if use_sparse else "dense"
    if compiled_path:
        ws = plan.scratch
        with_caps = load_solve(plan, ws, np.asarray(known, dtype=float),
                               time, cap_stamps, source_scale,
                               compiled.isources)
        if use_sparse:
            def assemble(need_jacobian: bool = True):
                return assemble_sparse(plan, ws, ops.sp, x, effective_gmin,
                                       with_caps, need_jacobian)
        else:
            dense = plan.dense

            def assemble(need_jacobian: bool = True):
                return assemble_into(plan, ws, dense, x, effective_gmin,
                                     with_caps, need_jacobian)
    else:
        def assemble(need_jacobian: bool = True):
            return assemble_system_reference(
                compiled, x, known, gmin=effective_gmin, time=time,
                cap_stamps=cap_stamps, source_scale=source_scale)

    if times is not None:
        # One wrapper times every assembly call of both Newton loops;
        # the unprofiled path keeps the raw closure (zero overhead).
        _assemble_inner = assemble

        def assemble(need_jacobian: bool = True):
            start = _monotonic()
            result = _assemble_inner(need_jacobian)
            times.assembly += _monotonic() - start
            return result

    if fast is not None:
        if cap_stamps is None:
            geq_key: object = ()
        elif isinstance(cap_stamps, CapStampArrays):
            # Bytes of the geq array: equal exactly when the per-cap
            # conductances are equal, like the tuple key -- consecutive
            # same-``h`` timesteps share it and reuse the LU.
            geq_key = cap_stamps.geq.tobytes()
        else:
            geq_key = tuple(s[2] for s in cap_stamps)
        key = (backend, effective_gmin, source_scale, geq_key)
        # Condition sampling is skipped in fast mode: stale-LU steps
        # have no fresh Jacobian to estimate, and the mode already
        # refactorizes whenever contraction stalls.
        return _newton_fast(compiled, x, assemble, key, options,
                            effective_gmin, fast, stats, recorder,
                            ops=ops, backend=backend, guard=solve_guard,
                            times=times, profile=profile)

    condition_seen: Optional[float] = None
    last_residual = np.inf
    for iteration in range(1, options.max_iterations + 1):
        F, J = assemble()
        residual = float(np.abs(F).max())
        if solve_guard is not None:
            guard_start = _monotonic() if times is not None else 0.0
            abort = solve_guard.check(iteration, residual)
            if times is not None:
                times.guard += _monotonic() - guard_start
            if abort is not None:
                _guard_abort(abort, stats, recorder, backend,
                             n=x.shape[0], times=times, profile=profile)
                raise abort
        try:
            dx = ops.direct_solve(J, F)
        except np.linalg.LinAlgError:
            # Singular Jacobian: nudge the diagonal in place (the
            # buffer is reassembled next iteration anyway) and retry.
            record_rung("nudge", recorder)
            ops.nudge(J, singular_nudge(effective_gmin))
            try:
                dx = ops.direct_solve(J, F)
            except np.linalg.LinAlgError:
                if stats is not None:
                    stats.record(iteration, converged=False)
                _observe_solve(iteration, converged=False, recorder=recorder,
                               backend=backend)
                _finish_solve(profile, times, backend, recorder,
                              x.shape[0], iteration, "singular")
                raise ConvergenceError(
                    "singular Jacobian during Newton iteration",
                    iterations=iteration, residual=residual,
                ) from None
        if solve_guard is not None and solve_guard.check_condition:
            # After the successful linear solve: the sparse backend's
            # retained factor is current, and a nudged diagonal is
            # estimated as-solved.
            guard_start = _monotonic() if times is not None else 0.0
            estimate = ops.condition_estimate(J)
            if times is not None:
                times.guard += _monotonic() - guard_start
            condition_seen = estimate
            if solve_guard.note_condition(estimate):
                note_illconditioned(estimate,
                                    solve_guard.policy.condition_limit,
                                    recorder)
        step = float(np.abs(dx).max())
        if step > options.max_step:
            dx *= options.max_step / step
        x += dx
        if step < options.voltol and residual < options.abstol:
            if stats is not None:
                stats.record(iteration, converged=True)
            _observe_solve(iteration, converged=True, recorder=recorder,
                           backend=backend)
            _finish_solve(profile, times, backend, recorder,
                          x.shape[0], iteration, "converged",
                          condition=condition_seen)
            return x
        last_residual = residual
    if stats is not None:
        stats.record(options.max_iterations, converged=False)
    _observe_solve(options.max_iterations, converged=False,
                   recorder=recorder, backend=backend)
    _finish_solve(profile, times, backend, recorder,
                  x.shape[0], options.max_iterations, "iteration_limit",
                  condition=condition_seen)
    raise ConvergenceError(
        f"Newton failed to converge in {options.max_iterations} iterations "
        f"(residual {last_residual:.3e} A)",
        iterations=options.max_iterations, residual=last_residual,
    )


@dataclass
class SolveContext:
    """Per-analysis solver state, resolved once and bound by :meth:`bind`.

    ``recorder`` is the telemetry handle resolved once per analysis (so
    scalar sweeps skip the per-solve environment-signature check of
    :func:`~repro.obs.get_recorder`); ``fast`` carries the
    modified-Newton state when ``REPRO_FAST_NEWTON`` is on; ``sparse``
    is the linear-backend choice resolved once per analysis from
    ``REPRO_SPARSE`` and the circuit's unknown count (``None`` lets
    each solve re-dispatch); ``guard`` carries the analysis's
    :class:`~repro.spice.guard.GuardMonitor` when ``REPRO_GUARD`` is on
    (``None``, the default, omits the keyword so the ungated solver
    path is byte-for-byte the unguarded one); ``profile`` carries the
    analysis's :class:`~repro.obs.profile.PhaseProfiler` when telemetry
    is enabled (``None`` skips every timing site).
    """

    recorder: object = None
    fast: Optional[FastNewtonState] = field(default=None)
    sparse: Optional[bool] = field(default=None)
    guard: Optional[GuardMonitor] = field(default=None)
    profile: Optional[PhaseProfiler] = field(default=None)

    @classmethod
    def for_analysis(cls, recorder, n_unknown: int) -> "SolveContext":
        """The context one analysis of ``n_unknown`` unknowns runs under.

        Resolves every environment knob once: ``REPRO_FAST_NEWTON``,
        the ``REPRO_SPARSE`` dispatch for this unknown count (it is
        invariant across the analysis's solves), ``REPRO_GUARD``, and
        phase profiling whenever ``recorder`` is enabled.
        """
        return cls(
            recorder=recorder,
            fast=FastNewtonState() if fast_newton_enabled() else None,
            sparse=sparse_enabled(n_unknown),
            guard=GuardMonitor.from_env(),
            profile=PhaseProfiler.from_recorder(recorder),
        )

    def bind(self, solve, compiled: CompiledCircuit,
             stats: Optional[NewtonStats]):
        """The analysis's solver: ``solve(x0, known, options, *, time, **shape)``.

        ``solve`` is a :func:`newton_solve`-shaped callable (the caller
        picks which module's binding, so tests can wrap one analysis's
        solver).  Every call forwards ``options``, ``time``, ``stats``
        and this context's non-``None`` fields; ``shape`` -- ``gmin``,
        ``cap_stamps``, ``source_scale`` -- is forwarded only when the
        caller passes it, so each homotopy rung keeps its own keyword
        set (the solver-fallback tests tell rungs apart by it).  A
        failed solve raises :class:`~repro.errors.ConvergenceError`.
        """
        resolved = {"recorder": self.recorder, "fast": self.fast,
                    "sparse": self.sparse, "guard": self.guard,
                    "profile": self.profile}
        extra = {name: value for name, value in resolved.items()
                 if value is not None}

        def bound(x0, known, options, *, time, **shape):
            return solve(compiled, x0, known, options=options, time=time,
                         stats=stats, **shape, **extra)
        return bound
