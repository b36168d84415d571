"""Batched lockstep execution of solver plans over congruent circuits.

Characterization grids run thousands of *independent* transient
analyses on structurally identical circuits (same gate, different taus
and loads).  This module stacks B of those analyses into ``(B, n)``
state arrays and advances every in-flight Newton solve by one
vectorized iteration per *round*: batched device evaluation
(:func:`~repro.spice.mosfet.mosfet_current_batch`), batched residual
and Jacobian assembly through precomputed scatter plans, and one
``numpy.linalg.solve`` over the ``(B, n, n)`` stack.  Lanes converge
independently -- a finished solve leaves the stack (its plan advances,
possibly yielding the next solve) while stragglers keep iterating, so
mixed-convergence batches never do wasted work.

Because the DC/transient analyses are expressed as *plans*
(:mod:`repro.spice.engine`), the batched driver executes exactly the
request sequence the scalar driver does -- retry ladders, gmin and
source stepping included, per lane -- and every arithmetic expression
in the kernel mirrors the scalar code's operand order and
associativity.  Scatter-accumulation uses *layered* index plans: the
j-th layer adds the j-th contribution of every target cell (cells
within a layer are unique), which reproduces the scalar code's
sequential ``F[a] += ...`` ordering per cell while staying fully
vectorized.  Results are therefore bit-identical to the scalar path;
``tests/spice/test_batch_equivalence.py`` enforces this.

Serial execution: a single lane, lanes that dispatch to the sparse
backend (:func:`~repro.spice.sparse.sparse_enabled`), or a set of
circuits that are not congruent (different node sets or device
structure -- counted in ``spice.batch.fallbacks``) run lane by lane
through :func:`~repro.spice.engine.run_plan`, so their results are the
scalar driver's by construction.
"""

from __future__ import annotations

from time import monotonic as _monotonic
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..errors import ConvergenceError
from ..obs import get_recorder, traced
from ..obs.profile import PhaseProfiler
from ..resilience import faults
from ..resilience.retry import RetryPolicy
from .dc import dc_plan, operating_point_from_vector
from .engine import (
    NewtonOptions,
    NewtonStats,
    SolveContext,
    _observe_solve,
    newton_solve,
    nudge_diagonal,
    request_kwargs,
    run_plan,
    singular_nudge,
)
from .guard import (GuardMonitor, GuardPolicy, condition_estimate_dense,
                    note_illconditioned, record_rung)
from .mosfet import mosfet_current_batch
from .netlist import Circuit, CompiledCircuit
from .sparse import sparse_enabled
from .stamps import CapStampArrays, MosGroup
from .transient import TransientOptions, transient_result_plan

__all__ = ["BatchIncongruent", "BatchCompiled", "run_plans_batched",
           "solve_dc_batch", "transient_batch"]


class BatchIncongruent(ValueError):
    """The circuits of a batch do not share node/device structure."""


class _MosGroup:
    """Per-lane parameter stack over a shared stamp-plan device group.

    The structural arrays (device columns, terminal gather columns) are
    the base lane's :class:`~repro.spice.stamps.MosGroup` arrays,
    shared; only the ``(B, m)`` parameter rows are batch-specific.
    """

    __slots__ = ("is_nmos", "alpha_model", "cols", "d_cols", "g_cols",
                 "s_cols", "k", "vt", "lam", "alpha")

    def __init__(self, group: MosGroup,
                 lanes: Sequence[CompiledCircuit]) -> None:
        self.is_nmos = group.is_nmos
        self.alpha_model = group.alpha_model
        self.cols = group.cols
        self.d_cols = group.d_cols
        self.g_cols = group.g_cols
        self.s_cols = group.s_cols
        # Per-lane rows are fancy-indexed slices of each lane's cached
        # full-device table -- the table is built by the same
        # ``device_param_rows`` extraction the scalar groups use, so
        # operands stay byte-identical while a B x m stack costs B
        # gathers instead of B Python extraction loops per build.
        idx = group.cols
        tables = [lane.mos_param_table for lane in lanes]
        self.k = np.stack([t[0][idx] for t in tables])
        self.vt = np.stack([t[1][idx] for t in tables])
        self.lam = np.stack([t[2][idx] for t in tables])
        self.alpha = np.stack([t[3][idx] for t in tables])


class BatchCompiled:
    """Congruence-checked stack of compiled circuits plus scatter plans.

    The stamp *structure* -- gather columns, device grouping, layered
    scatter plans in scalar emission order -- comes straight from the
    base lane's compiled :class:`~repro.spice.stamps.StampPlan` (the
    congruence check guarantees every lane shares it); this class only
    stacks the per-lane *values* (resistor conductances, transistor
    parameters) along a leading batch axis.
    """

    def __init__(self, lanes: Sequence[CompiledCircuit]) -> None:
        base = lanes[0]
        n = base.n_unknown
        if n < 1:
            raise BatchIncongruent("no unknown nodes to batch")
        for other in lanes[1:]:
            self._check_congruent(base, other)

        self.lanes = list(lanes)
        plan = base.stamp_plan
        self.n = plan.n
        self.n_known = plan.n_known
        self.n_res = plan.n_res
        self.n_is = plan.n_is
        self.n_mos = plan.n_mos
        self.n_cap = plan.n_cap
        self.diag = plan.diag
        self.res_a = plan.res_a
        self.res_b = plan.res_b
        self.cap_a = plan.cap_a
        self.cap_b = plan.cap_b
        self.res_g = np.array(
            [[g for _, _, g in lane.resistors] for lane in lanes],
            dtype=float,
        ).reshape(len(lanes), plan.n_res)
        self.mos_groups: List[_MosGroup] = [
            _MosGroup(group, lanes) for group in plan.groups
        ]
        self.f_layers_nc = plan.f_layers_nc
        self.f_layers_wc = plan.f_layers_wc
        self.j_layers_nc = plan.j_layers_nc
        self.j_layers_wc = plan.j_layers_wc

    @staticmethod
    def _check_congruent(base: CompiledCircuit, other: CompiledCircuit) -> None:
        # Cached structural keys (see CompiledCircuit.congruence_key):
        # the common case -- congruent lanes, keys already built --
        # is one tuple comparison instead of re-walking device lists.
        mine, theirs = base.congruence_key, other.congruence_key
        if mine == theirs:
            return
        if mine[0] != theirs[0] or mine[1] != theirs[1]:
            raise BatchIncongruent("node sets differ across lanes")
        if mine[2:5] != theirs[2:5]:
            raise BatchIncongruent(
                "passive/source structure differs across lanes")
        if len(mine[5]) != len(theirs[5]):
            raise BatchIncongruent("mosfet count differs across lanes")
        raise BatchIncongruent("mosfet structure differs across lanes")


class _LockstepState:
    """Per-lane dense state of the in-flight Newton solves."""

    def __init__(self, batchc: BatchCompiled, n_lanes: int) -> None:
        n = batchc.n
        # ``xk`` fuses unknown and known voltages per lane so assembly
        # gathers one ``(Ba, n + n_known)`` block per round; ``x`` and
        # ``known`` are views into it.
        self.xk = np.zeros((n_lanes, n + batchc.n_known))
        self.x = self.xk[:, :n]
        self.known = self.xk[:, n:]
        self.gmin = np.zeros(n_lanes)
        self.voltol = np.zeros(n_lanes)
        self.abstol = np.zeros(n_lanes)
        self.max_step = np.zeros(n_lanes)
        self.max_iter = np.zeros(n_lanes, dtype=np.intp)
        self.iteration = np.zeros(n_lanes, dtype=np.intp)
        self.last_residual = np.zeros(n_lanes)
        self.is_cur = np.zeros((n_lanes, batchc.n_is))
        self.cap_geq = np.zeros((n_lanes, batchc.n_cap))
        self.cap_ieq = np.zeros((n_lanes, batchc.n_cap))
        self.with_caps = np.zeros(n_lanes, dtype=bool)
        self._opts_seen: list = [None] * n_lanes
        # Guard bookkeeping.  ``guarded`` stays False when neither the
        # guard monitors nor a lane fault is armed, keeping the default
        # path free of the per-lane Python checks.  ``requests`` retains
        # each lane's in-flight request so an evicted lane can be
        # retried solo from its exact starting point.
        self.guards: list = [None] * n_lanes
        self.requests: list = [None] * n_lanes
        self.lane_fault = np.zeros(n_lanes, dtype=bool)
        self.guarded = False

    def load_request(self, lane: int, compiled: CompiledCircuit,
                     request, batchc: BatchCompiled) -> None:
        options = request.options
        scale = request.effective_scale
        self.x[lane] = request.x0
        known = request.known
        self.known[lane] = known * scale if scale != 1.0 else known
        self.gmin[lane] = (options.gmin if request.gmin is None
                           else request.gmin)
        if self._opts_seen[lane] is not options:
            # Consecutive requests of one plan reuse the same options
            # object (every timestep of a transient attempt); skip the
            # per-field stores when nothing changed.
            self._opts_seen[lane] = options
            self.voltol[lane] = options.voltol
            self.abstol[lane] = options.abstol
            self.max_step[lane] = options.max_step
            self.max_iter[lane] = options.max_iterations
        self.iteration[lane] = 0
        self.last_residual[lane] = np.inf
        if batchc.n_is:
            self.is_cur[lane] = [fn(request.time) * scale
                                 for _, _, fn in compiled.isources]
        stamps = request.cap_stamps
        if isinstance(stamps, CapStampArrays) and len(stamps):
            self.cap_geq[lane] = stamps.geq
            self.cap_ieq[lane] = stamps.ieq
            self.with_caps[lane] = True
        elif stamps:
            geq_row = self.cap_geq[lane]
            ieq_row = self.cap_ieq[lane]
            for ci, (_, _, geq, ieq) in enumerate(stamps):
                geq_row[ci] = geq
                ieq_row[ci] = ieq
            self.with_caps[lane] = True
        else:
            self.with_caps[lane] = False


def _assemble(batchc: BatchCompiled, state: _LockstepState,
              rows: np.ndarray, with_caps: bool):
    """Residuals and dense Jacobians for the selected lanes.

    Returns ``(X, F, J)`` with shapes ``(Ba, n)``, ``(Ba, n)`` and
    ``(Ba, n, n)``.  Per-cell accumulation order is the scalar
    assembler's, so every lane stays bit-identical to it.
    """
    n = batchc.n
    batch = len(rows)
    v_all = state.xk[rows]
    X = v_all[:, :n]
    gmin = state.gmin[rows]

    F = np.zeros((batch, n))
    F += gmin[:, None] * X

    res_g = batchc.res_g[rows]
    res_cur = res_g * (v_all[:, batchc.res_a] - v_all[:, batchc.res_b])
    is_cur = state.is_cur[rows]
    id_mat = np.empty((batch, batchc.n_mos))
    dvd_mat = np.empty((batch, batchc.n_mos))
    dvg_mat = np.empty((batch, batchc.n_mos))
    dvs_mat = np.empty((batch, batchc.n_mos))
    for grp in batchc.mos_groups:
        i_d, dvd, dvg, dvs = mosfet_current_batch(
            grp.is_nmos, grp.alpha_model,
            grp.k[rows], grp.vt[rows], grp.lam[rows], grp.alpha[rows],
            v_all[:, grp.g_cols], v_all[:, grp.d_cols], v_all[:, grp.s_cols],
        )
        id_mat[:, grp.cols] = i_d
        dvd_mat[:, grp.cols] = dvd
        dvg_mat[:, grp.cols] = dvg
        dvs_mat[:, grp.cols] = dvs

    if with_caps:
        geq = state.cap_geq[rows]
        ieq = state.cap_ieq[rows]
        cap_cur = geq * (v_all[:, batchc.cap_a] - v_all[:, batchc.cap_b]) - ieq
        f_vals = np.concatenate([res_cur, is_cur, id_mat, cap_cur], axis=1)
        j_vals = np.concatenate([res_g, dvd_mat, dvg_mat, dvs_mat, geq],
                                axis=1)
        f_layers = batchc.f_layers_wc
        j_layers = batchc.j_layers_wc
    else:
        f_vals = np.concatenate([res_cur, is_cur, id_mat], axis=1)
        j_vals = np.concatenate([res_g, dvd_mat, dvg_mat, dvs_mat], axis=1)
        f_layers = batchc.f_layers_nc
        j_layers = batchc.j_layers_nc

    for cells, src, sign in f_layers:
        F[:, cells] += sign * f_vals[:, src]
    j_flat = np.zeros((batch, n * n))
    j_flat[:, batchc.diag] += gmin[:, None]
    for cells, src, sign in j_layers:
        j_flat[:, cells] += sign * j_vals[:, src]
    return X, F, j_flat.reshape(batch, n, n)


def _exhaustion_error(max_iterations: int, residual: float) -> ConvergenceError:
    return ConvergenceError(
        f"Newton failed to converge in {max_iterations} iterations "
        f"(residual {residual:.3e} A)",
        iterations=max_iterations, residual=residual,
    )


def _lockstep_round(batchc: BatchCompiled, state: _LockstepState,
                    active_rows: np.ndarray, recorder,
                    times=None) -> tuple:
    """Advance every in-flight solve by one Newton iteration.

    Returns ``(finished, evicted)``: ``finished`` holds ``(lane,
    converged, outcome, iterations)`` tuples for solves that ended this
    round (converged vector, or the scalar-identical failure error);
    ``evicted`` holds ``(lane, reason)`` pairs for lanes the guard (or
    an injected ``lane`` fault) pulled out of the stack *before* the
    linear solve -- the driver retries those solo through the scalar
    solver, so their burned lockstep iterations are never recorded here
    and the solo retry reproduces the scalar driver's accounting.

    ``times``, when given, is a per-round
    :class:`~repro.obs.profile.PhaseTimes` accumulator for the
    ``driver="batch"`` phase histograms: batched assembly lands in
    ``assembly``, the stacked ``np.linalg.solve`` in ``factorize``
    (LAPACK gesv fuses factorize and back-substitution), the per-lane
    guard checks and condition sampling in ``guard``, and the state
    writeback plus convergence bookkeeping in ``scatter``.
    """
    finished: List[tuple] = []
    evicted: List[tuple] = []
    caps_mask = state.with_caps[active_rows]
    for with_caps in (False, True):
        rows = active_rows[caps_mask] if with_caps else active_rows[~caps_mask]
        if not rows.size:
            continue
        batch = len(rows)
        if times is not None:
            t_seg = _monotonic()
        X, F, J = _assemble(batchc, state, rows, with_caps)
        residual = np.abs(F).max(axis=1)
        if times is not None:
            now = _monotonic()
            times.assembly += now - t_seg
            t_seg = now
        if state.guarded:
            # Same check, same arguments, same order as the scalar
            # loop's per-iteration guard (residuals are bit-identical
            # across the drivers, so divergence trips on the same
            # iteration either way).
            keep = np.ones(batch, dtype=bool)
            for p in range(batch):
                lane = int(rows[p])
                if state.lane_fault[lane]:
                    state.lane_fault[lane] = False
                    keep[p] = False
                    evicted.append((lane, "fault"))
                    continue
                g = state.guards[lane]
                if g is None:
                    continue
                abort = g.check(int(state.iteration[lane]) + 1,
                                float(residual[p]))
                if abort is not None:
                    keep[p] = False
                    evicted.append((lane, abort.reason))
            if not keep.all():
                rows = rows[keep]
                if not rows.size:
                    if times is not None:
                        times.guard += _monotonic() - t_seg
                    continue
                X, F, J = X[keep], F[keep], J[keep]
                residual = residual[keep]
                batch = len(rows)
        if times is not None:
            now = _monotonic()
            times.guard += now - t_seg
            t_seg = now
        rhs = -F
        singular = np.zeros(batch, dtype=bool)
        try:
            dx = np.linalg.solve(J, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # At least one lane is singular; redo lane by lane so the
            # healthy lanes still get their (identical) dgesv solution
            # and the sick ones walk the scalar nudge-then-fail path:
            # the in-place diagonal nudge and its escalation value are
            # the scalar loop's own helpers, so recovery arithmetic is
            # bit-identical across the two drivers (``state.gmin`` holds
            # the lane's effective gmin, the scalar ``effective_gmin``).
            dx = np.empty_like(F)
            for p in range(batch):
                try:
                    dx[p] = np.linalg.solve(J[p], rhs[p])
                except np.linalg.LinAlgError:
                    record_rung("nudge", recorder)
                    nudge_diagonal(J[p], singular_nudge(
                        float(state.gmin[rows[p]])))
                    try:
                        dx[p] = np.linalg.solve(J[p], rhs[p])
                    except np.linalg.LinAlgError:
                        # Doubly singular: a zero step would otherwise
                        # sail through the ``step < voltol`` test, so
                        # the mask must veto convergence and finish the
                        # lane on the failure path (regression-pinned in
                        # ``test_singular_batch.py``).
                        dx[p] = 0.0
                        singular[p] = True
        if times is not None:
            now = _monotonic()
            times.factorize += now - t_seg
            t_seg = now
        if state.guarded:
            # Condition sampling mirrors the scalar placement: after
            # the linear solve of a lane's first iteration, against the
            # as-solved (possibly nudged-in-place) Jacobian.  Per-lane
            # monitors give each lane the scalar cadence, so the
            # illconditioned counter is batch-size invariant.
            for p in range(batch):
                lane = int(rows[p])
                g = state.guards[lane]
                if (g is not None and g.check_condition
                        and state.iteration[lane] == 0 and not singular[p]):
                    estimate = condition_estimate_dense(J[p])
                    if g.note_condition(estimate):
                        note_illconditioned(
                            estimate, g.policy.condition_limit, recorder)
        if times is not None:
            now = _monotonic()
            times.guard += now - t_seg
            t_seg = now
        steps = np.abs(dx).max(axis=1)
        max_steps = state.max_step[rows]
        factors = np.ones(batch)
        damp = steps > max_steps
        factors[damp] = max_steps[damp] / steps[damp]
        state.x[rows] = X + dx * factors[:, None]
        state.iteration[rows] += 1
        iters = state.iteration[rows]

        # Convergence tests the *undamped* step, like the scalar loop.
        conv = ((steps < state.voltol[rows])
                & (residual < state.abstol[rows]) & ~singular)
        exhausted = ~conv & ~singular & (iters >= state.max_iter[rows])
        state.last_residual[rows[~conv]] = residual[~conv]
        for p in np.flatnonzero(conv | exhausted | singular):
            lane = int(rows[p])
            if singular[p]:
                finished.append((lane, False, ConvergenceError(
                    "singular Jacobian during Newton iteration",
                    iterations=int(iters[p]), residual=float(residual[p]),
                ), int(iters[p])))
            elif conv[p]:
                finished.append((lane, True, np.array(state.x[lane]),
                                 int(iters[p])))
            else:
                limit = int(state.max_iter[rows[p]])
                finished.append((lane, False, _exhaustion_error(
                    limit, float(state.last_residual[lane])), limit))
        if times is not None:
            times.scatter += _monotonic() - t_seg
    return finished, evicted


@traced("spice.batch")
def _run_lockstep(batchc: BatchCompiled, entries: Sequence[tuple]) -> list:
    outcomes: list = [None] * len(entries)
    state = _LockstepState(batchc, len(entries))
    active: set = set()
    recorder = get_recorder()
    profile = PhaseProfiler.from_recorder(recorder)
    # Flight records are per finished lane-solve; the evicted lanes
    # record through the scalar solver they retry on.
    flight = recorder.flight if recorder.enabled else None
    if flight is not None and not flight.enabled:
        flight = None
    # One GuardMonitor per *lane* (not per batch): each lane's analysis
    # sees the same solve sequence it would see on the scalar driver,
    # so condition-sampling cadence and divergence decisions -- and
    # therefore every spice.guard.* counter -- are batch-size invariant.
    guard_policy = GuardPolicy.from_env()
    monitors: list = [
        GuardMonitor(guard_policy) if guard_policy is not None else None
        for _ in entries
    ]

    def advance(index: int, sent) -> None:
        compiled, plan, stats = entries[index]
        while True:
            try:
                request = plan.send(sent)
            except StopIteration as stop:
                outcomes[index] = stop.value
                return
            except ConvergenceError as error:
                outcomes[index] = error
                return
            if request.options.max_iterations < 1:
                # Scalar parity: a zero-budget solve fails before
                # assembling anything.
                if stats is not None:
                    stats.record(request.options.max_iterations,
                                 converged=False)
                _observe_solve(request.options.max_iterations,
                               converged=False, recorder=recorder,
                               backend="dense")
                sent = _exhaustion_error(request.options.max_iterations,
                                         np.inf)
                continue
            state.requests[index] = request
            if monitors[index] is not None:
                state.guards[index] = monitors[index].start_solve()
                state.guarded = True
            if faults.fire_batch_lane(index):
                state.lane_fault[index] = True
                state.guarded = True
            state.load_request(index, compiled, request, batchc)
            active.add(index)
            return

    def retry_solo(lane: int, reason: str) -> None:
        # The guard (or an injected lane fault) pulled this lane out of
        # the stack: rerun its request through the scalar solver.  The
        # burned lockstep iterations were never recorded, and the solo
        # solve replays them deterministically, so a diverging lane ends
        # with accounting identical to the scalar driver's abort -- and
        # a watchdog-killed or fault-injected lane gets a clean second
        # chance without dragging its siblings.
        recorder.counter("spice.batch.evictions", reason=reason).inc()
        request = state.requests[lane]
        compiled, _, stats = entries[lane]
        kwargs = request_kwargs(request, stats)
        # The solo retry runs on the dense backend the lockstep kernel
        # uses, so an evicted lane's waveform stays bit-identical to the
        # scalar driver's; the lockstep's profiler times it into the
        # ``driver="dense"`` phase histograms and its flight record.
        kwargs["recorder"] = recorder
        kwargs["sparse"] = False
        if monitors[lane] is not None:
            kwargs["guard"] = monitors[lane]
        if profile is not None:
            kwargs["profile"] = profile
        try:
            outcome = newton_solve(compiled, request.x0, request.known,
                                   **kwargs)
        except ConvergenceError as error:
            outcome = error
        advance(lane, outcome)

    for index in range(len(entries)):
        advance(index, None)

    rounds = 0
    while active:
        rounds += 1
        times = profile.begin() if profile is not None else None
        rows = np.fromiter(sorted(active), dtype=np.intp, count=len(active))
        finished, evicted = _lockstep_round(batchc, state, rows,
                                            recorder, times)
        if profile is not None:
            profile.finish("batch", times)
        for lane, reason in evicted:
            active.discard(lane)
            retry_solo(lane, reason)
        for lane, converged, outcome, iterations in finished:
            stats = entries[lane][2]
            if stats is not None:
                stats.record(iterations, converged=converged)
            _observe_solve(iterations, converged=converged,
                           recorder=recorder, backend="dense")
            if flight is not None:
                if converged:
                    label = "converged"
                elif "singular" in str(outcome):
                    label = "singular"
                else:
                    label = "iteration_limit"
                flight.note_solve(driver="batch", n=batchc.n,
                                  iterations=iterations, outcome=label)
            active.discard(lane)
            advance(lane, outcome)
    if rounds:
        recorder.counter("spice.batch.rounds").inc(rounds)
    return outcomes


def run_plans_batched(entries: Sequence[tuple]) -> list:
    """Execute ``(compiled, plan, stats)`` triples, vectorized when possible.

    Returns one outcome per entry: the plan's return value, or the
    :class:`~repro.errors.ConvergenceError` it raised.  Congruent
    multi-lane batches below the sparse cutover run through the dense
    lockstep kernel.  A single lane (nothing to vectorize), lanes that
    dispatch to the sparse backend
    (:func:`~repro.spice.sparse.sparse_enabled`) and incongruent lanes
    (counted in ``spice.batch.fallbacks``) run serially, one scalar
    analysis per entry, so they match the scalar driver bit for bit.
    """
    if len(entries) > 1 and not sparse_enabled(entries[0][0].n_unknown):
        try:
            batchc = BatchCompiled([entry[0] for entry in entries])
        except BatchIncongruent:
            get_recorder().counter("spice.batch.fallbacks").inc()
        else:
            return _run_lockstep(batchc, entries)
    # One recorder handle for the whole serial run; everything else is
    # per entry, exactly like the scalar drivers, so guard counters and
    # the sparse dispatch do not depend on which driver (or chunk size)
    # executed the plan.
    recorder = get_recorder()
    outcomes = []
    for compiled, plan, stats in entries:
        context = SolveContext.for_analysis(recorder, compiled.n_unknown)
        try:
            outcomes.append(run_plan(compiled, plan, stats, context=context))
        except ConvergenceError as error:
            outcomes.append(error)
    return outcomes


def solve_dc_batch(circuits: Sequence[Union[Circuit, CompiledCircuit]], *,
                   initial_guesses: Optional[Sequence[Optional[dict]]] = None,
                   time: float = 0.0,
                   options: Optional[NewtonOptions] = None,
                   stats: Optional[Sequence[Optional[NewtonStats]]] = None,
                   retry: Union[RetryPolicy, int, None] = None) -> list:
    """Batched :func:`~repro.spice.dc.solve_dc` over congruent circuits.

    Returns a list of :class:`~repro.spice.dc.OperatingPoint` or the
    per-lane :class:`~repro.errors.ConvergenceError`.
    """
    compiled = [c if isinstance(c, CompiledCircuit) else c.compile()
                for c in circuits]
    guesses = initial_guesses or [None] * len(compiled)
    stats_list = list(stats) if stats is not None else [None] * len(compiled)
    recorder = get_recorder()
    entries = [
        (c, dc_plan(c, initial_guess=guess, time=time, options=options,
                    stats=st, retry=retry, recorder=recorder), st)
        for c, guess, st in zip(compiled, guesses, stats_list)
    ]
    recorder.counter("spice.batch.lanes").inc(len(entries))
    results = []
    for c, outcome in zip(compiled, run_plans_batched(entries)):
        if isinstance(outcome, ConvergenceError):
            results.append(outcome)
        else:
            results.append(operating_point_from_vector(
                c, outcome, c.known_voltages(time)))
    return results


def transient_batch(circuits: Sequence[Union[Circuit, CompiledCircuit]],
                    t_stops, *,
                    t_start: float = 0.0,
                    record: Optional[List[str]] = None,
                    initial_op: Optional[Dict[str, float]] = None,
                    options: Optional[TransientOptions] = None,
                    retry: Union[RetryPolicy, int, None] = None) -> list:
    """Batched :func:`~repro.spice.transient.transient` over congruent lanes.

    ``t_stops`` is either one stop time shared by every lane or a
    per-lane sequence (characterization windows differ per point).
    Returns a list of :class:`~repro.spice.results.TransientResult` or
    the per-lane :class:`~repro.errors.ConvergenceError`; lane failures
    never abort sibling lanes.
    """
    compiled = [c if isinstance(c, CompiledCircuit) else c.compile()
                for c in circuits]
    if isinstance(t_stops, (list, tuple)):
        stops = list(t_stops)
        if len(stops) != len(compiled):
            raise ValueError("t_stops length must match circuits")
    else:
        stops = [t_stops] * len(compiled)
    stats_list = [NewtonStats() for _ in compiled]
    recorder = get_recorder()
    entries = [
        (c, transient_result_plan(c, stop, stats=st, t_start=t_start,
                                  record=record, initial_op=initial_op,
                                  options=options, retry=retry,
                                  recorder=recorder), st)
        for c, stop, st in zip(compiled, stops, stats_list)
    ]
    recorder.counter("spice.batch.lanes").inc(len(entries))
    return run_plans_batched(entries)
