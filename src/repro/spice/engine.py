"""Nonlinear system assembly and the damped Newton solver.

Both analyses reduce each solve to the same shape: find the unknown node
voltages ``x`` such that KCL holds at every unknown node,

    F_i(x) = sum of currents leaving node i = 0.

DC analysis stamps only resistive elements (plus ``gmin`` leaks);
transient analysis additionally passes *companion stamps* for the
capacitors (Norton equivalents of the implicit integration rule), in
one form: ``caps=(geq, ieq)``, one value each per compiled capacitor.

Every analysis solves through one :class:`SolveContext`
(:meth:`SolveContext.for_analysis`), which decides the backend once --
``kernel``, ``dense`` or ``sparse`` -- and owns the analysis's
:class:`NewtonStats`, recorder and phase accumulator.
:meth:`SolveContext.solve` calls :func:`newton_solve`, which reads that
decision.

Telemetry costs a constant per analysis: solves tally on the context
and time into its one :class:`~repro.obs.profile.PhaseTimes`, and the
analysis folds both into the recorder once (:meth:`SolveContext.fold`).
With per-solve accounting a telemetry-on NAND3 shot cost 1.43x a
telemetry-off one; it costs ~1.05x since, mostly phase timing's clock
reads (CPU-time medians of 16 alternating reps of 40 seed-11 shots,
2-vCPU container).

Gate-sized circuits (below
:data:`~repro.spice.stamps.SCALAR_MOS_CUTOVER` transistors) that
``REPRO_SPARSE`` leaves dense take the ``kernel`` backend: one
generated loop per circuit structure
(:attr:`~repro.spice.stamps.GateKernel.newton`, through a
:class:`KernelNewton`).  It unpacks the circuit's constants and the
solve's inputs once, evaluates the transistors inline, packs ``[-F |
J]`` into a preallocated buffer with one ``struct`` call, and computes
the residual, the step norm, the damping and the update as
straight-line float code.  The only numpy call per iteration is LAPACK
``gesv`` (:data:`gesv`, looked up on every solve), reading that buffer
through two views and solving into a preallocated ``dx``.  The
singular nudge and the iteration-limit exit are :class:`KernelNewton`
methods, called only where they apply.  A singular Jacobian raises only under
:data:`_SINGULAR_RAISES`, which :func:`newton_solve` enters once per
solve.  A NumPy array op costs ~1-3 us whatever its size, which was
most of the ~20 us the NumPy assembly of a 3-unknown NAND3 iteration
took.
Results stay bit-identical: the loop applies one IEEE add per
contribution in the plan's emission order (never ``sum()`` or
``math.fsum``; Python 3.12's ``sum()`` compensates float sums),
negating ``F`` is exact, the norms are NaN-propagating maxima like
``np.abs(F).max()``, damping and the update are the same elementwise
products and sums, and the linear solve is the same ``gesv`` on the
same bits.  The ``dense`` and ``sparse`` backends run the NumPy
full-Newton loop, so every solve runs one of two loops: the kernel or
that one.  DESIGN.md records why no loop reuses LU factors across
iterations.

A gate-sized transient skips :func:`newton_solve` for its steps: its
context's :meth:`SolveContext.kernel_newton` is the same loop, which
the integrator's float state calls with float lists and the
capacitors' history, from which the loop computes the step's companion
stamps (see :mod:`repro.spice.transient`), under one error state per
integration attempt (:meth:`KernelNewton.error_state`; entering one
costs ~2-3 us, and a NAND3 shot makes ~160 step solves).  Its DC point
still goes through :meth:`SolveContext.solve`.  Over 10 alternating
``bench/compare.py`` pairs each on a 2-vCPU Xeon container,
``validate_oracle`` went from 7.54 to 12.47 configs/s with the first
kernel loop, from 12.49 to 17.69 with float steps, from 17.48 to 22.01
with inline channel models, the packed buffer and the per-attempt
error state, and from 21.23 to 24.19 with the whole loop generated
(26.3 -> 20.8 us per float step, best of 12 passes of 40 configs).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import monotonic as _monotonic
from typing import Optional, Sequence, Tuple, Union

import numpy as np
from numpy.linalg import _umath_linalg

from ..errors import ConvergenceError
from ..obs import get_recorder
from ..obs.profile import PhaseProfiler, PhaseTimes
from .guard import record_rung
from .mosfet import mosfet_current
from .netlist import CompiledCircuit
from .sparse import sparse_enabled
from .stamps import (CapArrays, Workspace, assemble_into, assemble_sparse,
                     load_kernel, load_solve, stamped)

__all__ = ["NewtonOptions", "NewtonStats", "CapStamp", "assemble_system",
           "assemble_system_reference", "newton_solve", "SolveContext",
           "KernelNewton", "dense_solve", "gesv", "nudge_diagonal",
           "singular_nudge"]

#: One capacitor's companion stamp in the reference assembler's input:
#: current (a -> b) is ``geq * (va - vb) - ieq``.
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
                    caps: Optional[CapArrays] = None,
                    source_scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the KCL residual ``F`` and Jacobian ``J = dF/dx``.

    ``known`` holds the known-node voltages (ground first); it is scaled
    by ``source_scale`` to support source stepping.  ``caps`` adds the
    transient companion models: ``(geq, ieq)``, one value each per
    compiled capacitor (:func:`~repro.spice.stamps.load_solve` raises
    ``ValueError`` on any other length).

    Assembly runs through the circuit's compiled
    :class:`~repro.spice.stamps.StampPlan`, bit-identical to
    :func:`assemble_system_reference` (the original scalar loop, kept
    as the equivalence oracle).
    """
    plan = compiled.stamp_plan
    ws = Workspace(plan)
    with_caps = load_solve(plan, ws, np.asarray(known, dtype=float), time,
                           caps, source_scale, compiled.isources)
    return assemble_into(plan, ws, np.asarray(x, dtype=float), gmin,
                         with_caps)


def assemble_system_reference(
        compiled: CompiledCircuit, x: np.ndarray, known: np.ndarray,
        *, gmin: float, time: float = 0.0,
        cap_stamps: Optional[Sequence[CapStamp]] = None,
        source_scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """The original scalar-loop assembler, kept as the bit-identity oracle.

    Walks every device in Python, accumulating ``F``/``J`` cell by cell.
    The compiled :func:`assemble_system` must reproduce this output
    bit for bit (``tests/spice/test_assembly_equivalence.py``).  Its
    companion stamps are ``(a, b, geq, ieq)`` tuples in any order.
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

    for (a, b), g in zip(compiled.res_nodes.T.tolist(),
                         compiled.res_g.tolist()):
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

    for (d, g_node, s), card, k in zip(compiled.mos_nodes.T.tolist(),
                                       compiled.mos_card.tolist(),
                                       compiled.mos_k.tolist()):
        params = compiled.cards[card]
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

    Every Newton loop escalates a singular system by adding this to
    every diagonal entry; sharing the expression keeps the recovery
    arithmetic identical across the kernel, dense and sparse paths.
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


def _not_converged(iterations: int, residual: float) -> ConvergenceError:
    """The error of a solve that ran out of Newton iterations."""
    return ConvergenceError(
        f"Newton failed to converge in {iterations} iterations "
        f"(residual {residual:.3e} A)",
        iterations=iterations, residual=residual)


def _raise_singular(err: str, flag: int) -> None:
    raise np.linalg.LinAlgError("Singular matrix")


#: The error state :func:`numpy.linalg.solve` runs ``gesv`` under: a
#: singular matrix raises ``LinAlgError``.
_SINGULAR_RAISES = dict(call=_raise_singular, invalid="call", over="ignore",
                        divide="ignore", under="ignore")

#: LAPACK ``gesv``, the gufunc behind :func:`numpy.linalg.solve`.  It
#: raises on a singular matrix only under ``_SINGULAR_RAISES``.  Every
#: dense full-Newton solve calls it through this name --
#: :func:`dense_solve` per call, the gate-sized loop once per solve,
#: as ``gesv(J, rhs, out=dx)`` -- so fault-injection tests patch it
#: here.
gesv = _umath_linalg.solve1


def dense_solve(J: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``J @ dx = rhs`` for float64 ``J`` of shape ``(n, n)``.

    Calls :data:`gesv` under :func:`numpy.linalg.solve`'s error state (a
    singular ``J`` raises ``LinAlgError``), so the result is
    bit-identical minus the wrapper's conversion work.
    """
    with np.errstate(**_SINGULAR_RAISES):
        return gesv(J, rhs)


class _DenseOps:
    """LAPACK backend of the NumPy full-Newton loop.

    ``direct_solve`` calls the ``gesv`` gufunc through
    :func:`dense_solve`, bit-identical to :func:`numpy.linalg.solve`.
    With the analysis's :class:`~repro.obs.profile.PhaseTimes` in
    ``times`` (telemetry on) the call is bracketed by monotonic reads:
    the fused ``gesv`` lands wholly in ``factorize`` (LAPACK does not
    expose the split).
    """

    __slots__ = ("times",)

    def __init__(self, times: Optional[PhaseTimes]) -> None:
        self.times = times

    def direct_solve(self, J: np.ndarray, F: np.ndarray) -> np.ndarray:
        if self.times is None:
            return dense_solve(J, -F)
        start = _monotonic()
        dx = dense_solve(J, -F)
        self.times.factorize += _monotonic() - start
        return dx

    @staticmethod
    def nudge(J: np.ndarray, value: float) -> None:
        nudge_diagonal(J, value)


class _SparseOps:
    """SuperLU backend on the analysis's sparse :class:`Workspace`: with
    telemetry on, factorizations count into its :class:`SolveContext`.
    The assembled ``data`` the loop passes is the workspace's own."""

    __slots__ = ("sp", "ws", "context", "times")

    def __init__(self, sp, ws: Workspace, context: SolveContext) -> None:
        self.sp = sp
        self.ws = ws
        self.context = context
        self.times = context.times

    def direct_solve(self, data, F: np.ndarray) -> np.ndarray:
        """Factorize the assembled matrix and solve for the step; raises
        ``LinAlgError`` if singular, and tallies factorization/fill
        telemetry."""
        sp, times = self.sp, self.times
        lu = sp.factorize(self.ws.data, times=times)
        if times is not None:
            context = self.context
            context.factorizations += 1
            # SuperLU drops numerically-zero pattern entries (common when
            # many devices are cut off), so L+U can hold fewer entries
            # than the structural pattern: report that as zero fill.
            context.fill_nnz += max(0, int(lu.L.nnz + lu.U.nnz) - sp.nnz)
        return sp.solve_factored(lu, -F, self.ws, times=times)

    def nudge(self, data, value: float) -> None:
        self.sp.nudge(self.ws.data, value)


class KernelNewton:
    """Gate-sized Newton solves on the plan's generated loop.

    ``newton`` is the :class:`~repro.spice.stamps.GateKernel`'s loop
    (with capacitor stamps or without), called as ``newton(self, x,
    ...)``: :func:`newton_solve`'s full-Newton iteration on Python
    floats, which returns the solution as a new list.  This object holds
    what the loop reads besides a solve's inputs -- the circuit's
    constants, the ``[-F | J]`` buffer (a memoryview the loop packs
    into, and its ``rhs`` and ``J`` views), the ``dx`` that
    :data:`gesv` solves into, and its :class:`SolveContext`'s phase
    accumulator ``times``, which every solve adds into -- and the loop's
    rare exits.  Every exit accounts through :meth:`SolveContext.end`,
    like the NumPy loop's.
    :meth:`SolveContext.kernel_newton` builds one per gate-sized
    :func:`newton_solve` and one per transient for its step solves.  The
    error state is the caller's to hold, once for many solves:
    :meth:`error_state`.
    """

    __slots__ = ("newton", "consts", "caps", "buffers", "context",
                 "times")

    def __init__(self, plan, with_caps: bool,
                 context: SolveContext) -> None:
        n = plan.n
        self.newton = plan.kernel(with_caps).newton
        self.consts, self.caps = plan.kernel_consts, plan.live_c
        fj = np.empty(n + n * n)
        self.buffers = (memoryview(fj), fj[:n], fj[n:].reshape(n, n),
                        np.empty(n))
        self.context = context
        self.times = context.times

    @staticmethod
    def error_state() -> np.errstate:
        """The error state the loop must run under: a singular
        Jacobian raises inside it, as in :func:`numpy.linalg.solve`."""
        return np.errstate(**_SINGULAR_RAISES)

    @property
    def gesv(self):
        """:data:`gesv` as it is bound when a solve starts."""
        return gesv

    def nudge(self, solve, gmin: float, iteration: int,
              residual: float) -> None:
        """The singular rung: solve again on a nudged diagonal."""
        _, rhs, J, dx = self.buffers
        record_rung("nudge", self.context.recorder)
        nudge_diagonal(J, singular_nudge(gmin))
        try:
            solve(J, rhs, out=dx)
        except np.linalg.LinAlgError:
            self.context.end(iteration, "singular")
            raise ConvergenceError(
                "singular Jacobian during Newton iteration",
                iterations=iteration, residual=residual,
            ) from None

    def give_up(self, iterations: int, residual: float) -> None:
        self.context.end(iterations, "iteration_limit")
        raise _not_converged(iterations, residual)


def newton_solve(compiled: CompiledCircuit, x0: np.ndarray, known: np.ndarray,
                 *, options: NewtonOptions, gmin: Optional[float] = None,
                 time: float = 0.0, caps: Optional[CapArrays] = None,
                 source_scale: float = 1.0,
                 context: Optional[SolveContext] = None) -> np.ndarray:
    """Damped Newton-Raphson solve of the KCL system.

    Raises :class:`~repro.errors.ConvergenceError` when the iteration
    fails; callers (gmin stepping, transient step halving) catch it and
    retry on an easier problem.  ``caps`` are the transient's companion
    stamps, ``(geq, ieq)`` with one value each per compiled capacitor.

    ``context`` is the analysis's :class:`SolveContext`
    (:meth:`SolveContext.solve` passes it): the solve runs on the
    backend the context decided, accounts its iterations into the
    context (:meth:`SolveContext.end`) whether it converges or not (the
    raised error also carries its count in ``iterations``) and adds its
    phase seconds to the context's accumulator when telemetry is on.
    ``None`` makes the solve an analysis of its own
    (:meth:`SolveContext.for_analysis`), folded into the recorder when
    the solve returns or raises.

    On the ``kernel`` backend the solve runs the plan's generated loop
    through a :class:`KernelNewton` (see the module docstring); on
    ``dense`` and ``sparse``, the NumPy full-Newton loop below.
    """
    if context is None:
        with SolveContext.for_analysis(compiled) as context:
            return newton_solve(compiled, x0, known, options=options,
                                gmin=gmin, time=time, caps=caps,
                                source_scale=source_scale, context=context)
    effective_gmin = options.gmin if gmin is None else gmin
    plan = compiled.stamp_plan
    backend = context.backend
    if backend == "kernel":
        known_list, isrc, geq, ieq = load_kernel(
            plan, known, time, caps, source_scale, compiled.isources)
        kernel = context.kernel_newton(stamped(plan, caps))
        with np.errstate(**_SINGULAR_RAISES):
            return np.array(kernel.newton(
                kernel, np.asarray(x0, dtype=float).tolist(), known_list,
                isrc, effective_gmin, options, None, False, geq, ieq))
    times = context.times
    x = np.array(x0, dtype=float)
    ws = context.workspace()
    with_caps = load_solve(plan, ws, np.asarray(known, dtype=float), time,
                           caps, source_scale, compiled.isources)
    ops: Union[_DenseOps, _SparseOps]
    if backend == "sparse":
        sp = plan.sparse
        ops = _SparseOps(sp, ws, context)

        def assemble():
            return assemble_sparse(plan, ws, sp, x, effective_gmin,
                                   with_caps)
    else:
        ops = _DenseOps(times)

        def assemble():
            return assemble_into(plan, ws, x, effective_gmin, with_caps)

    if times is not None:
        # One wrapper times every assembly call; the unprofiled path
        # keeps the raw closure (zero overhead).
        _assemble_inner = assemble

        def assemble():
            start = _monotonic()
            result = _assemble_inner()
            times.assembly += _monotonic() - start
            return result

    last_residual = np.inf
    for iteration in range(1, options.max_iterations + 1):
        F, J = assemble()
        residual = float(np.abs(F).max())
        try:
            dx = ops.direct_solve(J, F)
        except np.linalg.LinAlgError:
            # Singular Jacobian: nudge the diagonal in place (the
            # buffer is reassembled next iteration anyway) and retry.
            record_rung("nudge", context.recorder)
            ops.nudge(J, singular_nudge(effective_gmin))
            try:
                dx = ops.direct_solve(J, F)
            except np.linalg.LinAlgError:
                context.end(iteration, "singular")
                raise ConvergenceError(
                    "singular Jacobian during Newton iteration",
                    iterations=iteration, residual=residual,
                ) from None
        step = float(np.abs(dx).max())
        if step > options.max_step:
            dx *= options.max_step / step
        x += dx
        if step < options.voltol and residual < options.abstol:
            context.end(iteration, "converged")
            return x
        last_residual = residual
    context.end(options.max_iterations, "iteration_limit")
    raise _not_converged(options.max_iterations, last_residual)


class SolveContext:
    """One analysis's Newton solver, decided once, and its accounting.

    Every analysis -- a DC operating point, a sweep, a transient, one
    batch lane -- builds one context (:meth:`for_analysis`) and solves
    through it (:meth:`solve`).  The context holds what its solves
    share:

    * ``backend``: ``"kernel"`` (the plan's generated loop, for
      gate-sized circuits), ``"dense"`` (the NumPy full-Newton loop on
      LAPACK) or ``"sparse"`` (the same loop on SuperLU);
    * ``stats``: the analysis's :class:`NewtonStats`, which every solve
      accounts into and the retry ladders count their escalations in;
    * ``recorder``, the telemetry handle, ``profile``, its
      :class:`~repro.obs.profile.PhaseProfiler`, and ``times``, the
      analysis's one :class:`~repro.obs.profile.PhaseTimes`, which every
      solve's loop adds its phase seconds into (both ``None`` with
      telemetry off, which skips every timing site);
    * the ``dense`` and ``sparse`` backends' :class:`Workspace`
      (:meth:`workspace`), so analyses of one compiled circuit, which
      share its stamp plan, never write the same buffer;
    * the tallies ``iterations``, ``solves``, ``failures`` and, with
      telemetry on, the sparse ``factorizations`` and ``fill_nnz``,
      which :meth:`fold` moves into the recorder.

    The drivers fold their context on every exit, raising ones
    included (``with SolveContext.for_analysis(...) as context:``); a
    context built by hand shows in the recorder only once folded.  The
    ``kernel`` backend's loops (:meth:`kernel_newton`) refer to it.
    """

    __slots__ = ("compiled", "backend", "stats", "recorder", "profile",
                 "times", "iterations", "solves", "failures",
                 "factorizations", "fill_nnz", "_workspace")

    def __init__(self, compiled: CompiledCircuit, backend: str,
                 stats: NewtonStats, recorder,
                 profile: Optional[PhaseProfiler]) -> None:
        self.compiled = compiled
        self.backend = backend
        self.stats = stats
        self.recorder = recorder
        self.profile = profile
        self.times = profile.begin() if profile is not None else None
        self.iterations = self.solves = self.failures = 0
        self.factorizations = self.fill_nnz = 0
        self._workspace: Optional[Workspace] = None

    @classmethod
    def for_analysis(cls, compiled: CompiledCircuit, *,
                     stats: Optional[NewtonStats] = None,
                     recorder=None) -> SolveContext:
        """The context one analysis of ``compiled`` runs under.

        Resolves every solver knob once: the ``REPRO_SPARSE`` dispatch
        for the circuit's unknown count (an unknown value raises
        :class:`~repro.errors.ReproError`) and phase timing whenever the
        recorder is enabled.  The backend is ``sparse`` when
        ``REPRO_SPARSE`` dispatches this circuit there (by size, or
        forced); else ``kernel`` for plans below
        :data:`~repro.spice.stamps.SCALAR_MOS_CUTOVER` transistors, else
        ``dense``.  ``stats`` defaults to a fresh
        :class:`NewtonStats`, ``recorder`` to the process's.
        """
        if recorder is None:
            recorder = get_recorder()
        if sparse_enabled(compiled.n_unknown):
            backend = "sparse"
        elif compiled.stamp_plan.use_scalar_mos:
            backend = "kernel"
        else:
            backend = "dense"
        return cls(compiled, backend,
                   stats if stats is not None else NewtonStats(), recorder,
                   PhaseProfiler.from_recorder(recorder))

    def __enter__(self) -> SolveContext:
        return self

    def __exit__(self, kind, error, trace) -> None:
        self.fold("converged" if kind is None else "failed")

    @property
    def driver(self) -> str:
        """The telemetry label of the linear solver: ``sparse``, or
        ``dense`` for the ``dense`` and ``kernel`` backends alike."""
        return "sparse" if self.backend == "sparse" else "dense"

    def solve(self, x0, known, options: NewtonOptions, *, time: float,
              **shape) -> np.ndarray:
        """One Newton solve of this analysis.

        Calls :func:`newton_solve` as this module binds it at call time,
        so a test can wrap every solve of every analysis at one seam.
        ``shape`` -- ``gmin``, ``caps``, ``source_scale`` -- is
        forwarded only when the caller passes it, so each homotopy rung
        keeps its own keyword set (the solver-fallback tests tell rungs
        apart by it).  A gate-sized transient's steps do not come
        through here: they call :meth:`kernel_newton`'s loop directly.
        """
        return newton_solve(self.compiled, x0, known, options=options,
                            time=time, context=self, **shape)

    def workspace(self) -> Workspace:
        """The buffers of this analysis's NumPy Newton solves, built on
        the first (``dense`` and ``sparse`` backends)."""
        ws = self._workspace
        if ws is None:
            ws = self._workspace = Workspace(self.compiled.stamp_plan,
                                             self.backend == "sparse")
        return ws

    def kernel_newton(self, with_caps: bool = True) -> KernelNewton:
        """The ``kernel`` backend's loop, with capacitor stamps or without.

        A new one per call, which accounts into this context: one per
        gate-sized DC solve, and one per transient for its steps when
        ``backend`` is ``"kernel"``.  The context keeps no reference to
        it, so an analysis leaves no reference cycle behind.
        """
        return KernelNewton(self.compiled.stamp_plan, with_caps, self)

    def end(self, iterations: int, outcome: str) -> None:
        """Account one finished Newton solve: stats and tallies.

        Called at every solve exit (converged, iteration limit,
        singular).  This is the single place Newton iterations are
        counted, so parent and worker processes account identically --
        whoever runs the solve records it, and pooled tasks ship the
        delta back.  It touches no registry (:meth:`fold` does).  With
        telemetry on, a failed solve goes to the flight ring at once,
        with the analysis's phase seconds so far, so a retry-ladder
        dump shows each failure among the rungs, in order.
        """
        self.iterations += iterations
        if outcome == "converged":
            self.stats.record(iterations, converged=True)
            self.solves += 1
            return
        self.stats.record(iterations, converged=False)
        self.failures += 1
        times = self.times
        if times is not None and self.recorder.flight.enabled:
            self.recorder.flight.note_solve(
                **self._record(times, iterations, outcome))

    def _record(self, times: PhaseTimes, iterations: int, outcome: str,
                **counts: int) -> dict:
        """A flight-ring solve record of this analysis."""
        record = {"driver": self.driver, "n": self.compiled.n_unknown,
                  "iterations": iterations, **counts, "outcome": outcome}
        phases = times.as_dict()
        if phases:
            record["phases"] = phases
        return record

    def fold(self, outcome: str = "converged") -> None:
        """Move the analysis's tallies into its recorder, once.

        With telemetry on and a solve since the last fold, each tally
        goes to its counter, each handle resolved once and only the keys
        per-solve accounting would create (a zero ``solves`` or
        ``failures`` adds none); each ``spice.phase.seconds`` histogram
        of the driver is observed once; and the flight ring gets one
        solve record for the analysis, with ``solves`` and ``failures``
        counts and its ``outcome`` (``failed`` when it raised).  The
        tallies restart from zero.  With telemetry off this is one
        check.
        """
        solves = self.solves + self.failures
        profile, times = self.profile, self.times
        if profile is None or times is None or not solves:
            return
        recorder, driver = self.recorder, self.driver
        recorder.counter("spice.newton.iterations").inc(self.iterations)
        if self.solves:
            recorder.counter("spice.newton.solves").inc(self.solves)
        if self.failures:
            recorder.counter("spice.newton.failures").inc(self.failures)
        recorder.counter("spice.newton.dispatch", backend=driver).inc(solves)
        if self.factorizations:
            recorder.counter("spice.sparse.factorizations").inc(
                self.factorizations)
            recorder.counter("spice.sparse.fill_nnz").inc(self.fill_nnz)
        profile.finish(driver, times)
        if recorder.flight.enabled:
            recorder.flight.note_solve(**self._record(
                times, self.iterations, outcome, solves=self.solves,
                failures=self.failures))
        self.iterations = self.solves = self.failures = 0
        self.factorizations = self.fill_nnz = 0
        times.assembly = times.factorize = times.back_solve = 0.0
