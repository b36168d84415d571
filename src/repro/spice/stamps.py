"""Compiled stamp structure of the Newton engine.

The KCL system of a compiled circuit has a *fixed* sparsity and
emission order: which ``F``/``J`` cells each device touches, with which
sign, never changes between Newton iterations -- only the device values
do.  A :class:`StampPlan` compiles that structure once per
:class:`~repro.spice.netlist.CompiledCircuit`:

* **gather maps** resolving every device terminal to a column of the
  fused ``[x | known]`` voltage vector (slot ``>= 0`` indexes the
  unknowns, slot ``< 0`` the knowns, exactly the netlist encoding),
* a **flat device table** for gate-sized circuits: one row of plain
  values per transistor that one Python loop walks, calling the
  channel model once per device,
* a **device-axis parameter table** so larger circuits evaluate all
  transistors of one polarity/channel-model group through a single
  :func:`~repro.spice.mosfet.mosfet_current_batch` call, and
* **ordered scatter plans** for ``F`` and flattened ``J`` whose
  accumulation order matches the scalar loop of the original
  ``assemble_system`` cell by cell.

Ordered scatter is what keeps vectorized accumulation *bit-identical*
to the sequential scalar code.  IEEE addition is not associative, so
the per-cell accumulation order -- not just the set of contributions
-- is part of the contract.  The dense backend applies one
emission-ordered ``np.add.at`` pass (:class:`DenseScatter`;
``np.add.at`` performs repeated-index additions sequentially in
element order), the sparse backend one ordered CSR product
(:class:`~repro.spice.sparse.SparsePlan`);
``tests/spice/test_assembly_equivalence.py`` enforces it against the
kept-as-reference scalar assembler.

The engine (:mod:`repro.spice.engine`) drives the plan through a
preallocated :class:`Workspace` so a Newton iteration allocates no
``(n, n)`` temporaries.  Each backend's scatter state is built on its
first use, so a plan that only dispatches sparse never allocates the
dense ``n + n**2`` buffer.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from .mosfet import channel_function, device_param_rows, mosfet_current_batch

__all__ = ["CapStampArrays", "DenseScatter", "MosGroup", "StampPlan",
           "Workspace", "assemble_into", "assemble_sparse", "eval_values",
           "load_solve"]

#: Below this device count the scalar engine evaluates transistors one
#: by one through the scalar channel model: ~35 numpy kernel launches
#: per :func:`~repro.spice.mosfet.mosfet_current_batch` call cost more
#: than they vectorize for a handful of devices (a single gate), while
#: Python-float evaluation is bit-identical by construction.  Larger
#: systems (gate chains, proximity testbenches) use the grouped batch
#: calls.
SCALAR_MOS_CUTOVER = 16


def _intp(values) -> np.ndarray:
    return np.asarray(list(values), dtype=np.intp)


class CapStampArrays:
    """Companion stamps for every compiled capacitor, as flat arrays.

    The transient integrator builds one of these per Newton request:
    ``a``/``b`` are the plan's own ``cap_pairs_a``/``cap_pairs_b``
    node-slot arrays (the node pairs never change), ``geq``/``ieq`` the
    per-step companion values, computed vectorized with exactly the
    scalar per-capacitor arithmetic (elementwise ops on the same
    operands, so the values are bit-identical to the tuple-built
    stamps).  Sharing the plan's arrays lets
    :meth:`StampPlan.stamps_match` recognize them by identity and the
    hot loader (:func:`load_solve`) copy ``geq``/``ieq`` wholesale
    instead of unpacking ``n_cap`` tuples per solve.  Iteration yields
    the scalar ``(a, b, geq, ieq)`` tuples, so the reference assembler
    and any tuple-shaped consumer work unchanged.
    """

    __slots__ = ("a", "b", "geq", "ieq")

    def __init__(self, a: np.ndarray, b: np.ndarray,
                 geq: np.ndarray, ieq: np.ndarray) -> None:
        self.a = a
        self.b = b
        self.geq = geq
        self.ieq = ieq

    def __len__(self) -> int:
        return self.geq.size

    def __iter__(self):
        return iter(zip(self.a.tolist(), self.b.tolist(),
                        self.geq.tolist(), self.ieq.tolist()))


class MosGroup:
    """Transistors sharing polarity and channel model.

    ``indices`` are the device positions in ``compiled.mosfets`` (also
    the columns of the device-axis value rows); the ``*_cols`` arrays
    are fused-vector gather columns for the three terminals, and
    ``k``/``vt``/``lam``/``alpha`` the per-device parameter rows of
    *this* circuit.
    """

    __slots__ = ("is_nmos", "alpha_model", "cols", "d_cols", "g_cols",
                 "s_cols", "k", "vt", "lam", "alpha")

    def __init__(self, is_nmos: bool, alpha_model: bool,
                 indices: List[int], compiled) -> None:
        self.is_nmos = is_nmos
        self.alpha_model = alpha_model
        self.cols = _intp(indices)
        n = compiled.n_unknown

        def col(slot: int) -> int:
            return slot if slot >= 0 else n + (-slot - 1)

        self.d_cols = _intp(col(compiled.mosfets[mi][0]) for mi in indices)
        self.g_cols = _intp(col(compiled.mosfets[mi][1]) for mi in indices)
        self.s_cols = _intp(col(compiled.mosfets[mi][2]) for mi in indices)
        self.k, self.vt, self.lam, self.alpha = device_param_rows(
            compiled.mosfets, indices)


class StampPlan:
    """Stamp structure of one compiled circuit.

    The contribution lists record, per KCL contribution of the scalar
    reference assembler, its target cell, its source value column and
    its sign -- in the scalar emission order.  F value columns:
    ``[res cur | isrc cur | mos i_d | cap cur]``; J value columns:
    ``[res g | mos dvd | mos dvg | mos dvs | cap geq]``.  Capacitor
    contributions sit at the tail, so requests without companion stamps
    use plans built from the cap-free prefix (``*_nc``).
    """

    def __init__(self, compiled) -> None:
        n = compiled.n_unknown
        self.n = n
        self.n_known = len(compiled._known_names)
        num_res = len(compiled.resistors)
        num_is = len(compiled.isources)
        num_mos = len(compiled.mosfets)
        num_cap = len(compiled.capacitors)
        self.n_res = num_res
        self.n_is = num_is
        self.n_mos = num_mos
        self.n_cap = num_cap

        def col(slot: int) -> int:
            return slot if slot >= 0 else n + (-slot - 1)

        self.res_a = _intp(col(a) for a, _, _ in compiled.resistors)
        self.res_b = _intp(col(b) for _, b, _ in compiled.resistors)
        self.cap_a = _intp(col(a) for a, _, _ in compiled.capacitors)
        self.cap_b = _intp(col(b) for _, b, _ in compiled.capacitors)
        self.cap_pairs = [(a, b) for a, b, _ in compiled.capacitors]
        self.cap_pairs_a = _intp(a for a, _, _ in compiled.capacitors)
        self.cap_pairs_b = _intp(b for _, b, _ in compiled.capacitors)
        self.cap_c = np.array([c for _, _, c in compiled.capacitors],
                              dtype=float)
        self.res_g = np.array([g for _, _, g in compiled.resistors],
                              dtype=float).reshape(num_res)

        grouped: Dict[Tuple[bool, bool], List[int]] = {}
        for mi, (_, _, _, params, _) in enumerate(compiled.mosfets):
            key = (params.is_nmos, params.model == "alpha")
            grouped.setdefault(key, []).append(mi)
        self.groups: List[MosGroup] = [
            MosGroup(is_nmos, alpha_model, indices, compiled)
            for (is_nmos, alpha_model), indices in grouped.items()
        ]
        self.use_scalar_mos = 0 < num_mos < SCALAR_MOS_CUTOVER
        #: Flat device table used below :data:`SCALAR_MOS_CUTOVER` (empty
        #: above it): per transistor its polarity flag, ``K``, ``abs(vt0)``,
        #: ``lam``, channel function and drain/gate/source fused columns.
        self.mos_scalar = [
            (params.is_nmos, kk, abs(params.vt0), params.lam,
             channel_function(params), col(d), col(g), col(s))
            for d, g, s, params, kk in compiled.mosfets
        ] if self.use_scalar_mos else []

        f_cells: List[int] = []
        f_src: List[int] = []
        f_sign: List[float] = []
        j_cells: List[int] = []
        j_src: List[int] = []
        j_sign: List[float] = []

        def femit(node: int, src: int, sign: float) -> None:
            f_cells.append(node)
            f_src.append(src)
            f_sign.append(sign)

        def jemit(row: int, column: int, src: int, sign: float) -> None:
            j_cells.append(row * n + column)
            j_src.append(src)
            j_sign.append(sign)

        for ri, (a, b, _) in enumerate(compiled.resistors):
            if a >= 0:
                femit(a, ri, 1.0)
                jemit(a, a, ri, 1.0)
                if b >= 0:
                    jemit(a, b, ri, -1.0)
            if b >= 0:
                femit(b, ri, -1.0)
                jemit(b, b, ri, 1.0)
                if a >= 0:
                    jemit(b, a, ri, -1.0)
        for si, (a, b, _) in enumerate(compiled.isources):
            if a >= 0:
                femit(a, num_res + si, 1.0)
            if b >= 0:
                femit(b, num_res + si, -1.0)
        for mi, (d, g_node, s, _, _) in enumerate(compiled.mosfets):
            cd = num_res + mi
            cg = num_res + num_mos + mi
            cs = num_res + 2 * num_mos + mi
            if d >= 0:
                femit(d, num_res + num_is + mi, 1.0)
                jemit(d, d, cd, 1.0)
                if g_node >= 0:
                    jemit(d, g_node, cg, 1.0)
                if s >= 0:
                    jemit(d, s, cs, 1.0)
            if s >= 0:
                femit(s, num_res + num_is + mi, -1.0)
                jemit(s, s, cs, -1.0)
                if d >= 0:
                    jemit(s, d, cd, -1.0)
                if g_node >= 0:
                    jemit(s, g_node, cg, -1.0)
        f_split = len(f_cells)
        j_split = len(j_cells)
        for ci, (a, b, _) in enumerate(compiled.capacitors):
            fcol = num_res + num_is + num_mos + ci
            jcol = num_res + 3 * num_mos + ci
            if a >= 0:
                femit(a, fcol, 1.0)
                jemit(a, a, jcol, 1.0)
                if b >= 0:
                    jemit(a, b, jcol, -1.0)
            if b >= 0:
                femit(b, fcol, -1.0)
                jemit(b, b, jcol, 1.0)
                if a >= 0:
                    jemit(b, a, jcol, -1.0)

        # ``vals`` holds the F columns, then the J columns, then the
        # per-iteration ``gmin * x`` row (F diagonal) and one ``gmin``
        # cell (J diagonal).
        self.n_fvals = num_res + num_is + num_mos + num_cap
        self.n_jvals = num_res + 3 * num_mos + num_cap
        gx_base = self.n_fvals + self.n_jvals
        self.gmin_slot = gx_base + n

        #: ``(cells, src, sign)`` of every F and J contribution in
        #: scalar emission order, gmin diagonal first (the reference
        #: assembler adds gmin before any device stamp): F cells are
        #: node indices, J cells flat ``row * n + col``, and ``src``
        #: indexes ``vals``.  Capacitor stamps sit at the tail, so the
        #: first ``f_split``/``j_split`` entries serve requests without
        #: companion stamps.  Both backends compile their scatter from
        #: these.
        diag = np.arange(n, dtype=np.intp)
        self.f_emit = (np.concatenate([diag, _intp(f_cells)]),
                       np.concatenate([gx_base + diag, _intp(f_src)]),
                       np.concatenate([np.ones(n), f_sign]))
        self.j_emit = (np.concatenate([diag * (n + 1), _intp(j_cells)]),
                       np.concatenate([np.full(n, self.gmin_slot, np.intp),
                                       self.n_fvals + _intp(j_src)]),
                       np.concatenate([np.ones(n), j_sign]))
        self.f_split = n + f_split
        self.j_split = n + j_split

        #: Per-process scratch for the scalar engine.  Each solve
        #: returns before the next one starts on this plan, so one
        #: workspace per plan is safe.
        self.scratch = Workspace(self)

    @cached_property
    def dense(self) -> "DenseScatter":
        """Scatter arrays and ``[F | J]`` buffer of the dense backend.

        Built on the first dense assembly, so plans that always
        dispatch sparse never allocate the ``n + n**2`` buffer.
        """
        return DenseScatter(self)

    @cached_property
    def sparse(self):
        """Compiled CSC structure for the sparse backend.

        Built on first use so small circuits that always dispatch dense
        never pay the symbolic analysis.
        """
        from .sparse import SparsePlan
        return SparsePlan(self)

    def stamps_match(self, cap_stamps) -> bool:
        """Whether ``cap_stamps`` follow the compiled capacitor order.

        The transient integrator builds its :class:`CapStampArrays` on
        this plan's own ``cap_pairs_a``/``cap_pairs_b``, so they match
        by identity, with no per-solve comparison.  Stamp arrays built
        on other index arrays, and hand-crafted stamp lists (tests,
        external callers) that do not line up, fall back to the
        reference scalar assembler.
        """
        if isinstance(cap_stamps, CapStampArrays):
            return (cap_stamps.a is self.cap_pairs_a
                    and cap_stamps.b is self.cap_pairs_b)
        if len(cap_stamps) != self.n_cap:
            return False
        return all(s[0] == p[0] and s[1] == p[1]
                   for s, p in zip(cap_stamps, self.cap_pairs))


class Workspace:
    """Preallocated per-solve buffers shared by both backends.

    ``xk`` fuses unknown and known voltages (``[x | known]``) so device
    gathers index one flat vector.  ``vals`` holds every value column
    contiguously (the F columns ``[res cur | isrc cur | mos i_d | cap
    cur]``, the J columns ``[res g | mos dvd | mos dvg | mos dvs | cap
    geq]``, then the ``gmin * x`` row and the ``gmin`` cell); the named
    rows are views into it, so one gather feeds the whole scatter.  The
    static columns (resistor conductances) are filled once here.
    """

    __slots__ = ("n", "xk", "vals", "res_cur", "is_cur", "cap_geq",
                 "cap_ieq", "cap_cur", "id_row", "mos_jac", "dvd_row",
                 "dvg_row", "dvs_row", "gx")

    def __init__(self, plan: StampPlan) -> None:
        n = plan.n
        n_res, n_is = plan.n_res, plan.n_is
        n_mos, n_cap = plan.n_mos, plan.n_cap
        self.n = n
        self.xk = np.empty(n + plan.n_known)
        self.vals = np.empty(plan.gmin_slot + 1)
        self.res_cur = self.vals[:n_res]
        self.is_cur = self.vals[n_res:n_res + n_is]
        self.id_row = self.vals[n_res + n_is:n_res + n_is + n_mos]
        self.cap_cur = self.vals[n_res + n_is + n_mos:plan.n_fvals]
        jv = self.vals[plan.n_fvals:plan.n_fvals + plan.n_jvals]
        jv[:n_res] = plan.res_g
        self.mos_jac = jv[n_res:n_res + 3 * n_mos]
        self.dvd_row = jv[n_res:n_res + n_mos]
        self.dvg_row = jv[n_res + n_mos:n_res + 2 * n_mos]
        self.dvs_row = jv[n_res + 2 * n_mos:n_res + 3 * n_mos]
        self.cap_geq = jv[n_res + 3 * n_mos:]
        self.cap_ieq = np.empty(n_cap)
        self.gx = self.vals[plan.gmin_slot - n:plan.gmin_slot]


class DenseScatter:
    """Ordered ``np.add.at`` scatter of the dense backend, with its buffers.

    ``fj`` fuses the accumulation targets (``F`` in the first ``n``
    cells, flattened ``J`` behind it) and is reused across iterations
    -- no per-iteration ``np.zeros((n, n))``, and one memset clears
    both.  ``np.add.at`` applies repeated-index additions sequentially
    in element order, so the emission-ordered arrays reproduce the
    scalar per-cell accumulation order exactly.  The ``(cells, src,
    sign)`` triples are pre-sliced per case so the hot path never
    re-slices: full assembly with/without cap stamps, residual-only
    (the modified-Newton check) with/without cap stamps.
    """

    __slots__ = ("fj", "F", "J", "contrib", "full_wc", "full_nc",
                 "f_wc", "f_nc")

    def __init__(self, plan: StampPlan) -> None:
        n = plan.n
        self.fj = np.empty(n + n * n)
        self.F = self.fj[:n]
        self.J = self.fj[n:].reshape(n, n)
        f_cells, f_src, f_sign = plan.f_emit
        j_cells, j_src, j_sign = plan.j_emit
        fs, js = plan.f_split, plan.j_split
        self.full_wc = (np.concatenate([f_cells, n + j_cells]),
                        np.concatenate([f_src, j_src]),
                        np.concatenate([f_sign, j_sign]))
        self.full_nc = (np.concatenate([f_cells[:fs], n + j_cells[:js]]),
                        np.concatenate([f_src[:fs], j_src[:js]]),
                        np.concatenate([f_sign[:fs], j_sign[:js]]))
        self.f_wc = plan.f_emit
        self.f_nc = (f_cells[:fs], f_src[:fs], f_sign[:fs])
        self.contrib = np.empty(self.full_wc[0].size)


def load_solve(plan: StampPlan, ws: Workspace, known: np.ndarray,
               time: float, cap_stamps, source_scale: float,
               isources) -> bool:
    """Load the iteration-invariant inputs of one Newton solve.

    Scales the known voltages, evaluates the current sources once (they
    are functions of time only, constant across the iterations of one
    solve), and
    unpacks the cap companion stamps into ``geq``/``ieq`` rows.
    Returns whether companion stamps are present.
    """
    if source_scale != 1.0:
        np.multiply(known, source_scale, out=ws.xk[plan.n:])
    else:
        ws.xk[plan.n:] = known
    is_cur = ws.is_cur
    for i, (_, _, fn) in enumerate(isources):
        is_cur[i] = fn(time) * source_scale
    if isinstance(cap_stamps, CapStampArrays) and len(cap_stamps):
        ws.cap_geq[:] = cap_stamps.geq
        ws.cap_ieq[:] = cap_stamps.ieq
        return True
    if cap_stamps:
        geq_row = ws.cap_geq
        ieq_row = ws.cap_ieq
        for ci, (_, _, geq, ieq) in enumerate(cap_stamps):
            geq_row[ci] = geq
            ieq_row[ci] = ieq
        return True
    return False


def eval_values(plan: StampPlan, ws: Workspace, x: np.ndarray,
                gmin: float, with_caps: bool,
                need_jacobian: bool = True) -> None:
    """Evaluate every device value column of one Newton iteration.

    Fills the ``ws.vals`` rows (device currents, Jacobian partials when
    ``need_jacobian``, the ``gmin * x`` diagonal row and the ``gmin``
    cell) that the dense and sparse scatter passes both consume.  The
    expressions mirror the reference scalar assembler's operand order
    exactly; this is the shared front half of :func:`assemble_into`.
    Below :data:`SCALAR_MOS_CUTOVER` one flat loop walks the plan's
    ``mos_scalar`` rows, computing each NMOS-convention ``vgs``/``vds``
    in line with ``mosfet_current``'s operand order; the residual-only
    call runs the same loop and skips the Jacobian write.
    """
    n = plan.n
    xk = ws.xk
    xk[:n] = x

    if plan.n_res:
        np.subtract(xk[plan.res_a], xk[plan.res_b], out=ws.res_cur)
        ws.res_cur *= plan.res_g
    if plan.use_scalar_mos:
        xkl = xk.tolist()
        ids: List[float] = []
        dvds: List[float] = []
        dvgs: List[float] = []
        dvss: List[float] = []
        for is_nmos, k, vt, lam, channel, dcol, gcol, scol in plan.mos_scalar:
            vs = xkl[scol]
            if is_nmos:
                i_d, gm, gds = channel(k, vt, lam, xkl[gcol] - vs,
                                       xkl[dcol] - vs)
            else:
                i_d, gm, gds = channel(k, vt, lam, -(xkl[gcol] - vs),
                                       -(xkl[dcol] - vs))
                i_d = -i_d
            ids.append(i_d)
            dvds.append(gds)
            dvgs.append(gm)
            dvss.append(-(gm + gds))
        ws.id_row[:] = ids
        if need_jacobian:
            ws.mos_jac[:] = dvds + dvgs + dvss
    else:
        for grp in plan.groups:
            i_d, dvd, dvg, dvs = mosfet_current_batch(
                grp.is_nmos, grp.alpha_model,
                grp.k, grp.vt, grp.lam, grp.alpha,
                xk[grp.g_cols], xk[grp.d_cols], xk[grp.s_cols],
            )
            ws.id_row[grp.cols] = i_d
            if need_jacobian:
                ws.dvd_row[grp.cols] = dvd
                ws.dvg_row[grp.cols] = dvg
                ws.dvs_row[grp.cols] = dvs

    if with_caps:
        np.subtract(xk[plan.cap_a], xk[plan.cap_b], out=ws.cap_cur)
        ws.cap_cur *= ws.cap_geq
        ws.cap_cur -= ws.cap_ieq

    np.multiply(x, gmin, out=ws.gx)
    if need_jacobian:
        ws.vals[plan.gmin_slot] = gmin


def assemble_into(plan: StampPlan, ws: Workspace, dense: DenseScatter,
                  x: np.ndarray, gmin: float, with_caps: bool,
                  need_jacobian: bool = True):
    """Vectorized residual/Jacobian assembly into the dense buffers.

    ``dense`` is the plan's :attr:`StampPlan.dense`, resolved once per
    solve.  Requires :func:`load_solve` to have loaded the solve's
    invariants.  Returns ``(F, J)`` as views of ``dense.fj`` (``J`` is
    ``None`` when ``need_jacobian`` is false -- the modified-Newton
    residual check skips the Jacobian scatter entirely).  Every
    expression mirrors the reference scalar assembler's operand order,
    and the ordered scatter reproduces its per-cell accumulation order,
    so the outputs are bit-identical to it.
    """
    eval_values(plan, ws, x, gmin, with_caps, need_jacobian)
    if need_jacobian:
        dense.fj.fill(0.0)
        cells, src, sign = dense.full_wc if with_caps else dense.full_nc
    else:
        dense.F.fill(0.0)
        cells, src, sign = dense.f_wc if with_caps else dense.f_nc
    contrib = dense.contrib[:cells.size]
    ws.vals.take(src, out=contrib)
    contrib *= sign
    np.add.at(dense.fj, cells, contrib)
    return dense.F, (dense.J if need_jacobian else None)


def assemble_sparse(plan: StampPlan, ws: Workspace, sp, x: np.ndarray,
                    gmin: float, with_caps: bool,
                    need_jacobian: bool = True):
    """Residual and CSC ``data`` through the sparse plan's scatter operator.

    ``sp`` is the plan's :class:`~repro.spice.sparse.SparsePlan`.  Its
    operator replays the dense per-cell accumulation order, so ``F``
    and every stored entry are bit-identical to the dense assembly.
    Returns ``(F, A)`` with ``A`` the plan's ``scipy.sparse.csc_matrix``
    (``None`` when ``need_jacobian`` is false).
    """
    eval_values(plan, ws, x, gmin, with_caps, need_jacobian)
    return sp.assemble(ws, with_caps, need_jacobian)
