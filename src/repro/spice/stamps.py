"""Compiled stamp structure of the Newton engine.

The KCL system of a compiled circuit has a *fixed* sparsity and
emission order: which ``F``/``J`` cells each device touches, with which
sign, never changes between Newton iterations -- only the device values
do.  A :class:`StampPlan` compiles that structure once per
:class:`~repro.spice.netlist.CompiledCircuit`, in array passes over its
device arrays (each device kind's candidate terms stacked, then kept by
a validity mask in the reference loop's element order; the loops stay
in ``tests/spice/test_construction_equivalence.py`` as the reference):

* **gather maps** resolving every device terminal to a column of the
  fused ``[x | known]`` voltage vector (slot ``>= 0`` indexes the
  unknowns, slot ``< 0`` the knowns, exactly the netlist encoding),
* a **gate kernel** for gate-sized circuits (fewer than
  :data:`SCALAR_MOS_CUTOVER` transistors): the whole Newton loop of a
  solve (``newton``) as generated straight-line Python that evaluates
  every device inline and packs ``[-F | J]`` into a buffer, plus the
  transient's history and move-norm code (see below),
* a **device-axis parameter table** so larger circuits evaluate the
  transistors of one channel model, both polarities, through one
  :func:`~repro.spice.mosfet.mosfet_current_batch` call per block of
  at most :data:`MOS_BLOCK` devices, and
* **ordered scatter plans** for ``F`` and flattened ``J`` whose
  accumulation order matches the scalar loop of the original
  ``assemble_system`` cell by cell; :func:`assemble_into` runs them
  for every plan, gate-sized ones included, which is how
  :func:`~repro.spice.engine.assemble_system` assembles.

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

The gate kernel keeps the same contract by construction.  It is
generated from the plan's own emission lists: each cell is one
expression that starts from ``0.0`` and applies one IEEE ``+`` or
``-`` per contribution, in emission order, exactly the additions the
scatter performs.  Nothing is summed with ``sum()`` or
``math.fsum`` (Python 3.12's ``sum()`` compensates float sums), and
the channel models are the reference assembler's scalar functions
written out inline (:func:`~repro.spice.mosfet.channel_source`: the
same comparisons and operand order, no call per transistor).  The
kernel packs ``-F`` (negation is exact) and ``J`` straight into the
``gesv`` buffer with one ``struct`` call, computes the residual
``max |F|`` inline, NaN-propagating like ``np.abs(F).max()``, and
runs the full-Newton iteration of
:func:`~repro.spice.engine.newton_solve` around that body, with the
step norm, the damping and the update written out per unknown.  Only
the *live* capacitors (:attr:`StampPlan.live_caps`, those with an
unknown terminal) take companion stamps: one between two known nodes
never reaches ``F`` or ``J``.  On the transient's float steps the loop computes the live
capacitors' backward-Euler or trapezoidal stamps itself, and the
transient kernel carries the history functions and the step's move
norm, all in the array integrator's elementwise operand order (``c /
h``, ``2.0 * c / h``, ``g * v + i``, ``g * (v_new - v) - i``), so the
float step path of :mod:`repro.spice.transient` computes the same
bits.  Generating a NAND3 transient kernel costs a few milliseconds,
so kernels are cached by structure (:class:`KernelCache`): node slots,
emission order, polarity and channel model, and the live capacitors'
slots, never a device value, so every shot of one gate shares its two
kernels (with and without capacitor stamps).  Below the cutover
Newton iterates on floats and calls LAPACK only for the linear solve,
and the transient steps on floats too (see :mod:`repro.spice.engine`
for the measured gains); above it, numpy calls amortize over enough
devices to win.

The engine (:mod:`repro.spice.engine`) drives the NumPy paths through a
preallocated :class:`Workspace` so a Newton iteration allocates no
``(n, n)`` temporaries.  A plan holds structure only, and each analysis
writes into a workspace of its own
(:meth:`~repro.spice.engine.SolveContext.workspace`), so analyses of
one plan can run in several threads at once.  Each backend's scatter
state is built on its first use, and a workspace holds one backend's
buffers, so a plan that only dispatches sparse never allocates the
dense ``n + n**2`` buffer.

Companion stamps enter in one form, :data:`CapArrays`: ``(geq, ieq)``
with one value each per compiled capacitor, in compiled order, which
the loaders copy wholesale into the ``geq``/``ieq`` rows.  Any other
length raises (:func:`stamped`) rather than assembling as if some
capacitors were absent.
"""

from __future__ import annotations

import struct
import threading
from collections import OrderedDict
from functools import cached_property
from time import monotonic
from typing import Any, Callable, Hashable, List, Optional, Tuple

import numpy as np

from .mosfet import channel_source, mosfet_current_batch

__all__ = ["CapArrays", "DenseScatter", "GateKernel", "KERNELS",
           "KernelCache", "LruCache", "MosGroup", "StampPlan", "Workspace",
           "assemble_into", "assemble_sparse", "eval_values", "load_kernel",
           "load_solve", "source_currents", "stamped"]

#: Below this device count a plan evaluates its circuit through its
#: generated gate kernel, the scalar channel equations inline per
#: transistor: ~35 numpy kernel launches per
#: :func:`~repro.spice.mosfet.mosfet_current_batch` call cost more than
#: they vectorize for a handful of devices (a single gate).  Larger
#: systems (gate chains, proximity testbenches) use the grouped batch
#: calls.
SCALAR_MOS_CUTOVER = 16

#: Most transistors one :func:`~repro.spice.mosfet.mosfet_current_batch`
#: call evaluates; larger groups are split into even blocks, so the
#: call's ~35 temporaries stay in cache.  On a 2-vCPU Xeon (2 MiB L2 a
#: core) one call cost 35-50 ns a lane at 3-7k lanes and 82 at 13,824
#: (a 48x48 bitcell array's), and blocks of 8192 evaluated the bitcell
#: arrays faster than blocks of 2048 or 4096.
MOS_BLOCK = 8192

#: The transient's companion stamps, ``(geq, ieq)``: one conductance and
#: one current per compiled capacitor, in compiled order.  Capacitor
#: ``k`` between slots ``a`` and ``b`` contributes ``geq[k] * (va - vb)
#: - ieq[k]`` to the current leaving ``a``.
CapArrays = Tuple[np.ndarray, np.ndarray]


def _masked(cells: List[np.ndarray], srcs: List[np.ndarray],
            signs: Tuple[float, ...], valid: List[np.ndarray]):
    """``(cells, src, sign)`` of the terms whose ``valid`` mask holds.

    Entry ``t`` of each list is one candidate term of every element
    (one value per element); the kept terms come element by element,
    and in list order within an element.
    """
    keep = np.array(valid).T
    sign = np.empty(keep.shape)
    sign[:] = signs
    return np.array(cells).T[keep], np.array(srcs).T[keep], sign[keep]


def _conductance_terms(n: int, nodes: np.ndarray, f_src: np.ndarray,
                       j_src: np.ndarray):
    """F and J terms of two-terminal elements, a conductance each from
    slot ``a`` to slot ``b`` (``nodes`` rows): resistors and capacitor
    companion stamps."""
    a, b = nodes
    on_a, on_b = a >= 0, b >= 0
    both = on_a & on_b
    return (_masked([a, b], [f_src, f_src], (1.0, -1.0), [on_a, on_b]),
            _masked([a * n + a, a * n + b, b * n + b, b * n + a], [j_src] * 4,
                    (1.0, -1.0, 1.0, -1.0), [on_a, both, on_b, both]))


class MosGroup:
    """Transistors sharing a channel model, NMOS first.

    ``cols`` are the device positions in the compiled device arrays
    (also the columns of the device-axis value rows), the NMOS devices
    of ``indices`` and then, from ``first_pmos`` on, the PMOS ones; the
    ``*_cols`` arrays are fused-vector gather columns for the three
    terminals, and ``k``/``vt``/``lam``/``alpha`` the per-device
    parameter rows of *this* circuit, all in ``cols`` order, with
    ``two_k`` (``2.0 * k``) formed once here rather than per
    evaluation.
    """

    __slots__ = ("first_pmos", "alpha_model", "cols", "d_cols", "g_cols",
                 "s_cols", "k", "two_k", "vt", "lam", "alpha")

    def __init__(self, alpha_model: bool, indices: np.ndarray,
                 nmos: np.ndarray, terminals: np.ndarray, k: np.ndarray,
                 params: np.ndarray) -> None:
        """``indices`` pick the group from per-transistor rows: ``nmos``,
        ``terminals`` (drain, gate and source columns), ``k`` and
        ``params`` (``abs(vt0)``, ``lam``, ``alpha``)."""
        group_nmos = nmos[indices]
        self.first_pmos = int(np.count_nonzero(group_nmos))
        self.alpha_model = alpha_model
        self.cols = np.concatenate([indices[group_nmos],
                                    indices[~group_nmos]])
        self.d_cols, self.g_cols, self.s_cols = terminals[:, self.cols]
        self.k = k[self.cols]
        self.two_k = 2.0 * self.k
        self.vt, self.lam, self.alpha = params[:, self.cols]


class StampPlan:
    """Stamp structure of one compiled circuit.

    The contribution lists record, for each KCL contribution of the
    scalar reference assembler, its target cell, its source value column
    and its sign -- in the scalar emission order.  F value columns:
    ``[res cur | isrc cur | mos i_d | cap cur]``; J value columns:
    ``[res g | mos dvd | mos dvg | mos dvs | cap geq]``.  Capacitor
    contributions sit at the tail, so requests without companion stamps
    use plans built from the cap-free prefix (``*_nc``).

    Everything is built in array passes over the compiled device
    arrays: each device kind's candidate terms stack into one array per
    field, and a validity mask (a terminal on a known node emits
    nothing) keeps them element by element, which is the order the
    reference loops emit in.
    """

    def __init__(self, compiled) -> None:
        n = compiled.n_unknown
        self.n = n
        self.n_known = len(compiled._known_names)
        num_res = compiled.res_g.size
        num_is = len(compiled.isources)
        num_mos = compiled.mos_k.size
        num_cap = compiled.cap_c.size
        self.n_res = num_res
        self.n_is = num_is
        self.n_mos = num_mos
        self.n_cap = num_cap

        def col(slots: np.ndarray) -> np.ndarray:
            """Fused ``[x | known]`` columns of node slots."""
            return np.where(slots >= 0, slots, n - 1 - slots)

        self.res_a, self.res_b = col(compiled.res_nodes)
        self.cap_a, self.cap_b = col(compiled.cap_nodes)
        self.cap_c = compiled.cap_c
        self.res_g = compiled.res_g

        # Per transistor, from its model card: polarity, channel model
        # and the ``abs(vt0)``, ``lam``, ``alpha`` parameter rows.
        cards, card = compiled.cards, compiled.mos_card
        nmos = np.array([c.is_nmos for c in cards], dtype=bool)[card]
        alpha = np.array([c.model == "alpha" for c in cards], dtype=bool)[card]
        params = np.array([[abs(c.vt0), c.lam, c.alpha] for c in cards],
                          dtype=float).reshape(-1, 3)[card].T
        terminals = col(compiled.mos_nodes)
        self.groups: List[MosGroup] = []
        for alpha_model in dict.fromkeys(alpha.tolist()):
            indices = np.flatnonzero(alpha == alpha_model)
            blocks = -(-indices.size // MOS_BLOCK)
            size = -(-indices.size // blocks)
            self.groups += [MosGroup(alpha_model, indices[i:i + size], nmos,
                                     terminals, compiled.mos_k, params)
                            for i in range(0, indices.size, size)]
        self.use_scalar_mos = 0 < num_mos < SCALAR_MOS_CUTOVER
        if self.use_scalar_mos:
            #: What the gate kernel's code depends on: node slots, and per
            #: transistor its polarity and whether it is an alpha-power
            #: card.  The emission order follows from it.
            self.structure = (
                n, self.n_known,
                tuple(zip(*compiled.res_nodes.tolist())),
                tuple((a, b) for a, b, _ in compiled.isources),
                tuple(zip(*compiled.mos_nodes.tolist(), nmos.tolist(),
                          alpha.tolist())),
            )
            consts: List[float] = compiled.res_g.tolist()
            for kk, (vt, lam, al), alpha_model in zip(
                    compiled.mos_k.tolist(), params.T.tolist(), alpha.tolist()):
                consts += [kk, vt, lam] + ([al] if alpha_model else [])
            #: The circuit's values the kernel reads: resistor
            #: conductances, then per transistor ``K``, ``abs(vt0)``,
            #: ``lam`` (and ``alpha``).
            self.kernel_consts = tuple(consts)
            #: Every capacitor's ``(a, b)`` node slots, in compiled order.
            self.cap_pairs = list(zip(*compiled.cap_nodes.tolist()))
            #: Capacitors with an unknown terminal, in compiled order,
            #: and their capacitances.  Only these reach ``F`` or ``J``
            #: (one between two known nodes never does), so only these
            #: carry companion stamps into the kernel and history on
            #: the float step path.
            self.live_caps = np.flatnonzero(
                (compiled.cap_nodes >= 0).any(axis=0)).tolist()
            self.live_c = compiled.cap_c[self.live_caps].tolist()
            self._kernels: List[Optional[GateKernel]] = [None, None]

        # ``vals`` holds the F columns, then the J columns, then the
        # per-iteration ``gmin * x`` row (F diagonal) and one ``gmin``
        # cell (J diagonal).
        self.n_fvals = num_res + num_is + num_mos + num_cap
        self.n_jvals = num_res + 3 * num_mos + num_cap
        gx_base = self.n_fvals + self.n_jvals
        self.gmin_slot = gx_base + n

        # Each device kind's terms; its J value columns follow all
        # ``n_fvals`` F columns.
        jv = self.n_fvals
        res, mos, cap = (np.arange(count) for count in (num_res, num_mos,
                                                         num_cap))
        res_f, res_j = _conductance_terms(n, compiled.res_nodes, res,
                                          jv + res)
        is_nodes = np.array([(a, b) for a, b, _ in compiled.isources],
                            dtype=np.intp).reshape(num_is, 2).T
        is_src = num_res + np.arange(num_is)
        is_f = _masked(list(is_nodes), [is_src, is_src], (1.0, -1.0),
                       list(is_nodes >= 0))
        d, g, s = compiled.mos_nodes
        on_d, on_g, on_s = d >= 0, g >= 0, s >= 0
        i_d = num_res + num_is + mos
        dvd, dvg, dvs = (jv + num_res + k * num_mos + mos for k in range(3))
        mos_f = _masked([d, s], [i_d, i_d], (1.0, -1.0), [on_d, on_s])
        mos_j = _masked(
            [d * n + d, d * n + g, d * n + s, s * n + s, s * n + d, s * n + g],
            [dvd, dvg, dvs, dvs, dvd, dvg], (1.0, 1.0, 1.0, -1.0, -1.0, -1.0),
            [on_d, on_d & on_g, on_d & on_s, on_s, on_s & on_d, on_s & on_g])
        cap_f, cap_j = _conductance_terms(
            n, compiled.cap_nodes, num_res + num_is + num_mos + cap,
            jv + num_res + 3 * num_mos + cap)

        #: ``(cells, src, sign)`` of every F and J contribution in
        #: scalar emission order, gmin diagonal first (the reference
        #: assembler adds gmin before any device stamp): F cells are
        #: node indices, J cells flat ``row * n + col``, and ``src``
        #: indexes ``vals``.  Capacitor stamps sit at the tail, so the
        #: first ``f_split``/``j_split`` entries serve requests without
        #: companion stamps.  Both backends compile their scatter from
        #: these.
        diag = np.arange(n, dtype=np.intp)
        self.f_emit = tuple(np.concatenate(field) for field in zip(
            (diag, gx_base + diag, np.ones(n)), res_f, is_f, mos_f, cap_f))
        self.j_emit = tuple(np.concatenate(field) for field in zip(
            (diag * (n + 1), np.full(n, self.gmin_slot, np.intp), np.ones(n)),
            res_j, mos_j, cap_j))
        self.f_split = self.f_emit[0].size - cap_f[0].size
        self.j_split = self.j_emit[0].size - cap_j[0].size

    @cached_property
    def dense(self) -> "DenseScatter":
        """Scatter arrays of the dense backend, built on the first dense
        workspace."""
        return DenseScatter(self)

    @cached_property
    def sparse(self):
        """Compiled CSC structure for the sparse backend.

        Built on first use so small circuits that always dispatch dense
        never pay the symbolic analysis.
        """
        from .sparse import SparsePlan
        return SparsePlan(self)

    def kernel(self, with_caps: bool) -> "GateKernel":
        """The plan's :class:`GateKernel`.

        ``with_caps`` picks the kernel with the live capacitors'
        companion stamps (and the integrator's generated functions).
        Only plans with :attr:`use_scalar_mos` have kernels; each is
        resolved from :data:`KERNELS` once per plan.
        """
        kernel = self._kernels[with_caps]
        if kernel is None:
            kernel = self._kernels[with_caps] = KERNELS.get(self, with_caps)
        return kernel

    def live(self, per_cap: List[float]) -> List[float]:
        """The :attr:`live_caps` entries of a per-capacitor list."""
        return [per_cap[ci] for ci in self.live_caps]


class Workspace:
    """Preallocated buffers of the NumPy Newton loops, one per analysis.

    ``xk`` fuses unknown and known voltages (``[x | known]``) so device
    gathers index one flat vector.  ``vals`` holds every value column
    contiguously (the F columns ``[res cur | isrc cur | mos i_d | cap
    cur]``, the J columns ``[res g | mos dvd | mos dvg | mos dvs | cap
    geq]``, then the ``gmin * x`` row and the ``gmin`` cell); the named
    rows are views into it, so one gather feeds the whole scatter.  The
    static columns (resistor conductances) are filled once here.

    ``buf`` is one backend's accumulation target, ``F`` its first ``n``
    cells.  The dense backend's is ``[F | J]`` (``J`` row-major, also a
    view), with ``contrib`` for the scatter's terms; the sparse
    backend's (``sparse=True``) is ``[F | data]``, ``data`` the
    :class:`~repro.spice.sparse.SparsePlan`'s CSC entries, with the
    permuted right-hand side ``rhs`` and step ``dx`` of its solves.
    """

    __slots__ = ("n", "xk", "vals", "res_cur", "is_cur", "cap_geq",
                 "cap_ieq", "cap_cur", "id_row", "dvd_row", "dvg_row",
                 "dvs_row", "gx", "buf", "F", "J", "contrib", "data",
                 "rhs", "dx")

    def __init__(self, plan: StampPlan, sparse: bool = False) -> None:
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
        self.dvd_row = jv[n_res:n_res + n_mos]
        self.dvg_row = jv[n_res + n_mos:n_res + 2 * n_mos]
        self.dvs_row = jv[n_res + 2 * n_mos:n_res + 3 * n_mos]
        self.cap_geq = jv[n_res + 3 * n_mos:]
        self.cap_ieq = np.empty(n_cap)
        self.gx = self.vals[plan.gmin_slot - n:plan.gmin_slot]
        if sparse:
            self.buf = np.zeros(n + plan.sparse.nnz)
            self.data = self.buf[n:]
            self.rhs, self.dx = np.empty(n), np.empty(n)
        else:
            self.buf = np.empty(n + n * n)
            self.J = self.buf[n:].reshape(n, n)
            self.contrib = np.empty(plan.dense.full_wc[0].size)
        self.F = self.buf[:n]


class DenseScatter:
    """Ordered ``np.add.at`` scatter of the dense backend.

    The target is a :class:`Workspace`'s ``buf``, which fuses ``F`` (the
    first ``n`` cells) and flattened ``J`` behind it and is reused
    across iterations -- no per-iteration ``np.zeros((n, n))``, and one
    memset clears both.  ``np.add.at`` applies repeated-index additions
    sequentially in element order, so the emission-ordered arrays
    reproduce the scalar per-cell accumulation order exactly.  The
    ``(cells, src, sign)`` triples are pre-sliced with and without cap
    stamps so the hot path never re-slices.
    """

    __slots__ = ("full_wc", "full_nc")

    def __init__(self, plan: StampPlan) -> None:
        n = plan.n
        f_cells, f_src, f_sign = plan.f_emit
        j_cells, j_src, j_sign = plan.j_emit
        fs, js = plan.f_split, plan.j_split
        self.full_wc = (np.concatenate([f_cells, n + j_cells]),
                        np.concatenate([f_src, j_src]),
                        np.concatenate([f_sign, j_sign]))
        self.full_nc = (np.concatenate([f_cells[:fs], n + j_cells[:js]]),
                        np.concatenate([f_src[:fs], j_src[:js]]),
                        np.concatenate([f_sign[:fs], j_sign[:js]]))


def _volt(slot: int) -> str:
    """The generated code's name for the voltage at node slot ``slot``."""
    return f"x{slot}" if slot >= 0 else f"v{-slot - 1}"


def _unpack(items: List[str], name: str, depth: int = 1) -> List[str]:
    """A line unpacking ``name`` into ``items`` (none for no items)."""
    return [f"{'    ' * depth}{', '.join(items)}, = {name}"] if items else []


def _kernel_sources(plan: StampPlan, with_caps: bool) -> List[str]:
    """Python sources of the gate kernel for ``plan``'s structure.

    One body translates the plan's emission lists (the cap-free prefix
    unless ``with_caps``) term by term: F value columns ``[res cur |
    isrc cur | mos i_d | cap cur]``, J value columns ``[res g | mos dvd
    | mos dvg | mos dvs | cap geq]``, then the ``gmin * x`` row and
    ``gmin``.  Each transistor is evaluated inline
    (:func:`~repro.spice.mosfet.channel_source`), and only when one of
    its terms is emitted.  The body packs ``[-F | J]`` into the writable
    buffer ``out`` (``n + n * n`` doubles) with one ``struct`` call,
    ``_pack``, and leaves the residual ``max |F|`` in ``r``,
    NaN-propagating like ``np.abs(F).max()``.  ``newton`` runs it as
    the loop of a full-Newton solve, with the constants and the solve's
    inputs unpacked once and the step norm, damping and update written
    out per unknown (see :class:`GateKernel`); with telemetry on
    (``kn.times``), it times
    the body and the linear solve into two locals, three clock reads
    per iteration, and adds them to the analysis's accumulator at each
    exit.  With capacitor stamps the functions of
    :func:`_integrator_sources` follow.  Each function is its own
    source, so compiling them one at a time keeps the parser's peak
    memory at one function's.
    """
    n = plan.n
    n_known, resistors, _, mosfets = plan.structure[1:]
    n_res, n_is, n_mos, n_cap = plan.n_res, plan.n_is, plan.n_mos, plan.n_cap
    live = plan.live_caps if with_caps else []

    def names(*prefixes: str, count: int) -> List[str]:
        return [f"{prefix}{i}" for prefix in prefixes for i in range(count)]

    terms = (names("ri", count=n_res) + names("si", count=n_is)
             + names("id", count=n_mos) + names("cc", count=n_cap)
             + names("rg", count=n_res) + names("gd", "gm", "gs", count=n_mos)
             + names("cg", count=n_cap)
             + [f"x{i} * gmin" for i in range(n)] + ["gmin"])
    f_cells: List[List[str]] = [["0.0"] for _ in range(n)]
    j_cells: List[List[str]] = [["0.0"] for _ in range(n * n)]
    used = set()
    for cells, emit, split in ((f_cells, plan.f_emit, plan.f_split),
                               (j_cells, plan.j_emit, plan.j_split)):
        end = emit[0].size if with_caps else split
        for cell, src, sign in zip(*(column[:end].tolist()
                                     for column in emit)):
            cells[cell].append(("+ " if sign > 0 else "- ") + terms[src])
            used.add(terms[src])

    consts = names("rg", count=n_res)
    for m, (*_, alpha) in enumerate(mosfets):
        consts += [f"k{m}", f"vt{m}", f"lam{m}"] + ([f"al{m}"] if alpha else [])
    xs, ds = names("x", count=n), names("d", count=n)
    vs, sis = names("v", count=n_known), names("si", count=n_is)
    geq, ieq = [f"cg{c}" for c in live], [f"ci{c}" for c in live]
    body = []
    for i, (a, b) in enumerate(resistors):
        if f"ri{i}" in used:
            body.append(f"    ri{i} = rg{i} * ({_volt(a)} - {_volt(b)})")
    for m, (d, g, s, is_nmos, alpha) in enumerate(mosfets):
        if not used & {f"id{m}", f"gd{m}", f"gm{m}", f"gs{m}"}:
            continue
        body += channel_source(m, is_nmos, alpha,
                               _volt(g), _volt(d), _volt(s))
        if f"gs{m}" in used:
            body.append(f"    gs{m} = -(gm{m} + gd{m})")
    for c in live:
        a, b = plan.cap_pairs[c]
        body.append(f"    cc{c} = cg{c} * ({_volt(a)} - {_volt(b)}) - ci{c}")
    body += [f"    f{i} = {' '.join(cell)}" for i, cell in enumerate(f_cells)]
    body.append("    _pack(out, 0, {})".format(", ".join(
        [f"-f{i}" for i in range(n)] + [" ".join(cell) for cell in j_cells])))
    body += _max_abs_lines([f"f{i}" for i in range(n)], "r")

    def companion(geq_of: str, ieq_of: str) -> List[str]:
        return ([f"            cg{c} = {geq_of.format(c=c)}" for c in live]
                + [f"            ci{c} = {ieq_of.format(c=c)}" for c in live])
    newton = ["def newton(kn, x, v, isrc, gmin, options, h, be, bv, bi):",
              "    solve, times = kn.gesv, kn.times",
              *_unpack(consts, "kn.consts"), *_unpack(xs, "x"),
              *_unpack(vs, "v"), *_unpack(sis, "isrc")]
    if live:
        newton += ["    if h is None:", *_unpack(geq, "bv", 2),
                   *_unpack(ieq, "bi", 2), "    else:",
                   *_unpack([f"cap{c}" for c in live], "kn.caps", 2),
                   *_unpack([f"bv{c}" for c in live], "bv", 2),
                   "        if be:", *companion("cap{c} / h", "cg{c} * bv{c}"),
                   "        else:",
                   *_unpack([f"bi{c}" for c in live], "bi", 3),
                   *companion("2.0 * cap{c} / h", "cg{c} * bv{c} + bi{c}")]
    # Adds the solve's phase seconds to the analysis's accumulator.
    add_times = ["if times is not None:", "    times.assembly += ta",
                 "    times.factorize += tf"]
    newton += [
        "    out, rhs, J, dx = kn.buffers",
        "    max_step, voltol, abstol = "
        "options.max_step, options.voltol, options.abstol",
        "    last, ta, tf = inf, 0.0, 0.0",
        "    for iteration in range(1, options.max_iterations + 1):",
        "        if times is not None:", "            start = monotonic()",
        *("    " + line for line in body),
        "        if times is not None:",
        "            now = monotonic()",
        "            ta += now - start",
        "            start = now",
        "        try:", "            solve(J, rhs, out=dx)",
        "        except LinAlgError:",
        *("            " + line for line in add_times),
        "                ta = tf = 0.0",
        "            kn.nudge(solve, gmin, iteration, r)",
        "        if times is not None:",
        "            tf += monotonic() - start",
        *_unpack(ds, "dx.tolist()", 2),
        *("    " + line for line in _max_abs_lines(ds, "step")),
        "        if step > max_step:", "            scale = max_step / step",
        *(f"            {d} = {d} * scale" for d in ds),
        *(f"        {x} = {x} + {d}" for x, d in zip(xs, ds)),
        "        if step < voltol and r < abstol:",
        *("            " + line for line in add_times),
        "            kn.context.end(iteration, 'converged')",
        f"            return [{', '.join(xs)}]",
        "        last = r",
        *("    " + line for line in add_times),
        "    kn.give_up(options.max_iterations, last)"]
    return (["\n".join(newton) + "\n"]
            + (_integrator_sources(plan) if with_caps else []))


def _max_abs_lines(terms: List[str], name: str) -> List[str]:
    """Lines setting ``name`` to the largest ``abs`` of ``terms``,
    NaN-propagating like ``np.abs(values).max()`` (Python's ``max``
    would skip a NaN behind a finite entry)."""
    lines = [f"    {name} = abs({terms[0]})"]
    for term in terms[1:]:
        lines += [f"    a = abs({term})", f"    if a > {name} or a != a:",
                  f"        {name} = a"]
    return lines


def _integrator_sources(plan: StampPlan) -> List[str]:
    """Sources of the transient's per-step functions over the live capacitors.

    For each rule (``be``, ``trap``), ``history_<rule>(x, v, h, c, u,
    i)`` returns the accepted step's branch voltages and currents from
    its unknowns ``x``, known voltages ``v``, step ``h``, the
    capacitances ``c`` and the previous branch voltages ``u`` and
    currents ``i``, through the rule's companion conductance, which the
    step's solve used too.  ``branches(x, v)`` gives the branch voltages
    of one solution, and ``move(x, y)`` the step's largest node move
    ``max |x - y|``, NaN-propagating like ``np.abs(x - y).max()``.  The
    operand order is the array path's elementwise numpy order: ``c /
    h`` (backward Euler) and ``2.0 * c / h`` (trapezoidal); ``g * (w -
    u)`` and ``g * (w - u) - i``.
    """
    pairs = [plan.cap_pairs[c] for c in plan.live_caps]
    count = len(pairs)

    def items(pattern: str) -> List[str]:
        return [pattern.format(j=j) for j in range(count)]

    xs = [f"x{i}" for i in range(plan.n)]
    nodes = _unpack(xs, "x") + _unpack(
        [f"v{k}" for k in range(plan.n_known)], "v")
    branch = [f"{_volt(a)} - {_volt(b)}" for a, b in pairs]
    functions = [["def branches(x, v):", *nodes,
                  "    return [{}]".format(", ".join(branch))],
                 ["def move(x, y):", *_unpack(xs, "x"),
                  *_unpack([f"y{i}" for i in range(plan.n)], "y"),
                  *_max_abs_lines([f"x{i} - y{i}" for i in range(plan.n)],
                                  "r"), "    return r"]]
    for rule, geq, current in (
            ("be", "c{j} / h", "g{j} * (w{j} - u{j})"),
            ("trap", "2.0 * c{j} / h", "g{j} * (w{j} - u{j}) - i{j}")):
        functions.append(
            [f"def history_{rule}(x, v, h, c, u, i):", *nodes,
             *_unpack(items("c{j}"), "c"), *_unpack(items("u{j}"), "u"),
             *(_unpack(items("i{j}"), "i") if rule == "trap" else []),
             *(f"    g{j} = {expr}" for j, expr in enumerate(items(geq))),
             *(f"    w{j} = {expr}" for j, expr in enumerate(branch)),
             f"    return [{', '.join(items('w{j}'))}], "
             f"[{', '.join(items(current))}]"])
    return ["\n".join(lines) + "\n" for lines in functions]


class GateKernel:
    """The generated code of one circuit structure.

    ``newton(kn, x, v, isrc, gmin, options, h, be, bv, bi)`` is the
    full-Newton loop of one solve, from the unknowns ``x``, the known
    voltages ``v`` and the current sources ``isrc``; it returns the
    solution as a new list.  Its capacitor stamps come
    from the live capacitors' previous branch voltages ``bv`` and
    currents ``bi`` by the step ``h``'s backward-Euler (``be``) or
    trapezoidal companion model, or, with ``h`` ``None``, are the
    stamps' ``geq`` in ``bv`` and ``ieq`` in ``bi``.  ``kn`` is the
    :class:`~repro.spice.engine.KernelNewton` holding the rest: the
    constants (``consts``, ``caps``), the buffers, ``gesv``, the
    analysis's phase accumulator ``times`` (``None`` with telemetry
    off), which the loop adds into, its
    :class:`~repro.spice.engine.SolveContext`, whose ``end`` accounts a
    converged solve, and the rare exits (the singular nudge and the
    iteration limit).

    A kernel with capacitor stamps also carries the transient's per-step
    functions (:func:`_integrator_sources`): ``history[use_be]``,
    ``branches`` and ``move``.
    """

    __slots__ = ("newton", "history", "branches", "move")

    def __init__(self, namespace: dict) -> None:
        self.newton = namespace["newton"]
        self.history = (namespace.get("history_trap"),
                        namespace.get("history_be"))
        self.branches = namespace.get("branches")
        self.move = namespace.get("move")


class LruCache:
    """A bounded, thread-safe map of built values; least recently used
    goes first.

    :meth:`lookup` builds a missing value outside the lock: threads that
    miss one key together each build it, and the first one stored wins,
    so every caller gets the same object.  Past ``size`` entries the
    least recently used is dropped.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def lookup(self, key: Hashable, build: Callable[[], Any]):
        """The value stored under ``key``, built by ``build()`` on a miss."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                return value
        value = build()
        with self._lock:
            value = self._entries.setdefault(key, value)
            self._entries.move_to_end(key)
            while len(self._entries) > self.size:
                self._entries.popitem(last=False)
        return value


def _generate(plan: StampPlan, with_caps: bool) -> GateKernel:
    namespace = {"_pack": struct.Struct(f"{plan.n + plan.n ** 2}d").pack_into,
                 "LinAlgError": np.linalg.LinAlgError,
                 "monotonic": monotonic, "inf": float("inf")}
    for source in _kernel_sources(plan, with_caps):
        exec(compile(source, "<gate kernel>", "exec"), namespace)
    return GateKernel(namespace)


class KernelCache(LruCache):
    """Generated gate kernels by circuit structure.

    A key holds what the kernel's code depends on -- node slots, the
    emission order they imply, each transistor's polarity and channel
    model, the live capacitors' slots when stamps are present -- and
    never a device value, load or waveform, so every shot of one gate
    shares its two kernels whatever its load or stimuli.
    """

    def get(self, plan: StampPlan, with_caps: bool) -> GateKernel:
        """The :class:`GateKernel` of ``plan``'s structure, generated on
        first use."""
        key = (plan.structure,
               tuple(plan.cap_pairs[c] for c in plan.live_caps)
               if with_caps else None)
        return self.lookup(key, lambda: _generate(plan, with_caps))


#: The process's gate kernels, shared by every plan and thread.
KERNELS = KernelCache(size=256)


def stamped(plan: StampPlan, caps: Optional[CapArrays]) -> bool:
    """Whether ``caps`` puts companion stamps into ``plan``'s system.

    ``None`` carries none, and neither does a plan without capacitors.
    Raises ``ValueError`` unless ``geq`` and ``ieq`` hold one value per
    compiled capacitor.
    """
    if caps is None:
        return False
    geq, ieq = caps
    if len(geq) != plan.n_cap or len(ieq) != plan.n_cap:
        raise ValueError(
            f"companion stamps need one geq and one ieq per compiled "
            f"capacitor ({plan.n_cap}), got {len(geq)} and {len(ieq)}")
    return plan.n_cap > 0


def load_solve(plan: StampPlan, ws: Workspace, known: np.ndarray,
               time: float, caps: Optional[CapArrays], source_scale: float,
               isources) -> bool:
    """Load the iteration-invariant inputs of one Newton solve.

    Scales the known voltages, evaluates the current sources once (they
    are functions of time only, constant across the iterations of one
    solve), and copies the companion stamps ``caps`` into the ``geq``
    and ``ieq`` rows.  Returns whether companion stamps are present
    (:func:`stamped`).
    """
    if source_scale != 1.0:
        np.multiply(known, source_scale, out=ws.xk[plan.n:])
    else:
        ws.xk[plan.n:] = known
    is_cur = ws.is_cur
    for i, (_, _, fn) in enumerate(isources):
        is_cur[i] = fn(time) * source_scale
    if not stamped(plan, caps):
        return False
    ws.cap_geq[:] = caps[0]
    ws.cap_ieq[:] = caps[1]
    return True


def source_currents(isources, time: float,
                    source_scale: float = 1.0) -> List[float]:
    """The current sources' values at ``time``, times ``source_scale``."""
    return [float(fn(time) * source_scale) for _, _, fn in isources]


def load_kernel(plan: StampPlan, known: np.ndarray, time: float,
                caps: Optional[CapArrays], source_scale: float, isources):
    """The kernel loop's inputs for one Newton solve, as Python floats.

    :func:`load_solve` for the kernel path: the known voltages times
    ``source_scale``, the current sources at ``time``, and the live
    capacitors' ``geq`` and ``ieq`` when stamps are present (empty
    lists otherwise).  Returns ``(known, isrc, geq, ieq)``.
    """
    known = np.asarray(known, dtype=float)
    if source_scale != 1.0:
        known = known * source_scale
    isrc = source_currents(isources, time, source_scale)
    if not stamped(plan, caps):
        return known.tolist(), isrc, [], []
    # Transients step on floats without this loader, so stamps arrive
    # here only from direct callers.
    geq, ieq = (np.asarray(values, dtype=float).tolist() for values in caps)
    return known.tolist(), isrc, plan.live(geq), plan.live(ieq)


def eval_values(plan: StampPlan, ws: Workspace, x: np.ndarray,
                gmin: float, with_caps: bool) -> None:
    """Evaluate every device value column of one Newton iteration.

    Fills the ``ws.vals`` rows (device currents, Jacobian partials, the
    ``gmin * x`` diagonal row and the ``gmin`` cell) that the dense and
    sparse scatter passes both consume.  The expressions mirror the
    reference scalar assembler's operand order exactly; this is the
    shared front half of :func:`assemble_into`.
    Transistors go through one :func:`mosfet_current_batch` call per
    :class:`MosGroup`, both polarities together, bit-identical to the
    scalar channel model lane by lane.
    """
    n = plan.n
    xk = ws.xk
    xk[:n] = x

    if plan.n_res:
        np.subtract(xk[plan.res_a], xk[plan.res_b], out=ws.res_cur)
        ws.res_cur *= plan.res_g
    for grp in plan.groups:
        i_d, dvd, dvg, dvs = mosfet_current_batch(
            grp.first_pmos, grp.alpha_model,
            grp.k, grp.two_k, grp.vt, grp.lam, grp.alpha,
            xk[grp.g_cols], xk[grp.d_cols], xk[grp.s_cols],
        )
        ws.id_row[grp.cols] = i_d
        ws.dvd_row[grp.cols] = dvd
        ws.dvg_row[grp.cols] = dvg
        ws.dvs_row[grp.cols] = dvs

    if with_caps:
        np.subtract(xk[plan.cap_a], xk[plan.cap_b], out=ws.cap_cur)
        ws.cap_cur *= ws.cap_geq
        ws.cap_cur -= ws.cap_ieq

    np.multiply(x, gmin, out=ws.gx)
    ws.vals[plan.gmin_slot] = gmin


def assemble_into(plan: StampPlan, ws: Workspace, x: np.ndarray,
                  gmin: float, with_caps: bool):
    """Residual/Jacobian assembly into a dense workspace's buffers.

    Requires :func:`load_solve` to have loaded the solve's invariants
    into ``ws``.  Evaluates the devices vectorized and applies the
    ordered scatter (:attr:`StampPlan.dense`), so every entry is
    bit-identical to the reference scalar assembler.  Returns ``(F,
    J)`` as views of ``ws.buf``.
    """
    eval_values(plan, ws, x, gmin, with_caps)
    cells, src, sign = plan.dense.full_wc if with_caps else plan.dense.full_nc
    ws.buf.fill(0.0)
    contrib = ws.contrib[:cells.size]
    ws.vals.take(src, out=contrib)
    contrib *= sign
    np.add.at(ws.buf, cells, contrib)
    return ws.F, ws.J


def assemble_sparse(plan: StampPlan, ws: Workspace, sp, x: np.ndarray,
                    gmin: float, with_caps: bool):
    """Residual and CSC ``data`` through the sparse plan's scatter operator.

    ``sp`` is the plan's :class:`~repro.spice.sparse.SparsePlan`, ``ws``
    a sparse workspace.  The operator replays the dense per-cell
    accumulation order, so ``F`` and every stored entry are
    bit-identical to the dense assembly.  Returns ``(F, data)``, views
    of ``ws.buf``.
    """
    eval_values(plan, ws, x, gmin, with_caps)
    return sp.assemble(ws, with_caps)
