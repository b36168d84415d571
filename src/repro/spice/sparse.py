"""Sparse CSC stamp plan and SuperLU backend for large circuits.

The dense solver core scatters every Newton iteration into an ``(n,
n)`` Jacobian and factorizes it with dense LU: ``O(n^2)`` memory
traffic per assembly and ``O(n^3)`` arithmetic per factorization,
which caps circuits at tens of nodes.  Circuit Jacobians are
structurally sparse -- a node couples only to the handful of nodes it
shares a device with -- so multi-gate netlists (inverter chains,
hierarchical decoders, :mod:`repro.spice.builders`) want a sparse
factorization instead.

:class:`SparsePlan` compiles the *symbolic* side once per
:class:`~repro.spice.stamps.StampPlan`:

* the union of Jacobian cells (gmin diagonal plus every device stamp)
  becomes a fixed CSC ``indptr``/``indices`` structure whose ``data``
  array is reused across iterations,
* SuperLU's minimum-degree ordering of ``A + A^T`` (``MMD_AT_PLUS_A``,
  the fill-limiting choice SPICE2 makes) is computed once from the
  stamp structure and baked into the CSC positions, so every
  factorization runs with ``ColPerm=NATURAL`` and limits fill (bounded
  in ``tests/spice/test_sparse_equivalence.py``), and
* one CSR scatter operator of +/-1 signs per cap-stamp variant maps
  ``vals`` onto the ``n`` residual cells and the ``nnz`` CSC slots.
  Each row keeps the dense scatter's per-cell order (gmin diagonal
  first, then device emission) and ``csr_matvec`` sums a row in that
  order, so ``F`` and every stored entry are **bit-identical** to the
  dense assembly (the same suite pins this).

The factorizations themselves are SuperLU rather than LAPACK, so the
Newton *steps* -- and therefore waveforms -- agree with the dense
backend to solver tolerance (the suite pins <= 1 nV / 1 fs and
identical iteration counts), not bit-for-bit; dispatch picks exactly
one backend per circuit, so default-mode results stay deterministic.

Dispatch is by unknown-node count: ``REPRO_SPARSE=auto`` (default)
switches to the sparse backend at :data:`SPARSE_NODE_CUTOVER` unknowns
(benchmarked in ``benchmarks/bench_sparse.py``; dense LAPACK wins
below it, SuperLU above), ``1`` forces sparse everywhere and ``0``
forces dense.
"""

from __future__ import annotations

import os
from time import monotonic

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse._sparsetools import csr_matvec
from scipy.sparse.linalg import splu
from scipy.sparse.linalg._dsolve import _superlu

from ..resilience import faults

# The ``splu`` wrapper re-validates its input on every call (format
# check, duplicate summing, index-dtype casting) -- tens of
# microseconds that the Newton loops pay per factorization even though
# the plan's CSC buffer never changes shape.  Calling the SuperLU
# binding directly with the exact options ``splu(permc_spec="NATURAL")``
# would pass (including the implied ``SymmetricMode``) produces
# bit-identical factors.  ``csr_matvec`` is likewise scipy's own CSR
# product kernel, without the sparse-array wrapper around it.

_GSTRF_OPTIONS = dict(DiagPivotThresh=None, ColPerm="NATURAL",
                      PanelSize=None, Relax=None, SymmetricMode=True)

__all__ = ["SPARSE_ENV_VAR", "SPARSE_NODE_CUTOVER", "SparsePlan",
           "sparse_enabled", "sparse_mode"]

#: Environment knob selecting the linear-solver backend.
SPARSE_ENV_VAR = "REPRO_SPARSE"

#: ``auto`` dispatches to the sparse backend at this many unknown
#: nodes.  Benchmarked in ``benchmarks/bench_sparse.py``: below it the
#: dense LAPACK solve (plus the fused dense scatter) wins on per-call
#: overhead; above it SuperLU's near-linear factorization takes over
#: (~6x at 250 unknowns, growing with n).
SPARSE_NODE_CUTOVER = 96


def sparse_mode() -> str:
    """The ``REPRO_SPARSE`` setting: ``"auto"``, ``"on"`` or ``"off"``."""
    value = os.environ.get(SPARSE_ENV_VAR, "").strip().lower()
    if value in ("", "auto"):
        return "auto"
    if value in ("0", "false", "no", "off"):
        return "off"
    return "on"


def sparse_enabled(n_unknown: int) -> bool:
    """Whether a circuit with ``n_unknown`` unknowns dispatches sparse."""
    mode = sparse_mode()
    if mode == "on":
        return True
    if mode == "off":
        return False
    return n_unknown >= SPARSE_NODE_CUTOVER


def _minimum_degree(n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """SuperLU's minimum-degree ordering of the pattern of ``A + A.T``.

    ``rows``/``cols`` list the structural entries of ``A``.  The ordering
    comes from one factorization of a matrix with the symmetrized
    pattern and a dominant diagonal (so no pivot leaves the diagonal);
    only its column permutation is kept.  Returns ``perm`` with
    ``perm[k]`` the node placed at position ``k``.
    """
    pattern = csc_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    sym = (pattern + pattern.T).tocsc()
    sym.data.fill(-1.0)
    sym.setdiag(float(n))
    perm_c = splu(sym, permc_spec="MMD_AT_PLUS_A").perm_c
    return np.argsort(perm_c).astype(np.intp)


class SparsePlan:
    """One circuit's compiled CSC scatter plan plus SuperLU bindings.

    Shared-mutable like the stamp plan's scalar workspace: each solve
    returns before the next one starts on this plan, so the single
    reused ``[F | data]`` buffer is safe.
    """

    __slots__ = ("n", "nnz", "perm", "buf", "F", "matrix", "diag_pos",
                 "op_wc", "op_nc", "_rhs", "_dx")

    def __init__(self, plan) -> None:
        n = plan.n
        self.n = n
        f_cells, f_src, f_sign = plan.f_emit
        j_cells, j_src, j_sign = plan.j_emit
        rows = j_cells // n
        cols = j_cells % n

        # The ordering is baked into the CSC keys below, so every
        # factorization runs SuperLU with ``ColPerm=NATURAL`` and the
        # fill-reducing analysis happens once per circuit.
        perm = _minimum_degree(n, rows, cols)
        self.perm = perm
        ipos = np.empty(n, dtype=np.intp)
        ipos[perm] = np.arange(n, dtype=np.intp)

        # CSC (column-major) keys of every contribution under the
        # permutation; unique sorted keys define the structure.  The
        # gmin diagonal guarantees every diagonal cell is present, so
        # the factorization never sees a structurally empty pivot.
        keys = ipos[cols] * n + ipos[rows]
        unique = np.unique(keys)
        self.nnz = int(unique.size)
        slot = n + np.searchsorted(unique, keys)
        self.diag_pos = np.searchsorted(
            unique, np.arange(n, dtype=np.intp) * (n + 1)).astype(np.intp)

        indices = (unique % n).astype(np.int32)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(unique // n, minlength=n), out=indptr[1:])
        self.buf = np.zeros(n + self.nnz)
        self.F = self.buf[:n]
        self.matrix = csc_matrix((self.buf[n:], indices, indptr),
                                 shape=(n, n))

        # Scatter operators, cap-companion stamps in or out: CSR
        # ``(indptr, indices, data)`` of the +/-1 signs, rows the ``n``
        # residual cells then the ``nnz`` CSC slots, columns ``vals``.
        # A stable sort by row keeps each row's terms in emission order,
        # and duplicates stay separate terms, so ``csr_matvec`` sums
        # every cell in the order the scalar assembler accumulates it.
        def operator(fk: int, jk: int):
            targets = np.concatenate([f_cells[:fk], slot[:jk]])
            order = np.argsort(targets, kind="stable")
            indptr = np.zeros(self.buf.size + 1, dtype=np.int32)
            np.cumsum(np.bincount(targets, minlength=self.buf.size),
                      out=indptr[1:])
            src = np.concatenate([f_src[:fk], j_src[:jk]])
            sign = np.concatenate([f_sign[:fk], j_sign[:jk]])
            return indptr, src[order].astype(np.int32), sign[order]

        self.op_wc = operator(f_cells.size, j_cells.size)
        self.op_nc = operator(plan.f_split, plan.j_split)
        self._rhs = np.empty(n)
        self._dx = np.empty(n)

    # ------------------------------------------------------------------
    def assemble(self, ws, with_caps: bool, need_jacobian: bool = True):
        """Scatter this iteration's values into ``F`` and the CSC data.

        One ``csr_matvec`` of the operator against ``ws.vals`` into the
        zeroed ``[F | data]`` buffer; the residual-only call runs just
        the first ``n`` rows.  Returns ``(F, matrix)`` (``matrix`` is
        ``None`` when ``need_jacobian`` is false).
        """
        indptr, indices, coef = self.op_wc if with_caps else self.op_nc
        if need_jacobian:
            self.buf.fill(0.0)
            rows = self.buf.size
        else:
            self.F.fill(0.0)
            rows = self.n
        csr_matvec(rows, ws.vals.size, indptr, indices, coef, ws.vals,
                   self.buf)
        return self.F, (self.matrix if need_jacobian else None)

    def nudge(self, value: float) -> None:
        """Add ``value`` to every diagonal entry of the assembled data."""
        self.matrix.data[self.diag_pos] += value

    def factorize(self, times=None):
        """SuperLU factorization of the (pre-permuted) assembled matrix.

        Raises :class:`numpy.linalg.LinAlgError` on an exactly singular
        matrix, normalizing SuperLU's ``RuntimeError`` so the Newton
        loops handle dense and sparse singularity identically.  The
        ``sparse@factorize`` fault kind injects the same error here, so
        the chaos suite exercises the recovery ladder (diagonal nudge,
        homotopy rungs, NaN-cell degradation) without a genuinely
        singular operating point.

        ``times``, when given, is a
        :class:`~repro.obs.profile.PhaseTimes` accumulator; the
        factorization's wall seconds land in ``times.factorize`` (the
        phase profiler splits factorize from back-substitution on this
        backend).
        """
        faults.fire_sparse_factorize()
        start = monotonic() if times is not None else 0.0
        matrix = self.matrix
        try:
            lu = _superlu.gstrf(
                self.n, matrix.nnz, matrix.data, matrix.indices,
                matrix.indptr, csc_construct_func=csc_matrix,
                ilu=False, options=_GSTRF_OPTIONS)
        except RuntimeError as error:
            raise np.linalg.LinAlgError(str(error)) from None
        if times is not None:
            times.factorize += monotonic() - start
        return lu

    def solve_factored(self, lu, rhs: np.ndarray, times=None) -> np.ndarray:
        """Back-substitute ``rhs`` through ``lu``, undoing the ordering.

        ``times``, when given, accumulates the wall seconds into
        ``times.back_solve``.
        """
        start = monotonic() if times is not None else 0.0
        rhs.take(self.perm, out=self._rhs)
        self._dx[self.perm] = lu.solve(self._rhs)
        out = self._dx.copy()
        if times is not None:
            times.back_solve += monotonic() - start
        return out

    def dense_jacobian(self) -> np.ndarray:
        """The assembled matrix as a dense array in original node order.

        Test/diagnostic helper: inverts the ordering so entries
        compare directly against the dense backend's Jacobian.
        """
        inv = np.argsort(self.perm)
        return self.matrix.toarray()[np.ix_(inv, inv)]
