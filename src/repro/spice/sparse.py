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
* a reverse Cuthill-McKee ordering of the symmetrized stamp structure
  is applied up front, so every factorization runs SuperLU with
  ``permc_spec="NATURAL"`` -- the fill-reducing analysis happens once
  per circuit and is reused across all iterations and solves, the way
  ``--fast-newton`` reuses numeric LU factors, and
* emission-ordered data-scatter arrays map each stamp contribution to
  its slot in ``data``.  ``np.add.at`` applies repeated-index
  additions sequentially in element order, and the element order here
  replays the dense scatter's per-cell order (gmin diagonal first,
  then device emission), so every stored entry is **bit-identical** to
  the corresponding dense Jacobian cell
  (``tests/spice/test_sparse_equivalence.py`` pins this).

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
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

from ..resilience import faults

# The ``splu`` wrapper re-validates its input on every call (format
# check, duplicate summing, index-dtype casting) -- tens of
# microseconds that the Newton loops pay per factorization even though
# the plan's CSC buffer never changes shape.  Calling the SuperLU
# binding directly with the exact options ``splu(permc_spec="NATURAL")``
# would pass (including the implied ``SymmetricMode``) produces
# bit-identical factors; fall back to the public wrapper when the
# private binding moves.
try:  # pragma: no cover - exercised indirectly by every sparse solve
    from scipy.sparse.linalg._dsolve import _superlu as _superlu_direct
except ImportError:  # pragma: no cover - older/newer scipy layout
    _superlu_direct = None

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


class SparsePlan:
    """One circuit's compiled CSC scatter plan plus SuperLU bindings.

    Shared-mutable like the stamp plan's scalar workspace: the scalar
    Newton loop is not reentrant (plans yield requests instead of
    recursing into the solver), so the single reused ``data`` buffer
    is safe.
    """

    __slots__ = ("n", "nnz", "perm", "matrix", "diag_pos",
                 "pos_wc", "src_wc", "sign_wc", "pos_nc", "src_nc",
                 "sign_nc", "_contrib", "_rhs", "_dx")

    def __init__(self, plan) -> None:
        n = plan.n
        self.n = n
        j_cells, j_src, j_sign = plan.j_raw

        # Emission order of Jacobian contributions, exactly as the
        # dense ``scatter_full_*`` arrays order them: the gmin diagonal
        # first (the reference assembler adds gmin before any device
        # stamp), then the device stamps.
        diag_cells = np.arange(n, dtype=np.intp) * (n + 1)
        cells = np.concatenate([diag_cells, j_cells])
        src = np.concatenate([
            np.full(n, plan.gmin_slot, dtype=np.intp),
            plan.n_fvals + j_src,
        ])
        sign = np.concatenate([np.ones(n), j_sign])
        rows = cells // n
        cols = cells % n

        # One-time symbolic analysis: RCM on the symmetrized stamp
        # structure.  The permuted matrix is assembled directly (the
        # scatter positions below bake the permutation in), so every
        # subsequent SuperLU call runs with ``permc_spec="NATURAL"``
        # and skips its own fill-reducing ordering.
        pattern = csr_matrix(
            (np.ones(cells.size), (rows, cols)), shape=(n, n))
        sym = pattern + pattern.T
        perm = np.asarray(reverse_cuthill_mckee(sym.tocsr(),
                                                symmetric_mode=True),
                          dtype=np.intp)
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
        pos = np.searchsorted(unique, keys).astype(np.intp)
        self.diag_pos = np.searchsorted(
            unique, np.arange(n, dtype=np.intp) * (n + 1)).astype(np.intp)

        indices = (unique % n).astype(np.int32)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(unique // n, minlength=n), out=indptr[1:])
        self.matrix = csc_matrix(
            (np.zeros(self.nnz), indices, indptr), shape=(n, n))

        #: Pre-sliced scatter triples, cap-companion stamps in or out.
        #: The combined arrays are ``[gmin diag | device emission]``,
        #: so the cap-free variant is simply the prefix.
        split = n + plan.j_split
        self.pos_wc, self.src_wc, self.sign_wc = pos, src, sign
        self.pos_nc = pos[:split]
        self.src_nc = src[:split]
        self.sign_nc = sign[:split]
        self._contrib = np.empty(cells.size)
        self._rhs = np.empty(n)
        self._dx = np.empty(n)

    # ------------------------------------------------------------------
    def assemble(self, ws, with_caps: bool):
        """Scatter this iteration's values into the reused CSC data."""
        if with_caps:
            pos, src, sign = self.pos_wc, self.src_wc, self.sign_wc
        else:
            pos, src, sign = self.pos_nc, self.src_nc, self.sign_nc
        data = self.matrix.data
        data.fill(0.0)
        contrib = self._contrib[:pos.size]
        ws.vals.take(src, out=contrib)
        contrib *= sign
        np.add.at(data, pos, contrib)
        return self.matrix

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
            if _superlu_direct is not None:
                lu = _superlu_direct.gstrf(
                    self.n, matrix.nnz, matrix.data, matrix.indices,
                    matrix.indptr, csc_construct_func=csc_matrix,
                    ilu=False, options=_GSTRF_OPTIONS)
            else:  # pragma: no cover - private binding unavailable
                lu = splu(matrix, permc_spec="NATURAL")
        except RuntimeError as error:
            raise np.linalg.LinAlgError(str(error)) from None
        if times is not None:
            times.factorize += monotonic() - start
        return lu

    def solve_factored(self, lu, rhs: np.ndarray, times=None) -> np.ndarray:
        """Back-substitute ``rhs`` through ``lu``, undoing the RCM perm.

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

        Test/diagnostic helper: inverts the RCM permutation so entries
        compare directly against the dense backend's Jacobian.
        """
        inv = np.argsort(self.perm)
        return self.matrix.toarray()[np.ix_(inv, inv)]
