"""The scCOOC kernel: thread-per-edge SpMV over the COOC format.

The CUDA kernel (paper's Algorithm 2, parallelised) assigns one thread to
each stored entry ``k``::

    if x[row[k]] > 0:
        atomicAdd(&y[col[k]], x[row[k]])

Per-edge work is constant regardless of the degree distribution, which is
why scCOOC tolerates the extreme degree outliers of the mawi traces that
stall the thread-per-column scCSC kernel.  The costs are: a coalesced sweep
of ``row`` (every thread), an uncoalesced gather of ``x`` (every thread), a
coalesced-but-sparse read of ``col`` plus an atomic scatter into ``y``
(active threads only).  COOC's column-major ordering makes active lanes
write *runs of identical columns*, so intra-warp atomic conflicts -- counted
exactly by :func:`repro.gpusim.warp.atomic_conflict_cycles` -- are the
kernel's main issue cost on low-degree graphs.

The batched form keeps the thread-per-edge shape over an ``n x B``
frontier matrix: each thread loads its source index once (amortised
B-fold), fetches the B-wide frontier row and issues one atomic per positive
lane into the destination's B-wide output row.  ``B = 1`` is the SpMV.
"""

from __future__ import annotations

import numpy as np

from repro.formats.coo import COOCMatrix
from repro.gpusim.device import Device
from repro.gpusim.kernel import KernelLaunch, KernelStats
from repro.gpusim import warp as W
from repro.spmv import _spmm as M

#: Issue cycles every thread pays: index math, row load, compare.
_BASE_CYCLES = 6
#: Extra issue cycles for an active lane: col load + atomic issue.
_ACTIVE_CYCLES = 4


def profile(cooc: COOCMatrix, p: M.Product, l2_bytes: int) -> M.Profile:
    """Exact counts of a gather or scatter scCOOC pass (they differ only in
    which COOC array is the load index and which is the store index)."""
    which, src_idx, dst_idx, n_out = (
        ("col", cooc.col, cooc.row, cooc.n_rows) if p.scatter
        else ("row", cooc.row, cooc.col, cooc.n_cols))
    item, B = p.dtype.itemsize, p.B
    dst_active = dst_idx[p.kept]
    return M.Profile(
        **M.shape_of(cooc, p), contrib=int(p.kept.size),
        lane_hits=int(p.lanes[src_idx[p.kept]].sum()), chain=M.atomic_chain(dst_active),
        # X rows at every source index (cached per matrix) + the sparse
        # destination-index read of the active threads
        gather_txn=cooc.full_gather_transactions(which, item, lanes=B, l2_bytes=l2_bytes)
        + W.gather_transactions(p.kept),
        # atomic read-modify-write on Y: one transaction in, one out per
        # distinct warp segment of the destination rows, L2-merged
        store_txn=W.cached_gather_transactions(dst_active, item, n_out, lanes=B,
                                               l2_bytes=l2_bytes),
        conflicts=W.atomic_conflict_cycles(dst_active),
    )


def cost(q: M.Profile, spec) -> KernelStats:
    """Hardware stats of a scCOOC pass (gather or scatter alike)."""
    m, B, df = q.nnz, q.B, W.dtype_cycle_factor(q.dtype)
    return KernelStats(
        name="sccooc_spmm_scatter" if q.scatter else "sccooc_spmm",
        threads=m,
        warp_cycles=(
            W.uniform_warp_cycles(m, _BASE_CYCLES)
            + W.warp_count(q.lane_hits) * _ACTIVE_CYCLES * df
            + q.conflicts * df
        ),
        # coalesced source-index sweep + the gathers, then the atomics
        dram_read_bytes=(W.coalesced_transactions(m) + q.gather_txn + q.store_txn)
        * W.TRANSACTION_BYTES,
        dram_write_bytes=q.store_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=(2 * m + q.contrib + q.lane_hits) * q.dtype.itemsize,
        serial_updates=q.chain * df,
        critical_warp_cycles=_BASE_CYCLES + _ACTIVE_CYCLES * B,  # flat per-edge work
        flops=q.lane_hits,
    )


def sccooc_spmm(
    device: Device,
    cooc: COOCMatrix,
    X: np.ndarray,
    *,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Gather product ``Y = A^T X`` with the scCOOC kernel.

    ``X`` is the ``(n, B)`` frontier matrix.  There is no fused mask (the
    update kernel applies it); only positive lane values contribute
    (Algorithm 2, line 5, per lane).
    """
    p = M.push_product(cooc, X, out_dtype)
    return p.Y, M.launch(device, cooc, p, profile, cost, tag)


def sccooc_spmm_scatter(
    device: Device,
    cooc: COOCMatrix,
    X: np.ndarray,
    *,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Scatter product ``Y = A X`` with the scCOOC kernel (swapped roles of
    the two COOC index arrays); used by the backward stage on digraphs."""
    p = M.scatter_product(cooc, X, out_dtype)
    return p.Y, M.launch(device, cooc, p, profile, cost, tag)
