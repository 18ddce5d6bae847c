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


def _sccooc_stats(
    cooc: COOCMatrix,
    p: M.Product,
    src_idx: np.ndarray,
    dst_idx: np.ndarray,
    which: str,
    n_out: int,
    name: str,
    l2_bytes: int,
) -> KernelStats:
    """Hardware stats of a gather or scatter scCOOC pass (they differ only
    in which COOC array is the load index and which is the store index)."""
    m = cooc.nnz
    B = p.B
    item = p.dtype.itemsize
    df = W.dtype_cycle_factor(p.dtype)
    n_active = int(p.kept.size)
    dst_active = dst_idx[p.kept]
    lane_total = int(p.lanes[src_idx[p.kept]].sum())
    read_txn = (
        W.coalesced_transactions(m)                                  # src index sweep
        + cooc.full_gather_transactions(which, item, lanes=B,        # X rows (cached
                                        l2_bytes=l2_bytes)           # per matrix)
        + W.gather_transactions(p.kept)                              # sparse dst-index read
    )
    # Atomic read-modify-write on Y: one transaction in, one out per distinct
    # warp segment of the destination rows, L2-merged across the kernel.
    write_txn = (
        W.cached_gather_transactions(dst_active, item, n_out, lanes=B,
                                     l2_bytes=l2_bytes)
        if n_active
        else 0
    )
    return KernelStats(
        name=name,
        threads=m,
        warp_cycles=(
            W.uniform_warp_cycles(m, _BASE_CYCLES)
            + W.warp_count(lane_total) * _ACTIVE_CYCLES * df
            + W.atomic_conflict_cycles(dst_active) * df
        ),
        dram_read_bytes=(read_txn + write_txn) * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=(2 * m + n_active + lane_total) * item,
        serial_updates=int(np.bincount(dst_active).max()) * df if n_active else 0,
        critical_warp_cycles=_BASE_CYCLES + _ACTIVE_CYCLES * B,  # flat per-edge work
        flops=lane_total,
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
    X = M.as_frontier_matrix(X, cooc.n_rows)
    p = M.push_product(X, cooc.row, cooc.col, cooc.n_cols, out_dtype)
    stats = _sccooc_stats(cooc, p, cooc.row, cooc.col, "row", cooc.n_cols,
                          "sccooc_spmm", device.spec.l2_bytes)
    return p.Y, device.launch(stats, tag=tag)


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
    stats = _sccooc_stats(cooc, p, cooc.col, cooc.row, "col", cooc.n_rows,
                          "sccooc_spmm_scatter", device.spec.l2_bytes)
    return p.Y, device.launch(stats, tag=tag)
