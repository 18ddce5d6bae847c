"""Thread-per-edge (scCOOC-style) SpMV over the CSC format.

The adaptive dispatcher (DESIGN.md §10) switches kernels *mid-traversal*,
but the paper's single-format memory discipline stores the matrix exactly
once -- CSC, ``n + 1 + m`` words.  The scCOOC strategy normally reads its
column index from the COOC ``col`` array; over CSC that array does not
exist, so each thread recovers its column with a binary search on ``CP_A``
(the standard COO-from-CSR trick of merge/nnz-split SpMV kernels)::

    k = thread id                      # one thread per stored entry
    c = upper_bound(CP_A, k) - 1       # ceil(log2 n) probes, L2-resident
    if sigma[c] == 0:                  # fused mask (forward stage)
        if x[row_A[k]] > 0:
            atomicAdd(&y[c], x[row_A[k]])

Per-edge work stays flat under degree outliers -- the property that makes
the scCOOC strategy the right choice on hub levels -- at the price of the
lookup cycles every thread pays.  Unlike the COOC kernel, the mask is
fused (checked *before* the ``x`` gather), so discovered hub columns cost
no atomics: the d=2 atomic storm of the unmasked COOC kernel on mawi-shape
graphs never happens.

Numerics are byte-for-byte the CSC kernels' bincount over column-major
storage order, so per-level switching between this kernel and
scCSC/veCSC is bit-identical to any static kernel choice.

The batched form keeps the thread-per-edge shape over an ``n x B``
frontier matrix: each thread locates its column once (one lookup amortised
B-fold), fetches its B-wide frontier row and issues one atomic per
contributing lane into the destination's B-wide row.  ``B = 1`` is the
SpMV.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.formats.csc import CSCMatrix
from repro.gpusim.device import Device
from repro.gpusim.kernel import KernelLaunch, KernelStats
from repro.gpusim import warp as W
from repro.spmv import _spmm as M

#: Issue cycles every thread pays: index math, row load, mask compare.
_BASE_CYCLES = 6
#: Extra issue cycles for an active lane: x test + atomic issue.
_ACTIVE_CYCLES = 4


def lookup_cycles(n_cols: int) -> int:
    """Binary-search probes into ``CP_A``: ``ceil(log2 n)`` iterations."""
    return max(1, int(np.ceil(np.log2(max(n_cols, 2)))))


def profile(csc: CSCMatrix, p: M.Product, l2_bytes: int) -> M.Profile:
    """Exact counts of a thread-per-edge pass.  The gather's threads load
    the frontier rows of the processed columns' entries and store into
    columns; the scatter's load at every entry's column (consecutive threads
    of a column read the same row, so the gather merges like one at the
    column indices, its requests riding on the row_A sweep's) and store
    into rows."""
    item, B = p.dtype.itemsize, p.B
    col_of_nnz = csc.column_of_nnz()
    if p.scatter:
        stores, store_words = csc.row[p.kept], csc.n_rows
        loads = 0
        txn = csc.full_gather_transactions(item, lanes=B, columns=True,
                                           l2_bytes=l2_bytes)
        hits = int(p.lanes[col_of_nnz[p.kept]].sum())
    else:
        stores, store_words = col_of_nnz[p.kept], csc.n_cols
        if p.masked:
            sel_rows = csc.row[M.ranges(csc.col_ptr, np.flatnonzero(p.lanes > 0))]
            loads = int(sel_rows.size)
            txn = W.cached_gather_transactions(sel_rows, item, csc.n_rows, lanes=B,
                                               l2_bytes=l2_bytes)
        else:
            loads = csc.nnz
            txn = csc.full_gather_transactions(item, lanes=B, l2_bytes=l2_bytes)
        hits = p.lane_hits(csc.row, col_of_nnz)
    return M.Profile(
        **M.shape_of(csc, p), scanned=loads, contrib=int(stores.size), lane_hits=hits,
        chain=M.atomic_chain(stores), gather_txn=txn,
        store_txn=W.cached_gather_transactions(stores, item, store_words, lanes=B,
                                               l2_bytes=l2_bytes),
        conflicts=W.atomic_conflict_cycles(stores),
    )


def expected(csc, q: M.Profile, lv, *, divergence: float, l2_bytes: int) -> M.Profile:
    """Expected counts from the dispatcher's shared fill ``q``; a scatter
    loads at every entry's column, the full column pass (see profile)."""
    if not q.scatter:
        return q
    return replace(q, gather_txn=csc.full_gather_transactions(
        q.dtype.itemsize, lanes=q.B, columns=True, l2_bytes=l2_bytes))


def cost(q: M.Profile, spec) -> KernelStats:
    """Hardware stats of a thread-per-edge pass (gather or scatter alike):
    a CP_A lookup per entry, an atomic per contributing lane."""
    m, B, df = q.nnz, q.B, W.dtype_cycle_factor(q.dtype)
    look = lookup_cycles(q.n_cols)
    # all m threads binary-search the same (n+1)-word CP_A, so the L2
    # compulsory bound caps the traffic at the array's own segment count
    lookup_txn = W.capped_random_transactions(m, q.n_cols + 1, 4, l2_bytes=spec.l2_bytes)
    read_txn = W.coalesced_transactions(m) + lookup_txn + q.gather_txn
    return KernelStats(
        name="edgecsc_spmm_scatter" if q.scatter else "edgecsc_spmm",
        threads=m,
        warp_cycles=(
            W.uniform_warp_cycles(m, _BASE_CYCLES + look)
            + W.warp_count(q.lane_hits) * _ACTIVE_CYCLES * df
            + q.conflicts * df
        ),
        dram_read_bytes=(read_txn + q.store_txn) * W.TRANSACTION_BYTES,
        dram_write_bytes=q.store_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=(2 * m + q.scanned * B + q.contrib + q.lane_hits) * q.dtype.itemsize,
        serial_updates=q.chain * df,
        critical_warp_cycles=_BASE_CYCLES + look + _ACTIVE_CYCLES * B,  # flat per-edge work
        flops=q.lane_hits,
    )


def edgecsc_spmm(
    device: Device,
    csc: CSCMatrix,
    X: np.ndarray,
    *,
    allowed: np.ndarray | None = None,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Masked gather product ``Y = A^T X``, one thread per stored entry.

    Semantically identical to :func:`repro.spmv.sccsc.sccsc_spmm` -- only
    the hardware cost differs (flat per-edge work + CP_A lookup instead of
    a per-column scan).  Threads of masked columns stop at the mask.
    """
    p = M.gather_product(csc, X, allowed, out_dtype)
    return p.Y, M.launch(device, csc, p, profile, cost, tag)


def edgecsc_spmm_scatter(
    device: Device,
    csc: CSCMatrix,
    X: np.ndarray,
    *,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Scatter product ``Y = A X``, one thread per stored entry.

    Each thread whose column has a positive lane value atomically adds it
    to its row's ``Y`` row; used by the backward stage on digraphs.
    """
    p = M.scatter_product(csc, X, out_dtype)
    return p.Y, M.launch(device, csc, p, profile, cost, tag)
