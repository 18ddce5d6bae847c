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


def _lookup_txn(csc: CSCMatrix, l2_bytes: int) -> int:
    """DRAM transactions of the per-thread ``CP_A`` binary search.

    All ``m`` threads probe the same (n+1)-word array; the L2 compulsory
    bound caps the traffic at the array's own segment count.
    """
    return W.capped_random_transactions(csc.nnz, csc.n_cols + 1, 4, l2_bytes=l2_bytes)


def _edgecsc_stats(
    csc: CSCMatrix,
    p: M.Product,
    name: str,
    l2_bytes: int,
    *,
    loads: np.ndarray | None,
    stores: np.ndarray,
    store_words: int,
    lane_hits: int,
) -> KernelStats:
    """Hardware stats for a thread-per-edge pass.

    ``loads`` are the frontier rows the gather threads load (storage order;
    ``None`` for the scatter's load at every entry's column, which is
    cached per matrix), ``stores`` the destinations of the contributing entries' atomics
    and ``lane_hits`` their (entry, lane) count.
    """
    m = csc.nnz
    B = p.B
    item = p.dtype.itemsize
    df = W.dtype_cycle_factor(p.dtype)
    look = lookup_cycles(csc.n_cols)
    if loads is None:
        # consecutive threads of a column read the same frontier row, so the
        # gather merges like one at the column indices themselves (its
        # requests ride on the row_A sweep's)
        x_txn = csc.full_gather_transactions(item, lanes=B, columns=True,
                                             l2_bytes=l2_bytes)
        n_loads = 0
    else:
        x_txn = W.cached_gather_transactions(loads, item, csc.n_rows, lanes=B,
                                             l2_bytes=l2_bytes)
        n_loads = int(loads.size)
    read_txn = (
        W.coalesced_transactions(m)                      # row_A sweep
        + _lookup_txn(csc, l2_bytes)                     # CP_A binary search
        + x_txn
    )
    n_stores = int(stores.size)
    write_txn = (
        W.cached_gather_transactions(stores, item, store_words, lanes=B,
                                     l2_bytes=l2_bytes)
        if n_stores
        else 0
    )
    return KernelStats(
        name=name,
        threads=m,
        warp_cycles=(
            W.uniform_warp_cycles(m, _BASE_CYCLES + look)
            + W.warp_count(lane_hits) * _ACTIVE_CYCLES * df
            + W.atomic_conflict_cycles(stores) * df
        ),
        dram_read_bytes=(read_txn + write_txn) * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=(2 * m + n_loads * B + n_stores + lane_hits) * item,
        serial_updates=int(np.bincount(stores).max()) * df if n_stores else 0,
        critical_warp_cycles=_BASE_CYCLES + look + _ACTIVE_CYCLES * B,  # flat per-edge work
        flops=lane_hits,
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
    col_of_nnz = csc.column_of_nnz()
    sel_rows = csc.row[(p.lanes > 0)[col_of_nnz]] if p.masked else csc.row
    stats = _edgecsc_stats(
        csc, p, "edgecsc_spmm", device.spec.l2_bytes,
        loads=sel_rows, stores=col_of_nnz[p.kept], store_words=csc.n_cols,
        lane_hits=p.lane_hits(csc.row, col_of_nnz),
    )
    return p.Y, device.launch(stats, tag=tag)


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
    to its row's ``Y`` row; used by the backward stage on digraphs.  The
    frontier gather at the column indices merges across the consecutive
    threads of a column.
    """
    p = M.scatter_product(csc, X, out_dtype)
    stats = _edgecsc_stats(
        csc, p, "edgecsc_spmm_scatter", device.spec.l2_bytes,
        loads=None, stores=csc.row[p.kept], store_words=csc.n_rows,
        lane_hits=int(p.lanes[csc.column_of_nnz()[p.kept]].sum()),
    )
    return p.Y, device.launch(stats, tag=tag)
