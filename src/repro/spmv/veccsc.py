"""The veCSC kernel: warp-per-column vector SpMV over the CSC format.

The paper's Algorithm 4 -- the CSC analogue of Bell & Garland's CSR-vector
kernel -- assigns a full warp to each matrix column.  The 32 lanes stream
the column's ``row_A`` slice cooperatively (coalesced, 8 words per 32 B
transaction), accumulate private partial sums, and reduce them with five
``__shfl_down_sync`` steps; lane 0 writes the result.

This removes both scalar-kernel pathologies on irregular graphs: a
49k-degree kron hub occupies one warp for ``ceil(49k / 32)`` iterations with
every lane busy (no divergence waste), and the ``row_A`` loads coalesce
perfectly.  The price is that *low*-degree columns waste 31 of 32 lanes,
which is why scalar kernels keep winning on regular graphs.

The batched form streams each selected column's 32-entry strips once for
all B lanes of an ``n x B`` frontier matrix: the warp loads 32 row indices
coalesced, fetches 32 B-wide frontier rows, accumulates B partial sums and
runs one shuffle reduction per lane.  ``B = 1`` is the paper's SpMV.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.formats.csc import CSCMatrix
from repro.gpusim.device import Device
from repro.gpusim.kernel import KernelLaunch, KernelStats
from repro.gpusim import warp as W
from repro.spmv import _spmm as M

#: Issue cycles per warp for setup: pointer loads, mask compare, bookkeeping.
_BASE_CYCLES = 6
#: Issue cycles per 32-entry strip of a column (load rows, gather x, add);
#: every further lane adds one accumulate per strip.
_CYCLES_PER_STRIP = 4
#: The shuffle reduction: log2(32) steps, ~2 cycles each.
_SHUFFLE_CYCLES = 10


def profile(csc: CSCMatrix, p: M.Product, l2_bytes: int) -> M.Profile:
    """Exact counts of a warp-per-column pass over the columns with
    ``p.lanes > 0``: each warp steps through its column's 32-entry strips."""
    lanes = p.lanes
    scanned = np.where(lanes > 0, csc.column_counts(), 0).astype(np.int64)
    strips = (scanned + W.WARP_SIZE - 1) // W.WARP_SIZE
    lane_strips = strips * lanes
    active = scanned > 0
    rows = csc.row[p.kept]
    if p.scatter:
        # the atomic adds into the contributing entries' B-wide Y rows
        txn = W.cached_gather_transactions(rows, p.dtype.itemsize, csc.n_rows,
                                           lanes=p.B, l2_bytes=l2_bytes)
    elif p.masked:
        # the B-wide frontier rows of the processed columns, in storage order
        sel_rows = csc.row[M.ranges(csc.col_ptr, np.flatnonzero(lanes > 0))]
        txn = W.cached_gather_transactions(sel_rows, p.dtype.itemsize, csc.n_rows,
                                           lanes=p.B, l2_bytes=l2_bytes)
    else:
        # the unmasked backward product gathers through all of row_A
        txn = csc.full_gather_transactions(p.dtype.itemsize, lanes=p.B,
                                           l2_bytes=l2_bytes)
    ce, cle = M.at_slowest(strips * (_CYCLES_PER_STRIP - 1) + lane_strips,
                           strips, lane_strips)
    return M.Profile(
        **M.shape_of(csc, p), scanned=int(scanned.sum()),
        lines=int(np.sum((scanned + 7) // 8)), active_threads=int(active.sum()),
        lanes=int(lanes[active].sum()), lane_entries=int((scanned * lanes).sum()),
        contrib=int(rows.size), written=p.written,
        chain=M.atomic_chain(rows) if p.scatter else 0,
        warp_entries=int(strips.sum()), warp_lane_entries=int(lane_strips.sum()),
        crit_entries=ce, crit_lane_entries=cle, gather_txn=txn,
    )


def expected(csc, q: M.Profile, lv, *, divergence: float, l2_bytes: int) -> M.Profile:
    """Expected counts from the dispatcher's shared fill ``q``: the warps
    step through the processed columns' ``lv.strips`` strips at the mean
    lanes per column, the slowest through the largest column's."""
    L, top = q.lanes / max(q.active_threads, 1), -(-q.crit_entries // W.WARP_SIZE)
    return replace(q, warp_entries=lv.strips, warp_lane_entries=lv.strips * L,
                   crit_entries=top, crit_lane_entries=top * L)


def cost(q: M.Profile, spec) -> KernelStats:
    """Hardware stats of a warp-per-column pass; a scatter's atomic stores
    serialise along the longest row chain."""
    n, B, df = q.n_cols, q.B, W.dtype_cycle_factor(q.dtype)
    return KernelStats(
        name="veccsc_spmm_scatter" if q.scatter else "veccsc_spmm",
        threads=32 * n,
        warp_cycles=n * _BASE_CYCLES
        + df * ((_CYCLES_PER_STRIP - 1) * q.warp_entries + q.warp_lane_entries)
        + q.lanes * _SHUFFLE_CYCLES * df,
        # row_A loads coalesce within the warp: ~8 words per transaction,
        # plus one boundary transaction per non-empty column
        dram_read_bytes=(2 * W.coalesced_transactions(n) + q.lines + q.active_threads
                         + q.gather_txn) * W.TRANSACTION_BYTES,
        dram_write_bytes=W.bwide_gather_transactions(
            q.contrib if q.scatter else q.written, B, n, 4) * W.TRANSACTION_BYTES,
        requested_load_bytes=(2 * n + q.scanned) * 4 + q.lane_entries * q.dtype.itemsize,
        serial_updates=q.chain if q.scatter else 0,
        critical_warp_cycles=4 * df * (
            (_CYCLES_PER_STRIP - 1) * q.crit_entries + q.crit_lane_entries),
        flops=q.lane_entries,
    )


def veccsc_spmm(
    device: Device,
    csc: CSCMatrix,
    X: np.ndarray,
    *,
    allowed: np.ndarray | None = None,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Masked gather product ``Y = A^T X`` with the veCSC kernel.

    Semantically identical to :func:`repro.spmv.sccsc.sccsc_spmm` -- only
    the hardware cost differs (warp-per-column streaming, no divergence on
    hub columns).
    """
    p = M.gather_product(csc, X, allowed, out_dtype)
    return p.Y, M.launch(device, csc, p, profile, cost, tag)


def veccsc_spmm_scatter(
    device: Device,
    csc: CSCMatrix,
    X: np.ndarray,
    *,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Scatter product ``Y = A X`` with a warp-per-column kernel.

    Each warp whose column has a positive lane value atomically adds it
    across the column's rows with coalesced accesses; used by the backward
    stage on digraphs.
    """
    p = M.scatter_product(csc, X, out_dtype)
    return p.Y, M.launch(device, csc, p, profile, cost, tag)
