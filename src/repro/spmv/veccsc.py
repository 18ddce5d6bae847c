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


def _veccsc_stats(
    csc: CSCMatrix,
    p: M.Product,
    sel_rows: np.ndarray,
    n_written: int,
    name: str,
    l2_bytes: int,
    x_txn: int | None = None,
    serial_updates: int = 0,
) -> KernelStats:
    """Hardware stats for a warp-per-column pass over the columns with
    ``p.lanes > 0``.

    ``sel_rows`` is the concatenation of the processed columns' row indices
    in storage order, which is exactly the per-warp access sequence of the
    B-wide frontier-row gather (strip boundaries align with columns up to
    one extra transaction per column, counted with ``row_A``).
    """
    n = csc.n_cols
    B, lanes = p.B, p.lanes
    df = W.dtype_cycle_factor(p.dtype)
    scanned = np.where(lanes > 0, csc.column_counts(), 0).astype(np.int64)
    strips = (scanned + W.WARP_SIZE - 1) // W.WARP_SIZE
    total = int(scanned.sum())
    active = scanned > 0
    per_strip = _CYCLES_PER_STRIP + lanes - 1  # strips is 0 where lanes is
    warp_cycles = int(
        n * _BASE_CYCLES
        + (strips * per_strip * df).sum()
        + int(lanes[active].sum()) * _SHUFFLE_CYCLES * df
    )
    # row_A loads coalesce within the warp: ~8 words per transaction, plus
    # one boundary transaction per non-empty column.
    row_txn = int(np.sum((scanned + 7) // 8)) + int(active.sum())
    if x_txn is None:
        x_txn = W.cached_gather_transactions(sel_rows, p.dtype.itemsize, csc.n_rows,
                                             lanes=B, l2_bytes=l2_bytes)
    lane_entries = int((scanned * lanes).sum())
    return KernelStats(
        name=name,
        threads=32 * n,
        warp_cycles=warp_cycles,
        dram_read_bytes=(2 * W.coalesced_transactions(n) + row_txn + x_txn)
        * W.TRANSACTION_BYTES,
        dram_write_bytes=W.bwide_gather_transactions(n_written, B, n, 4)
        * W.TRANSACTION_BYTES,
        requested_load_bytes=(2 * n + total) * 4 + lane_entries * p.dtype.itemsize,
        serial_updates=serial_updates,
        critical_warp_cycles=W.max_warp_cycles(strips * per_strip * 4 * df),
        flops=lane_entries,
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
    l2 = device.spec.l2_bytes
    if p.masked:
        sel_rows = csc.row[(p.lanes > 0)[csc.column_of_nnz()]]
        x_txn = None
    else:
        # the unmasked backward product gathers through all of row_A
        sel_rows = csc.row
        x_txn = csc.full_gather_transactions(p.dtype.itemsize, lanes=p.B,
                                             l2_bytes=l2)
    stats = _veccsc_stats(csc, p, sel_rows, p.written, "veccsc_spmm", l2, x_txn=x_txn)
    return p.Y, device.launch(stats, tag=tag)


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
    rows = csc.row[p.kept]
    serial = int(np.bincount(rows).max()) if rows.size else 0
    stats = _veccsc_stats(csc, p, rows, int(rows.size), "veccsc_spmm_scatter",
                          device.spec.l2_bytes, serial_updates=serial)
    return p.Y, device.launch(stats, tag=tag)
