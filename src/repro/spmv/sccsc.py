"""The scCSC kernel: thread-per-column masked SpMV over the CSC format.

The CUDA kernel (paper's Algorithm 3, parallelised) assigns one thread to
each matrix column ``i``::

    if sigma[i] == 0:                      # the fused mask
        sum = 0
        for k in CP_A[i] .. CP_A[i+1]-1:   # scan the column
            sum += x[row_A[k]]
        if sum > 0:                        # sparsity of x
            y[i] = sum

Fusing the ``sigma == 0`` mask into the SpMV is TurboBC's second
optimization: already-discovered columns cost one compare instead of a
column scan.  The kernel's weakness is intra-warp divergence -- a warp
retires at the speed of its largest column -- which is why it only wins on
*regular* graphs (near-uniform degrees).  Loads of ``row_A`` are sequential
per lane (L1-assisted, ~8 words per 32 B line) but the ``x`` gather is fully
uncoalesced: one transaction per stored entry scanned.

The batched form multiplies an ``n x B`` frontier matrix: each thread scans
its column once for all B lanes, loading one row index per entry (amortised
B-fold) and one B-word frontier row (coalesced into ``ceil(B * itemsize /
32)`` transactions), and accumulating B partial sums.  ``B = 1`` is the
paper's SpMV, and every cost term below reduces to it exactly.
"""

from __future__ import annotations

import numpy as np

from repro.formats.csc import CSCMatrix
from repro.gpusim.device import Device
from repro.gpusim.kernel import KernelLaunch, KernelStats
from repro.gpusim import warp as W
from repro.spmv import _spmm as M

#: Issue cycles per thread for index math + the mask compare.
_BASE_CYCLES = 4
#: Issue cycles per scanned entry (load row index, load x, accumulate);
#: every further lane adds one accumulate.
_CYCLES_PER_ENTRY = 3
#: Extra issue cycles per scanned entry of the scatter's atomic store.
_ATOMIC_CYCLES = 2
#: Critical-path cycles per entry for the *longest* lane: a serial chain of
#: dependent gathers exposes memory latency (~8 cycles survive pipelining)
#: on top of the issue cost.
_CRITICAL_CYCLES_PER_ENTRY = 12


def _sccsc_stats(csc: CSCMatrix, p: M.Product, l2_bytes: int) -> KernelStats:
    """Hardware stats for a masked thread-per-column gather pass."""
    B, lanes = p.B, p.lanes
    item = p.dtype.itemsize
    df = W.dtype_cycle_factor(p.dtype)
    n = csc.n_cols
    scanned = np.where(lanes > 0, csc.column_counts(), 0).astype(np.int64)
    total = int(scanned.sum())
    lane_entries = int((scanned * lanes).sum())
    extra = lanes - 1  # further lanes per scanned entry (scanned is 0 where lanes is)
    return KernelStats(
        name="sccsc_spmm",
        threads=n,
        warp_cycles=W.divergent_warp_cycles(
            scanned * (_CYCLES_PER_ENTRY + extra) * df, base_cycles=_BASE_CYCLES
        ),
        dram_read_bytes=(
            2 * W.coalesced_transactions(n)
            # per-lane sequential scans: ~ceil(deg / 8) L1-line fills for
            # row_A, one uncoalesced B-wide x row per scanned entry
            + int(np.sum((scanned + 7) // 8))
            + W.scalar_gather_transactions(total, csc.n_rows, item, lanes=B,
                                           l2_bytes=l2_bytes)
        ) * W.TRANSACTION_BYTES,
        dram_write_bytes=p.written * W.coalesced_transactions(B, p.out_dtype.itemsize)
        * W.TRANSACTION_BYTES,
        requested_load_bytes=(2 * n + total) * 4 + lane_entries * item,
        critical_warp_cycles=W.max_warp_cycles(
            scanned * (_CRITICAL_CYCLES_PER_ENTRY + extra) * df
        ),
        flops=lane_entries,
    )


def sccsc_spmm(
    device: Device,
    csc: CSCMatrix,
    X: np.ndarray,
    *,
    allowed: np.ndarray | None = None,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Masked gather product ``Y = A^T X`` with the scCSC kernel.

    ``X`` is an ``(n, B)`` frontier matrix; ``allowed`` the ``(n, B)``
    per-(column, lane) fused mask (the forward stage passes ``sigma == 0``
    ANDed with the lane-active bitmap); ``None`` processes every column
    (the unmasked product of the backward stage on undirected graphs).
    """
    p = M.gather_product(csc, X, allowed, out_dtype)
    return p.Y, device.launch(_sccsc_stats(csc, p, device.spec.l2_bytes), tag=tag)


def sccsc_spmm_scatter(
    device: Device,
    csc: CSCMatrix,
    X: np.ndarray,
    *,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Scatter product ``Y = A X`` with a thread-per-column CSC kernel.

    Each thread whose column has a positive lane value atomically adds its
    B-wide value row to the ``Y`` rows of its column's entries; used by the
    backward stage on digraphs.  Columns with no positive lane cost one
    compare.
    """
    p = M.scatter_product(csc, X, out_dtype)
    B, lanes = p.B, p.lanes
    item = p.dtype.itemsize
    df = W.dtype_cycle_factor(p.dtype)
    l2 = device.spec.l2_bytes
    n = csc.n_cols
    scanned = np.where(lanes > 0, csc.column_counts(), 0).astype(np.int64)
    total = int(scanned.sum())
    extra = (lanes - 1) * df  # further lanes per scanned entry
    rows = csc.row[p.kept]
    stats = KernelStats(
        name="sccsc_spmm_scatter",
        threads=n,
        warp_cycles=W.divergent_warp_cycles(
            scanned * (_CYCLES_PER_ENTRY + _ATOMIC_CYCLES + extra),
            base_cycles=_BASE_CYCLES,
        ),
        dram_read_bytes=(
            2 * W.coalesced_transactions(n)
            + int(np.sum((scanned + 7) // 8))
            + W.bwide_gather_transactions(total, B, n, item, l2_bytes=l2)
        ) * W.TRANSACTION_BYTES,
        # per-lane serial atomic stores, thrashing-bounded like the gathers
        dram_write_bytes=W.scalar_gather_transactions(
            int(rows.size), csc.n_rows, 4, lanes=B, l2_bytes=l2
        ) * W.TRANSACTION_BYTES,
        requested_load_bytes=(2 * n + total) * 4 + int(lanes.sum()) * item,
        # longest same-address atomic chain: a row's contributing entries
        serial_updates=int(np.bincount(rows).max()) if rows.size else 0,
        critical_warp_cycles=W.max_warp_cycles(
            scanned * (_CRITICAL_CYCLES_PER_ENTRY + extra)
        ),
        flops=int((scanned * lanes).sum()),
    )
    return p.Y, device.launch(stats, tag=tag)
