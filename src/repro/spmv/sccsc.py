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


def profile(csc: CSCMatrix, p: M.Product, l2_bytes: int) -> M.Profile:
    """Exact counts of a thread-per-column pass over the columns with
    ``p.lanes > 0`` (the gather's allowed lanes, the scatter's positive ones)."""
    lanes = p.lanes
    scanned = np.where(lanes > 0, csc.column_counts(), 0).astype(np.int64)
    if p.B == 1:  # one lane: every thread's work is proportional to its scan
        lane_entries = issue = crit = scanned
    else:
        lane_entries = scanned * lanes
        # per-thread issue and critical-path work as the cost formulas weigh
        # it (the gather's dtype factor scales every thread alike)
        df, atomic = (W.dtype_cycle_factor(p.dtype), _ATOMIC_CYCLES) if p.scatter else (1, 0)
        issue = scanned * (_CYCLES_PER_ENTRY + atomic - df) + lane_entries * df
        crit = scanned * (_CRITICAL_CYCLES_PER_ENTRY - df) + lane_entries * df
    (we, wle), (ce, cle) = (M.warp_sums(issue, scanned, lane_entries),
                            M.at_slowest(crit, scanned, lane_entries))
    return M.Profile(
        **M.shape_of(csc, p), scanned=int(scanned.sum()),
        lines=int(np.sum((scanned + 7) // 8)), frontier_slots=int(lanes.sum()),
        lane_entries=int(lane_entries.sum()), contrib=int(p.kept.size),
        written=p.written, chain=M.atomic_chain(csc.row[p.kept]) if p.scatter else 0,
        warp_entries=we, warp_lane_entries=wle, crit_entries=ce, crit_lane_entries=cle,
    )


expected = M.expected  # the dispatcher's shared fill means what its fields mean


def cost(q: M.Profile, spec) -> KernelStats:
    """Hardware stats of a thread-per-column pass: a masked gather, or a
    scatter whose scanned entries each add an atomic store."""
    n, B, item, l2 = q.n_cols, q.B, q.dtype.itemsize, spec.l2_bytes
    df = W.dtype_cycle_factor(q.dtype)
    if q.scatter:  # only the further lanes run at the dtype's rate
        entry, crit_entry = _CYCLES_PER_ENTRY + _ATOMIC_CYCLES - df, _CRITICAL_CYCLES_PER_ENTRY - df
        # one coalesced B-wide x row per scanned entry; per-lane serial
        # atomic stores, thrashing-bounded like the gathers
        x_txn = W.bwide_gather_transactions(q.scanned, B, n, item, l2_bytes=l2)
        write_txn = W.scalar_gather_transactions(q.contrib, q.n_rows, 4, lanes=B, l2_bytes=l2)
        lane_loads = q.frontier_slots
    else:
        entry, crit_entry = df * (_CYCLES_PER_ENTRY - 1), df * (_CRITICAL_CYCLES_PER_ENTRY - 1)
        # one uncoalesced B-wide x row per scanned entry
        x_txn = W.scalar_gather_transactions(q.scanned, q.n_rows, item, lanes=B, l2_bytes=l2)
        write_txn = q.written * W.coalesced_transactions(B, q.out_dtype.itemsize)
        lane_loads = q.lane_entries
    return KernelStats(
        name="sccsc_spmm_scatter" if q.scatter else "sccsc_spmm",
        threads=n,
        # a warp retires at its slowest lane: divergence-weighted entries
        warp_cycles=entry * q.warp_entries + df * q.warp_lane_entries
        + _BASE_CYCLES * W.warp_count(n),
        # per-lane sequential scans: ~ceil(deg / 8) L1-line fills for row_A
        dram_read_bytes=(2 * W.coalesced_transactions(n) + q.lines + x_txn)
        * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=(2 * n + q.scanned) * 4 + lane_loads * item,
        # longest same-address atomic chain: a row's contributing entries
        serial_updates=q.chain if q.scatter else 0,
        critical_warp_cycles=crit_entry * q.crit_entries + df * q.crit_lane_entries,
        flops=q.lane_entries,
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
    return p.Y, M.launch(device, csc, p, profile, cost, tag)


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
    return p.Y, M.launch(device, csc, p, profile, cost, tag)
