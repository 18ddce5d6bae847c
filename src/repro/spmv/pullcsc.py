"""The pullCSC kernel: direction-optimised (bottom-up) masked SpMV.

The push kernels expand the frontier outward: every undiscovered column's
scan gathers frontier *values* -- one uncoalesced ``x`` load per stored
entry.  The pull formulation (Beamer's bottom-up BFS, in linear-algebra
form) keeps the same thread-per-column loop but probes a packed frontier
*bitmap* instead::

    build bitmap: bit r set iff x[r] > 0          # fused coalesced pass
    if sigma[i] == 0:                             # the fused mask
        for k in CP_A[i] .. CP_A[i+1]-1:          # phase 1: discovery
            if bitmap[row_A[k]]: break            # early exit on first parent
        else: return                              # no frontier parent
        for k in CP_A[i] .. CP_A[i+1]-1:          # phase 2: sigma accumulation
            if bitmap[row_A[k]]: sum += x[row_A[k]]
        y[i] = sum

Two structural effects make pull win on dense mid-BFS frontiers:

* the ``n/8``-byte bitmap is L2-resident, so phase-1 probes cost issue
  cycles but almost no DRAM -- the expensive scattered ``x`` gathers shrink
  from *every scanned entry* (push) to the contributing entries only;
* the early exit caps the discovery scan at the first frontier parent --
  on a dense frontier that is O(1) probes per column instead of the full
  degree, and sequential ``row_A`` probes prefetch well, so far less load
  latency survives on a hub column's critical path than the push kernels'
  dependent-gather chain.

BC needs *all* parents' sigma (not just reachability), so discovered
columns re-scan in phase 2 -- the early exit only prunes the columns that
turn out to have no frontier parent this level.  Pull loses when the
frontier is sparse (phase 1 rarely exits early, and the O(n) bitmap build
is pure overhead) -- exactly the levels the dispatcher keeps on push.

The accumulation is the same storage-order float64 ``bincount`` as every
other kernel (:mod:`repro.spmv._spmm`), so results are bit-identical to
``sccsc``; only the KernelStats differ.

The batched form probes a B-lane bitmap (one packed word per entry covers
every lane at once) and gathers the B-wide frontier row only for entries
active in at least one lane: a column early-exits once *any* lane finds a
frontier parent, and per-lane decisions resolve in phase 2's masked
accumulation.  ``B = 1`` is the SpMV.
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
#: Issue cycles per bitmap probe (load row index, test one bit).
_PROBE_CYCLES = 2
#: Issue cycles per contributing entry (gather x, accumulate).
_GATHER_CYCLES = 3
#: Issue cycles per frontier word of the fused bitmap-build pass.
_BITMAP_BUILD_CYCLES = 2
#: Critical-path cycles per probed entry on the slowest lane: sequential
#: ``row_A`` probes prefetch, so only ~2 latency cycles survive pipelining
#: on top of the issue cost (the push kernels' dependent gathers keep 12).
_CRITICAL_PROBE_CYCLES = 4
#: Critical-path cycles per contributing gather (same dependent-load chain
#: as the push kernels).
_CRITICAL_GATHER_CYCLES = 12


def first_hit_probes(
    csc: CSCMatrix, allowed: np.ndarray, active_rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Structure-exact phase-1 probe counts per column.

    ``probe[c]`` is the number of entries column ``c``'s discovery loop
    scans before the early exit: the storage-order position of the first
    entry whose row is in ``active_rows`` (plus one), or the full degree if
    the column has no frontier parent.  Masked columns probe nothing.
    ``discovered[c]`` marks the columns phase 2 re-scans.
    """
    deg = csc.column_counts().astype(np.int64)
    probe = np.where(allowed, deg, 0)
    discovered = np.zeros(csc.n_cols, dtype=bool)
    if csc.nnz == 0:
        return probe, discovered
    col_of = csc.column_of_nnz()
    hit_idx = np.flatnonzero(active_rows[csc.row] & allowed[col_of])
    if hit_idx.size:
        cols_hit = col_of[hit_idx]
        first = np.ones(cols_hit.size, dtype=bool)
        first[1:] = cols_hit[1:] != cols_hit[:-1]
        first_cols = cols_hit[first]
        probe[first_cols] = hit_idx[first] - csc.col_ptr[first_cols] + 1
        discovered[first_cols] = True
    return probe, discovered


def _pullcsc_stats(
    csc: CSCMatrix,
    p: M.Product,
    write_txn: int,
    name: str,
    l2_bytes: int,
) -> KernelStats:
    """Hardware stats for a masked bottom-up (pull) gather pass.

    The unmasked full product has no discovery decision, so every column
    scans once with no phase-1 loop.
    """
    B, lanes = p.B, p.lanes
    x_itemsize = p.dtype.itemsize
    dtype_factor = W.dtype_cycle_factor(p.dtype)
    n = csc.n_cols
    n_rows = csc.n_rows
    deg = csc.column_counts().astype(np.int64)
    allowed = lanes > 0
    active_rows = M.any_lane(p.X > 0)
    if p.masked:
        probe, discovered = first_hit_probes(csc, allowed, active_rows)
        rescan = np.where(discovered, deg, 0)
    else:
        probe = np.where(allowed, deg, 0)
        rescan = np.zeros(n, dtype=np.int64)
    scanned = probe + rescan
    total_scanned = int(scanned.sum())

    # Contributing entries (bitmap hits): the only scattered x gathers.
    contrib_per_col = np.bincount(
        csc.column_of_nnz()[p.kept], minlength=n).astype(np.int64)
    total_contrib = int(p.kept.size)

    bitmap_words = -(-n_rows * B // 32)
    row_txn = int(np.sum((scanned + 7) // 8))
    probe_txn = W.capped_random_transactions(
        total_scanned, bitmap_words, 4, l2_bytes=l2_bytes
    )
    x_txn = W.bwide_gather_transactions(
        total_contrib, B, n_rows, x_itemsize, l2_bytes=l2_bytes
    )
    ptr_txn = 2 * W.coalesced_transactions(n)
    # Fused bitmap build: one coalesced sweep of the frontier, packed writes.
    build_txn = W.coalesced_transactions(n_rows * B, x_itemsize) + W.coalesced_transactions(
        bitmap_words
    )

    gathers = contrib_per_col * lanes * dtype_factor
    warp_cycles = W.divergent_warp_cycles(
        scanned * _PROBE_CYCLES + gathers * _GATHER_CYCLES, base_cycles=_BASE_CYCLES
    ) + W.uniform_warp_cycles(n_rows * B, _BITMAP_BUILD_CYCLES)
    critical = W.max_warp_cycles(
        scanned * _CRITICAL_PROBE_CYCLES + gathers * _CRITICAL_GATHER_CYCLES
    )
    return KernelStats(
        name=name,
        threads=n,
        warp_cycles=warp_cycles,
        dram_read_bytes=(ptr_txn + row_txn + probe_txn + x_txn + build_txn)
        * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=(2 * n + n * B + 2 * total_scanned) * 4
        + (n_rows * B + total_contrib * B) * x_itemsize,
        critical_warp_cycles=critical,
        flops=total_contrib * B,
    )


def pullcsc_spmm(
    device: Device,
    csc: CSCMatrix,
    X: np.ndarray,
    *,
    allowed: np.ndarray | None = None,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Masked gather product ``Y = A^T X`` with the pull (bottom-up) kernel.

    ``allowed`` is the fused mask (the forward stage passes ``sigma == 0``);
    with a mask the two-phase early-exit discovery model applies.  ``None``
    processes every column in a single pass (the backward stage's unmasked
    product -- still a pull win: bitmap probes instead of scattered loads
    for the zero-heavy dependency matrix).
    """
    p = M.gather_product(csc, X, allowed, out_dtype)
    write_txn = p.written * W.coalesced_transactions(p.B, p.out_dtype.itemsize)
    stats = _pullcsc_stats(csc, p, write_txn, "pullcsc_spmm", device.spec.l2_bytes)
    return p.Y, device.launch(stats, tag=tag)


def pullcsc_spmm_scatter(
    device: Device,
    csc: CSCMatrix,
    X: np.ndarray,
    *,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Scatter product ``Y = A X`` pulled through the rows.

    The pull formulation of the backward digraph product: one thread *owns*
    each output row, scans the row's stored entries and gathers the B-wide
    frontier row where the active-column bitmap hits.  Because every output
    location has a single owner there is no atomic chain at all -- the
    structural advantage over the push scatter kernels on hub rows.
    """
    p = M.scatter_product(csc, X, out_dtype)
    n = csc.n_cols
    B = p.B
    row_deg = csc.row_counts()
    contrib_per_row = np.bincount(csc.row[p.kept], minlength=csc.n_rows).astype(np.int64)
    n_contrib = int(p.kept.size)
    dtype_factor = W.dtype_cycle_factor(p.dtype)
    item = p.dtype.itemsize
    l2 = device.spec.l2_bytes
    bitmap_words = -(-n * B // 32)
    total = int(row_deg.sum())
    gathers = contrib_per_row * B * dtype_factor
    stats = KernelStats(
        name="pullcsc_spmm_scatter",
        threads=csc.n_rows,
        warp_cycles=W.divergent_warp_cycles(
            row_deg * _PROBE_CYCLES + gathers * _GATHER_CYCLES,
            base_cycles=_BASE_CYCLES,
        )
        + W.uniform_warp_cycles(n * B, _BITMAP_BUILD_CYCLES),
        dram_read_bytes=(
            2 * W.coalesced_transactions(csc.n_rows)
            + int(np.sum((row_deg + 7) // 8))
            + W.capped_random_transactions(total, bitmap_words, 4, l2_bytes=l2)
            + W.scalar_gather_transactions(n_contrib, n, item, lanes=B, l2_bytes=l2)
            + W.coalesced_transactions(n * B, item)
            + W.coalesced_transactions(bitmap_words)
        )
        * W.TRANSACTION_BYTES,
        # each row's owner stores its B-wide row: coalesced across the warp
        dram_write_bytes=W.coalesced_transactions(
            int(np.count_nonzero(contrib_per_row)) * B, item
        )
        * W.TRANSACTION_BYTES,
        requested_load_bytes=(2 * csc.n_rows + 2 * total) * 4
        + (n * B + n_contrib * B) * item,
        critical_warp_cycles=W.max_warp_cycles(
            row_deg * _CRITICAL_PROBE_CYCLES + gathers * _CRITICAL_GATHER_CYCLES
        ),
        flops=n_contrib * B,
    )
    return p.Y, device.launch(stats, tag=tag)
