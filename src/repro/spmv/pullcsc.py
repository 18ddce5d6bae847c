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

from dataclasses import replace

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
    hit_idx = M.entries(csc, active_rows, dst_select=allowed)
    if hit_idx.size:
        cols_hit = csc.column_of_nnz()[hit_idx]
        first = np.ones(cols_hit.size, dtype=bool)
        first[1:] = cols_hit[1:] != cols_hit[:-1]
        first_cols = cols_hit[first]
        probe[first_cols] = hit_idx[first] - csc.col_ptr[first_cols] + 1
        discovered[first_cols] = True
    return probe, discovered


def profile(csc: CSCMatrix, p: M.Product, l2_bytes: int) -> M.Profile:
    """Exact counts of a pull pass.

    The gather's threads are columns: with a mask, the two-phase early-exit
    discovery model applies; the unmasked full product has no discovery
    decision, so every column scans once with no phase-1 loop.  The
    scatter's threads are rows, each scanning all its entries.  Lane
    entries are the contributing (bitmap-hit) gathers, the only scattered
    ``x`` loads.
    """
    df = W.dtype_cycle_factor(p.dtype)
    if p.scatter:
        scanned = csc.row_counts()
        contrib = np.bincount(csc.row[p.kept], minlength=csc.n_rows).astype(np.int64)
        gathers = contrib * p.B
        written = int(np.count_nonzero(contrib))
    else:
        deg = csc.column_counts().astype(np.int64)
        allowed = p.lanes > 0
        if p.masked:
            probe, discovered = first_hit_probes(csc, allowed, M.any_lane(p.X > 0))
            scanned = probe + np.where(discovered, deg, 0)
        else:
            scanned = np.where(allowed, deg, 0)
        contrib = np.bincount(csc.column_of_nnz()[p.kept], minlength=csc.n_cols)
        gathers = contrib.astype(np.int64) * p.lanes
        written = p.written
    (we, wle), (ce, cle) = (
        M.warp_sums(scanned * _PROBE_CYCLES + gathers * df * _GATHER_CYCLES,
                    scanned, gathers),
        M.at_slowest(scanned * _CRITICAL_PROBE_CYCLES
                     + gathers * df * _CRITICAL_GATHER_CYCLES, scanned, gathers))
    return M.Profile(
        **M.shape_of(csc, p), scanned=int(scanned.sum()),
        lines=int(np.sum((scanned + 7) // 8)), contrib=int(p.kept.size),
        written=written, warp_entries=we, warp_lane_entries=wle,
        crit_entries=ce, crit_lane_entries=cle,
    )


def expected(csc, q: M.Profile, lv, *, divergence: float, l2_bytes: int) -> M.Profile:
    """Expected counts from the dispatcher's shared fill ``q``: a masked
    gather's phase 1 stops ``~1 / p`` entries in (``p`` the frontier
    density) and its discovered columns rescan from a new line; a scatter's
    threads are the rows.  Lane entries are the contributing gathers."""
    lanes = q.lanes / max(q.active_threads, 1)
    probes, lines, top = q.scanned, q.lines, q.crit_entries
    p = lv.nnz_x / max(q.n_cols, 1)
    if q.scatter:
        rowdeg = csc.row_counts()
        probes, lines, lanes = q.nnz, int(((rowdeg + 7) >> 3).sum()), q.B
        top = int(rowdeg.max()) if rowdeg.size else 0
    elif q.masked and p > 0:
        avg = q.scanned / max(q.active_threads, 1)
        probes = q.active_threads * min(avg, 1.0 / p) + q.written * avg
        lines = q.lines + q.written
    return replace(q, scanned=probes, lines=lines,
                   warp_entries=divergence * probes / W.WARP_SIZE,
                   warp_lane_entries=divergence * q.contrib * lanes / W.WARP_SIZE,
                   crit_entries=top, crit_lane_entries=q.chain * lanes)


def cost(q: M.Profile, spec) -> KernelStats:
    """Hardware stats of a pull pass: the threads scan their entries probing
    the frontier bitmap, built by a fused coalesced pass over the frontier,
    and gather the contributing B-wide rows.  The gather's threads are the
    columns; the scatter's own the rows, so it has no atomic chain and its
    B-wide row stores coalesce."""
    B, item, df, l2 = q.B, q.dtype.itemsize, W.dtype_cycle_factor(q.dtype), spec.l2_bytes
    if q.scatter:
        threads, x_rows, mask_words = q.n_rows, q.n_cols, 0
        x_txn = W.scalar_gather_transactions(q.contrib, x_rows, item, lanes=B, l2_bytes=l2)
        write_txn = W.coalesced_transactions(q.written * B, item)
    else:
        threads, x_rows, mask_words = q.n_cols, q.n_rows, q.n_cols * B
        x_txn = W.bwide_gather_transactions(q.contrib, B, x_rows, item, l2_bytes=l2)
        write_txn = q.written * W.coalesced_transactions(B, q.out_dtype.itemsize)
    bitmap_words = -(-x_rows * B // 32)
    return KernelStats(
        name="pullcsc_spmm_scatter" if q.scatter else "pullcsc_spmm",
        threads=threads,
        warp_cycles=_PROBE_CYCLES * q.warp_entries
        + _GATHER_CYCLES * df * q.warp_lane_entries
        + _BASE_CYCLES * W.warp_count(threads)
        + W.uniform_warp_cycles(x_rows * B, _BITMAP_BUILD_CYCLES),
        dram_read_bytes=(
            2 * W.coalesced_transactions(threads) + q.lines
            + W.capped_random_transactions(q.scanned, bitmap_words, 4, l2_bytes=l2)
            + x_txn
            + W.coalesced_transactions(x_rows * B, item)
            + W.coalesced_transactions(bitmap_words)
        ) * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=(2 * threads + mask_words + 2 * q.scanned) * 4
        + (x_rows * B + q.contrib * B) * item,
        critical_warp_cycles=_CRITICAL_PROBE_CYCLES * q.crit_entries
        + _CRITICAL_GATHER_CYCLES * df * q.crit_lane_entries,
        flops=q.contrib * B,
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
    return p.Y, M.launch(device, csc, p, profile, cost, tag)


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
    return p.Y, M.launch(device, csc, p, profile, cost, tag)
