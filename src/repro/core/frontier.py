"""The non-SpMV kernels of the TurboBC pipeline (Figure 2).

Besides the SpMV, each BFS level launches one elementwise *update* kernel
(mask + ``S``/``sigma`` update + convergence flag), and each backward level
launches a ``delta_u`` builder and a ``delta`` updater; one final kernel
accumulates ``bc``.  They are all O(n) streaming kernels; their cost is what
makes deep BFS trees slow (the luxembourg road network pays ~1000 of them
per source), so they are modeled here with the same transaction accounting
as the SpMVs.
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.device import Device
from repro.gpusim.kernel import KernelLaunch, KernelStats
from repro.gpusim import warp as W

#: Issue cycles per thread of a simple streaming kernel.
_STREAM_CYCLES = 3


def _stream_stats(
    name: str,
    n: int,
    *,
    read_words: int,
    sparse_writes: np.ndarray | None = None,
    dense_write_words: int = 0,
    extra_cycles: int = 0,
) -> KernelStats:
    """Stats for a one-thread-per-vertex streaming kernel.

    ``read_words`` counts coalesced 4-byte loads; sparse writes (only the
    touched vertices) are transaction-counted from their indices.
    """
    write_txn = W.coalesced_transactions(dense_write_words)
    if sparse_writes is not None and sparse_writes.size:
        write_txn += W.gather_transactions(sparse_writes)
    return KernelStats(
        name=name,
        threads=n,
        warp_cycles=W.uniform_warp_cycles(n, _STREAM_CYCLES) + extra_cycles,
        dram_read_bytes=W.coalesced_transactions(read_words) * W.TRANSACTION_BYTES,
        dram_write_bytes=write_txn * W.TRANSACTION_BYTES,
        requested_load_bytes=read_words * 4,
    )


def _flat(a: np.ndarray) -> np.ndarray:
    """Row-major flat *view* of a C-contiguous ``(n, B)`` array, so element
    updates through flat positions land in the array itself."""
    if not a.flags.c_contiguous:
        raise ValueError("frontier/dependency arrays must be C-contiguous")
    return a.reshape(-1)


def init_sources_kernel(
    device: Device, n: int, batch: int, *, tag: str = ""
) -> KernelLaunch:
    """Batched lines 15-18: ``F[s_j, j] = 1``, ``Sigma[s_j, j] = 1``."""
    stats = KernelStats(
        name="bfs_init",
        threads=batch,
        warp_cycles=2 * W.warp_count(batch),
        dram_write_bytes=2 * batch * W.TRANSACTION_BYTES,
        requested_load_bytes=0,
    )
    return device.launch(stats, tag=tag)


def frontier_update_batch_kernel(
    device: Device,
    Ft: np.ndarray,
    Sigma: np.ndarray,
    S: np.ndarray,
    depth: int,
    *,
    masked_spmv: bool,
    tag: str = "",
) -> tuple[np.ndarray, np.ndarray, KernelLaunch]:
    """Batched lines 20-27: mask, depth stamp, sigma update, per-lane flags.

    Operates on ``(n, B)`` arrays -- one BFS lane per column.  Drained lanes
    have all-zero frontier columns, so the elementwise update is a no-op for
    them; every touched element gets the same update as in a ``B = 1`` run
    (same expressions, same dtypes).  Returns the new frontier matrix, the
    per-lane count of newly discovered vertices (the convergence bitmap is
    ``counts > 0``), and the launch record.
    """
    n, B = Sigma.shape
    if masked_spmv:
        F = Ft  # the SpMM produced zeros on discovered vertices already
    else:
        F = np.where(Sigma == 0, Ft, Ft.dtype.type(0))
    touched = F != 0
    flat = np.flatnonzero(touched)  # row-major element positions
    if flat.size:
        _flat(S)[flat] = depth
        _flat(Sigma)[flat] += _flat(F)[flat]
    new_per_lane = np.count_nonzero(touched, axis=0)
    read_words = n * B if masked_spmv else 2 * n * B
    stats = _stream_stats(
        "bfs_update",
        n * B,
        read_words=read_words,
        sparse_writes=flat,
        extra_cycles=2 * flat.size,  # sigma read-modify-write lanes
    )
    # S and Sigma writes double the sparse write traffic.
    stats = stats.merge(
        KernelStats(
            name="bfs_update",
            dram_write_bytes=(W.gather_transactions(flat) if flat.size else 0)
            * W.TRANSACTION_BYTES,
        )
    )
    return F, new_per_lane, device.launch(stats, tag=tag)


def delta_u_batch_kernel(
    device: Device,
    S: np.ndarray,
    Sigma: np.ndarray,
    Delta: np.ndarray,
    depth: int,
    *,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Batched lines 32-36 on the ``(n, B)`` depth-d slice.

    Lanes whose BFS tree is shorter than ``depth`` select nothing (their
    ``S`` column never reaches it), so a batch walks down from the deepest
    lane with shallow lanes riding along as exact no-ops.
    """
    flat = np.flatnonzero((S == depth) & (Sigma > 0))
    Delta_u = np.zeros_like(Delta)
    if flat.size:
        _flat(Delta_u)[flat] = (1.0 + _flat(Delta)[flat]) / _flat(Sigma)[flat]
    n, B = Sigma.shape
    stats = _stream_stats(
        "delta_u",
        n * B,
        read_words=3 * n * B,  # S, Sigma, Delta
        sparse_writes=flat,
        extra_cycles=4 * flat.size,  # FP divide lanes
    )
    stats.flops = flat.size
    return Delta_u, device.launch(stats, tag=tag)


def delta_update_batch_kernel(
    device: Device,
    S: np.ndarray,
    Sigma: np.ndarray,
    Delta: np.ndarray,
    Delta_ut: np.ndarray,
    depth: int,
    *,
    tag: str = "",
) -> KernelLaunch:
    """Batched lines 38-40: ``Delta += Delta_ut * Sigma`` on the depth-(d-1)
    slice.  Mutates ``Delta`` in place."""
    flat = np.flatnonzero(S == (depth - 1))
    if flat.size:
        _flat(Delta)[flat] += _flat(Delta_ut)[flat] * _flat(Sigma)[flat]
    n, B = Sigma.shape
    stats = _stream_stats(
        "delta_update",
        n * B,
        read_words=4 * n * B,  # S, Sigma, Delta, Delta_ut
        sparse_writes=flat,
        extra_cycles=2 * flat.size,
    )
    stats.flops = 2 * flat.size
    return device.launch(stats, tag=tag)


def bc_update_batch_kernel(
    device: Device,
    bc: np.ndarray,
    Delta: np.ndarray,
    sources,
    *,
    undirected: bool,
    skip: np.ndarray | None = None,
    tag: str = "",
) -> KernelLaunch:
    """Batched lines 43-47: fold every batch lane's ``delta`` into ``bc``.

    Lanes are accumulated *in batch order*, one source at a time, so the
    float32 accumulation into ``bc`` matches a ``B = 1`` run bit for bit.  ``skip`` masks out lanes whose sigma
    overflowed (their re-run accumulates instead).
    """
    n = bc.size
    scale = 0.5 if undirected else 1.0
    folded = 0
    for j, s in enumerate(sources):
        if skip is not None and skip[j]:
            continue
        saved = bc[s]
        bc += scale * Delta[:, j]
        bc[s] = saved
        folded += 1
    stats = _stream_stats(
        "bc_update",
        n * max(folded, 1),
        read_words=2 * n * folded,  # bc, Delta column
        dense_write_words=n * folded,
        extra_cycles=n * folded,
    )
    stats.flops = n * folded
    return device.launch(stats, tag=tag)


def level_density(frontier: np.ndarray, sigma: np.ndarray) -> dict:
    """Both sides of a level's density: the frontier and the unvisited set.

    Direction-optimizing traversal (DESIGN.md §12) needs *two* densities to
    reason about a level: the frontier fraction (push cost is proportional
    to the frontier's out-edges) and the unvisited fraction (pull cost is
    proportional to the unvisited side's in-edges).  The PR 4 accounting
    reported only ``frontier_size``; per-level spans now carry both sides
    so perf reports can attribute *why* a direction won.

    Works for the per-source vectors and the batched ``(n, B)`` matrices
    alike -- the fractions are taken over all elements, so a batched level
    reports the lane-averaged densities (``sigma.size == n * B``).
    """
    total = int(sigma.size)
    frontier_size = int(np.count_nonzero(frontier))
    unvisited = total - int(np.count_nonzero(sigma))
    return {
        "frontier_size": frontier_size,
        "frontier_frac": round(frontier_size / max(total, 1), 6),
        "unvisited": unvisited,
        "unvisited_frac": round(unvisited / max(total, 1), 6),
    }
