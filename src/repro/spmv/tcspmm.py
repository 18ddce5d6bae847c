"""The tcSpMM kernel: blocked-bitmap SpMM on the (simulated) tensor cores.

Following the BFS-as-SpMM-on-MMA formulation of Elbek & Kaya (PAPERS.md),
the stored CSC is viewed through a 16x16 *tile directory*
(:meth:`CSCMatrix.tile_plan`): for every occupied tile the kernel

1. decodes the tile's stored entries into a dense 16x16 A-fragment,
2. loads the matching 16-row stripe of the frontier matrix as the
   B-fragment, and
3. issues ``ceil(B / 16)`` 16x16x16 MMA ops, accumulating into the output
   stripe's C-fragment.

Tiles whose column stripe is fully masked or whose row stripe holds no
frontier entry are skipped from the directory alone (the blocked-bitmap
pruning), so the MMA pipe only sees *active* tiles.  Each MMA op costs
``MMA_FLOPS_PER_OP`` dense flops against the spec's ``mma_tflops`` ceiling
no matter how sparse the tile: the counters' tile-fill occupancy
(``flops / (mma_ops * MMA_FLOPS_PER_OP / 2)``) is exactly the fraction of
that dense work which was useful.  The path therefore wins only on wide
batches over dense-frontier levels of clustered graphs -- which is when the
adaptive dispatcher picks it.

The modeled MMA pipe is dtype-agnostic (an A100-style double-precision
tensor pipe, scaled to this part); see DeviceSpec.mma_tflops for why this
is a documented simulated extension of the paper's Pascal card.

The *results* never touch a tensor-core numeric path: accumulation is the
same storage-order float64 ``bincount`` as every other kernel
(:mod:`repro.spmv._spmm`), so outputs are bit-identical to ``sccsc`` --
only the KernelStats (and so the modeled time) reflect the MMA execution.
"""

from __future__ import annotations

import numpy as np

from repro.formats.csc import CSCMatrix
from repro.gpusim.device import Device
from repro.gpusim.kernel import KernelLaunch, KernelStats
from repro.gpusim import warp as W
from repro.spmv import _spmm as M

#: Warp issue cycles per active tile: directory read, fragment zero-fill,
#: stripe bookkeeping and the C-fragment commit.
_TILE_BASE_CYCLES = 24
#: Issue cycles per stored entry decoded into the dense A-fragment.
_DECODE_CYCLES = 2
#: Warp cycles to issue one 16x16x16 MMA op (the op itself then runs on the
#: MMA pipe, modeled separately via ``KernelStats.mma_ops``).
_MMA_ISSUE_CYCLES = 8


def stripe_any(mask: np.ndarray, tile: int = W.MMA_TILE) -> np.ndarray:
    """Per-stripe OR of a boolean vector: ``out[s] = mask[s*tile:(s+1)*tile].any()``."""
    mask = np.asarray(mask, dtype=bool)
    if mask.size == 0:
        return np.zeros(0, dtype=bool)
    pad = (-mask.size) % tile
    if pad:
        mask = np.concatenate([mask, np.zeros(pad, dtype=bool)])
    return mask.reshape(-1, tile).any(axis=1)


def tile_stats(csc: CSCMatrix, row_ok: np.ndarray, col_ok: np.ndarray,
               chain_axis: str = "col") -> dict:
    """The active-tile :class:`~repro.spmv.Profile` fields: the occupied
    tiles with a row stripe in ``row_ok`` and a column stripe in ``col_ok``,
    their entries, the fullest one and the longest commit chain -- tiles
    sharing an output stripe (``chain_axis``: "col" for a gather, "row"
    for a scatter) commit their C-fragments in sequence.  One O(n + tiles)
    reduction over the cached tile directory."""
    t_row, t_col, t_cnt = csc.tile_plan(W.MMA_TILE)
    active = np.flatnonzero(col_ok[t_col] & row_ok[t_row])
    if not active.size:
        return dict(tiles=t_row.size)
    cnt = t_cnt[active]
    chain_of = t_col if chain_axis == "col" else t_row
    return dict(
        tiles=t_row.size, tiles_active=active.size, tile_entries=int(cnt.sum()),
        tile_max=int(cnt.max()), tile_chain=int(np.bincount(chain_of[active]).max()),
    )


def profile(csc: CSCMatrix, p: M.Product, l2_bytes: int) -> M.Profile:
    """Exact counts of a blocked pass.  The gather prunes tiles by the
    frontier's row stripes and the mask's column stripes; the scatter
    multiplies un-transposed, every tile with an active column stripe."""
    col_ok = stripe_any(p.lanes > 0)
    if p.scatter:
        row_ok = np.ones(-(-csc.n_rows // W.MMA_TILE), dtype=bool)
    else:
        row_ok = stripe_any(M.any_lane(p.X > 0))
    return M.Profile(
        **M.shape_of(csc, p), written=p.written,
        lane_hits=int(p.lanes[csc.column_of_nnz()[p.kept]].sum()),
        **tile_stats(csc, row_ok, col_ok, "row" if p.scatter else "col"),
    )


expected = M.expected  # the dispatcher's shared fill means what its fields mean


def cost(q: M.Profile, spec) -> KernelStats:
    """Hardware stats of a blocked pass over the active tiles (gather or
    scatter alike)."""
    B, item, n = q.B, q.dtype.itemsize, q.n_cols
    per_tile = _TILE_BASE_CYCLES + -(-B // W.MMA_TILE) * _MMA_ISSUE_CYCLES
    mask_words = n * B if q.masked else 0
    return KernelStats(
        name="tcspmm_spmm_scatter" if q.scatter else "tcspmm_spmm",
        threads=q.tiles_active * W.WARP_SIZE,
        warp_cycles=q.tiles_active * per_tile + q.tile_entries * _DECODE_CYCLES,
        dram_read_bytes=(
            W.coalesced_transactions(3 * q.tiles)           # tile directory
            + W.coalesced_transactions(q.tile_entries)      # decoded entries
            + W.bwide_gather_transactions(q.tiles_active * W.MMA_TILE, B, q.n_rows,
                                          item, l2_bytes=spec.l2_bytes)
            + W.coalesced_transactions(mask_words)
            + W.coalesced_transactions(q.n_rows) + W.coalesced_transactions(n)
        ) * W.TRANSACTION_BYTES,
        dram_write_bytes=q.written * W.coalesced_transactions(B, q.out_dtype.itemsize)
        * W.TRANSACTION_BYTES,
        requested_load_bytes=(3 * q.tiles + q.tile_entries + mask_words) * 4
        + q.tiles_active * W.MMA_TILE * B * item,
        critical_warp_cycles=q.tile_chain * per_tile + q.tile_max * _DECODE_CYCLES,
        flops=q.lane_hits,
        mma_ops=W.mma_ops_for_tiles(q.tiles_active, B),
    )


def tcspmm_spmm(
    device: Device,
    csc: CSCMatrix,
    X: np.ndarray,
    *,
    allowed: np.ndarray | None = None,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Masked gather product ``Y = A^T X`` on the blocked path.

    Wide batches are the kernel's home regime: B frontier lanes fill the
    MMA operand, so each active tile amortises its decode over
    ``ceil(B/16)`` dense ops.  A single frontier vector (``B = 1``) fills
    one of 16 operand lanes, so tile-fill is poor by construction -- the
    dispatcher only reaches for it on wide batches, but the static
    ``tcspmm`` algorithm and the conformance configs run it everywhere.
    """
    p = M.gather_product(csc, X, allowed, out_dtype)
    return p.Y, M.launch(device, csc, p, profile, cost, tag)


def tcspmm_spmm_scatter(
    device: Device,
    csc: CSCMatrix,
    X: np.ndarray,
    *,
    out_dtype=None,
    tag: str = "",
) -> tuple[np.ndarray, KernelLaunch]:
    """Scatter product ``Y = A X`` on the blocked path: tiles with an active
    column stripe multiply un-transposed, committing into row stripes."""
    p = M.scatter_product(csc, X, out_dtype)
    return p.Y, M.launch(device, csc, p, profile, cost, tag)
