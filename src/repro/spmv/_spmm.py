"""Shared numerics of the sparse-product kernels.

Every kernel multiplies the stored adjacency structure by an ``n x B``
frontier *matrix* -- one column per BFS source; the per-source SpMV of the
paper is the ``B = 1`` case.  The kernels differ only in their hardware
cost model, never in their results, so the numerics live here once:

* :func:`segment_sums` gathers the source rows of the contributing stored
  entries and accumulates them into their destinations with one
  ``np.bincount`` per lane, sequentially in storage (column-major) order
  and **in float64** -- the accumulation order of the CUDA kernels' per-
  source reductions, and the same for every B, so a lane of a batched
  product is bit-identical to that source's B = 1 product (``np.add.
  reduceat`` would not do: its float64 inner loop sums pairwise for
  segments longer than a few entries and rounds differently on real-valued
  backward frontiers);
* only the entries of non-zero source rows contribute (adding an exact
  zero to a float64 accumulation is a bit-exact no-op), and :func:`entries`
  finds them through a compressed index on the source side instead of
  scanning all ``m``: a scatter's sources are columns, whose entries are
  their ``col_ptr`` ranges; a gather's are rows, whose entries the
  matrix's cached ``row_index()`` lists.  A level costs O(frontier rows +
  their entries + k log k) for k contributing entries, and its working set
  is O(k x B), not O(nnz);
* ``kept``, the contributing entries' storage positions, is ascending --
  exactly the positions a full scan in storage order would keep.  The
  gather's row-grouped candidates are sorted back into that order, because
  the cost models walk ``kept`` in order (warps, atomic runs) and the
  bincount accumulation order fixes the bits;
* gather (``y[c] += x[r]``), scatter (``y[r] += x[c]``) and the COOC
  format are the same reduction with the roles of the two index arrays
  swapped -- bincount accumulates in input order, so the scatter needs no
  row-sorted traversal plan to reproduce the storage order.

:func:`gather_product`, :func:`push_product` and :func:`scatter_product`
wrap the reduction with the kernels' masking and output-cast conventions
and return a :class:`Product`.  Each kernel reduces a Product to the
scalar counts of a :class:`Profile` and prices it with its one cost
formula, ``cost(profile, spec) -> KernelStats`` (a gather and a scatter
arm); the adaptive dispatcher prices the same formulas over *expected*
profiles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpusim import warp as W


def as_frontier_matrix(X: np.ndarray, n_rows: int) -> np.ndarray:
    """Validate an ``(n_rows, B)`` frontier matrix with ``B >= 1``."""
    X = np.asarray(X)
    if X.ndim != 2 or X.shape[0] != n_rows or X.shape[1] < 1:
        raise ValueError(
            f"frontier matrix must have shape ({n_rows}, B >= 1), got {X.shape}"
        )
    return X


def check_allowed_matrix(allowed, n_cols: int, B: int) -> np.ndarray:
    """Validate a per-(column, lane) boolean mask of shape ``(n_cols, B)``."""
    allowed = np.asarray(allowed)
    if allowed.shape != (n_cols, B) or allowed.dtype != bool:
        raise ValueError(f"allowed must be a boolean mask of shape ({n_cols}, {B})")
    return allowed


def any_lane(M: np.ndarray) -> np.ndarray:
    """Per-row ``M != 0`` over all lanes (a plain compare at ``B = 1``)."""
    return M[:, 0] != 0 if M.shape[1] == 1 else M.any(axis=1)


def ranges(ptr: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """Positions ``ptr[s] .. ptr[s + 1] - 1`` of every index ``s`` in ``sel``,
    concatenated in ``sel``'s order, in ``ptr``'s dtype: O(len(sel) +
    positions), whatever the size of the array ``ptr`` indexes into."""
    hi = ptr[1:][sel]
    count = hi - ptr[sel]
    ends = count.cumsum(dtype=count.dtype)
    pos = np.arange(ends[-1] if ends.size else 0, dtype=ptr.dtype)
    # each range's offsets in the output shifted to its place in the array
    pos += (hi - ends).repeat(count)
    return pos


def entries(mat, active: np.ndarray, *, scatter: bool = False,
            dst_select: np.ndarray | None = None) -> np.ndarray:
    """Storage positions, ascending, of the stored entries whose *source*
    index is ``active`` and whose destination is in ``dst_select`` (bool per
    destination, ``None`` keeps all).

    The source is the column for the scatter ``Y = A X`` and the row for
    the gather ``Y = A^T X``.  Only the active sources' entries are visited:
    a column's are its ``col_ptr`` range, already in storage order; a row's
    come from the matrix's cached :meth:`row_index` and are sorted back into
    storage order.  O(active sources + their entries + k log k), not O(m),
    and int32 like the stored indices.
    """
    src = active.nonzero()[0]
    if scatter:
        pos, dst_idx = ranges(mat.col_ptr, src), mat.row
    else:
        row_ptr, order = mat.row_index()
        pos, dst_idx = order[ranges(row_ptr, src)], mat.column_of_nnz()
    if dst_select is not None:
        pos = pos[dst_select[dst_idx[pos]]]
    if not scatter:
        pos.sort()
    return pos


def segment_sums(
    X: np.ndarray,
    mat,
    *,
    scatter: bool = False,
    dst_select: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``sums[d, j] = sum of X[s, j] over the stored entries from source s to
    destination d`` -- for the gather ``Y = A^T X`` an entry ``(r, c)`` runs
    from row ``r`` to column ``c``, for the scatter ``Y = A X`` from ``c`` to
    ``r``.

    ``dst_select`` (bool per destination) drops whole destinations, whose
    sums read zero.  Returns the ``(n_out, B)`` float64 sums and ``kept``:
    the storage positions of the entries that carried a non-zero source row
    to a selected destination, in storage order (:func:`entries`) -- the
    contributing entries the kernels' cost models count.
    """
    src_idx, dst_idx, n_out = ((mat.column_of_nnz(), mat.row, mat.n_rows) if scatter
                               else (mat.row, mat.column_of_nnz(), mat.n_cols))
    B = X.shape[1]
    kept = entries(mat, any_lane(X), scatter=scatter, dst_select=dst_select)
    sums = np.zeros((B, n_out), dtype=np.float64)
    if kept.size:
        # bincount's index type, converted once rather than once per lane
        dst, src = dst_idx[kept].astype(np.intp), src_idx[kept]
        # a contiguous row per lane; converted to float64 up front when the
        # kept entries outnumber the rows (each row is then gathered again
        # and again), left in the frontier's dtype otherwise
        lanes = X.T if B == 1 else np.ascontiguousarray(
            X.T, dtype=np.float64 if kept.size > X.shape[0] else None)
        for j in range(B):
            # bincount sums its weights in input order, in float64
            sums[j] = np.bincount(dst, weights=lanes[j][src], minlength=n_out)
    return sums.T, kept


def cast_output(sums: np.ndarray, out_dtype, *, positive_only: bool) -> np.ndarray:
    """Cast the float64 accumulator to the kernel output dtype.

    ``positive_only`` reproduces the gather kernels' ``sum > 0`` write
    sparsity (scatter kernels store every accumulated row).  Int overflow is
    allowed to wrap exactly as in the CUDA kernels -- the sigma check
    surfaces it.
    """
    if positive_only:
        sums = np.where(sums > 0, sums, 0.0)
    with np.errstate(invalid="ignore"):
        return sums.astype(out_dtype, order="C")


@dataclass
class Product:
    """One computed sparse product and the facts its cost model reads.

    ``lanes[c]`` is the number of batch lanes stored column ``c`` is
    processed for: its allowed lanes for a gather (``B`` when unmasked),
    its positive frontier lanes for a scatter.  ``kept`` are the storage
    positions of the contributing entries (see :func:`segment_sums`) and
    ``written`` the number of output rows the kernel stores.
    """

    Y: np.ndarray
    X: np.ndarray
    lanes: np.ndarray
    kept: np.ndarray
    written: int
    allowed: np.ndarray | None = None
    #: True for the scatter ``Y = A X``, False for the gather ``Y = A^T X``.
    scatter: bool = False

    @property
    def masked(self) -> bool:
        return self.allowed is not None

    @property
    def B(self) -> int:
        return self.X.shape[1]

    @property
    def dtype(self) -> np.dtype:
        return self.X.dtype

    @property
    def out_dtype(self) -> np.dtype:
        return self.Y.dtype

    def lane_hits(self, src_idx: np.ndarray, dst_idx: np.ndarray) -> int:
        """(entry, lane) pairs that add a non-zero value to an allowed slot."""
        if self.B == 1:
            return int(self.kept.size)
        hits = self.X[src_idx[self.kept]] != 0
        if self.allowed is not None:
            hits &= self.allowed[dst_idx[self.kept]]
        return int(np.count_nonzero(hits))


def gather_product(mat, X, allowed=None, out_dtype=None) -> Product:
    """The masked gather ``Y = A^T X`` (``Y[c] = sum over entries (r, c) of X[r]``).

    ``mat`` is a CSC or COOC matrix.  ``allowed`` is the fused
    per-(column, lane) mask (``None`` processes every column): a column is
    scanned once if *any* lane allows it, and disallowed slots read zero.
    Only positive sums are written (Algorithm 3's ``if sum > 0``).
    """
    X = as_frontier_matrix(X, mat.n_rows)
    n, B = mat.n_cols, X.shape[1]
    col_select = None
    if allowed is None:
        lanes = np.full(n, B, dtype=np.int64)
    else:
        allowed = check_allowed_matrix(allowed, n, B)
        col_select = any_lane(allowed)
        lanes = allowed[:, 0].astype(np.int64) if B == 1 else allowed.sum(
            axis=1, dtype=np.int64)
    sums, kept = segment_sums(X, mat, dst_select=col_select)
    if allowed is not None and B > 1:
        sums[~allowed] = 0.0
    Y = cast_output(sums, out_dtype or X.dtype, positive_only=True)
    written = int(np.count_nonzero(any_lane(sums > 0)))
    return Product(Y, X, lanes, kept, written, allowed)


def push_product(mat, X, out_dtype=None, *, scatter: bool = False) -> Product:
    """``Y[d] = sum of the positive lanes of X[s] over the entries (s, d)``,
    from source rows to destination columns (the gather roles), or from
    columns to rows with ``scatter``.

    The semantics of the kernels that push frontier values along stored
    entries -- the scatter products and the thread-per-edge COOC kernel:
    only positive frontier values contribute, and every accumulated row is
    stored.  ``lanes`` counts the positive lanes per source index.
    """
    X = as_frontier_matrix(X, mat.n_cols if scatter else mat.n_rows)
    Xp = np.where(X > 0, X, X.dtype.type(0))
    sums, kept = segment_sums(Xp, mat, scatter=scatter)
    Y = cast_output(sums, out_dtype or X.dtype, positive_only=False)
    lanes = np.count_nonzero(Xp, axis=1).astype(np.int64) if X.shape[1] > 1 else (
        Xp[:, 0] > 0).astype(np.int64)
    written = int(np.count_nonzero(any_lane(Y)))
    return Product(Y, Xp, lanes, kept, written, scatter=scatter)


def scatter_product(mat, X, out_dtype=None) -> Product:
    """The scatter ``Y = A X`` (``Y[r] = sum over entries (r, c) of X[c]``).

    The backward stage of digraphs needs dependencies to flow against edge
    direction; the kernels read the same stored format as the gather.
    """
    return push_product(mat, X, out_dtype, scatter=True)


@dataclass(slots=True)
class Profile:
    """The scalar counts a kernel's cost formula reads.

    A launch fills it exactly from its :class:`Product`; the adaptive
    dispatcher and the multi-GPU scheduler fill one shared profile with
    expected values, which each kernel's ``expected`` maps onto its own
    fields (:func:`expected`).  Each kernel reads the fields its formula
    needs.  A *thread* is the
    kernel's unit of work (a column, a row, a stored entry), and per-thread
    work is counted in *entries* and *lane entries* ((entry, lane) pairs
    accumulated); warp-per-column kernels step through 32-entry strips.
    """

    n_cols: int
    n_rows: int
    nnz: int
    B: int
    dtype: np.dtype
    out_dtype: np.dtype
    scatter: bool = False        # the scatter ``Y = A X``, else the gather
    masked: bool = False
    tiles: int = 0               # occupied 16x16 tiles of the directory
    scanned: float = 0           # stored entries the threads scan
    lines: float = 0             # row_A line fills: sum of ceil(entries / 8)
    active_threads: float = 0    # threads that scan at least one entry
    lanes: float = 0             # lanes processed by those threads
    frontier_slots: float = 0    # positive (index, lane) slots of the frontier
    lane_entries: float = 0      # (entry, lane) pairs scanned
    contrib: float = 0           # contributing entries
    lane_hits: float = 0         # contributing (entry, lane) pairs
    written: float = 0           # output rows stored
    chain: float = 0             # longest same-address atomic chain
    warp_entries: float = 0      # sum over warps of the slowest thread's entries
    warp_lane_entries: float = 0  # ... and of its lane entries
    crit_entries: float = 0      # the slowest thread's entries
    crit_lane_entries: float = 0  # ... and its lane entries
    gather_txn: float = 0        # index-dependent B-wide gather transactions
    store_txn: float = 0         # index-dependent atomic-store transactions
    conflicts: float = 0         # intra-warp same-address atomic cycles
    tiles_active: float = 0      # tiles the blocked kernel multiplies
    tile_entries: float = 0      # their stored entries
    tile_max: float = 0          # entries of the fullest active tile
    tile_chain: float = 0        # active tiles committing to one output stripe


def expected(csc, q: Profile, lv, *, divergence: float, l2_bytes: int) -> Profile:
    """A kernel's expected profile from the dispatcher's shared fill ``q``
    (threads are the processed columns scanning their entries, warp sums
    ``divergence`` times the mean) and the level's reductions ``lv``; a
    kernel whose fields mean just that reads ``q`` as is."""
    return q


def launch(device, mat, p: Product, profile, cost, tag: str = ""):
    """Record a kernel's launch: ``cost(profile(mat, p, l2_bytes), spec)``."""
    spec = device.spec
    return device.launch(cost(profile(mat, p, spec.l2_bytes), spec), tag=tag)


def shape_of(mat, p: Product) -> dict:
    """The :class:`Profile` fields a product's shape fixes."""
    return dict(n_cols=mat.n_cols, n_rows=mat.n_rows, nnz=mat.nnz, B=p.B,
                dtype=p.dtype, out_dtype=p.out_dtype, scatter=p.scatter,
                masked=p.masked)


def atomic_chain(targets: np.ndarray) -> int:
    """Longest same-address atomic chain: the most updates one target gets."""
    return int(np.bincount(targets).max()) if targets.size else 0


def warp_sums(work: np.ndarray, *counts: np.ndarray) -> list:
    """Sums of per-thread ``counts`` over each warp's slowest thread by
    ``work``: the divergence fields (``warp_*``) of a thread-per-index pass."""
    idx = W.slowest_per_warp(work)
    return [int(c[idx].sum()) for c in counts]


def at_slowest(work: np.ndarray, *counts: np.ndarray) -> list:
    """Per-thread ``counts`` at the kernel's slowest thread by ``work``:
    the critical-path fields (``crit_*``)."""
    if work.size == 0:
        return [0] * len(counts)
    idx = int(np.argmax(work))
    return [int(c[idx]) for c in counts]
