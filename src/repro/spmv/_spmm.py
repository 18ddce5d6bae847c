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
* entries whose source row is all-zero are dropped *before* the value
  matrix is built: adding an exact zero to a float64 accumulation is a
  bit-exact no-op, and frontiers are zero almost everywhere, so the
  per-level working set is O(contributing entries x B), not O(nnz x B);
* gather (``y[c] += x[r]``), scatter (``y[r] += x[c]``) and the COOC
  format are the same reduction with the roles of the two index arrays
  swapped -- bincount accumulates in input order, so the scatter needs no
  row-sorted traversal plan to reproduce the storage order.

:func:`gather_product`, :func:`push_product` and :func:`scatter_product`
wrap the reduction with the kernels' masking and output-cast conventions
and return a :class:`Product` carrying everything the cost models read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def segment_sums(
    X: np.ndarray,
    src_idx: np.ndarray,
    dst_idx: np.ndarray,
    n_out: int,
    dst_select: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``sums[d, j] = sum of X[src_idx[k], j] over entries k with dst_idx[k] == d``.

    ``src_idx``/``dst_idx`` are the per-entry load and store indices in
    storage order; ``dst_select`` (bool per destination) drops whole
    destinations, whose sums read zero.  Returns the ``(n_out, B)`` float64
    sums and ``kept``: the storage positions of the entries that carried a
    non-zero source row to a selected destination, in storage order -- the
    contributing entries the kernels' cost models count.
    """
    B = X.shape[1]
    keep = any_lane(X)[src_idx]
    if dst_select is not None:
        keep &= dst_select[dst_idx]
    kept = np.flatnonzero(keep)
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
    sums, kept = segment_sums(X, mat.row, mat.column_of_nnz(), n, col_select)
    if allowed is not None and B > 1:
        sums[~allowed] = 0.0
    Y = cast_output(sums, out_dtype or X.dtype, positive_only=True)
    written = int(np.count_nonzero(any_lane(sums > 0)))
    return Product(Y, X, lanes, kept, written, allowed)


def push_product(X, src_idx, dst_idx, n_out: int, out_dtype=None) -> Product:
    """``Y[d] = sum of the positive lanes of X[s] over the entries (s, d)``.

    The semantics of the kernels that push frontier values along stored
    entries -- the scatter products and the thread-per-edge COOC kernel:
    only positive frontier values contribute, and every accumulated row is
    stored.  ``lanes`` counts the positive lanes per source index.
    """
    Xp = np.where(X > 0, X, X.dtype.type(0))
    sums, kept = segment_sums(Xp, src_idx, dst_idx, n_out)
    Y = cast_output(sums, out_dtype or X.dtype, positive_only=False)
    lanes = np.count_nonzero(Xp, axis=1).astype(np.int64) if X.shape[1] > 1 else (
        Xp[:, 0] > 0).astype(np.int64)
    written = int(np.count_nonzero(any_lane(Y)))
    return Product(Y, Xp, lanes, kept, written)


def scatter_product(mat, X, out_dtype=None) -> Product:
    """The scatter ``Y = A X`` (``Y[r] = sum over entries (r, c) of X[c]``).

    The backward stage of digraphs needs dependencies to flow against edge
    direction; the kernels read the same stored format as the gather.
    """
    X = as_frontier_matrix(X, mat.n_cols)
    return push_product(X, mat.column_of_nnz(), mat.row, mat.n_rows, out_dtype)
