"""The products' contributing-entry selection against the full-scan oracle.

Each product finds its contributing entries through a compressed index on
the source side (a column's ``col_ptr`` range, a row's cached row index).
The oracle is the formula that selection replaced: mask all ``m`` stored
entries by ``any_lane(X)[src] & dst_select[dst]`` and take the non-zero
positions.  ``kept`` must match it element for element (cost models walk it
in order) and the float64 sums bit for bit.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.formats.convert import csc_to_cooc
from repro.formats.csc import CSCMatrix
from repro.formats.edits import cooc_apply_edits, csc_apply_edits
from repro.spmv import _spmm as M

settings.register_profile("repro", deadline=None, max_examples=50)
settings.load_profile("repro")


def full_scan(X, src_idx, dst_idx, n_out, dst_select=None):
    """The O(m) selection and accumulation the products used to run."""
    keep = M.any_lane(X)[src_idx]
    if dst_select is not None:
        keep &= dst_select[dst_idx]
    kept = np.flatnonzero(keep)
    sums = np.zeros((X.shape[1], n_out))
    for j in range(X.shape[1]):
        sums[j] = np.bincount(dst_idx[kept], weights=X[src_idx[kept], j].astype(np.float64),
                              minlength=n_out)
    return sums.T, kept


@st.composite
def matrices(draw):
    """A random CSC matrix (rectangular, empty rows and columns, self-loops
    allowed) and its COOC twin."""
    n_rows = draw(st.integers(1, 24))
    n_cols = draw(st.integers(1, 24))
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.6, 1.0]))
    seed = draw(st.integers(0, 2**32 - 1))
    dense = np.random.default_rng(seed).random((n_rows, n_cols)) < density
    if draw(st.booleans()):
        dense[:, draw(st.integers(0, n_cols - 1))] = False   # an empty column
        dense[draw(st.integers(0, n_rows - 1)), :] = False   # an empty row
    k = min(n_rows, n_cols)
    dense[np.arange(k), np.arange(k)] |= draw(st.booleans())  # self-loops
    cols, rows = np.nonzero(dense.T)                             # column-major
    col_ptr = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n_cols), out=col_ptr[1:])
    csc = CSCMatrix(col_ptr, rows, (n_rows, n_cols))
    return csc, csc_to_cooc(csc)


@st.composite
def frontiers(draw, n):
    """An ``(n, B)`` frontier: empty, one row, every row, random, or int32
    with wrapped-around negative values."""
    B = draw(st.sampled_from([1, 4, 16]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["empty", "one", "all", "random", "wrapped"]))
    X = np.zeros((n, B), dtype=np.int32)
    if kind == "one":
        X[draw(st.integers(0, n - 1)), rng.integers(0, B)] = 1
    elif kind == "all":
        X[:] = rng.integers(1, 5, (n, B))
    elif kind == "random":
        X[:] = rng.integers(0, 4, (n, B)) * (rng.random((n, B)) < 0.3)
    elif kind == "wrapped":
        big = np.int64(2**31 - 1) + rng.integers(1, 5, (n, B)) * (rng.random((n, B)) < 0.5)
        X[:] = big.astype(np.int32)   # wraps like an overflowed sigma
    if draw(st.booleans()):
        X = (X * rng.uniform(0.5, 2.0, (n, B))).astype(np.float64)
    return X


def as_oracle_mask(allowed):
    return None if allowed is None else M.any_lane(allowed)


@given(st.data())
def test_gather_matches_full_scan(data):
    csc, cooc = data.draw(matrices())
    X = data.draw(frontiers(csc.n_rows))
    allowed = data.draw(st.sampled_from(["none", "random", "all", "nothing"]))
    B = X.shape[1]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    allowed = {"none": None, "random": rng.random((csc.n_cols, B)) < 0.5,
               "all": np.ones((csc.n_cols, B), bool),
               "nothing": np.zeros((csc.n_cols, B), bool)}[allowed]
    for mat in (csc, cooc):
        want_sums, want_kept = full_scan(X, mat.row, mat.column_of_nnz(), mat.n_cols,
                                         as_oracle_mask(allowed))
        sums, kept = M.segment_sums(X, mat, dst_select=as_oracle_mask(allowed))
        np.testing.assert_array_equal(kept, want_kept)
        np.testing.assert_array_equal(sums, want_sums)
        p = M.gather_product(mat, X, allowed)
        np.testing.assert_array_equal(p.kept, want_kept)
        if allowed is not None:
            want_sums[~allowed] = 0.0
        np.testing.assert_array_equal(
            p.Y, M.cast_output(want_sums, X.dtype, positive_only=True))


@given(st.data())
def test_push_products_match_full_scan(data):
    csc, cooc = data.draw(matrices())
    scatter = data.draw(st.booleans())
    X = data.draw(frontiers(csc.n_cols if scatter else csc.n_rows))
    Xp = np.where(X > 0, X, X.dtype.type(0))
    for mat in (csc, cooc):
        src_idx, dst_idx, n_out = ((mat.column_of_nnz(), mat.row, mat.n_rows) if scatter
                                   else (mat.row, mat.column_of_nnz(), mat.n_cols))
        want_sums, want_kept = full_scan(Xp, src_idx, dst_idx, n_out)
        products = [M.push_product(mat, X, scatter=scatter)]
        if scatter:
            products.append(M.scatter_product(mat, X))
        for p in products:
            np.testing.assert_array_equal(p.kept, want_kept)
            np.testing.assert_array_equal(
                p.Y, M.cast_output(want_sums, X.dtype, positive_only=False))


@given(matrices())
def test_row_index_groups_storage_positions_by_row(mats):
    csc, cooc = mats
    for mat in (csc, cooc):
        row_ptr, order = mat.row_index()
        assert row_ptr.dtype == order.dtype == np.int32
        np.testing.assert_array_equal(order, np.argsort(mat.row, kind="stable"))
        np.testing.assert_array_equal(np.diff(row_ptr),
                                      np.bincount(mat.row, minlength=mat.n_rows))
        assert mat.row_index() is mat.row_index()   # cached


def test_edited_matrix_builds_its_own_row_index():
    csc = CSCMatrix([0, 2, 3, 5], [0, 2, 1, 0, 1], (3, 3))
    for mat, edit in ((csc, csc_apply_edits), (csc_to_cooc(csc), cooc_apply_edits)):
        old_index = mat.row_index()
        old_order = old_index[1].copy()
        new = edit(mat, added=[(2, 2), (1, 0)], removed=[(0, 0)])
        row_ptr, order = new.row_index()
        np.testing.assert_array_equal(order, np.argsort(new.row, kind="stable"))
        np.testing.assert_array_equal(np.diff(row_ptr),
                                      np.bincount(new.row, minlength=new.n_rows))
        assert mat.row_index() is old_index
        np.testing.assert_array_equal(old_index[1], old_order)


def test_ranges_expands_in_selection_order():
    ptr = np.array([0, 2, 2, 5, 6], dtype=np.int32)
    np.testing.assert_array_equal(M.ranges(ptr, np.array([3, 0, 1, 2])), [5, 0, 1, 2, 3, 4])
    assert M.ranges(ptr, np.array([], dtype=np.intp)).size == 0
