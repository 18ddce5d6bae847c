"""Property-based sparse-product tests against scipy, at B = 1 and wider."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.formats.convert import edges_to_cooc, edges_to_csc
from repro.gpusim.device import Device
from repro.spmv import (
    sccooc_spmm,
    sccooc_spmm_scatter,
    sccsc_spmm,
    sccsc_spmm_scatter,
    veccsc_spmm,
    veccsc_spmm_scatter,
)

settings.register_profile("repro", deadline=None, max_examples=50)
settings.load_profile("repro")


@st.composite
def matrix_and_vector(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    m = draw(st.integers(min_value=0, max_value=60))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    B = draw(st.sampled_from([1, 1, 2, 4]))
    x = draw(st.lists(st.integers(0, 5), min_size=n * B, max_size=n * B))
    return (
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        n,
        np.asarray(x, dtype=np.int64).reshape(n, B),
    )


def scipy_gather(src, dst, n, x):
    """A^T X via scipy (self-loops dropped to match canonicalisation)."""
    from scipy.sparse import coo_array

    keep = src != dst
    src, dst = src[keep], dst[keep]
    data = np.ones(src.size)
    a = coo_array((data, (src, dst)), shape=(n, n)).tocsc()
    a.sum_duplicates()
    a.data[:] = 1
    return (a.T @ x.astype(np.float64)).astype(np.int64)


@given(matrix_and_vector())
def test_gather_kernels_match_scipy(mv):
    src, dst, n, x = mv
    expected = scipy_gather(src, dst, n, x)
    dev = Device()
    cooc = edges_to_cooc(src, dst, n)
    csc = edges_to_csc(src, dst, n)
    for y in (
        sccooc_spmm(dev, cooc, x)[0],
        sccsc_spmm(dev, csc, x)[0],
        veccsc_spmm(dev, csc, x)[0],
    ):
        np.testing.assert_array_equal(y, expected)


@given(matrix_and_vector())
def test_scatter_kernels_match_scipy_transpose(mv):
    src, dst, n, x = mv
    expected = scipy_gather(dst, src, n, x)  # A x == (A^T)^T x
    dev = Device()
    cooc = edges_to_cooc(src, dst, n)
    csc = edges_to_csc(src, dst, n)
    for y in (
        sccooc_spmm_scatter(dev, cooc, x)[0],
        sccsc_spmm_scatter(dev, csc, x)[0],
        veccsc_spmm_scatter(dev, csc, x)[0],
    ):
        np.testing.assert_array_equal(y, expected)


@given(matrix_and_vector(), st.integers(0, 2**31 - 1))
def test_masked_kernels_agree_with_each_other(mv, seed):
    src, dst, n, x = mv
    allowed = np.random.default_rng(seed).random(x.shape) < 0.5
    dev = Device()
    csc = edges_to_csc(src, dst, n)
    a, _ = sccsc_spmm(dev, csc, x, allowed=allowed)
    b, _ = veccsc_spmm(dev, csc, x, allowed=allowed)
    np.testing.assert_array_equal(a, b)
    assert not a[~allowed].any()


@given(matrix_and_vector())
def test_stats_are_wellformed(mv):
    """Transactions/cycles are non-negative and bounded by serial costs."""
    src, dst, n, x = mv
    dev = Device()
    csc = edges_to_csc(src, dst, n)
    _, launch = sccsc_spmm(dev, csc, x)
    s = launch.stats
    m = csc.nnz
    assert s.warp_cycles >= 0
    assert s.dram_bytes >= 0
    # every stored entry is scanned at most once per pass; generous bound:
    assert s.warp_cycles <= 32 * (m + n + 32) * 6 * x.shape[1]
