"""Sparse-product kernel tests: every kernel against the reference oracle.

Each case runs at every batch width in ``BATCHES``: ``B = 1`` is the
paper's per-source SpMV, wider batches check every lane.
"""

import numpy as np
import pytest

from repro.gpusim.device import Device
from repro.spmv import (
    reference_spmm,
    reference_spmm_scatter,
    sccooc_spmm,
    sccooc_spmm_scatter,
    sccsc_spmm,
    sccsc_spmm_scatter,
    veccsc_spmm,
    veccsc_spmm_scatter,
)
from tests.conftest import random_graph

BATCHES = (1, 3)

GATHER_KERNELS = {
    "sccooc": lambda dev, g, x, **kw: sccooc_spmm(dev, g.to_cooc(), x, **kw),
    "sccsc": lambda dev, g, x, **kw: sccsc_spmm(dev, g.to_csc(), x, **kw),
    "veccsc": lambda dev, g, x, **kw: veccsc_spmm(dev, g.to_csc(), x, **kw),
}
SCATTER_KERNELS = {
    "sccooc": lambda dev, g, x, **kw: sccooc_spmm_scatter(dev, g.to_cooc(), x, **kw),
    "sccsc": lambda dev, g, x, **kw: sccsc_spmm_scatter(dev, g.to_csc(), x, **kw),
    "veccsc": lambda dev, g, x, **kw: veccsc_spmm_scatter(dev, g.to_csc(), x, **kw),
}


@pytest.fixture
def graph():
    return random_graph(120, 0.04, directed=True, seed=11)


@pytest.fixture
def x_int(graph, rng):
    """Integer frontiers, one per batch width."""
    return {B: rng.integers(0, 4, (graph.n, B)).astype(np.int32) for B in BATCHES}


@pytest.fixture
def x_float(graph, rng):
    return {
        B: (rng.random((graph.n, B)) * (rng.random((graph.n, B)) < 0.5)).astype(np.float32)
        for B in BATCHES
    }


class TestGatherKernels:
    @pytest.mark.parametrize("name", GATHER_KERNELS)
    def test_matches_reference_int(self, name, graph, x_int, device):
        for X in x_int.values():
            Y, _ = GATHER_KERNELS[name](device, graph, X)
            np.testing.assert_array_equal(Y, reference_spmm(graph.to_csc(), X))

    @pytest.mark.parametrize("name", GATHER_KERNELS)
    def test_matches_reference_float(self, name, graph, x_float, device):
        for X in x_float.values():
            Y, _ = GATHER_KERNELS[name](device, graph, X)
            np.testing.assert_allclose(
                Y, reference_spmm(graph.to_csc(), X.astype(np.float64)), rtol=1e-6
            )

    @pytest.mark.parametrize("name", GATHER_KERNELS)
    def test_zero_vector(self, name, graph, device):
        for B in BATCHES:
            Y, _ = GATHER_KERNELS[name](device, graph, np.zeros((graph.n, B), np.int32))
            assert not Y.any()

    @pytest.mark.parametrize("name", GATHER_KERNELS)
    def test_rejects_wrong_shape(self, name, graph, device):
        for shape in ((graph.n + 1, 1), (graph.n,), (graph.n, 0)):
            with pytest.raises(ValueError, match="shape"):
                GATHER_KERNELS[name](device, graph, np.zeros(shape, dtype=np.int32))

    @pytest.mark.parametrize("name", ["sccsc", "veccsc"])
    def test_mask_zeroes_disallowed_columns(self, name, graph, x_int, device, rng):
        for B, X in x_int.items():
            allowed = rng.random((graph.n, B)) < 0.4
            Y, _ = GATHER_KERNELS[name](device, graph, X, allowed=allowed)
            full = reference_spmm(graph.to_csc(), X)
            np.testing.assert_array_equal(Y, np.where(allowed, full, 0))

    @pytest.mark.parametrize("name", ["sccsc", "veccsc"])
    def test_mask_must_be_bool(self, name, graph, x_int, device):
        for B, X in x_int.items():
            with pytest.raises(ValueError, match="boolean"):
                GATHER_KERNELS[name](device, graph, X, allowed=np.ones((graph.n, B)))

    @pytest.mark.parametrize("name", GATHER_KERNELS)
    def test_out_dtype_override(self, name, graph, x_int, device):
        for X in x_int.values():
            Y, _ = GATHER_KERNELS[name](device, graph, X, out_dtype=np.float32)
            assert Y.dtype == np.float32


class TestScatterKernels:
    @pytest.mark.parametrize("name", SCATTER_KERNELS)
    def test_matches_reference(self, name, graph, x_int, device):
        for X in x_int.values():
            Y, _ = SCATTER_KERNELS[name](device, graph, X)
            np.testing.assert_array_equal(Y, reference_spmm_scatter(graph.to_csc(), X))

    @pytest.mark.parametrize("name", SCATTER_KERNELS)
    def test_scatter_is_gather_of_transpose(self, name, graph, x_int, device):
        for X in x_int.values():
            Y, _ = SCATTER_KERNELS[name](device, graph, X)
            np.testing.assert_array_equal(Y, reference_spmm(graph.reverse().to_csc(), X))

    @pytest.mark.parametrize("name", SCATTER_KERNELS)
    def test_rejects_wrong_shape(self, name, graph, device):
        with pytest.raises(ValueError, match="shape"):
            SCATTER_KERNELS[name](device, graph, np.zeros((graph.n - 1, 1), dtype=np.int32))


class TestKernelStats:
    def test_launch_recorded(self, graph, x_int):
        dev = Device()
        _, launch = sccsc_spmm(dev, graph.to_csc(), x_int[1])
        assert dev.profiler.total_launches() == 1
        assert launch.stats.name == "sccsc_spmm"

    def test_sccooc_threads_equal_edges(self, graph, x_int, device):
        for X in x_int.values():
            _, launch = sccooc_spmm(device, graph.to_cooc(), X)
            assert launch.stats.threads == graph.m

    def test_sccsc_threads_equal_vertices(self, graph, x_int, device):
        for X in x_int.values():
            _, launch = sccsc_spmm(device, graph.to_csc(), X)
            assert launch.stats.threads == graph.n

    def test_veccsc_threads_are_warp_per_column(self, graph, x_int, device):
        for X in x_int.values():
            _, launch = veccsc_spmm(device, graph.to_csc(), X)
            assert launch.stats.threads == 32 * graph.n

    def test_mask_reduces_work(self, graph, x_int, device):
        for B, X in x_int.items():
            _, full = sccsc_spmm(device, graph.to_csc(), X)
            allowed = np.zeros((graph.n, B), dtype=bool)
            _, masked = sccsc_spmm(device, graph.to_csc(), X, allowed=allowed)
            assert masked.stats.dram_bytes < full.stats.dram_bytes
            assert masked.stats.warp_cycles < full.stats.warp_cycles

    def test_divergence_hurts_sccsc_not_veccsc(self, device, rng):
        """A degree-skewed graph must cost scCSC more warp cycles per edge
        than veCSC -- the paper's central kernel-selection argument."""
        # one high-degree column per warp of otherwise tiny columns: each
        # scCSC warp stalls on its hub lane while veCSC streams them.
        n = 2048
        hubs = np.arange(0, n, 32)
        hub_src = np.concatenate([rng.choice(n, 900, replace=False) for _ in hubs])
        hub_dst = np.repeat(hubs, 900)
        chain = np.arange(n - 1)
        src = np.concatenate([hub_src, chain])
        dst = np.concatenate([hub_dst, chain + 1])
        from repro.graphs.graph import Graph

        g = Graph(src, dst, n, directed=True)
        for B in BATCHES:
            X = np.ones((n, B), dtype=np.int32)
            _, sc = sccsc_spmm(device, g.to_csc(), X)
            _, ve = veccsc_spmm(device, g.to_csc(), X)
            assert sc.stats.warp_cycles > 2 * ve.stats.warp_cycles

    def test_empty_graph_kernels(self, device):
        from repro.graphs.graph import Graph

        g = Graph([], [], 8, directed=True)
        for B in BATCHES:
            X = np.ones((8, B), dtype=np.int32)
            for name, k in {**GATHER_KERNELS, **SCATTER_KERNELS}.items():
                Y, _ = k(device, g, X)
                assert not Y.any(), name


class TestB1ReducesToSpMV:
    """At ``B = 1`` every kernel's one cost formula is the paper's SpMV
    formula: ``tests/golden/kernel_stats_b1.json`` pins each field of the
    ``KernelStats`` the per-source SpMV kernels reported (6 kernels x gather
    and scatter, an int32 forward and a float32 backward frontier, three
    golden-corpus graphs), and each B = 1 launch must reproduce it exactly
    (kernel names now carry ``_spmm``)."""

    def test_b1_launches_match_spmv_golden(self):
        import dataclasses
        import json
        import pathlib

        from repro.conformance.golden import golden_dir, load_golden_case
        from repro import spmv

        doc = json.loads(
            (pathlib.Path(__file__).parent / "golden" / "kernel_stats_b1.json").read_text()
        )
        assert len(doc["cases"]) == 72
        graphs = {}
        for case in doc["cases"]:
            name = case["graph"]
            if name not in graphs:
                graph, _, _ = load_golden_case(golden_dir() / f"{name}.json")
                graphs[name] = graph
            graph = graphs[name]
            frontiers = doc["frontiers"][name]
            if case["frontier"] == "forward":
                x = np.asarray(frontiers["forward"], dtype=np.int32)
            else:
                x = np.asarray(frontiers["backward"], dtype=np.float32)
            kw = {}
            if case["masked"]:
                kw["allowed"] = np.asarray(frontiers["allowed"], dtype=bool)[:, None]
            kernel = case["kernel"]
            mat = graph.to_cooc() if kernel == "sccooc" else graph.to_csc()
            suffix = "_spmm" if case["product"] == "gather" else "_spmm_scatter"
            _, launch = getattr(spmv, kernel + suffix)(Device(), mat, x[:, None], **kw)
            want = dict(case["stats"], name=case["stats"]["name"].replace("_spmv", "_spmm"))
            assert dataclasses.asdict(launch.stats) == want, (
                name, kernel, case["product"], case["frontier"])


class TestBatchedLaunchStats:
    """``tests/golden/kernel_stats_b4.json`` pins every field of the
    ``KernelStats`` of the same 72-case grid at ``B = 4``, with per-lane
    frontiers and masks (``tests/kernel_stats.py``; ``make
    bless-kernel-stats`` regenerates it)."""

    def test_b4_launches_match_golden(self):
        import dataclasses
        import json

        from tests import kernel_stats as ks

        doc = json.loads(ks.GOLDEN.read_text())
        assert doc["schema"] == ks.SCHEMA
        assert len(doc["cases"]) == 72
        graphs = {name: ks.load_graph(name) for name in ks.GRAPHS}
        for case in doc["cases"]:
            key = (case["graph"], case["kernel"], case["product"], case["frontier"])
            stats = ks.launch_stats(
                graphs[case["graph"]], *key[1:], case["masked"],
                doc["frontiers"][case["graph"]],
            )
            assert dataclasses.asdict(stats) == case["stats"], key


class TestFrontierProportionalWork:
    """A product's per-level host work follows the frontier, not the matrix:
    on a matrix with ``m >> n``, a one-row frontier must not allocate
    anything ``m``-long (the full-scan selection built m-length boolean
    masks).  ``tracemalloc`` counts the bytes, so the guard is exact."""

    def test_one_row_frontier_allocates_below_m(self):
        import tracemalloc

        from repro.formats.csc import CSCMatrix
        from repro.spmv._spmm import gather_product, scatter_product

        n, per_col = 10_000, 100
        # column c holds rows c, c + 100, c + 200, ... (mod n): 1M entries
        rows = np.sort((np.arange(n)[:, None] + 100 * np.arange(per_col)) % n, axis=1)
        csc = CSCMatrix(np.arange(0, n * per_col + 1, per_col), rows.ravel(), (n, n))
        X = np.zeros((n, 1), dtype=np.int32)
        X[4321] = 1
        allowed = np.ones((n, 1), dtype=bool)
        products = {
            "gather": lambda: gather_product(csc, X),
            "masked gather": lambda: gather_product(csc, X, allowed),
            "scatter": lambda: scatter_product(csc, X),
        }
        for product in products.values():
            product()  # builds the matrix's cached host-side plans
        for name, product in products.items():
            tracemalloc.start()
            try:
                p = product()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert p.kept.size == per_col
            assert peak < csc.nnz // 2, (name, peak)
