"""Forward (BFS) stage tests: sigma counts, levels, depth, dtype policy."""

import numpy as np
import pytest

from repro.core.context import TurboBCContext
from repro.core.forward import SigmaOverflowError, bfs_forward, bfs_forward_batch
from repro.core.bfs import turbo_bfs
from repro.graphs.graph import Graph
from repro.gpusim.device import Device
from tests.conftest import random_graph


def run_forward(graph, source, algorithm="sccsc", dtype=np.int64):
    """The ``B = 1`` forward stage from ``source``; the same source as lane
    0 of a three-lane batch (with other sources alongside) must agree."""
    fwd = bfs_forward(TurboBCContext(Device(), graph, algorithm, forward_dtype=dtype),
                      source)
    others = [v for v in range(graph.n) if v != source][:2]
    batch = bfs_forward_batch(
        TurboBCContext(Device(), graph, algorithm, forward_dtype=dtype),
        [source, *others],
    )
    lane = batch.lane(0)
    np.testing.assert_array_equal(lane.sigma, fwd.sigma)
    np.testing.assert_array_equal(lane.levels, fwd.levels)
    assert (lane.depth, lane.frontier_sizes) == (fwd.depth, fwd.frontier_sizes)
    return fwd


def nx_counts(graph, source):
    """(sigma, level) oracles via networkx."""
    import networkx as nx

    nxg = graph.to_networkx()
    levels = nx.single_source_shortest_path_length(nxg, source)
    sigma = np.zeros(graph.n)
    S = np.zeros(graph.n, dtype=np.int64)
    # count shortest paths by DP over levels
    sigma[source] = 1
    order = sorted(levels, key=levels.get)
    preds = {v: [] for v in order}
    for v in order:
        for w in nxg.neighbors(v) if not graph.directed else nxg.successors(v):
            if levels.get(w, -1) == levels[v] + 1:
                preds[w].append(v)
    for v in order:
        if v != source:
            sigma[v] = sum(sigma[p] for p in preds[v])
        S[v] = levels[v]
    return sigma, S


class TestPathCounts:
    @pytest.mark.parametrize("algorithm", ["sccooc", "sccsc", "veccsc"])
    def test_diamond_sigma_splits(self, diamond_graph, algorithm):
        fwd = run_forward(diamond_graph, 0, algorithm)
        assert fwd.sigma.tolist() == [1, 1, 1, 2]
        assert fwd.levels.tolist() == [0, 1, 1, 2]
        assert fwd.depth == 2

    @pytest.mark.parametrize("algorithm", ["sccooc", "sccsc", "veccsc"])
    @pytest.mark.parametrize("directed", [True, False])
    def test_random_graph_matches_networkx(self, algorithm, directed):
        g = random_graph(60, 0.06, directed=directed, seed=42)
        fwd = run_forward(g, 0, algorithm)
        sigma, S = nx_counts(g, 0)
        np.testing.assert_array_equal(fwd.sigma, sigma)
        reached = sigma > 0
        np.testing.assert_array_equal(fwd.levels[reached], S[reached])

    def test_source_properties(self, small_undirected):
        fwd = run_forward(small_undirected, 3)
        assert fwd.sigma[3] == 1
        assert fwd.levels[3] == 0
        assert fwd.source == 3

    def test_unreachable_sigma_zero(self):
        g = Graph([0], [1], 5, directed=True)
        fwd = run_forward(g, 0)
        assert fwd.sigma.tolist() == [1, 1, 0, 0, 0]
        assert fwd.depth == 1

    def test_isolated_source(self):
        g = Graph([1], [2], 4, directed=True)
        fwd = run_forward(g, 0)
        assert fwd.depth == 0
        assert fwd.sigma[0] == 1

    def test_frontier_sizes_sum_to_reached(self, small_directed):
        fwd = run_forward(small_directed, 0)
        assert sum(fwd.frontier_sizes) == int((fwd.sigma > 0).sum()) - 1

    def test_depth_matches_metric(self, small_undirected):
        from repro.graphs.metrics import bfs_depth

        fwd = run_forward(small_undirected, 0)
        assert fwd.depth == bfs_depth(small_undirected, 0)

    def test_source_out_of_range(self, small_undirected):
        with pytest.raises(ValueError, match="out of range"):
            run_forward(small_undirected, 999)


class TestOverflow:
    def overflow_graph(self):
        """Stacked diamonds double sigma per level: 2^40 paths overflow int32."""
        edges = []
        v = 0
        for _ in range(40):
            a, b, c = v + 1, v + 2, v + 3
            edges += [(v, a), (v, b), (a, c), (b, c)]
            v = c
        return Graph.from_edges(edges, v + 1, directed=True)

    def test_int32_overflow_detected(self):
        with pytest.raises(SigmaOverflowError):
            run_forward(self.overflow_graph(), 0, dtype=np.int32)

    def test_float64_handles_it(self):
        fwd = run_forward(self.overflow_graph(), 0, dtype=np.float64)
        assert fwd.sigma.max() == 2.0**40


class TestTurboBFSApi:
    def test_returns_host_copies(self, small_undirected):
        device = Device()
        res = turbo_bfs(small_undirected, 0, device=device)
        assert device.memory.used_bytes == 0  # everything freed
        assert res.sigma[0] == 1

    def test_reached_mask(self, small_directed):
        res = turbo_bfs(small_directed, 0)
        assert res.reached.dtype == bool
        assert res.reached[0]

    def test_algorithm_string(self, small_undirected):
        res = turbo_bfs(small_undirected, 0, algorithm="veccsc")
        assert res.depth >= 0

    def test_profiler_records_run(self, small_undirected):
        device = Device()
        turbo_bfs(small_undirected, 0, device=device, algorithm="sccsc")
        names = device.profiler.kernel_names()
        assert "sccsc_spmm" in names and "bfs_update" in names
