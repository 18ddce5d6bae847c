"""PR 6: direction-optimized traversal + tensor-core blocked SpMM.

Four claim families:

* forced-direction bit-identity -- push-only, pull-only and free adaptive
  dispatch agree bitwise on the whole golden corpus (and match the pinned
  expected BC);
* the pull kernel's early-exit discovery model -- structure-exact first-hit
  probe counts and the closed-form KernelStats built from them;
* the tensor-core kernel's tile model -- the 16x16 tile directory, MMA op
  counts and tile-fill occupancy against hand-counted tilings;
* dispatcher regret -- on a graph with dense mid-BFS levels the new kernels
  are chosen only where the shadow replay measures them fastest.

The 200-case fuzz soak (slow) pins every new kernel entry point bit-identical
to ``sccsc`` across random graphs, masks and batch widths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.conformance.fuzzer import GraphFuzzer
from repro.conformance.golden import iter_golden
from repro.core.bc import turbo_bc
from repro.core.dispatch import DIRECTION, STRATEGIES
from repro.graphs.graph import Graph
from repro.gpusim.device import Device
from repro.gpusim import warp as W
from repro.obs import telemetry as obs
from repro.obs.audit import audit_dispatch
from repro.obs.counters import counters_for_launch
from repro.obs.roofline import classify_launch
from repro.spmv import (
    pullcsc_spmm,
    pullcsc_spmm_scatter,
    sccsc_spmm,
    sccsc_spmm_scatter,
    tcspmm_spmm,
    tcspmm_spmm_scatter,
)
from repro.spmv.pullcsc import first_hit_probes


class TestForcedDirectionGolden:
    def test_directions_bit_identical_on_corpus(self):
        for name, graph, expected in iter_golden():
            results = {
                d: turbo_bc(graph, algorithm="adaptive", direction=d).bc
                for d in ("auto", "push", "pull")
            }
            np.testing.assert_allclose(
                results["auto"], expected, rtol=1e-6, atol=1e-9,
                err_msg=f"{name}: adaptive/auto off the pinned corpus value",
            )
            for d in ("push", "pull"):
                assert np.array_equal(results["auto"], results[d]), (
                    f"{name}: direction={d} not bit-identical to auto"
                )

    def test_direction_strategy_map_is_total(self):
        assert set(DIRECTION) == set(STRATEGIES)
        assert DIRECTION["pullcsc"] == "pull"
        assert DIRECTION["tcspmm"] == "pull"
        for k in ("sccooc", "sccsc", "veccsc"):
            assert DIRECTION[k] == "push"

    def test_direction_rejected_for_static_algorithms(self):
        g = Graph.from_edges([(0, 1), (1, 2)], 3, directed=False)
        with pytest.raises(ValueError):
            turbo_bc(g, algorithm="sccsc", direction="pull")
        with pytest.raises(ValueError):
            turbo_bc(g, algorithm="adaptive", direction="sideways")


class TestPullEarlyExit:
    def _star_graph(self):
        # Directed edges r -> c: column 3 stores rows [0, 1, 2] in order;
        # column 2 stores row [0]; columns 0 and 1 are empty.
        return Graph.from_edges([(0, 3), (1, 3), (2, 3), (0, 2)], 4,
                                directed=True)

    def test_first_hit_probe_counts_are_structure_exact(self):
        csc = self._star_graph().to_csc()
        allowed = np.ones(4, dtype=bool)
        # Frontier = {row 1}: column 3 probes rows [0, 1] before the early
        # exit (2 probes); column 2 scans its full degree (1) with no hit.
        active = np.array([False, True, False, False])
        probe, discovered = first_hit_probes(csc, allowed, active)
        assert probe.tolist() == [0, 0, 1, 2]
        assert discovered.tolist() == [False, False, False, True]
        # Masked columns probe nothing.
        probe, discovered = first_hit_probes(
            csc, np.array([True, True, True, False]), active
        )
        assert probe.tolist() == [0, 0, 1, 0]
        assert not discovered.any()
        # Frontier = {row 0}: both columns exit on their first probe.
        probe, discovered = first_hit_probes(
            csc, allowed, np.array([True, False, False, False])
        )
        assert probe.tolist() == [0, 0, 1, 1]
        assert discovered.tolist() == [False, False, True, True]

    def test_early_exit_kernel_stats_closed_form(self):
        csc = self._star_graph().to_csc()
        x = np.array([0, 1, 0, 0], dtype=np.int32)
        for B in (1, 3):
            device = Device()
            X = np.repeat(x[:, None], B, axis=1)
            allowed = np.ones((4, B), dtype=bool)
            _, launch = pullcsc_spmm(device, csc, X, allowed=allowed)
            s = launch.stats

            # Hand-derived per-column work: probe [0,0,1,2], discovered
            # column 3 re-scans its full degree (3), one contributing entry
            # (row 1 in column 3) gathered for all B lanes.  Probe cycles
            # 2/entry, gather 3/entry-lane (int dtype factor 1), thread
            # base 4, plus the fused bitmap build (2 cycles/row-lane).
            scanned = np.array([0, 0, 1, 2 + 3])
            contrib = np.array([0, 0, 0, 1])
            want_cycles = W.divergent_warp_cycles(
                scanned * 2 + contrib * B * 3, base_cycles=4
            ) + W.uniform_warp_cycles(4 * B, 2)
            assert s.warp_cycles == want_cycles
            assert s.critical_warp_cycles == W.max_warp_cycles(
                scanned * 4 + contrib * B * 12
            )
            assert s.flops == B  # one written output column per lane
            assert s.mma_ops == 0

    def test_early_exit_beats_full_scan_on_dense_frontier(self):
        # A clique-ish column: the denser the frontier, the fewer probes
        # phase 1 pays, so warp cycles must be monotonically non-increasing
        # in frontier density for a fixed set of discovered columns.
        rng = np.random.default_rng(7)
        n = 64
        edges = [(int(r), int(c)) for r in range(n) for c in range(n)
                 if r != c and rng.random() < 0.3]
        csc = Graph.from_edges(edges, n, directed=True).to_csc()
        device = Device()
        allowed = np.ones(n, dtype=bool)
        dense = np.ones(n, dtype=np.int32)
        sparse = np.zeros(n, dtype=np.int32)
        sparse[0] = 1
        _, launch_dense = pullcsc_spmm(device, csc, dense[:, None],
                                       allowed=allowed[:, None])
        _, launch_sparse = pullcsc_spmm(device, csc, sparse[:, None],
                                        allowed=allowed[:, None])
        probes_dense, _ = first_hit_probes(csc, allowed, dense > 0)
        probes_sparse, _ = first_hit_probes(csc, allowed, sparse > 0)
        assert probes_dense.sum() < probes_sparse.sum()


class TestTensorCoreTiles:
    def _bipartite_block(self, extra_edge=False):
        # Rows 0..15 each point at every column 16..31: exactly one dense
        # 16x16 tile (t_row 0, t_col 1) with 256 stored entries.  The
        # optional extra edge (20 -> 5) adds a second tile with one entry.
        edges = [(r, 16 + c) for r in range(16) for c in range(16)]
        if extra_edge:
            edges.append((20, 5))
        return Graph.from_edges(edges, 32, directed=True).to_csc()

    def test_tile_plan_matches_hand_tiling(self):
        csc = self._bipartite_block()
        t_row, t_col, t_cnt = csc.tile_plan(16)
        assert t_row.tolist() == [0]
        assert t_col.tolist() == [1]
        assert t_cnt.tolist() == [256]

        csc2 = self._bipartite_block(extra_edge=True)
        t_row, t_col, t_cnt = csc2.tile_plan(16)
        # Ordered by (block-col, block-row): tile (1, 0) then (0, 1).
        assert list(zip(t_row.tolist(), t_col.tolist())) == [(1, 0), (0, 1)]
        assert t_cnt.tolist() == [1, 256]

    def test_mma_ops_and_tile_fill_dense_tile(self):
        csc = self._bipartite_block()
        device = Device()
        X = np.zeros((32, 16), dtype=np.float64)
        X[:16, :] = 1.0  # every row of the dense tile active, all 16 lanes
        _, launch = tcspmm_spmm(device, csc, X)
        s = launch.stats
        # One active tile, B=16 -> one 16x16x16 MMA op; every one of the
        # 256 entries contributes in all 16 lanes -> perfect tile fill.
        assert s.mma_ops == 1
        assert s.flops == 256 * 16
        c = counters_for_launch(launch, device.spec)
        assert c.mma_tile_fill == 1.0
        assert c.mma_ops == 1

    def test_tile_fill_fraction_sparse_tile(self):
        csc = self._bipartite_block(extra_edge=True)
        device = Device()
        X = np.ones((32, 16), dtype=np.float64)
        _, launch = tcspmm_spmm(device, csc, X)
        s = launch.stats
        # Two active tiles (256-entry dense + 1-entry), B=16 -> 2 MMA ops;
        # useful flops (256 + 1) * 16 of the 2 * 4096 issued.
        assert s.mma_ops == 2
        assert s.flops == 257 * 16
        c = counters_for_launch(launch, device.spec)
        assert c.mma_tile_fill == pytest.approx(257 * 16 / (2 * 4096))

    def test_spmv_single_lane_fill(self):
        csc = self._bipartite_block()
        device = Device()
        x = np.zeros((32, 1), dtype=np.float64)
        x[:16] = 1.0
        _, launch = tcspmm_spmm(device, csc, x)
        assert launch.stats.mma_ops == 1  # ceil(1/16) per active tile
        c = counters_for_launch(launch, device.spec)
        assert c.mma_tile_fill == pytest.approx(256 / 4096)  # 1 of 16 lanes

    def test_mma_bound_classification(self):
        # Shrinking the MMA pipe makes the MMA arm the binding ceiling, so
        # the roofline classifier must attribute the launch to it.
        import dataclasses

        from repro.gpusim.device import TITAN_XP

        csc = self._bipartite_block()
        starved = dataclasses.replace(TITAN_XP, mma_tflops=1e-6)
        device = Device(starved)
        X = np.ones((32, 16), dtype=np.float64)
        _, launch = tcspmm_spmm(device, csc, X)
        assert launch.mma_time_s > 0.0
        assert classify_launch(launch) == "mma"
        c = counters_for_launch(launch, device.spec)
        assert c.mma_tflops >= 0.0
        # On the stock spec the same launch is tiny: never MMA-bound.
        _, stock = tcspmm_spmm(Device(), csc, X)
        assert classify_launch(stock) != "mma"


class TestDispatcherRegret:
    def test_new_kernels_chosen_only_where_measured_fastest(self):
        # Erdos-Renyi-ish graph with dense mid-BFS levels: the regime where
        # the direction switch matters.  With the shadow replay measuring
        # every candidate, any level that picked a new kernel must have
        # measured it fastest (zero regret attributable to PR 6 kernels).
        rng = np.random.default_rng(11)
        n = 400
        edges = set()
        while len(edges) < 4000:
            a, b = rng.integers(0, n, 2)
            if a != b:
                edges.add((int(min(a, b)), int(max(a, b))))
        g = Graph.from_edges(sorted(edges), n, directed=False)

        with obs.session(audit_dispatch=True) as tel:
            turbo_bc(g, sources=list(range(6)), algorithm="adaptive",
                     batch_size=6)
        decisions = tel.dispatch_decisions
        assert decisions, "adaptive run recorded no dispatch decisions"
        audit = audit_dispatch(decisions)
        assert audit.measured_complete

        new_chosen = [d for d in decisions if d.kernel in ("pullcsc", "tcspmm")]
        assert new_chosen, "dense-level graph never chose a PR 6 kernel"
        for d in new_chosen:
            fastest = min(d.measured_us, key=d.measured_us.get)
            assert d.measured_us[d.kernel] <= d.measured_us[fastest] * 1.001, (
                f"{d.stage} d={d.depth}: chose {d.kernel} "
                f"({d.measured_us[d.kernel]:.2f} us) but {fastest} measured "
                f"{d.measured_us[fastest]:.2f} us"
            )
        assert not any(r.chosen in ("pullcsc", "tcspmm")
                       for r in audit.regrets), audit.regrets

    def test_direction_recorded_on_decisions_and_spans(self):
        g = Graph.from_edges([(i, j) for i in range(12) for j in range(i)],
                             12, directed=False)
        with obs.session(trace=True) as tel:
            turbo_bc(g, sources=[0], algorithm="adaptive")
        assert all(d.direction == DIRECTION[d.kernel]
                   for d in tel.dispatch_decisions)
        level_attrs = [sp.attrs for root in tel.roots for sp in root.walk()
                       if sp.name == "level"]
        assert level_attrs
        fwd = [a for a in level_attrs if "forward_direction" in a]
        assert fwd, "no level span carried forward_direction"
        for a in fwd:
            assert a["forward_direction"] in ("push", "pull")
            assert 0.0 <= a["unvisited_frac"] <= 1.0
        # The density satellite: both sides of the level reported.
        sized = [a for a in level_attrs if "frontier_size" in a]
        assert sized
        for a in sized:
            assert "unvisited" in a and "frontier_frac" in a


@pytest.mark.slow
class TestNewKernelFuzzSoak:
    def test_bit_identity_vs_sccsc_200_cases(self):
        device = Device()
        checked = 0
        for case in GraphFuzzer(606).cases(200):
            g = case.graph
            if g.n == 0:
                continue
            csc = g.to_csc()
            rng = np.random.default_rng([606, case.index])
            x = rng.integers(0, 3, size=g.n).astype(np.float64)
            xs = rng.integers(0, 3, size=g.n).astype(np.float64)
            X = rng.uniform(0.0, 2.0, size=(g.n, 4))
            allowed = rng.random(g.n) < 0.5
            allowed_mm = rng.random((g.n, 4)) < 0.5

            x, xs, allowed = x[:, None], xs[:, None], allowed[:, None]
            ref, _ = sccsc_spmm(device, csc, x, allowed=allowed)
            for fn in (pullcsc_spmm, tcspmm_spmm):
                got, _ = fn(device, csc, x, allowed=allowed)
                assert np.array_equal(got, ref), (case.recipe, fn.__name__)
            ref, _ = sccsc_spmm(device, csc, x)
            for fn in (pullcsc_spmm, tcspmm_spmm):
                got, _ = fn(device, csc, x)
                assert np.array_equal(got, ref), (case.recipe, fn.__name__)
            ref, _ = sccsc_spmm_scatter(device, csc, xs)
            for fn in (pullcsc_spmm_scatter, tcspmm_spmm_scatter):
                got, _ = fn(device, csc, xs)
                assert np.array_equal(got, ref), (case.recipe, fn.__name__)
            ref, _ = sccsc_spmm(device, csc, X, allowed=allowed_mm)
            for fn in (pullcsc_spmm, tcspmm_spmm):
                got, _ = fn(device, csc, X, allowed=allowed_mm)
                assert np.array_equal(got, ref), (case.recipe, fn.__name__)
            ref, _ = sccsc_spmm_scatter(device, csc, X)
            for fn in (pullcsc_spmm_scatter, tcspmm_spmm_scatter):
                got, _ = fn(device, csc, X)
                assert np.array_equal(got, ref), (case.recipe, fn.__name__)
            checked += 1
        assert checked >= 150  # the fuzzer emits some empty graphs
