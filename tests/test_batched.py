"""Batched (SpMM) driver: parity with the sequential driver, overflow
re-runs, auto batch sizing, memory admission and source validation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bc import _resolve_sources, turbo_bc
from repro.core.forward import SigmaOverflowError
from repro.core.multigpu import multi_gpu_bc
from repro.core.approx import approximate_bc
from repro.graphs.graph import Graph
from repro.gpusim.device import Device, DeviceSpec
from repro.gpusim.errors import DeviceOutOfMemoryError
from repro.perf.memory_model import turbobc_batched_footprint_words

from tests.conftest import assert_bc_close, random_graph

BATCHES = (2, 8, 32)


class TestBatchedParity:
    """batch_size=B must reproduce the sequential driver within 1e-9 (the
    kernels are in fact bit-exact; the tests assert the documented bound)."""

    @pytest.mark.parametrize("directed", (False, True))
    @pytest.mark.parametrize("algorithm", ("sccooc", "sccsc", "veccsc"))
    @pytest.mark.parametrize("batch", BATCHES)
    def test_matches_sequential(self, directed, algorithm, batch):
        g = random_graph(60, 0.05, directed=directed, seed=7)
        seq = turbo_bc(g, algorithm=algorithm)
        bat = turbo_bc(g, algorithm=algorithm, batch_size=batch)
        assert_bc_close(bat.bc, seq.bc)
        assert bat.stats.depth_per_source == seq.stats.depth_per_source
        assert bat.stats.batch_size == min(batch, g.n)

    def test_batch_not_dividing_source_count(self):
        g = random_graph(50, 0.06, directed=True, seed=3)
        srcs = list(range(0, 50, 2))  # 25 sources, B = 8 -> chunks 8,8,8,1
        seq = turbo_bc(g, sources=srcs)
        bat = turbo_bc(g, sources=srcs, batch_size=8)
        assert_bc_close(bat.bc, seq.bc)

    @pytest.mark.parametrize("name,n_sources", [
        ("mycielskian15", 6),   # undirected, veccsc-classified
        ("mark3jac060sc", 6),   # directed, sccsc-classified
    ])
    def test_suite_graphs(self, name, n_sources):
        from repro.graphs import suite

        g = suite.get(name).build()
        srcs = list(range(n_sources))
        seq = turbo_bc(g, sources=srcs)
        for batch in (2, 4):
            bat = turbo_bc(g, sources=srcs, batch_size=batch)
            assert_bc_close(bat.bc, seq.bc)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        directed=st.booleans(),
        batch=st.integers(2, 16),
    )
    def test_property_random_graphs(self, seed, directed, batch):
        g = random_graph(30, 0.1, directed=directed, seed=seed)
        seq = turbo_bc(g, algorithm="sccsc")
        bat = turbo_bc(g, algorithm="sccsc", batch_size=batch)
        assert_bc_close(bat.bc, seq.bc)

    def test_keep_forward_last_source(self):
        g = random_graph(40, 0.08, directed=True, seed=5)
        srcs = [3, 9, 17, 25, 33]
        seq = turbo_bc(g, sources=srcs, keep_forward=True)
        bat = turbo_bc(g, sources=srcs, batch_size=2, keep_forward=True)
        assert bat.forward is not None
        assert bat.forward.source == srcs[-1]
        np.testing.assert_array_equal(bat.forward.sigma, seq.forward.sigma)
        np.testing.assert_array_equal(bat.forward.levels, seq.forward.levels)


class TestBatchedBitIdentity:
    """The SpMM path is *bit-identical* (np.array_equal, not allclose) to B
    independent single-source runs accumulated in source order.  Both sides
    run the backward stage in float64 so accumulation order is the only
    possible source of drift -- and the masked SpMM lanes perform exactly
    the per-source arithmetic, so there is none."""

    @pytest.mark.parametrize("seed", range(50))
    def test_fifty_seeded_random_graphs(self, seed):
        algorithm = ("sccooc", "sccsc", "veccsc")[seed % 3]
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 28))
        g = random_graph(n, 0.12, directed=bool(seed % 2), seed=seed + 1000)
        k = int(rng.integers(2, 7))
        srcs = sorted(rng.choice(n, size=k, replace=False).tolist())
        batch = len(srcs) if seed % 5 else "auto"
        bat = turbo_bc(g, sources=srcs, algorithm=algorithm, batch_size=batch,
                       backward_dtype=np.float64)
        lanes = np.zeros(g.n)
        for s in srcs:
            lanes += turbo_bc(g, sources=[s], algorithm=algorithm,
                              backward_dtype=np.float64).bc
        np.testing.assert_array_equal(bat.bc, lanes)

    def test_lane_identity_survives_partial_batches(self):
        # 7 sources through B=3: chunks of 3, 3, 1.
        g = random_graph(24, 0.1, directed=True, seed=77)
        srcs = [0, 3, 5, 9, 14, 18, 23]
        bat = turbo_bc(g, sources=srcs, batch_size=3,
                       backward_dtype=np.float64)
        lanes = np.zeros(g.n)
        for s in srcs:
            lanes += turbo_bc(g, sources=[s], backward_dtype=np.float64).bc
        np.testing.assert_array_equal(bat.bc, lanes)

    def test_segment_sums_follow_bincount_order(self):
        """Regression: the batched segment sum must round exactly like the
        sequential ``np.bincount`` accumulation.  ``np.add.reduceat`` does
        not (its float64 loop goes pairwise past a few entries), which once
        made batched lanes drift ULPs from B = 1 on columns of degree >= ~7."""
        from repro.formats.csc import CSCMatrix
        from repro.spmv._spmm import segment_sums

        rng = np.random.default_rng(3)
        seg_ptr = np.array([0, 1, 1, 9, 40, 40, 73])
        vals = rng.uniform(0.1, 3.0, size=(seg_ptr[-1], 4))
        seg_of_entry = np.repeat(np.arange(seg_ptr.size - 1), np.diff(seg_ptr))
        # entry k runs from its own row k to its segment's column
        mat = CSCMatrix(seg_ptr, np.arange(seg_ptr[-1]),
                        (seg_ptr[-1], seg_ptr.size - 1))
        sums, kept = segment_sums(vals, mat)
        assert kept.tolist() == list(range(seg_ptr[-1]))
        for j in range(vals.shape[1]):
            want = np.bincount(seg_of_entry, weights=vals[:, j],
                               minlength=seg_ptr.size - 1)
            np.testing.assert_array_equal(sums[:, j], want)

    def test_batched_float32_matches_sequential_float32(self):
        """At the default float32 backward dtype the batched driver is still
        bit-identical to the sequential driver (same device accumulation
        order), even though both differ from a float64 host sum."""
        for seed in (0, 1, 2):
            g = random_graph(30, 0.1, directed=bool(seed % 2), seed=seed)
            seq = turbo_bc(g, algorithm="sccsc")
            bat = turbo_bc(g, algorithm="sccsc", batch_size=8)
            np.testing.assert_array_equal(bat.bc, seq.bc)


def overflow_graph() -> Graph:
    """40 chained diamonds: sigma from vertex 0 is 2^40, overflowing int32."""
    edges = []
    v = 0
    for _ in range(40):
        a, b, c = v + 1, v + 2, v + 3
        edges += [(v, a), (v, b), (a, c), (b, c)]
        v = c
    return Graph.from_edges(edges, v + 1, directed=True)


class TestBatchedOverflow:
    def test_reruns_only_overflowed_sources(self):
        from repro.baselines.brandes import brandes_bc

        g = overflow_graph()
        srcs = [0, 115, 118]  # 0 overflows int32; the late sources don't
        res = turbo_bc(g, sources=srcs, batch_size=3)
        assert res.stats.rerun_sources == [0]
        assert res.stats.batch_size == 3
        assert_bc_close(res.bc, brandes_bc(g, sources=srcs), rtol=1e-6, atol=1e-6)

    def test_rerun_matches_sequential_auto(self):
        g = overflow_graph()
        srcs = [0, 115, 118]
        bat = turbo_bc(g, sources=srcs, batch_size=3)
        seq = turbo_bc(g, sources=srcs)
        assert_bc_close(bat.bc, seq.bc)
        assert bat.stats.depth_per_source == seq.stats.depth_per_source

    def test_explicit_int_dtype_raises(self):
        g = overflow_graph()
        with pytest.raises(SigmaOverflowError):
            turbo_bc(g, sources=[0, 115], batch_size=2, forward_dtype=np.int32)

    def test_device_clean_after_rerun(self):
        device = Device()
        turbo_bc(overflow_graph(), sources=[0, 115], batch_size=2, device=device)
        assert device.memory.used_bytes == 0


def grid_graph(side: int) -> Graph:
    """A ``side x side`` undirected grid: on a 40 x 40 grid the lattice-path
    counts overflow int32 from every source."""
    idx = np.arange(side * side).reshape(side, side)
    edges = [(int(a), int(b)) for a, b in zip(idx[:, :-1].ravel(), idx[:, 1:].ravel())]
    edges += [(int(a), int(b)) for a, b in zip(idx[:-1].ravel(), idx[1:].ravel())]
    return Graph.from_edges(edges, side * side, directed=False)


class TestB1OverflowKeepsCallerState:
    """Regression: a ``batch_size=1`` int32 sigma overflow under
    ``forward_dtype="auto"`` used to ``device.reset()`` the caller's device
    and re-run every source.  It must behave like any batch width: keep the
    caller's allocations and earlier launches, account the int32 pass, and
    re-run only the overflowed sources."""

    @pytest.mark.parametrize("batch", [1, 2])
    def test_overflow_rerun_leaves_caller_state(self, batch):
        from repro.baselines.brandes import brandes_bc

        device = Device()
        turbo_bc(random_graph(30, 0.1, directed=False, seed=1), sources=[0, 1],
                 device=device)
        earlier = device.profiler.total_launches()
        assert earlier > 0
        caller_buffer = device.memory.alloc("caller", 16, np.float32)

        g = grid_graph(40)
        srcs = [0, 820]
        res = turbo_bc(g, sources=srcs, batch_size=batch, device=device)

        assert not caller_buffer.is_freed
        assert device.profiler.total_launches() == earlier + res.stats.kernel_launches
        assert res.stats.rerun_sources == srcs
        run = device.profiler.launches[earlier:]
        # the int32 pass is accounted: one init per batch, plus one per
        # re-run source
        inits = sum(1 for launch in run if launch.name == "bfs_init")
        assert inits == -(-len(srcs) // batch) + len(srcs)
        assert res.stats.gpu_time_s == pytest.approx(sum(l.time_s for l in run))
        assert_bc_close(res.bc, brandes_bc(g, sources=srcs), rtol=1e-6, atol=1e-6)
        device.memory.free(caller_buffer)

    def test_b1_reruns_only_overflowed_sources(self):
        res = turbo_bc(overflow_graph(), sources=[0, 115, 118], batch_size=1)
        assert res.stats.rerun_sources == [0]
        assert res.stats.batch_size == 1


class TestAutoBatchAndMemory:
    def test_auto_batch_runs_and_matches(self, small_directed):
        res = turbo_bc(small_directed, batch_size="auto")
        seq = turbo_bc(small_directed)
        assert res.stats.batch_size >= 1
        assert_bc_close(res.bc, seq.bc)

    def test_auto_batch_caps_at_64(self, small_undirected):
        # plenty of memory for this tiny graph -> the cap binds
        res = turbo_bc(small_undirected, batch_size="auto")
        assert res.stats.batch_size <= 64

    def test_auto_batch_shrinks_on_small_device(self):
        g = random_graph(200, 0.03, directed=True, seed=9)
        big = turbo_bc(g, batch_size="auto").stats.batch_size
        # a device barely larger than the B=2 footprint forces a small batch
        words = turbobc_batched_footprint_words(g.n, g.m, 3)
        small_dev = Device(DeviceSpec(name="tiny", global_memory_bytes=words * 4))
        small = turbo_bc(g, batch_size="auto", device=small_dev).stats.batch_size
        assert small < big
        assert small >= 1

    def test_oversized_explicit_batch_rejected(self):
        g = random_graph(200, 0.03, directed=True, seed=9)
        words = turbobc_batched_footprint_words(g.n, g.m, 2)
        tiny = Device(DeviceSpec(name="tiny", global_memory_bytes=words * 4))
        with pytest.raises(DeviceOutOfMemoryError):
            turbo_bc(g, batch_size=64, device=tiny)

    def test_peak_memory_matches_footprint_model(self):
        g = random_graph(300, 0.02, directed=True, seed=4)
        batch = 8
        device = Device()
        turbo_bc(g, batch_size=batch, device=device, algorithm="sccsc",
                 forward_dtype=np.int32)
        expected = turbobc_batched_footprint_words(g.n, g.m, batch, "csc") * 4
        assert device.memory.peak_bytes == expected

    def test_batch_size_one_keeps_sequential_footprint(self):
        from repro.perf.memory_model import turbobc_footprint_words

        assert turbobc_batched_footprint_words(5, 7, 1, "csc") == (
            turbobc_footprint_words(5, 7, "csc")
        )
        assert turbobc_batched_footprint_words(5, 7, 1, "cooc") == (
            turbobc_footprint_words(5, 7, "cooc")
        )


class TestSourceValidation:
    def test_out_of_range_rejected(self, small_directed):
        with pytest.raises(ValueError, match="out of range"):
            turbo_bc(small_directed, sources=[0, 40])
        with pytest.raises(ValueError, match="out of range"):
            turbo_bc(small_directed, sources=-1)

    def test_duplicates_rejected(self, small_directed):
        with pytest.raises(ValueError, match="duplicate"):
            turbo_bc(small_directed, sources=[1, 2, 1])

    def test_resolve_sources_helper(self, small_directed):
        assert _resolve_sources(small_directed, None) == list(range(40))
        assert _resolve_sources(small_directed, 5) == [5]
        assert _resolve_sources(small_directed, [3, 1]) == [3, 1]

    def test_bad_batch_size_rejected(self, small_directed):
        with pytest.raises(ValueError, match="batch_size"):
            turbo_bc(small_directed, batch_size=0)
        with pytest.raises(ValueError, match="batch_size"):
            turbo_bc(small_directed, batch_size="huge")


class TestBatchedWiring:
    def test_approximate_bc_batched(self):
        g = random_graph(60, 0.06, directed=False, seed=8)
        seq = approximate_bc(g, 16, seed=1)
        bat = approximate_bc(g, 16, seed=1, batch_size=8)
        assert_bc_close(bat.bc, seq.bc)

    def test_multi_gpu_batched(self):
        # batch_size sets the task granularity, i.e. how many sources share
        # one float32 device accumulator before the host's float64 fold --
        # so different batches agree to accumulation order (same tolerance
        # as multi-device vs single-device); bit-identity is only promised
        # across device counts/schedulers at a fixed batch (test_multigpu).
        g = random_graph(60, 0.06, directed=True, seed=8)
        seq, _ = multi_gpu_bc(g, n_devices=2)
        bat, _ = multi_gpu_bc(g, n_devices=2, batch_size=8)
        assert_bc_close(bat.bc, seq.bc, rtol=1e-6, atol=1e-6)

    def test_cli_batch_size(self, tmp_path, capsys):
        from repro.cli import main

        g = random_graph(30, 0.1, directed=False, seed=2)
        path = tmp_path / "g.el"
        with open(path, "w") as fh:
            for u, v in zip(g.src, g.dst):
                fh.write(f"{u} {v}\n")
        assert main(["bc", str(path), "--batch-size", "8", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "batch=8" in out
