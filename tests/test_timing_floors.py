"""Tests of the timing-model floors: atomic serialisation, critical warp
path, dtype factors and the footprint-pressure miss model."""

import numpy as np
import pytest

from repro.gpusim import warp as W
from repro.gpusim.device import Device, DeviceSpec, TITAN_XP
from repro.gpusim.kernel import KernelStats
from repro.graphs.graph import Graph
from repro.spmv import sccooc_spmm, sccsc_spmm, veccsc_spmm

BATCHES = (1, 3)


class TestSerialFloors:
    def test_atomic_chain_floors_time(self, device):
        s = KernelStats(name="k", serial_updates=1_000_000)
        launch = device.launch(s)
        expected = 1_000_000 * TITAN_XP.atomic_serialization_s
        assert launch.serial_time_s == pytest.approx(expected)
        assert launch.exec_time_s >= expected

    def test_critical_warp_floors_time(self, device):
        cycles = int(TITAN_XP.clock_ghz * 1e9)  # one second of one warp
        s = KernelStats(name="k", critical_warp_cycles=cycles)
        launch = device.launch(s)
        assert launch.exec_time_s == pytest.approx(1.0)

    def test_floors_do_not_add(self, device):
        """serial is a max of the two chains, not a sum."""
        s = KernelStats(
            name="k",
            serial_updates=100,
            critical_warp_cycles=10,
        )
        launch = device.launch(s)
        expected = max(
            100 * TITAN_XP.atomic_serialization_s,
            10 / (TITAN_XP.clock_ghz * 1e9),
        )
        assert launch.serial_time_s == pytest.approx(expected)

    def test_hub_scatter_carries_serial_chain(self, device):
        """A 1000-in-degree hub must show up as a 1000-long atomic chain."""
        n = 1100
        src = np.arange(1, 1001)
        dst = np.zeros(1000, dtype=np.int64)
        g = Graph(src, dst, n, directed=True)
        for B in BATCHES:
            X = np.ones((n, B), dtype=np.int32)
            _, launch = sccooc_spmm(device, g.to_cooc(), X)
            assert launch.stats.serial_updates == 1000

    def test_hub_column_carries_critical_path(self, device):
        n = 1100
        src = np.arange(1, 1001)
        dst = np.zeros(1000, dtype=np.int64)
        g = Graph(src, dst, n, directed=True)
        for B in BATCHES:
            X = np.ones((n, B), dtype=np.int32)
            _, sc = sccsc_spmm(device, g.to_csc(), X)
            _, ve = veccsc_spmm(device, g.to_csc(), X)
            # the scalar kernel's slowest warp scans the whole hub column;
            # the vector kernel splits it over 32 lanes
            assert sc.stats.critical_warp_cycles > 10 * ve.stats.critical_warp_cycles


class TestDtypeFactors:
    def test_factor_values(self):
        assert W.dtype_cycle_factor(np.int32) == 1
        assert W.dtype_cycle_factor(np.int64) == 1
        assert W.dtype_cycle_factor(np.float32) == 2
        assert W.dtype_cycle_factor(np.float64) == 6

    def test_float64_scatter_slower_on_hub(self, device):
        n = 1100
        src = np.arange(1, 1001)
        dst = np.zeros(1000, dtype=np.int64)
        g = Graph(src, dst, n, directed=True)
        for B in BATCHES:
            _, li = sccooc_spmm(device, g.to_cooc(), np.ones((n, B), dtype=np.int32))
            _, lf = sccooc_spmm(device, g.to_cooc(), np.ones((n, B), dtype=np.float64))
            assert lf.stats.serial_updates == 6 * li.stats.serial_updates


class TestPressureMiss:
    def test_small_footprint_fully_cached(self):
        # a 4 KB array: scalar gathers stay near the footprint bound
        txn = W.scalar_gather_transactions(100_000, 1000)
        assert txn <= -(-1000 * 4 // 32)

    def test_large_footprint_pays_miss_rate(self):
        words = 2 * W.L2_BYTES  # 8 MB of 4-byte words >> L2
        txn = W.scalar_gather_transactions(1_000_000, words)
        assert txn >= 0.25 * 1_000_000

    def test_pressure_is_monotone(self):
        txns = [
            W.scalar_gather_transactions(500_000, words)
            for words in (10_000, 200_000, 1_000_000, 4_000_000)
        ]
        assert txns == sorted(txns)


class TestScaledL2Device:
    def test_spec_carries_l2(self):
        spec = DeviceSpec(l2_bytes=1024)
        assert Device(spec).spec.l2_bytes == 1024

    def test_scaled_device_spec_helper(self):
        from repro.bench.runner import scaled_device_spec
        from repro.graphs import suite

        full = suite.get("mark3jac060sc")       # full-scale row
        assert scaled_device_spec(full).l2_bytes == TITAN_XP.l2_bytes
        scaled = suite.get("GAP-twitter")       # 400k of 62M vertices
        spec = scaled_device_spec(scaled)
        assert spec.l2_bytes < TITAN_XP.l2_bytes / 50
        suite.clear_graph_cache()

    def test_smaller_l2_never_speeds_up_spmv(self, rng):
        from tests.conftest import random_graph

        g = random_graph(400, 0.05, directed=True, seed=5)
        for B in BATCHES:
            X = rng.integers(0, 3, (g.n, B)).astype(np.int32)
            t_big = sccsc_spmm(Device(), g.to_csc(), X)[1].exec_time_s
            t_small = sccsc_spmm(Device(DeviceSpec(l2_bytes=256)), g.to_csc(), X)[1].exec_time_s
            assert t_small >= t_big
