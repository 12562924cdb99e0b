"""Tests for repro.core.device (resource vectors, fabrics, memory)."""

from __future__ import annotations

import pytest

from repro.core.device import (
    FPGADevice,
    FPGAFabric,
    MemorySystem,
    OperatorCosts,
    ResourceVector,
)


class TestResourceVector:
    def test_arithmetic(self):
        a = ResourceVector(10, 20, 2, 1)
        b = ResourceVector(1, 2, 3, 4)
        assert a + b == ResourceVector(11, 22, 5, 5)
        assert a - b == ResourceVector(9, 18, -1, -3)
        assert 2 * a == ResourceVector(20, 40, 4, 2)
        assert (a - b).clamped() == ResourceVector(9, 18, 0, 0)

    def test_min_ratio(self):
        avail = ResourceVector(alms=100, dsps=30)
        need = ResourceVector(alms=10, dsps=10)
        assert avail.min_ratio(need) == 3.0

    def test_min_ratio_ignores_zero_demand(self):
        avail = ResourceVector(alms=100, dsps=0)
        need = ResourceVector(alms=10)
        assert avail.min_ratio(need) == 10.0

    def test_min_ratio_no_demand_is_inf(self):
        assert ResourceVector(1, 1, 1, 1).min_ratio(ResourceVector()) == float("inf")

    def test_utilization(self):
        used = ResourceVector(alms=50, registers=0, dsps=25, brams=10)
        total = ResourceVector(alms=100, registers=10, dsps=100, brams=100)
        util = used.utilization(total)
        assert util["alms"] == 0.5 and util["dsps"] == 0.25 and util["brams"] == 0.1


class TestOperatorCosts:
    def test_measured_fabric_costs(self):
        oc = OperatorCosts.stratix10_double()
        assert oc.add.dsps == 0           # DP adders are soft logic
        assert oc.mult.dsps == 6.0
        assert oc.add.alms > oc.mult.alms  # adders dominate logic

    def test_specialized_halves_dsp(self):
        oc = OperatorCosts.specialized_dsp()
        assert oc.mult.dsps == 3.0


class TestMemorySystem:
    def test_stratix_peak_bandwidth(self):
        mem = MemorySystem(banks=4, bus_bits=512, controller_mhz=300.0)
        assert mem.bank_bytes_per_cycle == 64
        assert mem.peak_bandwidth == pytest.approx(76.8e9)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            MemorySystem(banks=0, bus_bits=512, controller_mhz=300.0)


class TestFPGADevice:
    def make(self):
        return FPGADevice(
            fabric=FPGAFabric("x", ResourceVector(alms=1e6, registers=4e6, dsps=5000, brams=10000)),
            memory=MemorySystem(4, 512, 300.0),
            max_kernel_mhz=300.0,
        )

    def test_bandwidth_dofs_per_cycle(self):
        # 76.8 GB/s / (64 B x 300 MHz) = 4 - the paper's T_B for this FPGA.
        from repro.core.throughput import bandwidth_throughput

        dev = self.make()
        t_b = bandwidth_throughput(dev.peak_bandwidth, 300e6)
        assert t_b == pytest.approx(4.0)
        t_b_half_clock = bandwidth_throughput(dev.peak_bandwidth, 150e6)
        assert t_b_half_clock == pytest.approx(8.0)

    def test_usable_fraction(self):
        fab = FPGAFabric(
            "y", ResourceVector(alms=100, registers=200, dsps=10, brams=20),
            usable_fraction=0.9,
        )
        assert fab.usable.alms == pytest.approx(90.0)
        assert fab.usable.dsps == 10.0  # hard blocks not derated

    def test_name_delegation(self):
        assert self.make().name == "x"
