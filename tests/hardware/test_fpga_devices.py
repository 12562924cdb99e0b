"""Tests for repro.hardware.fpga (device instances)."""

from __future__ import annotations

import pytest

from repro.core.throughput import bandwidth_throughput
from repro.hardware.fpga import (
    AGILEX_027,
    IDEAL_FPGA,
    PROJECTED_DEVICES,
    STRATIX10_GX2800,
    STRATIX10_M,
    STRATIX10_M_ENHANCED,
)


def t_b(device):
    """The paper's bandwidth bound in DOF/cycle at the 300 MHz kernel clock."""
    return bandwidth_throughput(device.peak_bandwidth, 300e6)


class TestMeasuredDevice:
    def test_stratix_bandwidth(self):
        assert STRATIX10_GX2800.peak_bandwidth == pytest.approx(76.8e9)
        assert t_b(STRATIX10_GX2800) == pytest.approx(4.0)

    def test_stratix_inventory(self):
        t = STRATIX10_GX2800.fabric.total
        assert t.alms == 933_120 and t.dsps == 5_760 and t.brams == 11_721


class TestProjectionDevices:
    def test_bandwidths_are_integral_dofs_per_cycle(self):
        # The paper sizes every projection memory in whole DOF/cycle.
        assert t_b(AGILEX_027) == pytest.approx(8.0)
        assert t_b(STRATIX10_M) == pytest.approx(16.0)
        assert t_b(IDEAL_FPGA) == pytest.approx(64.0)

    def test_enhanced_10m_near_600gbs(self):
        assert STRATIX10_M_ENHANCED.peak_bandwidth == pytest.approx(600e9, rel=0.01)

    def test_paper_size_relations(self):
        # 10M: "factor 3.6x larger" logic than the GX2800.
        ratio = STRATIX10_M.fabric.total.alms / STRATIX10_GX2800.fabric.total.alms
        assert ratio == pytest.approx(3.7, abs=0.2)
        # Ideal: "6x larger" logic, "4 times more" DSPs, "10% more" BRAM.
        assert IDEAL_FPGA.fabric.total.alms / STRATIX10_GX2800.fabric.total.alms == (
            pytest.approx(6.6, abs=0.3)
        )
        assert IDEAL_FPGA.fabric.total.dsps == pytest.approx(20_000)
        assert IDEAL_FPGA.fabric.total.brams / STRATIX10_GX2800.fabric.total.brams == (
            pytest.approx(1.10, abs=0.01)
        )

    def test_ideal_bandwidth_below_a100(self):
        # "driven with an external memory supporting 1.2 TB/s (which is
        # less than Ampere-100's 1.555 TB/s)".
        assert IDEAL_FPGA.peak_bandwidth < 1.555e12
        assert IDEAL_FPGA.peak_bandwidth == pytest.approx(1.2288e12)

    def test_specialized_dsp_costs_on_future_devices(self):
        assert IDEAL_FPGA.fabric.op_costs.mult.dsps == 3.0
        assert STRATIX10_M_ENHANCED.fabric.op_costs.mult.dsps == 3.0
        assert AGILEX_027.fabric.op_costs.mult.dsps == 6.0

    def test_projection_tuple(self):
        assert PROJECTED_DEVICES == (AGILEX_027, STRATIX10_M, IDEAL_FPGA)

    def test_all_projections_clock_at_300(self):
        # "For all projections, we assume a mere 300 MHz clock frequency."
        for dev in PROJECTED_DEVICES + (STRATIX10_M_ENHANCED,):
            assert dev.max_kernel_mhz == 300.0
