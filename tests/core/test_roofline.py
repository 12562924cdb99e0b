"""Tests for repro.core.roofline."""

from __future__ import annotations

import pytest

from repro.core.roofline import Roofline


class TestRoofline:
    def test_memory_bound_region(self):
        r = Roofline(peak_flops=1e12, peak_bandwidth=100e9)
        assert r.attainable(1.0) == pytest.approx(100e9)

    def test_compute_bound_region(self):
        r = Roofline(peak_flops=1e12, peak_bandwidth=100e9)
        assert r.attainable(100.0) == pytest.approx(1e12)

    def test_ridge(self):
        r = Roofline(peak_flops=1e12, peak_bandwidth=100e9)
        # The ridge sits at peak / bandwidth = 10 FLOP/B: the roof is
        # reached there and not before.
        assert r.attainable(10.0) == pytest.approx(1e12)
        assert r.attainable(9.0) < 1e12

    def test_stratix_ax_roofline(self):
        # 76.8 GB/s x I(7) = 133.2 GFLOP/s - Fig. 3's roofline at N=7.
        r = Roofline(peak_flops=500e9, peak_bandwidth=76.8e9)
        assert r.attainable_for_degree(7) == pytest.approx(133.2e9, rel=1e-3)
        assert r.attainable_for_degree(7) < r.peak_flops  # memory-bound

    def test_ax_kernel_memory_bound_on_all_table2_systems(self):
        # The paper's premise: this kernel is memory-bound on every
        # system at the common degrees, except the DP-starved RTX 2060
        # (always compute-bound) and the bandwidth-rich ThunderX2 which
        # crosses its ridge just below N=15.
        from repro.hardware.catalog import SYSTEM_CATALOG

        def memory_bound(spec, n):
            r = Roofline(spec.peak_flops, spec.peak_bandwidth)
            return r.attainable_for_degree(n) < r.peak_flops

        for name, spec in SYSTEM_CATALOG.items():
            expected = name != "NVIDIA RTX 2060 Super"
            assert memory_bound(spec, 7) == expected, name
            assert memory_bound(spec, 11) == expected, name
        assert not memory_bound(SYSTEM_CATALOG["Marvell ThunderX2"], 15)

    def test_monotone_in_intensity(self):
        r = Roofline(1e12, 100e9)
        vals = [r.attainable(i) for i in (0.5, 1, 2, 5, 20, 50)]
        assert vals == sorted(vals)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            Roofline(0, 1)
        r = Roofline(1, 1)
        with pytest.raises(ValueError, match=">= 0"):
            r.attainable(-1.0)
