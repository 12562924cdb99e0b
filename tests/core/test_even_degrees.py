"""Behaviour at degrees the paper did NOT synthesize (even N, odd nx).

The library must degrade gracefully outside the eight calibrated
degrees: interpolated bases and stream efficiencies, the 300 MHz default
clock, and — for odd GLL counts — the arbitration analysis forcing
unroll 1 (the reason the paper "focuses on even numbers of GLL points").
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ConstraintMode, PerformanceModel
from repro.core.accel import AcceleratorConfig, SEMAccelerator, synthesize
from repro.core.perfmodel import table1_design_throughput
from repro.hardware.fpga import STRATIX10_GX2800
from repro.hls import ax_grad_nest, max_conflict_free_unroll
from oracles import ax_local
from repro.sem import ReferenceElement, BoxMesh, geometric_factors


class TestOddGllCounts:
    @pytest.mark.parametrize("n", (2, 4, 6, 8))
    def test_unroll_forced_to_one(self, n):
        # nx odd -> no power of two > 1 divides it.
        assert max_conflict_free_unroll(ax_grad_nest(n, 1), "i") == 1
        assert table1_design_throughput(n) == 1
        assert AcceleratorConfig(n=n).unroll == 1

    @pytest.mark.parametrize("n", (2, 4))
    def test_simulator_runs_and_matches_reference(self, n):
        ref = ReferenceElement.from_degree(n)
        mesh = BoxMesh.build(ref, (2, 1, 1))
        geo = geometric_factors(mesh)
        rng = np.random.default_rng(n)
        u = rng.standard_normal((2,) + (n + 1,) * 3)
        acc = SEMAccelerator(AcceleratorConfig.banked(n), STRATIX10_GX2800)
        w, rep = acc.run(u, geo.g)
        assert np.allclose(w, ax_local(ref, u, geo.g), rtol=1e-12, atol=1e-12)
        assert rep.dofs_per_cycle <= 1.0 + 1e-9

    def test_even_degree_much_slower_than_odd_neighbours(self):
        # Fig. 3's sawtooth: N=8 (T=1) sits far below N=7 and N=9 (T>=2).
        perf = {}
        for n in (7, 8, 9):
            acc = SEMAccelerator(AcceleratorConfig.banked(n), STRATIX10_GX2800)
            perf[n] = acc.performance(4096).gflops
        assert perf[8] < 0.6 * perf[7]
        assert perf[8] < 0.6 * perf[9]


class TestInterpolatedCalibration:
    def test_default_clock_is_300(self):
        assert AcceleratorConfig(n=8).clock_mhz == 300.0

    def test_model_covers_even_degrees(self):
        model = PerformanceModel(STRATIX10_GX2800, mode=ConstraintMode.MEASURED)
        for n in (2, 6, 10, 14):
            t = model.t_max(n)
            assert t == 1.0  # odd nx forces T=1 in measured mode

    def test_synthesis_report_for_uncalibrated_degree(self):
        syn = synthesize(AcceleratorConfig(n=8), STRATIX10_GX2800)
        assert syn.fmax_mhz == 300.0
        assert 0 < syn.logic_pct < 100
        assert 60 < syn.power_w < 115

    def test_stream_efficiency_interpolation_monotone_sampling(self):
        from repro.core.accel.extmem import default_stream_efficiency

        for n in (2, 4, 6, 8, 10, 12, 14):
            lo = default_stream_efficiency(n - 1)
            hi = default_stream_efficiency(n + 1)
            mid = default_stream_efficiency(n)
            assert min(lo, hi) - 1e-12 <= mid <= max(lo, hi) + 1e-12
