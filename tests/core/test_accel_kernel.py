"""Tests for repro.core.accel.kernel (the accelerator simulator)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.accel import AcceleratorConfig, SEMAccelerator
from repro.core.calibration import (
    REFERENCE_ELEMENTS,
    STRATIX10_TABLE1,
    TABLE1_DEGREES,
)
from repro.hardware.fpga import STRATIX10_GX2800
from oracles import ax_local
from repro.sem import (
    BoxMesh,
    ReferenceElement,
    ax_local_listing1,
    geometric_factors,
)


@pytest.fixture(scope="module")
def curved_fields():
    ref = ReferenceElement.from_degree(3)
    mesh = BoxMesh.build(ref, (2, 1, 1)).deform(
        lambda x, y, z: (x + 0.05 * np.sin(np.pi * y), y, z + 0.02 * np.sin(np.pi * x))
    )
    geo = geometric_factors(mesh)
    rng = np.random.default_rng(21)
    u = rng.standard_normal((2, 4, 4, 4))
    return ref, geo, u


class TestFunctional:
    def test_run_matches_reference(self, curved_fields):
        ref, geo, u = curved_fields
        acc = SEMAccelerator(AcceleratorConfig.banked(3), STRATIX10_GX2800)
        w, report = acc.run(u, geo.g)
        assert np.allclose(w, ax_local(ref, u, geo.g), rtol=1e-13, atol=1e-14)
        assert report.num_elements == 2

    def test_detailed_element_bit_exact_vs_listing1(self, curved_fields):
        ref, geo, u = curved_fields
        acc = SEMAccelerator(AcceleratorConfig.banked(3), STRATIX10_GX2800)
        w_ref = ax_local_listing1(ref, u, geo.g)
        for e in range(2):
            w_e = acc.execute_element_detailed(u[e], geo.g[e])
            assert np.array_equal(w_e, w_ref[e])

    @pytest.mark.parametrize("unroll", (1, 2, 4))
    def test_detailed_independent_of_unroll(self, curved_fields, unroll):
        # The lane grouping must not change the numerics.
        ref, geo, u = curved_fields
        acc = SEMAccelerator(
            AcceleratorConfig(n=3, unroll=unroll), STRATIX10_GX2800
        )
        w = acc.execute_element_detailed(u[0], geo.g[0])
        assert np.array_equal(w, ax_local_listing1(ref, u[:1], geo.g[:1])[0])

    def test_backend_adapter(self, curved_fields):
        ref, geo, u = curved_fields
        acc = SEMAccelerator(AcceleratorConfig.banked(3), STRATIX10_GX2800)
        backend = acc.as_ax_backend()
        w = backend(ref, u, geo.g)
        assert np.allclose(w, ax_local(ref, u, geo.g))
        assert len(acc.history) == 1

    def test_backend_rejects_wrong_degree(self, curved_fields):
        _, geo, u = curved_fields
        acc = SEMAccelerator(AcceleratorConfig.banked(7), STRATIX10_GX2800)
        backend = acc.as_ax_backend()
        with pytest.raises(ValueError, match="built for N=7"):
            backend(ReferenceElement.from_degree(3), u, geo.g)


class TestTable1Reproduction:
    @pytest.mark.parametrize("n", TABLE1_DEGREES)
    def test_gflops_and_throughput(self, n):
        acc = SEMAccelerator(AcceleratorConfig.banked(n), STRATIX10_GX2800)
        rep = acc.performance(REFERENCE_ELEMENTS)
        paper = STRATIX10_TABLE1[n]
        assert rep.dofs_per_cycle == pytest.approx(paper.dofs_per_cycle, abs=0.02)
        assert rep.gflops == pytest.approx(paper.gflops, rel=0.035)

    def test_peak_is_n15(self):
        peaks = {
            n: SEMAccelerator(
                AcceleratorConfig.banked(n), STRATIX10_GX2800
            ).performance(REFERENCE_ELEMENTS).gflops
            for n in TABLE1_DEGREES
        }
        assert max(peaks, key=peaks.get) == 15
        assert peaks[15] > 200.0


class TestCycleAccounting:
    def test_memory_bound_at_reference(self):
        acc = SEMAccelerator(AcceleratorConfig.banked(7), STRATIX10_GX2800)
        rep = acc.performance(REFERENCE_ELEMENTS)
        assert rep.cycles_memory > rep.cycles_compute
        assert rep.cycles_total == rep.cycles_memory

    def test_overlap_model(self):
        acc = SEMAccelerator(AcceleratorConfig.banked(7), STRATIX10_GX2800)
        rep = acc.performance(512)
        assert rep.cycles_total == max(rep.cycles_compute, rep.cycles_memory)

    def test_time_includes_launch_overhead(self):
        acc = SEMAccelerator(AcceleratorConfig.banked(7), STRATIX10_GX2800)
        rep = acc.performance(16)
        assert rep.time_total_s > rep.time_kernel_s
        assert rep.gflops_end_to_end < rep.gflops

    def test_baseline_latency_bound(self):
        acc = SEMAccelerator(AcceleratorConfig.baseline(7), STRATIX10_GX2800)
        rep = acc.performance(REFERENCE_ELEMENTS)
        assert rep.memory is None and rep.datapath is None
        assert rep.gflops < 0.1  # paper: 0.025 GFLOP/s

    def test_flops_and_bytes(self):
        acc = SEMAccelerator(AcceleratorConfig.banked(7), STRATIX10_GX2800)
        rep = acc.performance(100)
        assert rep.flops == 111 * 100 * 512
        assert rep.bytes_external == 64 * 100 * 512

    def test_invalid_element_count(self):
        acc = SEMAccelerator(AcceleratorConfig.banked(7), STRATIX10_GX2800)
        with pytest.raises(ValueError, match=">= 1"):
            acc.performance(0)

    def test_monotone_in_problem_size(self):
        acc = SEMAccelerator(AcceleratorConfig.banked(7), STRATIX10_GX2800)
        g = [acc.performance(e).gflops_end_to_end for e in (8, 64, 512, 4096)]
        assert g == sorted(g)
