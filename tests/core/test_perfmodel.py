"""Tests for repro.core.perfmodel — the paper's central model claims."""

from __future__ import annotations

import pytest

from repro.core import ConstraintMode, PerformanceModel, zero_base_provider
from repro.core.calibration import STRATIX10_TABLE1, TABLE1_DEGREES
from repro.core.perfmodel import (
    stratix_base_provider,
    table1_design_throughput,
    table1_measured_resources,
)
from repro.hardware.fpga import (
    AGILEX_027,
    IDEAL_FPGA,
    STRATIX10_GX2800,
    STRATIX10_M,
    STRATIX10_M_ENHANCED,
)


@pytest.fixture(scope="module")
def measured_model():
    return PerformanceModel(STRATIX10_GX2800, mode=ConstraintMode.MEASURED)


class TestMeasuredMode:
    def test_t_bandwidth_is_four(self, measured_model):
        assert measured_model.t_bandwidth() == pytest.approx(4.0)

    @pytest.mark.parametrize("n", TABLE1_DEGREES)
    def test_t_max_pattern(self, measured_model, n):
        expected = {1: 2, 3: 4, 5: 2, 7: 4, 9: 2, 11: 4, 13: 2, 15: 4}[n]
        assert measured_model.t_max(n) == expected
        assert measured_model.t_max(n) == table1_design_throughput(n)

    @pytest.mark.parametrize("n", TABLE1_DEGREES)
    def test_model_error_column(self, measured_model, n):
        row = STRATIX10_TABLE1[n]
        err = measured_model.model_error_pct(n, row.dofs_per_cycle)
        assert err == pytest.approx(row.model_error_pct, abs=0.6)

    @pytest.mark.parametrize("n", TABLE1_DEGREES)
    def test_resources_never_binding_on_stratix(self, measured_model, n):
        # On the measured device bandwidth is always the binding
        # constraint (T_R > T_B = 4 for every degree).
        assert measured_model.t_resource(n) > measured_model.t_bandwidth()

    def test_peak_at_300mhz_equals_roofline_for_t4_degrees(self, measured_model):
        # P(300 MHz, T=4) = 76.8 GB/s x I(N) for 4-divisible degrees.
        for n in (3, 7, 11, 15):
            expected = 76.8 * (12 * (n + 1) + 15) / 64.0
            assert measured_model.peak_gflops(n, 300.0) == pytest.approx(expected)

    def test_predict_fields(self, measured_model):
        p = measured_model.predict(7)
        assert p.binding == "bandwidth"
        assert p.t_max == 4.0
        assert p.bram_feasible


class TestProjections:
    """The §V-D headline numbers, asserted exactly as the paper states."""

    def test_agilex(self):
        pm = PerformanceModel(AGILEX_027, mode=ConstraintMode.PROJECTION)
        got = [pm.predict(n) for n in (7, 11, 15)]
        assert [round(p.gflops, 1) for p in got] == [266.4, 190.8, 248.4]
        assert [p.binding for p in got] == ["bandwidth", "logic", "logic"]
        # The paper: Agilex could support ~6 lanes at N=11, floored to 4.
        assert 4.0 < pm.t_resource(11) < 8.0

    def test_stratix_10m(self):
        pm = PerformanceModel(STRATIX10_M, mode=ConstraintMode.PROJECTION)
        got = [pm.predict(n) for n in (7, 11, 15)]
        assert [round(p.gflops, 1) for p in got] == [266.4, 381.6, 248.4]
        assert all(p.binding == "dsp" for p in got)
        # Peak at N=11 - the paper's "peaking at 382 GFlops/s at N=11".
        assert got[1].gflops == max(p.gflops for p in got)

    def test_stratix_10m_enhanced(self):
        pm = PerformanceModel(STRATIX10_M_ENHANCED, mode=ConstraintMode.PROJECTION)
        got = [pm.predict(n).gflops for n in (7, 11, 15)]
        for g, paper in zip(got, (1060.0, 1530.0, 990.0)):
            assert abs(g - paper) / paper < 0.03

    def test_ideal_fpga_beats_a100(self):
        pm = PerformanceModel(
            IDEAL_FPGA, base_provider=zero_base_provider(),
            mode=ConstraintMode.PROJECTION,
        )
        got = [pm.predict(n) for n in (7, 11, 15)]
        assert [round(p.gflops, 1) for p in got] == [2131.2, 3052.8, 3974.4]
        assert all(p.t_max == 64.0 for p in got)
        # "exactly like the A100, be memory bound, but also DSP/logic
        # bound depending on the polynomial degree".
        assert {p.binding for p in got} == {"bandwidth", "dsp"}

    def test_projection_reuses_stratix_base(self):
        # Same base provider instance regardless of target device.
        pm1 = PerformanceModel(AGILEX_027, mode=ConstraintMode.PROJECTION)
        pm2 = PerformanceModel(STRATIX10_M, mode=ConstraintMode.PROJECTION)
        assert pm1.base_provider is pm2.base_provider


class TestBaseProvider:
    def test_interpolation_between_degrees(self):
        base = stratix_base_provider()
        lo, mid, hi = base(7).alms, base(8).alms, base(9).alms
        assert min(lo, hi) <= mid <= max(lo, hi)

    def test_clamping_outside_range(self):
        base = stratix_base_provider()
        assert base(20).alms == base(15).alms
        assert base(1).alms == base(1).alms

    def test_measured_resources_reconstruction(self):
        r = table1_measured_resources(7)
        assert r.alms == pytest.approx(0.72 * 933_120)
        assert r.registers == 1_464_437
        assert r.dsps == pytest.approx(0.24 * 5760)

    def test_zero_base(self):
        z = zero_base_provider()
        assert z(3).alms == 0 and z(15).dsps == 0

    def test_model_error_sign_convention(self):
        # Positive error when the measurement falls short of the model.
        pm = PerformanceModel(STRATIX10_GX2800, mode=ConstraintMode.MEASURED)
        assert pm.model_error_pct(7, 3.0) > 0
        assert pm.model_error_pct(7, 4.0) == pytest.approx(0.0)
