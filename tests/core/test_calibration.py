"""Tests for repro.core.calibration (Table-I anchors, consistency)."""

from __future__ import annotations

import pytest

from repro.core.calibration import (
    BANDWIDTH_RAMP_E_HALF,
    REFERENCE_ELEMENTS,
    STRATIX10_PEAK_BANDWIDTH,
    STRATIX10_TABLE1,
    STRATIX10_TOTALS,
    TABLE1_DEGREES,
    bandwidth_ramp,
    fmax_mhz,
    stream_efficiency,
)
from repro.core.cost import flops_per_dof


class TestTable1Internal:
    """Cross-column consistency of the transcribed Table I."""

    @pytest.mark.parametrize("n", TABLE1_DEGREES)
    def test_gflops_column_consistent(self, n):
        # GF/s = FLOPs/DOF x DOF/cycle x fmax - must hold within 4%
        # (the paper's own rounding).
        row = STRATIX10_TABLE1[n]
        derived = flops_per_dof(n) * row.dofs_per_cycle * row.fmax_mhz * 1e6 / 1e9
        assert derived == pytest.approx(row.gflops, rel=0.04), (derived, row.gflops)

    @pytest.mark.parametrize("n", TABLE1_DEGREES)
    def test_efficiency_column_consistent(self, n):
        row = STRATIX10_TABLE1[n]
        assert row.gflops / row.power_w == pytest.approx(
            row.gflops_per_w, abs=0.06
        )

    def test_all_eight_degrees_present(self):
        assert TABLE1_DEGREES == (1, 3, 5, 7, 9, 11, 13, 15)
        assert set(STRATIX10_TABLE1) == set(TABLE1_DEGREES)

    def test_fmax_range(self):
        # Paper: "operating frequency ranges between 170 and 391 MHz".
        fmaxes = [STRATIX10_TABLE1[n].fmax_mhz for n in TABLE1_DEGREES]
        assert min(fmaxes) == 170.0 and max(fmaxes) == 391.0

    def test_power_range(self):
        # Paper: "power consumption varies between ~80.0 and 99.65 W".
        powers = [STRATIX10_TABLE1[n].power_w for n in TABLE1_DEGREES]
        assert 75.0 < min(powers) < 82.0
        assert max(powers) == 99.65

    def test_peak_performance_values(self):
        assert STRATIX10_TABLE1[7].gflops == 109.0
        assert STRATIX10_TABLE1[11].gflops == 136.4
        assert STRATIX10_TABLE1[15].gflops == 211.3

    def test_approx_fields_flagged(self):
        assert "logic_pct" in STRATIX10_TABLE1[7].approx_fields
        assert STRATIX10_TABLE1[1].approx_fields == ()


class TestAccessors:
    def test_basic_lookups(self):
        assert fmax_mhz(7) == 274.0

    def test_unknown_degree_raises(self):
        with pytest.raises(KeyError, match="no Table-I calibration"):
            fmax_mhz(2)

    @pytest.mark.parametrize("n", TABLE1_DEGREES)
    def test_stream_efficiency_below_one(self, n):
        assert 0.2 < stream_efficiency(n) < 1.0

    def test_stream_efficiency_definition(self):
        # eff x B_peak / (64 B x fmax) must give back measured DOF/cycle.
        n = 7
        eff = stream_efficiency(n)
        back = eff * STRATIX10_PEAK_BANDWIDTH / (64.0 * fmax_mhz(n) * 1e6)
        assert back == pytest.approx(STRATIX10_TABLE1[n].dofs_per_cycle)


class TestRamp:
    def test_normalized_at_reference(self):
        assert bandwidth_ramp(REFERENCE_ELEMENTS) == pytest.approx(1.0)

    def test_monotone(self):
        vals = [bandwidth_ramp(e) for e in (1, 4, 16, 64, 256, 1024, 4096)]
        assert vals == sorted(vals)

    def test_capped_at_asymptote(self):
        big = bandwidth_ramp(10 ** 9)
        assert big == pytest.approx(
            (REFERENCE_ELEMENTS + BANDWIDTH_RAMP_E_HALF) / REFERENCE_ELEMENTS
        )

    def test_small_sizes_heavily_derated(self):
        assert bandwidth_ramp(8) < 0.25

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            bandwidth_ramp(0)

    def test_device_totals(self):
        assert STRATIX10_TOTALS.alms == 933_120
        assert STRATIX10_TOTALS.dsps == 5_760
        assert STRATIX10_TOTALS.brams == 11_721
