"""Tests for repro.core.power (fitted FPGA power model)."""

from __future__ import annotations

import pytest

from repro.core.calibration import STRATIX10_TABLE1, TABLE1_DEGREES
from repro.core.power import PowerModel, fitted_power_model, power_efficiency


def predict_at_table1_row(model, n):
    row = STRATIX10_TABLE1[n]
    return model.predict(row.logic_pct / 100.0, row.bram_pct / 100.0,
                         row.dsp_pct / 100.0, row.fmax_mhz)


class TestFit:
    def test_reproduces_calibration_points(self):
        # The 5-parameter fit must hit the 8 measured powers within a few
        # watts (the granularity the efficiency comparison needs).
        model = fitted_power_model()
        for n in TABLE1_DEGREES:
            predicted = predict_at_table1_row(model, n)
            measured = STRATIX10_TABLE1[n].power_w
            assert abs(predicted - measured) < 6.0, (n, predicted, measured)

    def test_power_range_plausible(self):
        # All Table-I powers are 77-100 W; predictions must stay nearby.
        model = fitted_power_model()
        for n in TABLE1_DEGREES:
            assert 70.0 < predict_at_table1_row(model, n) < 110.0

    def test_cached_singleton(self):
        assert fitted_power_model() is fitted_power_model()

    def test_more_logic_or_clock_never_cheaper(self):
        # Physical sanity of the fitted coefficients: utilization and
        # clock must not have negative marginal power.
        m = fitted_power_model()
        base = m.predict(0.5, 0.2, 0.2, 250.0)
        assert m.predict(0.7, 0.2, 0.2, 250.0) >= base - 1e-9 or m.logic_w >= 0
        assert m.mhz_w >= 0


class TestPredict:
    def test_validation(self):
        m = PowerModel(50, 30, 5, 5, 0.02)
        with pytest.raises(ValueError, match="fraction"):
            m.predict(2.0, 0.1, 0.1, 300.0)
        with pytest.raises(ValueError, match="positive"):
            m.predict(0.5, 0.1, 0.1, 0.0)

    def test_linear_composition(self):
        m = PowerModel(50, 30, 5, 5, 0.02)
        assert m.predict(1.0, 1.0, 1.0, 100.0) == pytest.approx(50 + 30 + 5 + 5 + 2)


class TestEfficiency:
    def test_formula(self):
        assert power_efficiency(109.0, 90.38) == pytest.approx(1.206, abs=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            power_efficiency(1.0, 0.0)
        with pytest.raises(ValueError, match=">= 0"):
            power_efficiency(-1.0, 10.0)
