"""Tests for repro.sem.quadrature (GLL rules)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sem.quadrature import gll_points_and_weights


class TestNodes:
    @pytest.mark.parametrize("npts", range(2, 20))
    def test_endpoints_included(self, npts):
        x = gll_points_and_weights(npts)[0]
        assert x[0] == -1.0 and x[-1] == 1.0

    @pytest.mark.parametrize("npts", range(2, 20))
    def test_sorted_and_distinct(self, npts):
        x = gll_points_and_weights(npts)[0]
        assert np.all(np.diff(x) > 0)

    @pytest.mark.parametrize("npts", range(2, 20))
    def test_antisymmetric(self, npts):
        x = gll_points_and_weights(npts)[0]
        assert np.allclose(x, -x[::-1], atol=1e-15)

    def test_three_point_rule_is_simpson_nodes(self):
        assert np.allclose(gll_points_and_weights(3)[0], [-1.0, 0.0, 1.0])

    def test_four_point_known_values(self):
        # Interior nodes of the 4-point GLL rule: +-1/sqrt(5).
        x = gll_points_and_weights(4)[0]
        assert x[1] == pytest.approx(-1.0 / np.sqrt(5.0), abs=1e-14)
        assert x[2] == pytest.approx(1.0 / np.sqrt(5.0), abs=1e-14)

    def test_too_few_points_raises(self):
        with pytest.raises(ValueError, match="at least 2"):
            gll_points_and_weights(1)

    def test_cache_returns_fresh_arrays(self):
        a = gll_points_and_weights(5)[0]
        a[0] = 99.0
        b = gll_points_and_weights(5)[0]
        assert b[0] == -1.0


class TestWeights:
    @pytest.mark.parametrize("npts", range(2, 20))
    def test_positive_and_sum_to_two(self, npts):
        w = gll_points_and_weights(npts)[1]
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(2.0, abs=1e-13)

    @pytest.mark.parametrize("npts", range(2, 20))
    def test_symmetric(self, npts):
        w = gll_points_and_weights(npts)[1]
        assert np.allclose(w, w[::-1], atol=1e-14)

    def test_three_point_weights_are_simpson(self):
        assert np.allclose(gll_points_and_weights(3)[1], [1 / 3, 4 / 3, 1 / 3])

    def test_endpoint_weight_formula(self):
        # w_0 = 2 / (N (N+1)) for the GLL rule.
        for npts in range(2, 12):
            n = npts - 1
            w = gll_points_and_weights(npts)[1]
            assert w[0] == pytest.approx(2.0 / (n * (n + 1)), rel=1e-12)


class TestExactness:
    @pytest.mark.parametrize("npts", range(2, 14))
    def test_exact_up_to_2n_minus_1(self, npts):
        n = npts - 1
        x, w = gll_points_and_weights(npts)
        for deg in range(2 * n):
            val = np.dot(w, x ** deg)
            exact = 0.0 if deg % 2 else 2.0 / (deg + 1)
            assert val == pytest.approx(exact, abs=1e-12), (npts, deg)

    @pytest.mark.parametrize("npts", (3, 5, 9))
    def test_not_exact_at_2n(self, npts):
        # The GLL rule is NOT exact for degree 2N (unlike Gauss).
        n = npts - 1
        x, w = gll_points_and_weights(npts)
        deg = 2 * n
        val = np.dot(w, x ** deg)
        exact = 2.0 / (deg + 1)
        assert abs(val - exact) > 1e-6

    def test_integrates_smooth_function_accurately(self):
        x, w = gll_points_and_weights(16)
        val = np.dot(w, np.exp(x))
        assert val == pytest.approx(np.e - 1 / np.e, rel=1e-12)
