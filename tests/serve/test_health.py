"""Tests for repro.serve.health: the per-slot health registry and the
deterministic retry/restart policies the supervisor acts on."""

from __future__ import annotations

import pytest

from repro.serve import (
    FleetHealth,
    HealthState,
    RestartPolicy,
    RetryPolicy,
)


class TestPolicies:
    def test_retry_backoff_is_capped_exponential(self):
        p = RetryPolicy(
            max_attempts=4, backoff_base=0.01, backoff_factor=2.0,
            backoff_max=0.03,
        )
        assert p.backoff(1) == pytest.approx(0.01)
        assert p.backoff(2) == pytest.approx(0.02)
        assert p.backoff(3) == pytest.approx(0.03)  # capped
        assert p.backoff(10) == pytest.approx(0.03)

    def test_restart_backoff_is_capped_exponential(self):
        p = RestartPolicy(
            max_restarts=3, backoff_base=0.05, backoff_factor=2.0,
            backoff_max=0.15,
        )
        assert p.backoff(1) == pytest.approx(0.05)
        assert p.backoff(2) == pytest.approx(0.10)
        assert p.backoff(3) == pytest.approx(0.15)  # capped

    def test_backoff_is_deterministic_no_jitter(self):
        """Chaos runs must replay exactly: same attempt, same delay."""
        p = RetryPolicy()
        assert all(p.backoff(k) == p.backoff(k) for k in range(1, 8))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base": -0.1},
            {"backoff_max": -1.0},
            {"backoff_factor": 0.5},
        ],
    )
    def test_retry_policy_validation(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_restarts": 0},
            {"backoff_base": -0.1},
            {"backoff_factor": 0.9},
        ],
    )
    def test_restart_policy_validation(self, kwargs):
        with pytest.raises(ValueError):
            RestartPolicy(**kwargs)

    def test_backoff_rejects_non_positive_attempt(self):
        with pytest.raises(ValueError):
            RetryPolicy().backoff(0)
        with pytest.raises(ValueError):
            RestartPolicy().backoff(-1)

    def test_policies_are_frozen(self):
        with pytest.raises(Exception):
            RetryPolicy().max_attempts = 99  # type: ignore[misc]


class TestFleetHealth:
    def test_starts_all_healthy(self):
        h = FleetHealth(3)
        assert h.states == (HealthState.HEALTHY,) * 3
        assert h.mask() == (True, True, True)
        assert h.healthy_count == 3
        assert not h.any_recoverable()

    def test_degrade_and_recover(self):
        h = FleetHealth(2)
        h.mark_degraded(0)
        assert h.state(0) is HealthState.DEGRADED
        assert h.mask() == (False, True)
        assert h.healthy_count == 1
        assert h.any_recoverable()
        h.mark_healthy(0)
        assert h.mask() == (True, True)
        assert not h.any_recoverable()

    def test_eject_is_a_one_way_door(self):
        """The circuit breaker must stick: neither mark_healthy nor
        mark_degraded may resurrect an ejected slot."""
        h = FleetHealth(2)
        h.eject(1)
        assert h.state(1) is HealthState.EJECTED
        h.mark_healthy(1)
        assert h.state(1) is HealthState.EJECTED
        h.mark_degraded(1)
        assert h.state(1) is HealthState.EJECTED
        # Ejected capacity never comes back, so it is not recoverable.
        assert not h.any_recoverable()

    def test_restart_attempts_accumulate(self):
        h = FleetHealth(2)
        assert h.record_restart_attempt(0) == 1
        assert h.record_restart_attempt(0) == 2
        assert h.record_restart_attempt(1) == 1

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            FleetHealth(0)
