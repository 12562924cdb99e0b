"""Tests for repro.serve.auth (tenants, rate limits, quota) and the
AdmissionPolicy in repro.serve.health.  Everything here runs on fake
clocks — admission decisions must replay bit-for-bit."""

from __future__ import annotations

import pytest

from repro.serve import (
    AdmissionPolicy,
    AuthError,
    QuotaExceeded,
    QuotaLedger,
    Tenant,
    TenantRegistry,
    TokenBucket,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestTenant:
    def test_validation(self):
        with pytest.raises(ValueError):
            Tenant("", "tok")
        with pytest.raises(ValueError):
            Tenant("t", "")
        with pytest.raises(ValueError):
            Tenant("t", "tok", priority=-1)
        with pytest.raises(ValueError):
            Tenant("t", "tok", rate=0.0)
        with pytest.raises(ValueError):
            Tenant("t", "tok", burst=0)
        with pytest.raises(ValueError):
            Tenant("t", "tok", quota=-1)

    def test_defaults_are_unmetered(self):
        t = Tenant("t", "tok")
        assert t.rate is None and t.quota is None and t.priority == 0


class TestTokenBucket:
    def test_starts_full_and_drains(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=3, clock=clock)
        assert [bucket.acquire()[0] for _ in range(3)] == [True] * 3
        ok, retry_after = bucket.acquire()
        assert not ok

    def test_retry_after_is_exact(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=1, clock=clock)
        assert bucket.acquire() == (True, 0.0)
        ok, retry_after = bucket.acquire()
        assert not ok
        # Empty bucket at rate 2/s: exactly half a second to one token.
        assert retry_after == pytest.approx(0.5)

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=2, clock=clock)
        bucket.acquire()
        bucket.acquire()
        assert not bucket.acquire()[0]
        clock.advance(0.5)  # one token back
        assert bucket.acquire()[0]
        assert not bucket.acquire()[0]

    def test_refill_clamps_to_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2, clock=clock)
        bucket.acquire()
        clock.advance(1000.0)
        assert bucket.acquire()[0] and bucket.acquire()[0]
        assert not bucket.acquire()[0]

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0)


class TestQuotaLedger:
    def test_charge_accumulates(self):
        ledger = QuotaLedger()
        t = Tenant("t", "tok", quota=10)
        assert ledger.charge(t) == 1
        assert ledger.charge(t) == 2
        assert ledger.charged("t") == 2

    def test_exhaustion_charges_nothing(self):
        ledger = QuotaLedger()
        t = Tenant("t", "tok", quota=1)
        ledger.charge(t)
        with pytest.raises(QuotaExceeded):
            ledger.charge(t)
        # The refused charge must not have mutated the ledger.
        assert ledger.charged("t") == 1

    def test_unmetered_tenant_never_exhausts(self):
        ledger = QuotaLedger()
        t = Tenant("t", "tok")
        for _ in range(1000):
            ledger.charge(t)
        assert ledger.charged("t") == 1000

    def test_refund_restores_headroom(self):
        ledger = QuotaLedger()
        t = Tenant("t", "tok", quota=1)
        ledger.charge(t)
        ledger.refund(t)
        assert ledger.charge(t) == 1  # headroom is back

    def test_refund_never_goes_negative(self):
        ledger = QuotaLedger()
        t = Tenant("t", "tok")
        with pytest.raises(ValueError):
            ledger.refund(t)

    def test_totals(self):
        ledger = QuotaLedger()
        ledger.charge(Tenant("a", "x"))
        ledger.charge(Tenant("b", "y"), amount=3)
        assert ledger.totals() == {"a": 1, "b": 3}


class TestTenantRegistry:
    def test_provision_mints_unique_tokens(self):
        registry = TenantRegistry()
        a = registry.provision("a")
        b = registry.provision("b")
        assert a.token != b.token
        assert registry.authenticate(a.token).tenant_id == "a"
        assert registry.authenticate(b.token).tenant_id == "b"

    def test_missing_and_unknown_tokens_raise(self):
        registry = TenantRegistry()
        with pytest.raises(AuthError):
            registry.authenticate(None)
        with pytest.raises(AuthError):
            registry.authenticate("")
        with pytest.raises(AuthError):
            registry.authenticate("nope")

    def test_token_collision_rejected(self):
        registry = TenantRegistry()
        registry.register(Tenant("a", "shared"))
        with pytest.raises(ValueError):
            registry.register(Tenant("b", "shared"))

    def test_reregister_same_tenant_updates(self):
        registry = TenantRegistry()
        registry.register(Tenant("a", "tok", priority=0))
        registry.register(Tenant("a", "tok", priority=2))
        assert registry.authenticate("tok").priority == 2

    def test_revoke(self):
        registry = TenantRegistry()
        t = registry.provision("a", rate=1.0)
        assert registry.revoke(t.token)
        assert not registry.revoke(t.token)
        with pytest.raises(AuthError):
            registry.authenticate(t.token)

    def test_buckets_share_the_registry_clock(self):
        clock = FakeClock()
        registry = TenantRegistry(clock=clock)
        t = registry.provision("a", rate=1.0, burst=1)
        bucket = registry.bucket(t)
        assert bucket.acquire()[0]
        assert not bucket.acquire()[0]
        clock.advance(1.0)
        assert bucket.acquire()[0]

    def test_unmetered_tenant_has_no_bucket(self):
        registry = TenantRegistry()
        t = registry.provision("a")
        assert registry.bucket(t) is None


class TestAdmissionPolicy:
    def test_threshold_interpolates_by_priority(self):
        policy = AdmissionPolicy(soft_limit=8, hard_limit=16, levels=3)
        assert policy.shed_threshold(0) == 8.0
        assert policy.shed_threshold(1) == 12.0
        assert policy.shed_threshold(2) == 16.0

    def test_priority_clamps_to_levels(self):
        policy = AdmissionPolicy(levels=3)
        assert policy.clamp_priority(-5) == 0
        assert policy.clamp_priority(99) == 2

    def test_low_priority_sheds_first(self):
        policy = AdmissionPolicy(soft_limit=8, hard_limit=16, levels=3)
        # 10 pending on 1 healthy replica: past soft (8), below hard.
        assert policy.should_shed(10, 1, priority=0)
        assert not policy.should_shed(10, 1, priority=2)

    def test_normalizes_per_healthy_replica(self):
        policy = AdmissionPolicy(soft_limit=8, hard_limit=16)
        assert not policy.should_shed(10, 2, priority=0)  # 5 each
        assert policy.should_shed(10, 1, priority=0)

    def test_no_healthy_replica_always_sheds(self):
        policy = AdmissionPolicy()
        assert policy.should_shed(0, 0, priority=2)
        assert policy.retry_after(0, 0) == policy.retry_after_max

    def test_retry_after_grows_with_overshoot_and_caps(self):
        policy = AdmissionPolicy(
            soft_limit=8, hard_limit=16, retry_after_base=0.05,
            retry_after_max=2.0,
        )
        light = policy.retry_after(9, 1, priority=0)
        heavy = policy.retry_after(30, 1, priority=0)
        assert light < heavy
        assert policy.retry_after(10_000, 1, priority=0) == 2.0

    def test_retry_after_is_deterministic(self):
        policy = AdmissionPolicy()
        hints = {policy.retry_after(12, 1, 0) for _ in range(10)}
        assert len(hints) == 1

    def test_single_level_policy(self):
        policy = AdmissionPolicy(soft_limit=4, hard_limit=8, levels=1)
        assert policy.shed_threshold(0) == 4.0
        assert policy.shed_threshold(7) == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(soft_limit=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(soft_limit=8, hard_limit=4)
        with pytest.raises(ValueError):
            AdmissionPolicy(levels=0)
        with pytest.raises(ValueError):
            AdmissionPolicy(retry_after_base=-0.1)
