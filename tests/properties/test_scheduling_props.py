"""Property-based invariants of the scheduling/admission stack.

Four randomized invariants the gateway's SLO story rests on:

* **No starvation while capacity exists** — the admission policy never
  sheds a request (at any priority) while per-replica load is under the
  soft limit, and shedding is monotone in priority: a priority admitted
  under some load implies every higher priority is admitted under it.
* **Consistent-hash affinity under resize** — growing the fleet by one
  replica moves keys *only onto the new replica*; every other tenant
  keeps its affinity (and its warm batches).
* **Cost routing never hits ejected replicas** — the health-gated
  routing step never returns a replica whose mask is False, for any
  depths/health/key mix, and raises FleetUnavailable only when nothing
  is routable.
* **Quota sums exactly to admitted work** — after any interleaving of
  admits, refusals, and fleet-refusal refunds, each tenant's charged
  total equals its admitted-minus-refunded count, and never exceeds its
  quota.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    AdmissionPolicy,
    AuthError,
    CostAwareRouter,
    FleetUnavailable,
    Gateway,
    Overloaded,
    QuotaExceeded,
    TenantRegistry,
)
from repro.serve.scheduler import (
    LeastLoadedRouter,
    TenantRouter,
    pick_with_diversion,
)


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now


class FakeBackend:
    """Depth/health surface only; the properties never submit."""

    def __init__(self, depths):
        self.depths = list(depths)

    @property
    def queue_depths(self):
        return tuple(self.depths)

    def submit(self, *args, **kwargs):
        raise AssertionError("admission properties must not submit")

    try_submit = submit

    def close(self):
        pass


# ----------------------------------------------------------------------
# 1. No starvation while capacity exists
# ----------------------------------------------------------------------
@given(
    soft=st.integers(min_value=1, max_value=32),
    extra=st.integers(min_value=0, max_value=32),
    levels=st.integers(min_value=1, max_value=5),
    depth=st.integers(min_value=0, max_value=2048),
    healthy=st.integers(min_value=1, max_value=16),
    priority=st.integers(min_value=0, max_value=8),
)
@settings(max_examples=200, deadline=None)
def test_no_starvation_while_capacity_exists(
    soft, extra, levels, depth, healthy, priority
):
    policy = AdmissionPolicy(
        soft_limit=soft, hard_limit=soft + extra, levels=levels
    )
    load = depth / healthy
    shed = policy.should_shed(depth, healthy, priority)
    # Capacity exists below the soft limit: nobody starves there.
    if load < policy.soft_limit:
        assert not shed
    # Past the hard limit everyone sheds — the fleet watermark would
    # refuse anyway, and the gateway's refusal carries a backoff hint.
    if load >= policy.hard_limit:
        assert shed
    # Monotone in priority: admitting p implies admitting p+1.
    if not shed:
        assert not policy.should_shed(depth, healthy, priority + 1)
    # Every shed comes with a bounded, deterministic backoff hint.
    if shed:
        hint = policy.retry_after(depth, healthy, priority)
        assert 0.0 <= hint <= policy.retry_after_max
        assert hint == policy.retry_after(depth, healthy, priority)


# ----------------------------------------------------------------------
# 2. Consistent-hash affinity under resize
# ----------------------------------------------------------------------
@given(
    replicas=st.integers(min_value=1, max_value=8),
    keys=st.lists(
        st.text(min_size=1, max_size=12), min_size=1, max_size=64,
        unique=True,
    ),
)
@settings(max_examples=100, deadline=None)
def test_consistent_hash_affinity_under_resize(replicas, keys):
    before = TenantRouter(replicas)
    after = TenantRouter(replicas + 1)
    depths = [0] * (replicas + 1)
    moved = 0
    for key in keys:
        old = before.pick(key, depths[:replicas])
        new = after.pick(key, depths)
        # Deterministic affinity: the same key on an identical ring
        # always lands on the same replica (no per-process salting).
        assert before.pick(key, depths[:replicas]) == old
        if new != old:
            # Growth only *steals* keys for the new replica; no key
            # shuffles between surviving replicas.
            assert new == replicas
            moved += 1
    # The new replica takes over at most the whole keyspace, and a
    # single-replica ring moves everything it takes from replica 0.
    assert moved <= len(keys)


# ----------------------------------------------------------------------
# 3. Cost routing never hits ejected replicas
# ----------------------------------------------------------------------
@given(
    data=st.data(),
    replicas=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=200, deadline=None)
def test_cost_routing_never_hits_ejected_replicas(data, replicas):
    depths = data.draw(st.lists(
        st.integers(min_value=0, max_value=64),
        min_size=replicas, max_size=replicas,
    ))
    healthy = data.draw(st.lists(
        st.booleans(), min_size=replicas, max_size=replicas,
    ))
    key = data.draw(st.one_of(st.none(), st.text(max_size=8)))
    watermark = data.draw(st.one_of(
        st.none(), st.integers(min_value=1, max_value=32)
    ))
    router = CostAwareRouter(replicas)
    # Random outstanding work so the pick is not always replica 0.
    for replica in range(replicas):
        cost = data.draw(st.floats(
            min_value=0.0, max_value=200.0, allow_nan=False
        ))
        router._outstanding[replica] = cost
    fallback = LeastLoadedRouter(replicas)
    if not any(healthy):
        with pytest.raises(FleetUnavailable):
            pick_with_diversion(
                router, fallback, key, depths, watermark,
                healthy=healthy,
            )
        return
    chosen, _rebalanced, _diverted = pick_with_diversion(
        router, fallback, key, depths, watermark,
        healthy=healthy,
    )
    assert 0 <= chosen < replicas
    assert healthy[chosen]


# ----------------------------------------------------------------------
# 4. Quota sums exactly to admitted work
# ----------------------------------------------------------------------
@given(
    data=st.data(),
    quotas=st.lists(
        st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
        min_size=1, max_size=4,
    ),
    events=st.integers(min_value=1, max_value=80),
)
@settings(max_examples=100, deadline=None)
def test_quota_sums_exactly_to_admitted_work(data, quotas, events):
    clock = FakeClock()
    registry = TenantRegistry(clock=clock)
    tenants = [
        registry.provision(f"tenant{i}", quota=quota)
        for i, quota in enumerate(quotas)
    ]
    # Deep-queue backend plus a soft limit drawn per run, so some
    # requests shed at admission (before the charge) and some pass.
    depth = data.draw(st.integers(min_value=0, max_value=24))
    policy = AdmissionPolicy(soft_limit=8, hard_limit=16)
    gateway = Gateway(
        FakeBackend([depth]), registry, admission=policy,
    )
    admitted = {t.tenant_id: 0 for t in tenants}
    for _ in range(events):
        tenant = tenants[data.draw(
            st.integers(min_value=0, max_value=len(tenants) - 1)
        )]
        fleet_refuses = data.draw(st.booleans())
        try:
            gateway.admit(tenant.token)
        except (Overloaded, QuotaExceeded, AuthError):
            continue  # refused before the charge stuck
        if fleet_refuses:
            # The fleet refused after the charge: gateway refunds.
            gateway.refund(tenant)
        else:
            admitted[tenant.tenant_id] += 1
    totals = gateway.ledger.totals()
    for tenant in tenants:
        charged = totals.get(tenant.tenant_id, 0)
        # Exactness: charged == admitted work, to the unit.
        assert charged == admitted[tenant.tenant_id]
        if tenant.quota is not None:
            assert charged <= tenant.quota
