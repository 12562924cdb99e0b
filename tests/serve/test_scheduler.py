"""Tests for the routing policies in repro.serve.scheduler and the one
routing step (``pick_healthy``) the process fleet builds on."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import (
    AdmissionPolicy,
    CostAwareRouter,
    CostModel,
    FleetUnavailable,
    Gateway,
    ProcessShardedSolveService,
    RestartPolicy,
    RetryPolicy,
    RoundRobinRouter,
    TenantRegistry,
    TenantRouter,
    resolve_router,
)
from repro.serve.scheduler import ROUTING_POLICIES, pick_healthy


class TestRouters:
    def test_round_robin_cycles(self):
        router = RoundRobinRouter(3)
        picks = [router.pick(None, (0, 0, 0)) for _ in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]

    def test_tenant_affinity_1k_requests(self):
        """Same key -> same replica across 1000 picks, regardless of the
        (deliberately varying) live queue depths."""
        router = TenantRouter(4)
        rng = np.random.default_rng(0)
        owner = router.pick("tenant-42", (0, 0, 0, 0))
        for _ in range(1000):
            depths = tuple(rng.integers(0, 50, size=4))
            assert router.pick("tenant-42", depths) == owner

    def test_tenant_covers_all_replicas(self):
        router = TenantRouter(4)
        owners = {
            router.pick(f"tenant-{k}", (0, 0, 0, 0)) for k in range(256)
        }
        assert owners == {0, 1, 2, 3}

    def test_tenant_hash_is_process_stable(self):
        # blake2b, not the salted builtin hash: two independently built
        # rings route every key identically.
        a, b = TenantRouter(8), TenantRouter(8)
        for k in range(64):
            key = f"tenant-{k}"
            assert a.pick(key, (0,) * 8) == b.pick(key, (0,) * 8)

    def test_tenant_resize_moves_few_keys(self):
        """The consistent-hashing property: growing the fleet by one
        replica remaps roughly 1/K of the keyspace, not all of it."""
        before, after = TenantRouter(4), TenantRouter(5)
        keys = [f"tenant-{k}" for k in range(2000)]
        moved = sum(
            before.pick(k, (0,) * 4) != after.pick(k, (0,) * 5)
            for k in keys
        )
        # Ideal is ~1/5 of keys; allow generous slack, but far below a
        # full reshuffle (hash % K would move ~4/5 of them).
        assert moved < len(keys) * 0.45

    def test_tenant_keyless_falls_back_round_robin(self):
        router = TenantRouter(3)
        picks = [router.pick(None, (0, 0, 0)) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_uses_depths_flags(self):
        """Depth-blind policies advertise it, so the sharded submit path
        can skip sampling every replica queue."""
        assert RoundRobinRouter(2).uses_depths is False
        assert TenantRouter(2).uses_depths is False  # keyless: round-robin

    def test_resolve_router(self):
        assert isinstance(resolve_router("tenant", 2), TenantRouter)
        assert isinstance(resolve_router("round-robin", 2), RoundRobinRouter)
        ready = TenantRouter(2)
        assert resolve_router(ready, 2) is ready
        with pytest.raises(ValueError, match="sized for"):
            resolve_router(TenantRouter(3), 2)
        with pytest.raises(ValueError, match="unknown routing policy"):
            resolve_router("random", 2)
        with pytest.raises(ValueError, match="replicas"):
            RoundRobinRouter(0)


class TestPickWithDiversion:
    """The health-gated routing step (:func:`pick_healthy`) on plain
    depth tuples — no fleet, no workers."""

    def pick(self, router, depths, healthy=None, key=None):
        return pick_healthy(router, key, depths, healthy)

    def test_bad_router_pick_rejected(self):
        """A buggy custom router returning an out-of-range index (e.g.
        -1) must fail loudly, not silently wrap onto the last worker."""

        class BrokenRouter(RoundRobinRouter):
            def pick(self, key, depths):
                return -1

        with pytest.raises(ValueError, match="picked worker -1"):
            self.pick(BrokenRouter(2), (0, 0))

    def test_health_beats_the_pick(self):
        """An out-of-rotation pick is steered to the shallowest healthy
        queue (ties break low); a healthy pick stands however deep its
        queue is."""
        assert self.pick(
            RoundRobinRouter(3), (0, 4, 2), healthy=(False, True, True)
        ) == (2, True)
        assert self.pick(
            RoundRobinRouter(3), (0, 3, 3), healthy=(False, True, True)
        ) == (1, True)
        router = RoundRobinRouter(3)
        router.pick(None, ())  # advance the rotation to worker 1
        assert self.pick(
            router, (0, 3, 5), healthy=(False, True, True)
        ) == (1, False)
        assert self.pick(RoundRobinRouter(2), (9, 0)) == (0, False)

    def test_all_unhealthy_raises_fleet_unavailable(self):
        with pytest.raises(FleetUnavailable, match="out of rotation"):
            self.pick(RoundRobinRouter(2), (0, 0), healthy=(False, False))


#: Constructor -> the keywords it no longer takes.
REMOVED_KNOBS = {
    "ProcessShardedSolveService": (
        lambda **kw: ProcessShardedSolveService(object(), **kw),
        ("queue_watermark", "shed_watermark"),
    ),
    "Gateway": (
        lambda **kw: Gateway(None, TenantRegistry(), **kw),
        ("default_deadline",),
    ),
    "TenantRouter": (
        lambda **kw: TenantRouter(2, **kw), ("vnodes", "fallback"),
    ),
    "CostAwareRouter": (lambda **kw: CostAwareRouter(2, **kw), ("observe",)),
    "CostModel": (CostModel, ("alpha", "default_cost")),
    "RetryPolicy": (RetryPolicy, ("backoff_factor", "backoff_max")),
    "RestartPolicy": (RestartPolicy, ("backoff_factor", "backoff_max")),
    "AdmissionPolicy": (
        AdmissionPolicy, ("levels", "retry_after_base", "retry_after_max"),
    ),
}


@pytest.mark.parametrize("owner, keyword", [
    (owner, keyword)
    for owner, (_, keywords) in REMOVED_KNOBS.items()
    for keyword in keywords
])
def test_removed_knobs_are_type_errors(owner, keyword):
    """The serving surface has only the values some caller sets: each
    removed keyword is refused by its constructor, and the routing
    policy names are the three that remain."""
    build, _ = REMOVED_KNOBS[owner]
    with pytest.raises(TypeError, match=keyword):
        build(**{keyword: 1})
    assert ROUTING_POLICIES == ("tenant", "round-robin", "cost")
    with pytest.raises(ValueError) as refused:
        resolve_router("least-loaded", 2)
    for name in ROUTING_POLICIES:
        assert repr(name) in str(refused.value)
