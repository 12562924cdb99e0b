"""Tests for the routing policies in repro.serve.scheduler and the one
routing step (``pick_with_diversion``) the process fleet builds on."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serve import (
    FleetUnavailable,
    LeastLoadedRouter,
    RoundRobinRouter,
    TenantRouter,
    resolve_router,
)
from repro.serve.scheduler import pick_with_diversion


class TestRouters:
    def test_round_robin_cycles(self):
        router = RoundRobinRouter(3)
        picks = [router.pick(None, (0, 0, 0)) for _ in range(7)]
        assert picks == [0, 1, 2, 0, 1, 2, 0]

    def test_least_loaded_picks_shallowest(self):
        router = LeastLoadedRouter(3)
        assert router.pick(None, (5, 2, 9)) == 1
        assert router.pick(None, (0, 0, 0)) == 0  # ties break low
        assert router.pick("ignored", (3, 3, 1)) == 2

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
        assert LeastLoadedRouter(2).uses_depths is True
        assert RoundRobinRouter(2).uses_depths is False
        assert TenantRouter(2).uses_depths is False  # round-robin fallback
        assert TenantRouter(2, fallback=LeastLoadedRouter(2)).uses_depths \
            is True

    def test_resolve_router(self):
        assert isinstance(resolve_router("tenant", 2), TenantRouter)
        assert isinstance(
            resolve_router("least-loaded", 2), LeastLoadedRouter
        )
        assert isinstance(resolve_router("round-robin", 2), RoundRobinRouter)
        ready = TenantRouter(2)
        assert resolve_router(ready, 2) is ready
        with pytest.raises(ValueError, match="sized for"):
            resolve_router(TenantRouter(3), 2)
        with pytest.raises(ValueError, match="unknown routing policy"):
            resolve_router("random", 2)
        with pytest.raises(ValueError, match="replicas"):
            RoundRobinRouter(0)
        with pytest.raises(ValueError, match="vnodes"):
            TenantRouter(2, vnodes=0)


class TestPickWithDiversion:
    """The routing step on plain depth tuples — no fleet, no workers."""

    def pick(self, router, depths, watermark=None, healthy=None, key=None):
        return pick_with_diversion(
            router, LeastLoadedRouter(len(depths)), key, depths, watermark,
            healthy=healthy,
        )

    def test_bad_router_pick_rejected(self):
        """A buggy custom router returning an out-of-range index (e.g.
        -1) must fail loudly, not silently wrap onto the last worker."""

        class BrokenRouter(RoundRobinRouter):
            def pick(self, key, depths):
                return -1

        with pytest.raises(ValueError, match="picked worker -1"):
            self.pick(BrokenRouter(2), (0, 0))

    def test_watermark_diverts_to_least_loaded(self):
        """Tenant affinity yields to the watermark: an owner at it
        loses the request to the shallowest queue, and only a pick that
        actually moved counts as rebalanced."""
        router = TenantRouter(3)
        owner = router.pick("hot-tenant", (0, 0, 0))
        depths = [5, 5, 5]
        depths[owner] = 2
        others = [i for i in range(3) if i != owner]
        depths[others[1]] = 1
        assert self.pick(
            router, tuple(depths), watermark=2, key="hot-tenant"
        ) == (others[1], True, False)
        # Already the shallowest: the diversion lands back home.
        depths[owner] = 1
        depths[others[1]] = 4
        assert self.pick(
            router, tuple(depths), watermark=1, key="hot-tenant"
        ) == (owner, False, False)

    def test_health_beats_the_pick(self):
        """An out-of-rotation pick is steered to the shallowest healthy
        queue, and a watermark diversion never lands on an unhealthy
        one however shallow it is."""
        assert self.pick(
            RoundRobinRouter(3), (0, 4, 2), healthy=(False, True, True)
        ) == (2, False, True)
        router = RoundRobinRouter(3)
        router.pick(None, ())  # advance the rotation to worker 1
        assert self.pick(
            router, (0, 3, 5), watermark=3, healthy=(False, True, True)
        ) == (1, False, False)
        router = RoundRobinRouter(3)
        router.pick(None, ())
        router.pick(None, ())  # ... to worker 2
        assert self.pick(
            router, (0, 3, 5), watermark=3, healthy=(False, True, True)
        ) == (1, True, False)

    def test_all_unhealthy_raises_fleet_unavailable(self):
        with pytest.raises(FleetUnavailable, match="out of rotation"):
            self.pick(RoundRobinRouter(2), (0, 0), healthy=(False, False))
