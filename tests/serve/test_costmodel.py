"""Tests for repro.serve.costmodel (CostModel + CostAwareRouter)."""

from __future__ import annotations

import pytest

from repro.serve import (
    CostAwareRouter,
    CostModel,
    ProcessShardedSolveService,
    attach_cost_feedback,
    resolve_router,
)



def observations(model):
    """Solves a cost model has seen: the sum of its exact-key counts."""
    return sum(count for count, _ in model.snapshot().values())


def outstanding(router):
    """Predicted iterations in flight per replica."""
    with router._lock:
        return tuple(router._outstanding)

class TestCostModel:
    def test_cold_model_predicts_default(self):
        model = CostModel(default_cost=37.0)
        assert model.predict("t", 1e-8, None) == 37.0

    def test_first_observation_sets_mean_exactly(self):
        model = CostModel()
        model.observe("t", 1e-8, None, 12)
        assert model.predict("t", 1e-8, None) == 12.0

    def test_ewma_update(self):
        model = CostModel(alpha=0.5)
        model.observe("t", 1e-8, None, 10)
        model.observe("t", 1e-8, None, 20)
        assert model.predict("t", 1e-8, None) == 15.0

    def test_fallback_to_tolerance_class(self):
        # A new tenant at a known tolerance starts from its tolerance
        # class, not the global default.
        model = CostModel()
        model.observe("veteran", 1e-8, None, 40)
        assert model.predict("newcomer", 1e-8, None) == 40.0

    def test_fallback_to_global(self):
        model = CostModel()
        model.observe("veteran", 1e-8, None, 40)
        assert model.predict("newcomer", 1e-2, "mixed") == 40.0

    def test_exact_key_beats_fallbacks(self):
        model = CostModel()
        model.observe("a", 1e-8, None, 100)
        model.observe("b", 1e-8, None, 10)
        assert model.predict("b", 1e-8, None) == pytest.approx(10.0)

    def test_none_components_are_legitimate_keys(self):
        model = CostModel()
        model.observe(None, None, None, 7)
        assert model.predict(None, None, None) == 7.0

    def test_zero_iteration_solve_never_predicts_free(self):
        model = CostModel()
        model.observe("t", 1e-8, None, 0)
        assert model.predict("t", 1e-8, None) == 1.0

    def test_negative_iterations_rejected(self):
        model = CostModel()
        with pytest.raises(ValueError):
            model.observe("t", 1e-8, None, -1)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            CostModel(alpha=0.0)
        with pytest.raises(ValueError):
            CostModel(alpha=1.5)
        with pytest.raises(ValueError):
            CostModel(default_cost=0.0)

    def test_observations_and_snapshot(self):
        model = CostModel()
        model.observe("a", 1e-8, None, 10)
        model.observe("a", 1e-8, None, 10)
        model.observe("b", 1e-2, "mixed", 4)
        assert observations(model) == 3
        snap = model.snapshot()
        assert snap[("a", 1e-8, None)] == (2, 10.0)
        assert snap[("b", 1e-2, "mixed")] == (1, 4.0)

    def test_seed_warm_starts_without_overwriting(self):
        model = CostModel()
        model.observe("live", 1e-8, None, 5)
        model.seed({
            ("live", 1e-8, None): (100, 99.0),   # must NOT overwrite
            ("cold", 1e-2, None): (3, 14.0),
        })
        assert model.predict("live", 1e-8, None) == 5.0
        assert model.predict("cold", 1e-2, None) == 14.0

    def test_from_stats_converts_sums_to_means(self):
        # StatsSnapshot.tenant_iterations records (count, iterations_sum).
        model = CostModel.from_stats({
            ("t", 1e-8, None): (4, 48.0),
            ("dead", 1e-8, None): (0, 0.0),  # empty cells skipped
        })
        assert model.predict("t", 1e-8, None) == 12.0


class TestCostAwareRouter:
    def test_idle_fleet_fills_replica_zero_first(self):
        router = CostAwareRouter(3)
        assert router.pick("t", [0, 0, 0]) == 0

    def test_depth_breaks_outstanding_ties(self):
        # The ledger can't see requests submitted around the cost hooks;
        # queue depth catches them.
        router = CostAwareRouter(3)
        assert router.pick("t", [2, 0, 1]) == 1

    def test_routes_to_least_outstanding_work(self):
        router = CostAwareRouter(2)
        router.model.observe("big", 1e-12, None, 100)
        router.model.observe("small", 1e-2, None, 5)
        router.begin_request(0, "big", 1e-12, None)
        # Replica 1 is empty; even with deeper queue it wins on work.
        assert router.pick("small", [0, 3]) == 1

    def test_begin_finish_balance_exactly(self):
        router = CostAwareRouter(2)
        cost = router.begin_request(0, "t", 1e-8, None)
        assert outstanding(router) == (cost, 0.0)
        router.finish_request(0, cost, "t", 1e-8, None, 12)
        assert outstanding(router) == (0.0, 0.0)

    def test_finish_clamps_at_zero(self):
        router = CostAwareRouter(1)
        router.finish_request(0, 999.0, "t", 1e-8, None, None)
        assert outstanding(router) == (0.0,)

    def test_finish_with_none_iterations_teaches_nothing(self):
        # Failed/cancelled solves release their charge but don't feed
        # the model.
        router = CostAwareRouter(1)
        cost = router.begin_request(0, "t", 1e-8, None)
        router.finish_request(0, cost, "t", 1e-8, None, None)
        assert observations(router.model) == 0

    def test_observe_false_keeps_model_untouched(self):
        model = CostModel()
        router = CostAwareRouter(1, model=model, observe=False)
        cost = router.begin_request(0, "t", 1e-8, None)
        router.finish_request(0, cost, "t", 1e-8, None, 50)
        assert observations(model) == 0

    def test_balances_unequal_item_sizes(self):
        # The property the p99 win rests on: predicted *work* (not
        # request count) ends up balanced.  Depth-only routing would
        # split 8 tight + 8 loose as 8 requests each way regardless of
        # cost; greedy work-balancing keeps the iteration imbalance
        # bounded by one item.
        router = CostAwareRouter(2)
        router.model.observe("tight", 1e-12, None, 120)
        router.model.observe("loose", 1e-2, None, 8)
        for _ in range(8):
            for key, tol in (("tight", 1e-12), ("loose", 1e-2)):
                chosen = router.pick(key, [0, 0])
                router.begin_request(chosen, key, tol, None)
        out = outstanding(router)
        assert abs(out[0] - out[1]) <= 120.0
        assert sum(out) == pytest.approx(8 * 120.0 + 8 * 8.0)

    def test_resolve_router_cost_policy(self):
        router = resolve_router("cost", 4)
        assert isinstance(router, CostAwareRouter)
        assert router.replicas == 4

    def test_resolve_router_accepts_instance(self):
        model = CostModel()
        router = CostAwareRouter(2, model=model)
        assert resolve_router(router, 2) is router


class TestAttachCostFeedback:
    class _FakeTicket:
        def __init__(self):
            self._callbacks = []

        def add_done_callback(self, fn):
            self._callbacks.append(fn)

        def resolve(self, done):
            for fn in self._callbacks:
                fn(done)

    class _Done:
        def __init__(self, result=None, error=None, cancelled=False):
            self._result = result
            self._error = error
            self._cancelled = cancelled

        def cancelled(self):
            return self._cancelled

        def exception(self):
            return self._error

        def result(self):
            return self._result

    def test_plain_router_is_untouched(self):
        # Routers without the protocol must not grow callbacks.
        router = resolve_router("least-loaded", 2)
        ticket = self._FakeTicket()
        attach_cost_feedback(router, ticket, 0, "t", 1e-8, None)
        assert ticket._callbacks == []

    def test_success_feeds_iterations(self):
        router = CostAwareRouter(2)
        ticket = self._FakeTicket()
        attach_cost_feedback(router, ticket, 1, "t", 1e-8, None)
        assert outstanding(router)[1] > 0.0

        class R:
            iterations = 17

        ticket.resolve(self._Done(result=R()))
        assert outstanding(router) == (0.0, 0.0)
        assert router.model.predict("t", 1e-8, None) == 17.0

    def test_failure_releases_without_observing(self):
        router = CostAwareRouter(1)
        ticket = self._FakeTicket()
        attach_cost_feedback(router, ticket, 0, "t", 1e-8, None)
        ticket.resolve(self._Done(error=RuntimeError("boom")))
        assert outstanding(router) == (0.0,)
        assert observations(router.model) == 0

    def test_cancellation_releases_without_observing(self):
        router = CostAwareRouter(1)
        ticket = self._FakeTicket()
        attach_cost_feedback(router, ticket, 0, "t", 1e-8, None)
        ticket.resolve(self._Done(cancelled=True))
        assert outstanding(router) == (0.0,)
        assert observations(router.model) == 0


class TestCostPolicyEndToEnd:
    def test_sharded_cost_policy_bit_identical(
        self, serving_problem, sequential_solve, assert_same_result
    ):
        prob, bank = serving_problem
        with ProcessShardedSolveService(
            prob, workers=2, policy="cost", max_batch=4,
            max_wait=0.002,
        ) as svc:
            tickets = [
                svc.submit(b, tol=1e-10, maxiter=200, key=f"t{i % 3}")
                for i, b in enumerate(bank[:8])
            ]
            results = [t.result(timeout=60.0) for t in tickets]
        for b, got in zip(bank, results):
            assert_same_result(got, sequential_solve(prob, b))

    def test_sharded_cost_policy_ledger_drains_and_learns(
        self, serving_problem
    ):
        prob, bank = serving_problem
        model = CostModel()
        router = CostAwareRouter(2, model=model)
        with ProcessShardedSolveService(
            prob, workers=2, policy=router, max_batch=4,
            max_wait=0.002,
        ) as svc:
            tickets = [
                svc.submit(b, tol=1e-10, maxiter=200, key="acme")
                for b in bank[:8]
            ]
            for t in tickets:
                t.result(timeout=60.0)
        # Every completion released its charge and taught the model.
        assert outstanding(router) == (0.0, 0.0)
        assert observations(model) == 8
        assert model.predict("acme", 1e-10, None) >= 1.0

    def test_solve_many_feeds_the_cost_model(
        self, serving_problem, sequential_solve, assert_same_result
    ):
        """A block is charged and observed like per-request submits:
        the feedback hangs on the hand-over both paths share."""
        prob, bank = serving_problem
        router = CostAwareRouter(2)
        with ProcessShardedSolveService(
            prob, workers=2, policy=router, max_batch=4,
            max_wait=0.002,
        ) as svc:
            results = svc.solve_many(
                bank[:8], tol=1e-10, maxiter=200,
                keys=[f"t{i % 3}" for i in range(8)],
            )
        assert observations(router.model) == 8
        assert outstanding(router) == (0.0, 0.0)
        for b, got in zip(bank, results):
            assert_same_result(got, sequential_solve(prob, b))
