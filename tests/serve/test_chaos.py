"""Tests for repro.serve.chaos: frozen fault plans and the live
injector's at-most-once, deterministic firing semantics."""

from __future__ import annotations

import pickle

import pytest

from repro.serve import FaultInjector, FaultPlan


class TestFaultPlan:
    def test_plan_normalizes_and_freezes(self):
        plan = FaultPlan(
            kill_after={0: 2},
            delay_send={(1, 3): 0.25},
            drop_send={(0, 5)},
            slow_solves={1: {2: 0.01}},
        )
        assert plan.kill_after == {0: 2}
        assert plan.delay_send == {(1, 3): 0.25}
        assert plan.drop_send == frozenset({(0, 5)})
        assert plan.slow_solves == {1: {2: 0.01}}

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kill_after": {0: 0}},
            {"delay_send": {(0, 0): 0.1}},
            {"delay_send": {(0, 1): -0.1}},
            {"drop_send": {(0, 0)}},
            {"slow_solves": {0: {0: 0.1}}},
            {"slow_solves": {0: {1: -0.1}}},
        ],
    )
    def test_plan_rejects_bad_ordinals_and_negatives(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_kill_each_worker_once_staggers(self):
        plan = FaultPlan.kill_each_worker_once(
            3, first_kill_after=2, stagger=3
        )
        assert plan.kill_after == {0: 2, 1: 5, 2: 8}

    def test_from_seed_is_reproducible(self):
        a = FaultPlan.from_seed(7, 4, kills=2, slow_every=3)
        b = FaultPlan.from_seed(7, 4, kills=2, slow_every=3)
        c = FaultPlan.from_seed(8, 4, kills=2, slow_every=3)
        assert a.kill_after == b.kill_after
        assert a.slow_solves == b.slow_solves
        assert a != c or a.kill_after != c.kill_after

    def test_plan_is_picklable(self):
        """Plans (and the slow schedules carved from them) cross the
        spawn boundary to the worker processes."""
        plan = FaultPlan.kill_each_worker_once(2)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.kill_after == plan.kill_after


class TestFaultInjector:
    def test_ordinals_advance_per_slot(self):
        inj = FaultInjector(FaultPlan())
        assert inj.next_ordinal(0) == 1
        assert inj.next_ordinal(0) == 2
        assert inj.next_ordinal(1) == 1

    def test_kill_fires_exactly_once_at_or_after_target(self):
        inj = FaultInjector(FaultPlan(kill_after={0: 3}))
        assert not inj.should_kill(0, 1)
        assert not inj.should_kill(0, 2)
        assert inj.should_kill(0, 3)
        # At most once — later ordinals (e.g. the respawned worker in
        # the same slot) never re-fire the kill.
        assert not inj.should_kill(0, 4)
        assert inj.kills_fired == 1
        # Unplanned slots never fire.
        assert not inj.should_kill(1, 99)

    def test_send_action_reads_the_plan(self):
        plan = FaultPlan(delay_send={(0, 2): 0.5}, drop_send={(1, 1)})
        inj = FaultInjector(plan)
        assert inj.send_action(0, 1) == (0.0, False)
        assert inj.send_action(0, 2) == (0.5, False)
        assert inj.send_action(1, 1) == (0.0, True)

    def test_worker_slow_schedule_is_a_plain_dict(self):
        plan = FaultPlan(slow_solves={1: {2: 0.01, 4: 0.02}})
        inj = FaultInjector(plan)
        sched = inj.worker_slow_schedule(1)
        assert sched == {2: 0.01, 4: 0.02}
        assert inj.worker_slow_schedule(0) == {}
        # A copy: mutating it must not corrupt the frozen plan.
        sched[9] = 1.0
        assert 9 not in plan.slow_solves[1]
