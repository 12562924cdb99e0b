"""Tests for repro.hls.loopnest (the loop-nest IR)."""

from __future__ import annotations

import pytest

from repro.hls.loopnest import (
    Access,
    AccessKind,
    Loop,
    LoopNest,
    Storage,
    ax_geom_nest,
    ax_grad_nest,
    ax_kernel_nests,
    ax_ops_per_dof,
    ax_store_nest,
)


class TestLoop:
    def test_valid(self):
        lp = Loop("i", 8, 4)
        assert not lp.fully_unrolled
        assert Loop("l", 8, 8).fully_unrolled

    def test_invalid(self):
        with pytest.raises(ValueError, match="trip count"):
            Loop("i", 0)
        with pytest.raises(ValueError, match="unroll factor"):
            Loop("i", 4, 0)
        with pytest.raises(ValueError, match="exceeds trip"):
            Loop("i", 4, 8)


class TestAccess:
    def test_strides(self):
        a = Access("u", AccessKind.LOAD, {"i": 1, "k": 64})
        assert a.stride_of("k") == 64 and a.stride_of("j") == 0

    def test_default_storage_is_bram(self):
        assert Access("u", AccessKind.LOAD).storage is Storage.BRAM


class TestLoopNest:
    def make(self, unroll=1):
        return LoopNest(
            "t",
            (Loop("j", 4), Loop("i", 8, unroll)),
            (Access("a", AccessKind.LOAD, {"i": 1}),),
            adds=2,
            mults=3,
        )

    def test_totals(self):
        nest = self.make()
        assert nest.trip_total == 32
        assert nest.parallel_bodies == 1
        assert nest.issue_slots == 32
        assert nest.ops_total() == (64, 96)
        assert nest.ops_per_cycle() == (2, 3)

    def test_unrolled(self):
        nest = self.make(unroll=4)
        assert nest.parallel_bodies == 4
        assert nest.issue_slots == 8
        assert nest.ops_per_cycle() == (8, 12)

    def test_with_unroll(self):
        nest = self.make().with_unroll("i", 2)
        assert nest.loop("i").unroll == 2
        with pytest.raises(KeyError):
            self.make().with_unroll("zz", 2)

    def test_duplicate_vars_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            LoopNest("t", (Loop("i", 2), Loop("i", 3)), ())

    def test_unknown_access_var_rejected(self):
        with pytest.raises(ValueError, match="unknown variable"):
            LoopNest("t", (Loop("i", 2),), (Access("a", AccessKind.LOAD, {"q": 1}),))

    def test_loop_lookup(self):
        nest = self.make()
        assert nest.loop("j").trip == 4
        with pytest.raises(KeyError):
            nest.loop("zz")


class TestAxNests:
    @pytest.mark.parametrize("n", range(1, 16))
    def test_cost_model_derivation(self, n):
        adds, mults = ax_ops_per_dof(n)
        assert adds == 6 * (n + 1) + 6
        assert mults == 6 * (n + 1) + 9

    def test_kernel_nest_structure(self):
        nests = ax_kernel_nests(7, unroll_i=4)
        assert len(nests) == 4
        grad1, geom, grad2, store = nests
        assert grad1.loop("l").fully_unrolled
        assert geom.loop("i").unroll == 4
        assert store.adds == 0 and store.mults == 0

    def test_total_issue_slots_per_element(self):
        # At unroll T, each 3-loop stage issues nx^3 / T slots.
        n, t = 7, 4
        nx = n + 1
        geom = ax_geom_nest(n, t)
        assert geom.issue_slots == nx ** 3 // t

    def test_grad_nest_phases_differ(self):
        p1 = ax_grad_nest(5, 1, phase=1)
        p2 = ax_grad_nest(5, 1, phase=2)
        arrays1 = {a.array for a in p1.accesses}
        arrays2 = {a.array for a in p2.accesses}
        assert "u" in arrays1 and "u" not in arrays2
        assert {"shur", "shus", "shut"} <= arrays2

    def test_invalid_degree_or_phase(self):
        with pytest.raises(ValueError, match=">= 1"):
            ax_grad_nest(0, 1)
        with pytest.raises(ValueError, match="phase"):
            ax_grad_nest(3, 1, phase=3)
        with pytest.raises(ValueError, match=">= 1"):
            ax_geom_nest(0)
        with pytest.raises(ValueError, match=">= 1"):
            ax_store_nest(0)
