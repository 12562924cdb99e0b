"""Runtime sanitizer tests: the lock-order detector catches inversion
cycles before they deadlock, and the race checker catches unguarded
access to declared-guarded state — each validated against deliberately
broken code."""

from __future__ import annotations

import os
import threading

import pytest

from repro.analysis.runtime import (
    LockOrderError,
    LockOrderGraph,
    RaceError,
    TrackedLock,
    instrument,
    race_checked,
)


def run_thread(fn):
    """Run ``fn`` in a thread, re-raising anything it raised."""
    box: list = []

    def wrapped():
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - relayed to caller
            box.append(exc)

    t = threading.Thread(target=wrapped)
    t.start()
    t.join(timeout=10)
    assert not t.is_alive(), "worker thread hung"
    if box:
        raise box[0]


# ----------------------------------------------------------------------
# Lock-order (deadlock) detection
# ----------------------------------------------------------------------
class TestLockOrder:
    def test_cycle_detected_across_threads(self):
        """A→B in one thread, then B→A in another: the second thread is
        stopped by LockOrderError *before* it can block on A."""
        graph = LockOrderGraph()
        a = TrackedLock("Pool._lock", graph=graph)
        b = TrackedLock("Pool._registry_lock", graph=graph)
        with a:
            with b:
                pass

        def inverted():
            with b:
                with a:
                    pass

        with pytest.raises(LockOrderError, match="lock-order cycle"):
            run_thread(inverted)

    def test_cycle_detected_even_without_temporal_overlap(self):
        # The graph is persistent: the two orders never run
        # concurrently, yet the inversion is still caught.
        graph = LockOrderGraph()
        a = TrackedLock("A", graph=graph)
        b = TrackedLock("B", graph=graph)

        def order_ab():
            with a:
                with b:
                    pass

        def order_ba():
            with b:
                with a:
                    pass

        run_thread(order_ab)
        with pytest.raises(LockOrderError):
            run_thread(order_ba)

    def test_three_lock_cycle(self):
        graph = LockOrderGraph()
        locks = {n: TrackedLock(n, graph=graph) for n in "ABC"}

        def chain(first, second):
            def run():
                with locks[first]:
                    with locks[second]:
                        pass
            return run

        run_thread(chain("A", "B"))
        run_thread(chain("B", "C"))
        with pytest.raises(LockOrderError, match="A -> B -> C"):
            run_thread(chain("C", "A"))

    def test_consistent_order_never_fires(self):
        graph = LockOrderGraph()
        a = TrackedLock("A", graph=graph)
        b = TrackedLock("B", graph=graph)

        def nested():
            with a:
                with b:
                    pass

        for _ in range(3):
            run_thread(nested)
        assert graph.edges() == {"A": ("B",)}

    def test_reentrant_acquire_not_an_edge(self):
        graph = LockOrderGraph()
        r = TrackedLock("R", lock=threading.RLock(), graph=graph)
        with r:
            with r:
                pass
        assert not r.locked()
        assert graph.edges() == {}

    def test_release_tracks_ownership(self):
        lock = TrackedLock("L", graph=LockOrderGraph())
        lock.acquire()
        assert lock.owned() and lock.locked()
        with pytest.raises(RuntimeError, match="does not hold"):
            run_thread(lock.release)
        lock.release()
        assert not lock.owned() and not lock.locked()

    def test_reset_forgets_history(self):
        graph = LockOrderGraph()
        a = TrackedLock("A", graph=graph)
        b = TrackedLock("B", graph=graph)
        run_thread(lambda: [a.acquire(), b.acquire(),
                            b.release(), a.release()])
        graph.reset()

        def inverted():
            with b:
                with a:
                    pass

        run_thread(inverted)  # no error: the A→B edge was forgotten


# ----------------------------------------------------------------------
# Guarded-state race checking
# ----------------------------------------------------------------------
class Counter:
    """Deliberately broken: ``total`` reads guarded state unlocked."""

    _GUARDED_BY = {"_count": "_lock"}
    _TRACKED_LOCKS = ("_lock",)

    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0

    def bump(self):
        with self._lock:
            self._count += 1

    def total(self):
        return self._count  # the bug the checker exists for


class TestRaceChecker:
    def test_unguarded_read_raises(self):
        counter = instrument(Counter, graph=LockOrderGraph())()
        counter.bump()
        with pytest.raises(RaceError, match="guarded-by _lock"):
            counter.total()

    def test_guarded_access_passes(self):
        counter = instrument(Counter, graph=LockOrderGraph())()
        for _ in range(3):
            counter.bump()
        with counter._lock:
            assert counter._count == 3

    def test_unguarded_write_raises(self):
        counter = instrument(Counter, graph=LockOrderGraph())()
        with pytest.raises(RaceError, match="unguarded write"):
            counter._count = 99

    def test_construction_exempt(self):
        # __init__ writes _count without the lock; instances arm only
        # after construction finishes.
        instrument(Counter, graph=LockOrderGraph())()

    def test_original_class_untouched(self):
        instrument(Counter, graph=LockOrderGraph())
        plain = Counter()
        assert plain.total() == 0  # no descriptors on the original
        assert isinstance(plain._lock, threading.Lock().__class__)

    def test_lock_wrapped_for_ownership(self):
        counter = instrument(Counter, graph=LockOrderGraph())()
        assert isinstance(counter._lock, TrackedLock)
        assert counter._lock.name == "Counter._lock"

    def test_race_checked_is_identity_when_disarmed(self):
        # The suite does not set REPRO_RACECHECK for this module, so
        # the production decorator must be a no-op here.
        if os.environ.get("REPRO_RACECHECK") == "1":
            pytest.skip("REPRO_RACECHECK=1 set for this run")
        cls = race_checked(Counter)
        assert cls is Counter
        assert not hasattr(cls, "_rc_instrumented")

    def test_production_class_passes_under_instrumentation(self):
        # A real annotated class from the serving layer survives
        # instrumentation: every access is correctly locked.
        from repro.serve.auth import QuotaLedger, Tenant

        ledger = instrument(QuotaLedger, graph=LockOrderGraph())()
        tenant = Tenant(tenant_id="t", token="tok", quota=5)
        ledger.charge(tenant, 2)
        ledger.refund(tenant, 1)
        assert ledger.charged("t") == 1
        assert ledger.totals() == {"t": 1}


class TestRegistryInheritance:
    def test_subclass_merges_guarded_registries(self):
        class Base:
            _GUARDED_BY = {"_a": "_lock"}

            def __init__(self):
                self._lock = threading.Lock()
                self._a = 0
                self._b = 0

        class Derived(Base):
            _GUARDED_BY = {"_b": "_lock"}

        obj = instrument(Derived, graph=LockOrderGraph())()
        with pytest.raises(RaceError):
            obj._a
        with pytest.raises(RaceError):
            obj._b
        with obj._lock:
            assert (obj._a, obj._b) == (0, 0)
