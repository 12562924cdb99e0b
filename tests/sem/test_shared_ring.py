"""Tests for repro.sem.shared.SlotRing — the zero-copy slot-ring
transport primitive: hand-off protocol, wraparound ordinals,
full-ring backpressure (block, never overwrite), interrupt/resume, and
read-only attached views."""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.sem.shared import SlotRing, SlotRingManifest


def shm_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name}")


class TestSlotRingLifecycle:
    def test_create_layout_and_cleanup(self):
        ring = SlotRing.create(4, 7)
        assert ring.owner
        assert ring.req_seq.shape == (4,)
        assert ring.resp_seq.shape == (4,)
        assert ring.rhs.shape == (4, 7)
        assert ring.x.shape == (4, 7)
        assert ring.rhs.dtype == np.float64
        assert (ring.req_seq == 0).all() and (ring.resp_seq == 0).all()
        name = ring.manifest.block
        assert shm_exists(name)
        ring.close()
        ring.close()  # idempotent
        assert not shm_exists(name)

    def test_validation(self):
        with pytest.raises(ValueError, match="slots"):
            SlotRing.create(0, 4)
        with pytest.raises(ValueError, match="n must"):
            SlotRing.create(4, 0)

    def test_manifest_is_picklable_data(self):
        ring = SlotRing.create(2, 3)
        try:
            m = ring.manifest
            assert isinstance(m, SlotRingManifest)
            assert m.slots == 2 and m.n == 3
            assert m.dtype == np.dtype(np.float64).str
            assert m.creator_pid == os.getpid()
        finally:
            ring.close()


class TestSlotRingHandoff:
    def test_acquire_stamps_header_and_release_recycles(self):
        ring = SlotRing.create(2, 4)
        try:
            o1, s1 = ring.acquire()
            assert o1 == 1
            assert int(ring.req_seq[s1]) == o1
            assert len(ring._slot_of) == 1
            ring.release(o1)
            ring.release(o1)  # idempotent per ordinal
            assert len(ring._slot_of) == 0
        finally:
            ring.close()

    def test_wraparound_ordinals_never_reused(self):
        """Cycling far past the slot count keeps ordinals strictly
        monotonic while slots recycle — the header check stays able to
        tell any two generations of one slot apart."""
        ring = SlotRing.create(3, 2)
        try:
            seen_ordinals = []
            seen_slots = set()
            for _ in range(10 * 3):
                ordinal, slot = ring.acquire()
                assert int(ring.req_seq[slot]) == ordinal
                seen_ordinals.append(ordinal)
                seen_slots.add(slot)
                ring.release(ordinal)
            assert seen_ordinals == sorted(set(seen_ordinals))
            assert seen_ordinals[-1] == 30
            assert seen_slots <= {0, 1, 2}
        finally:
            ring.close()

    def test_round_trip_payload(self):
        ring = SlotRing.create(2, 5)
        worker = SlotRing.attach(ring.manifest)
        try:
            rhs = np.arange(5.0)
            ordinal, slot = ring.acquire()
            ring.rhs[slot][...] = rhs
            # Worker side: verify header, read rhs, reply in place.
            assert int(worker.req_seq[slot]) == ordinal
            assert np.array_equal(worker.rhs[slot], rhs)
            worker.x[slot][...] = rhs * 2.0
            worker.resp_seq[slot] = ordinal
            assert int(ring.resp_seq[slot]) == ordinal
            assert np.array_equal(ring.x[slot], rhs * 2.0)
            ring.release(ordinal)
        finally:
            worker.close()
            ring.close()


class TestSlotRingBackpressure:
    def test_full_ring_blocks_and_never_overwrites(self):
        """With every slot in flight, acquire() parks the client; the
        parked acquire claims a slot only after a release, and no
        staged payload is ever overwritten meanwhile."""
        ring = SlotRing.create(2, 3)
        try:
            held = [ring.acquire() for _ in range(2)]
            for ordinal, slot in held:
                ring.rhs[slot][...] = float(ordinal)
            with pytest.raises(TimeoutError):
                ring.acquire(timeout=0)
            got = []
            done = threading.Event()

            def blocked_client():
                got.append(ring.acquire(timeout=30.0))
                done.set()

            t = threading.Thread(target=blocked_client, daemon=True)
            t.start()
            time.sleep(0.05)
            assert not done.is_set()  # genuinely parked, ring full
            # The staged payloads are intact while the client waits.
            for ordinal, slot in held:
                assert (ring.rhs[slot] == float(ordinal)).all()
            ring.release(held[0][0])
            assert done.wait(10.0)
            t.join(10.0)
            ordinal, slot = got[0]
            assert ordinal == 3
            assert slot == held[0][1]  # reused the released slot only
            # The still-held slot was never touched.
            o1, s1 = held[1]
            assert (ring.rhs[s1] == float(o1)).all()
        finally:
            ring.close()

    def test_acquire_timeout_on_full_ring(self):
        ring = SlotRing.create(1, 2)
        try:
            ring.acquire()
            with pytest.raises(TimeoutError, match="no free ring slot"):
                ring.acquire(timeout=0.05)
        finally:
            ring.close()


    def test_a_notify_taken_by_an_expired_wait_strands_no_slot(self):
        """``release`` notifies one waiter.  Here the first in line has
        a timeout that expires while ``release`` holds the lock, and a
        second waits with none: whichever the notify reaches, the freed
        slot is taken, and once it comes back the blocked acquirer gets
        it — no slot sits free beside a blocked acquirer."""
        ring = SlotRing.create(1, 2)
        try:
            held, _ = ring.acquire()
            got = {}

            def client(name, timeout):
                try:
                    got[name] = ring.acquire(timeout=timeout)
                except TimeoutError:
                    got[name] = None

            expiring = threading.Thread(target=client, args=("expiring", 0.2))
            blocked = threading.Thread(target=client, args=("blocked", None),
                                       daemon=True)
            expiring.start()
            time.sleep(0.05)
            blocked.start()
            time.sleep(0.05)
            with ring._cond:  # the first wait expires while this holds it
                time.sleep(0.4)
                ring.release(held)
            expiring.join(10.0)
            assert not expiring.is_alive()
            if got["expiring"] is not None:
                ring.release(got["expiring"][0])
            blocked.join(10.0)
            assert not blocked.is_alive() and got["blocked"] is not None
        finally:
            ring.close()


class TestSlotRingInterrupt:
    def test_interrupt_wakes_blocked_acquirer_and_resume_reopens(self):
        ring = SlotRing.create(1, 2)
        try:
            ordinal, _ = ring.acquire()
            caught = []
            done = threading.Event()

            def blocked_client():
                try:
                    ring.acquire(timeout=30.0)
                except RuntimeError as exc:
                    caught.append(exc)
                done.set()

            t = threading.Thread(target=blocked_client, daemon=True)
            t.start()
            time.sleep(0.05)
            ring.interrupt(RuntimeError("owner died"))
            assert done.wait(10.0)
            t.join(10.0)
            # Each waiter gets a *fresh* instance (no shared traceback).
            assert caught and str(caught[0]) == "owner died"
            with pytest.raises(RuntimeError, match="owner died"):
                ring.acquire(timeout=0)
            # In-flight slots stay owned across the interrupt.
            assert len(ring._slot_of) == 1
            ring.resume()
            ring.release(ordinal)
            assert ring.acquire(timeout=0) is not None
        finally:
            ring.close()


class TestSlotRingAttach:
    def test_attached_request_side_is_read_only(self):
        ring = SlotRing.create(2, 3)
        worker = SlotRing.attach(ring.manifest)
        try:
            assert not worker.owner
            assert not worker.req_seq.flags.writeable
            assert not worker.rhs.flags.writeable
            with pytest.raises(ValueError):
                worker.rhs[0][...] = 1.0
            with pytest.raises(ValueError):
                worker.req_seq[0] = 99
            # The reply channel stays writable.
            assert worker.resp_seq.flags.writeable
            assert worker.x.flags.writeable
        finally:
            worker.close()
            ring.close()

    def test_attacher_close_does_not_unlink(self):
        ring = SlotRing.create(2, 3)
        worker = SlotRing.attach(ring.manifest)
        name = ring.manifest.block
        worker.close()
        assert shm_exists(name)  # only the owner unlinks
        ring.close()
        assert not shm_exists(name)
