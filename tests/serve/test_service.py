"""Tests for repro.serve (micro-batching solve service)."""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.sem import (
    BoxMesh,
    HelmholtzProblem,
    NekboneCase,
    PoissonProblem,
    ReferenceElement,
    cg_solve,
    cosine_manufactured,
    sine_manufactured,
)
from repro.serve import (
    MicroBatcher,
    QueueClosed,
    ServiceClosed,
    ServiceStats,
    SolveService,
    merge_snapshots,
)


class TestMicroBatcher:
    def test_take_fires_at_max_batch(self):
        mb = MicroBatcher(max_batch=3, max_wait=60.0)
        for k in range(5):
            mb.put(k)
        assert mb.take_batch() == [0, 1, 2]  # no linger: batch is full
        assert mb.take_batch_nowait() == [3, 4]
        assert mb.take_batch_nowait() == []

    def test_take_waits_at_most_max_wait(self):
        """A burst short of ``max_batch`` lingers until the oldest item
        has waited ``max_wait``, then leaves as it is."""
        mb = MicroBatcher(max_batch=8, max_wait=0.05)
        mb.put("first")
        mb.put("second")
        t0 = time.monotonic()
        assert mb.take_batch() == ["first", "second"]
        assert 0.04 <= time.monotonic() - t0 < 1.0

    def test_a_lone_request_does_not_linger(self):
        """One pending item is no burst: it leaves at once, whatever
        ``max_wait`` says."""
        mb = MicroBatcher(max_batch=8, max_wait=5.0)
        mb.put("only")
        t0 = time.monotonic()
        assert mb.take_batch() == ["only"]
        assert time.monotonic() - t0 < 1.0

    def test_a_burst_still_coalesces(self):
        """Two pending items are a forming burst: the dispatcher
        lingers, and a third arriving ~50 ms later fills the batch,
        which leaves then — well before ``max_wait``."""
        mb = MicroBatcher(max_batch=3, max_wait=5.0)
        mb.put(0)
        mb.put(1)
        straggler = threading.Timer(0.05, mb.put, args=(2,))
        t0 = time.monotonic()
        straggler.start()
        try:
            assert mb.take_batch() == [0, 1, 2]
            assert time.monotonic() - t0 < 2.5
        finally:
            straggler.join(timeout=5)

    def test_backpressure_blocks_then_admits(self):
        mb = MicroBatcher(max_batch=2, max_wait=0.0, max_pending=2)
        mb.put(1)
        mb.put(2)
        admitted = []

        def producer():
            mb.put(3)
            admitted.append(True)

        t = threading.Thread(target=producer)
        t.start()
        time.sleep(0.05)
        assert not admitted  # blocked on the full queue
        assert mb.take_batch_nowait() == [1, 2]
        t.join(timeout=5)
        assert admitted
        assert mb.take_batch_nowait() == [3]

    def test_close_wakes_blocked_producer(self):
        mb = MicroBatcher(max_batch=1, max_pending=1)
        mb.put(1)
        errors = []

        def producer():
            try:
                mb.put(2)
            except QueueClosed:
                errors.append("closed")

        t = threading.Thread(target=producer)
        t.start()
        time.sleep(0.05)
        mb.close()
        t.join(timeout=5)
        assert errors == ["closed"]
        # Pending items survive close (drain mode), then [] signals done.
        assert mb.take_batch() == [1]
        assert mb.take_batch() == []

    def test_nonblocking_put_declines_exactly_at_max_pending(self):
        mb = MicroBatcher(max_batch=2, max_wait=0.0, max_pending=3)
        assert [mb.put(k, block=False) for k in range(3)] == [1, 2, 3]
        assert mb.put(3, block=False) is None
        assert len(mb) == 3  # the refused item was not enqueued
        assert mb.take_batch_nowait() == [0, 1]
        assert mb.put(3, block=False) == 2  # space freed: admitted
        mb.close()
        with pytest.raises(ServiceClosed):
            mb.put(4, block=False)
        # Unbounded queues never refuse.
        free = MicroBatcher(max_batch=2)
        assert [free.put(k, block=False) for k in range(50)][-1] == 50

    def test_nonblocking_put_on_full_closed_queue_reports_closed(self):
        mb = MicroBatcher(max_batch=1, max_pending=1)
        mb.put(1)
        mb.close()
        with pytest.raises(ServiceClosed):
            mb.put(2, block=False)

    def test_validation(self):
        with pytest.raises(ValueError, match="max_batch"):
            MicroBatcher(max_batch=0)
        with pytest.raises(ValueError, match="max_wait"):
            MicroBatcher(max_batch=1, max_wait=-1.0)
        with pytest.raises(ValueError, match="max_pending"):
            MicroBatcher(max_batch=4, max_pending=2)


class TestSolveLock:
    """The problem's workspaces admit one solve at a time; the service's
    solve lock is what enforces it, whoever drains the queue."""

    def test_stacked_solves_never_overlap(
        self, serving_problem, sequential_solve, assert_same_result,
        fresh_problem
    ):
        """Concurrent ``flush()`` callers plus the background dispatcher,
        fp64 and mixed groups alike, run one stacked solve at a time:
        an operator that is entered while another call is still inside
        it reports the overlap."""
        source, bank = serving_problem
        prob = fresh_problem
        inside = threading.Lock()
        overlaps: list[str] = []

        def reentry_detecting(operator):
            def wrapper(u, out=None):
                alone = inside.acquire(blocking=False)
                if not alone:
                    overlaps.append(threading.current_thread().name)
                try:
                    time.sleep(0.0002)  # hold the door open for a rival
                    return operator(u, out=out)
                finally:
                    if alone:
                        inside.release()
            return wrapper

        prob.apply_A = reentry_detecting(prob.apply_A)
        prob.apply_A32 = reentry_detecting(prob.apply_A32)
        tickets: dict[int, object] = {}
        with SolveService(
            prob, max_batch=2, max_wait=1e-4, tol=1e-8, maxiter=200,
            background=True,
        ) as svc:
            def client(c):
                for k in range(c, 12, 4):
                    tickets[k] = svc.submit(
                        bank[k], precision="mixed" if k % 3 == 0 else "fp64"
                    )
                    svc.flush()

            clients = [
                threading.Thread(target=client, args=(c,)) for c in range(4)
            ]
            for t in clients:
                t.start()
            for t in clients:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in clients)
            results = {k: t.result(timeout=120) for k, t in tickets.items()}
        assert not overlaps, f"two solves at once, second on {overlaps[:3]}"
        assert len(results) == 12
        for k, got in results.items():
            if k % 3:
                assert_same_result(
                    got, sequential_solve(source, bank[k], tol=1e-8)
                )
            else:
                assert got.converged

    def test_solve_lock_is_under_the_lock_order_tracker(self, serving_problem):
        """``REPRO_RACECHECK=1`` wraps the solve lock like every other
        serving lock (forced here on a subclass, whatever the env)."""
        from repro.analysis.runtime import (
            LockOrderGraph, TrackedLock, instrument,
        )

        prob, bank = serving_problem
        tracked = instrument(SolveService, graph=LockOrderGraph())
        with tracked(prob, max_batch=2, tol=1e-8) as svc:
            assert isinstance(svc._solve_lock, TrackedLock)
            assert svc._solve_lock.name == "SolveService._solve_lock"
            assert all(r.converged for r in svc.solve_many(bank[:3]))
            assert not svc._solve_lock.locked()


class TestSolveServiceSync:
    def test_solve_many_larger_than_max_pending_foreground(
        self, serving_problem, sequential_solve, assert_same_result
    ):
        """Regression: bulk enqueue of a block larger than max_pending
        on a foreground service must drain inline as it goes — an
        all-at-once put would wedge on its own backpressure (there is
        no dispatcher to drain it), including when residual items from
        earlier submits already occupy part of the queue."""
        prob, bank = serving_problem
        svc = SolveService(
            prob, max_batch=4, max_pending=4, tol=1e-10, maxiter=200,
        )
        residual = svc.submit(bank[12])  # pre-fill: depth 1, no drain
        done: list = []

        def run():
            done.extend(svc.solve_many(bank[:12]))  # 12 > max_pending=4

        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive(), (
            "solve_many deadlocked on its own backpressure"
        )
        assert len(done) == 12
        for got, b in zip(done, bank[:12]):
            assert_same_result(got, sequential_solve(prob, b))
        assert_same_result(
            residual.result(timeout=60), sequential_solve(prob, bank[12])
        )
        svc.close()

    def test_solve_many_bit_identical_to_sequential(
        self, serving_problem, sequential_solve, assert_same_result
    ):
        prob, bank = serving_problem
        with SolveService(prob, max_batch=8, tol=1e-10, maxiter=200) as svc:
            results = svc.solve_many(bank[:20])
            for b, got in zip(bank[:20], results):
                assert_same_result(got, sequential_solve(prob, b))
            stats = svc.stats
            assert stats.submitted == stats.completed == 20
            # 20 requests at max_batch=8 coalesce as 8 + 8 + 4.
            assert stats.batch_histogram == {8: 2, 4: 1}
            assert stats.queue_depth == 0

    def test_submit_flush_and_partial_batches(self, serving_problem):
        prob, bank = serving_problem
        svc = SolveService(prob, max_batch=4)
        tickets = [svc.submit(b) for b in bank[:3]]
        assert not any(t.done() for t in tickets)  # below max_batch
        svc.flush()
        assert all(t.done() for t in tickets)
        assert svc.stats.batch_histogram == {3: 1}
        svc.close()

    def test_submit_autodrains_at_max_batch(self, serving_problem):
        prob, bank = serving_problem
        svc = SolveService(prob, max_batch=2)
        t1 = svc.submit(bank[0])
        assert not t1.done()
        t2 = svc.submit(bank[1])  # fills the batch: solved inline
        assert t1.done() and t2.done()
        svc.close()

    def test_per_request_tol_and_maxiter(
        self, serving_problem, sequential_solve, assert_same_result
    ):
        prob, bank = serving_problem
        with SolveService(prob, max_batch=8) as svc:
            specs = [(1e-4, 200), (1e-10, 200), (1e-8, 5), (1e-12, 200)]
            tickets = [
                svc.submit(bank[k], tol=tol, maxiter=mi)
                for k, (tol, mi) in enumerate(specs)
            ]
            svc.flush()
            for k, (tol, mi) in enumerate(specs):
                want = sequential_solve(prob, bank[k], tol=tol, maxiter=mi)
                assert_same_result(tickets[k].result(), want)

    def test_rhs_snapshot_at_submit(
        self, serving_problem, sequential_solve, assert_same_result
    ):
        prob, bank = serving_problem
        with SolveService(prob, max_batch=4) as svc:
            b = bank[0].copy()
            ticket = svc.submit(b)
            b[:] = 0.0  # caller reuses its buffer before the solve fires
            svc.flush()
            assert_same_result(ticket.result(), sequential_solve(prob, bank[0]))

    def test_shape_validation(self, serving_problem):
        prob, _ = serving_problem
        with SolveService(prob) as svc:
            with pytest.raises(ValueError, match="rhs must have shape"):
                svc.submit(np.ones(prob.n_dofs + 1))

    def test_bad_request_knobs_bounce_at_submit(
        self, serving_problem, sequential_solve, assert_same_result
    ):
        """An invalid tol/maxiter must fail the offending caller at
        submit time — never poison the batchmates it would have been
        coalesced with."""
        prob, bank = serving_problem
        with SolveService(prob, max_batch=4) as svc:
            good = svc.submit(bank[0])
            for maxiter in (-1, 2.7, True, np.inf):
                with pytest.raises(ValueError, match="maxiter must be"):
                    svc.submit(bank[1], maxiter=maxiter)
            with pytest.raises(ValueError, match="tol must be"):
                svc.submit(bank[1], tol=float("nan"))
            with pytest.raises(ValueError, match="tol must be"):
                svc.submit(bank[1], tol=-1e-8)
            svc.flush()
            assert_same_result(good.result(), sequential_solve(prob, bank[0]))

    def test_non_protocol_problem_rejected(self):
        with pytest.raises(TypeError, match="not an SEMProblem"):
            SolveService(object())

    def test_failure_propagates_to_every_ticket(self, serving_problem):
        prob, _ = serving_problem

        class Boom(RuntimeError):
            pass

        def bad_operator(v, out=None):
            raise Boom("operator exploded")

        # Build a real service, then break its operator: the tickets of
        # the failing batch must re-raise, and stats count the failures.
        svc = SolveService(prob, max_batch=4)
        svc._operator = bad_operator
        t1 = svc.submit(np.ones(prob.n_dofs))
        t2 = svc.submit(np.ones(prob.n_dofs))
        svc.flush()
        for t in (t1, t2):
            with pytest.raises(Boom):
                t.result()
        assert svc.stats.failed == 2 and svc.stats.completed == 0
        svc.close()

    def test_ticket_timeout(self, serving_problem):
        prob, bank = serving_problem
        svc = SolveService(prob, max_batch=8)
        ticket = svc.submit(bank[0])
        with pytest.raises(TimeoutError):
            ticket.result(timeout=0.01)  # nothing drains a partial batch
        svc.close()  # close() drains: the ticket resolves after all
        assert ticket.done()


class TestSolveServiceBackground:
    def test_concurrent_submitters_bit_identical(
        self, serving_problem, sequential_solve, assert_same_result
    ):
        """The acceptance-concurrency test: N client threads submit
        through the dispatcher; every result matches a sequential warm
        cg_solve bit for bit."""
        prob, bank = serving_problem
        n_clients, per_client = 4, 6
        results: dict[tuple[int, int], object] = {}
        with SolveService(
            prob, max_batch=8, max_wait=0.01, background=True,
            tol=1e-10, maxiter=200,
        ) as svc:
            def client(cid):
                for j in range(per_client):
                    b = bank[(cid * per_client + j) % len(bank)]
                    results[(cid, j)] = svc.submit(b).result(timeout=60)

            threads = [
                threading.Thread(target=client, args=(cid,))
                for cid in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = svc.stats
        assert stats.completed == n_clients * per_client
        assert stats.failed == 0
        for (cid, j), got in results.items():
            b = bank[(cid * per_client + j) % len(bank)]
            assert_same_result(got, sequential_solve(prob, b))

    def test_dispatcher_fires_partial_batch_after_max_wait(
        self, serving_problem, sequential_solve, assert_same_result
    ):
        prob, bank = serving_problem
        with SolveService(
            prob, max_batch=8, max_wait=0.02, background=True
        ) as svc:
            ticket = svc.submit(bank[0])
            got = ticket.result(timeout=30)  # resolves without a flush
        assert_same_result(got, sequential_solve(prob, bank[0]))

    def test_backpressure_bounds_queue(self, serving_problem):
        prob, bank = serving_problem
        with SolveService(
            prob, max_batch=2, max_wait=0.001, max_pending=4,
            background=True,
        ) as svc:
            tickets = [svc.submit(bank[k % len(bank)]) for k in range(32)]
            for t in tickets:
                t.result(timeout=60)
            assert svc.stats.max_queue_depth <= 4

    def test_submit_after_close_raises(self, serving_problem):
        prob, bank = serving_problem
        svc = SolveService(prob, background=True)
        svc.close()
        with pytest.raises(QueueClosed):
            svc.submit(bank[0])

    def test_close_resolves_pending(
        self, serving_problem, sequential_solve, assert_same_result
    ):
        prob, bank = serving_problem
        svc = SolveService(prob, max_batch=8, max_wait=30.0, background=True)
        tickets = [svc.submit(b) for b in bank[:3]]
        svc.close()  # drains the lingering partial batch
        for t, b in zip(tickets, bank[:3]):
            assert_same_result(t.result(), sequential_solve(prob, b))


class TestTrySubmit:
    def test_none_exactly_at_max_pending_and_enqueues_below(
        self, serving_problem, gate_dispatcher, sequential_solve,
        assert_same_result, fresh_problem
    ):
        prob, bank = serving_problem
        svc = SolveService(
            fresh_problem, max_batch=2, max_wait=0.0, max_pending=3,
            background=True,
        )
        gate, parked = gate_dispatcher(svc)
        try:
            tickets = [svc.try_submit(bank[0])]
            assert parked.wait(30)  # the dispatcher holds request 0
            while svc.queue_depth < 3:
                ticket = svc.try_submit(bank[len(tickets)])
                assert ticket is not None  # below the bound: enqueued
                tickets.append(ticket)
            submitted = svc.stats.submitted
            assert submitted == len(tickets)
            for _ in range(3):  # at the bound: refused, every time
                assert svc.try_submit(bank[-1]) is None
            # A refusal enqueues nothing and counts nothing.
            assert svc.queue_depth == 3
            assert svc.stats.submitted == submitted
            gate.set()
            for k, ticket in enumerate(tickets):
                assert_same_result(
                    ticket.result(timeout=60),
                    sequential_solve(prob, bank[k]),
                )
            late = svc.try_submit(bank[5])  # space again: fast path again
            assert_same_result(
                late.result(timeout=60), sequential_solve(prob, bank[5])
            )
        finally:
            gate.set()
            svc.close()
        stats = svc.stats
        assert stats.submitted == len(tickets) + 1
        assert stats.submitted == stats.completed
        assert stats.failed == 0 and stats.expired == 0
        with pytest.raises(ServiceClosed):
            svc.try_submit(bank[0])
        assert svc.stats.submitted == stats.submitted

    def test_validates_before_enqueue_like_submit(
        self, serving_problem, fresh_problem
    ):
        _, bank = serving_problem
        with SolveService(fresh_problem, background=True) as svc:
            with pytest.raises(ValueError, match="shape"):
                svc.try_submit(np.ones(3))
            with pytest.raises(ValueError, match="tol"):
                svc.try_submit(bank[0], tol=-1.0)
            with pytest.raises(ValueError, match="deadline"):
                svc.try_submit(bank[0], deadline=0.0)
            assert svc.stats.submitted == 0
            assert svc.queue_depth == 0

    def test_stats_conserve_across_blocking_and_nonblocking_mix(
        self, serving_problem, sequential_solve, assert_same_result,
        fresh_problem
    ):
        """Threads hammering a tiny queue with try_submit, falling back
        to the blocking submit on a refusal: every request is counted
        once, whichever door it came in by."""
        prob, bank = serving_problem
        svc = SolveService(
            fresh_problem, max_batch=2, max_wait=0.0005, max_pending=2,
            background=True,
        )
        doors = {"try": 0, "blocking": 0}
        doors_lock = threading.Lock()
        results = {}

        def client(offset):
            for k in range(offset, offset + 12):
                b = bank[k % len(bank)]
                ticket = svc.try_submit(b, maxiter=3)
                door = "try"
                if ticket is None:
                    ticket = svc.submit(b, maxiter=3)
                    door = "blocking"
                with doors_lock:
                    doors[door] += 1
                results[k] = ticket.result(timeout=60)

        threads = [
            threading.Thread(target=client, args=(12 * i,)) for i in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the doors hard
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            svc.close()
        assert not any(t.is_alive() for t in threads)
        assert sum(doors.values()) == 48 == len(results)
        stats = svc.stats
        assert stats.submitted == 48
        assert stats.submitted == (
            stats.completed + stats.failed + stats.expired
        )
        assert stats.max_queue_depth <= 2
        for k, got in results.items():
            assert_same_result(
                got, sequential_solve(prob, bank[k % len(bank)], maxiter=3)
            )


class TestOtherProblems:
    def test_helmholtz_service(self, assert_same_result):
        ref = ReferenceElement.from_degree(2)
        mesh = BoxMesh.build(ref, (2, 2, 1))
        prob = HelmholtzProblem(mesh, lam=1.0, ax_backend="matmul")
        _, forcing = cosine_manufactured(mesh.extent, lam=1.0)
        b = prob.rhs_from_function(forcing)
        with SolveService(prob, max_batch=4) as svc:
            results = svc.solve_many([b, 2.0 * b, -0.5 * b])
        for scale, got in zip((1.0, 2.0, -0.5), results):
            want = cg_solve(
                prob.apply, scale * b, precond_diag=prob.precond_diag(),
                tol=1e-10, maxiter=1000, workspace=prob.workspace,
            )
            assert_same_result(got, want)

    def test_nekbone_case_service(self, assert_same_result):
        """A Nekbone case is served through its ``case.problem``."""
        case = NekboneCase(3, (2, 2, 1), ax_backend="matmul")
        prob = case.problem
        _, forcing = sine_manufactured(prob.mesh.extent)
        b = prob.rhs_from_forcing(forcing)
        with SolveService(prob, max_batch=2) as svc:
            results = svc.solve_many([b, 3.0 * b])
        want = cg_solve(
            prob.operator, b, precond_diag=prob.precond_diag(),
            tol=1e-10, maxiter=1000, workspace=prob.workspace,
        )
        assert_same_result(results[0], want)

    def test_a_nekbone_case_is_refused_naming_its_problem(self):
        """A case is a driver, not a problem: serving one is a
        ``TypeError`` that names what to serve instead."""
        case = NekboneCase(2, (1, 1, 1))
        with pytest.raises(TypeError, match=r"case\.problem"):
            SolveService(case)


class TestStats:
    def test_snapshot_consistency(self):
        stats = ServiceStats()
        snap0 = stats.snapshot()
        assert snap0.solves_per_second == 0.0
        assert snap0.mean_batch_size == 0.0
        stats.record_submit(queue_depth=1)
        stats.record_submit(queue_depth=2)
        stats.record_batch(2, 0.5, queue_depth=0)
        snap = stats.snapshot()
        assert snap.submitted == 2 and snap.completed == 2
        assert snap.batches == 1 and snap.batch_histogram == {2: 1}
        assert snap.max_queue_depth == 2 and snap.queue_depth == 0
        assert snap.busy_seconds == pytest.approx(0.5)
        assert snap.mean_batch_size == 2.0
        assert snap.solves_per_second > 0

    def test_failed_batches_counted_separately(self):
        stats = ServiceStats()
        stats.record_submit(1)
        stats.record_batch(1, 0.1, queue_depth=0, failed=True)
        snap = stats.snapshot()
        assert snap.failed == 1 and snap.completed == 0

    def test_depth_fn_gives_live_queue_depth(self):
        """Snapshots sample the configured depth provider (inside the
        lock) instead of trusting whatever a mutator last recorded."""
        live = {"depth": 0}
        stats = ServiceStats(depth_fn=lambda: live["depth"])
        stats.record_submit(queue_depth=1)  # recorded value: 1
        live["depth"] = 5  # the queue moved on since
        snap = stats.snapshot()
        assert snap.queue_depth == 5
        assert snap.max_queue_depth == 5  # high-water mark keeps up
        live["depth"] = 0  # queue drained
        drained = stats.snapshot()
        assert drained.queue_depth == 0
        assert drained.max_queue_depth == 5  # the peak never shrinks

    def test_record_rejected_rolls_back_submit(self):
        stats = ServiceStats()
        stats.record_submit()
        stats.record_rejected()
        snap = stats.snapshot()
        assert snap.submitted == 0
        # The phantom first-submit stamp is rolled back too, so a later
        # real request anchors the wall window, not the rejected one.
        assert snap.first_submit is None
        stats.record_submit()
        stats.record_batch(1, 0.1, queue_depth=0)
        assert stats.snapshot().wall_seconds < 0.1

    def test_service_queue_depth_is_live(self, serving_problem):
        prob, bank = serving_problem
        svc = SolveService(prob, max_batch=8)
        for b in bank[:3]:
            svc.submit(b)
        assert svc.stats.queue_depth == 3
        svc.flush()
        assert svc.stats.queue_depth == 0
        svc.close()

    def test_merge_snapshots_aggregates(self):
        a = ServiceStats()
        a.record_submit(1)
        a.record_submit(2)
        a.record_batch(2, 0.25, queue_depth=0)
        b = ServiceStats()
        b.record_submit(1)
        b.record_batch(1, 0.5, queue_depth=0, failed=True)
        snap_a, snap_b = a.snapshot(), b.snapshot()
        merged = merge_snapshots([snap_a, snap_b])
        assert merged.submitted == 3
        assert merged.completed == 2 and merged.failed == 1
        assert merged.batches == 2
        assert merged.batch_histogram == {2: 1, 1: 1}
        assert merged.busy_seconds == pytest.approx(0.75)
        # The fleet window spans earliest submit -> latest completion
        # across snapshots (offset replica windows must not inflate
        # solves/s), never shorter than any single replica's window.
        assert merged.wall_seconds == pytest.approx(
            max(snap_a.last_done, snap_b.last_done)
            - min(snap_a.first_submit, snap_b.first_submit)
        )
        assert merged.wall_seconds >= max(
            snap_a.wall_seconds, snap_b.wall_seconds
        )
        assert merged.mean_batch_size == 1.5
        empty = merge_snapshots([])
        assert empty.submitted == 0 and empty.solves_per_second == 0.0

    def test_perf_epoch_offset_maps_perf_to_wall(self):
        from repro.serve import perf_epoch_offset

        offset = perf_epoch_offset()
        # A perf_counter stamp plus the offset reads as wall-clock now.
        assert abs((time.perf_counter() + offset) - time.time()) < 0.05

    def test_rebased_shifts_stamps_preserves_durations(self):
        from repro.serve import StatsSnapshot

        snap = StatsSnapshot(
            submitted=2, completed=2, failed=0, batches=1,
            batch_histogram={2: 1}, queue_depth=0, max_queue_depth=2,
            busy_seconds=0.25, wall_seconds=1.0,
            first_submit=10.0, last_done=11.0,
        )
        moved = snap.rebased(100.0)
        assert moved.first_submit == 110.0 and moved.last_done == 111.0
        assert moved.wall_seconds == snap.wall_seconds
        assert moved.busy_seconds == snap.busy_seconds
        assert moved.submitted == snap.submitted
        # Degenerate cases: zero delta and stampless snapshots are
        # returned unchanged (no copy, nothing to shift).
        assert snap.rebased(0.0) is snap
        empty = StatsSnapshot(
            submitted=0, completed=0, failed=0, batches=0,
            batch_histogram={}, queue_depth=0, max_queue_depth=0,
            busy_seconds=0.0, wall_seconds=0.0,
        )
        assert empty.rebased(123.0) is empty

    def test_cross_process_merge_requires_rebase(self):
        """Regression: first_submit/last_done are perf_counter stamps,
        whose epoch is only comparable within one process.  Merging
        snapshots from two processes without rebasing produced an
        epoch-difference-sized fleet window (breaking solves_per_second
        for the process shard); rebasing each snapshot onto one clock
        at transfer time restores the true window."""
        from repro.serve import StatsSnapshot

        def snapshot_from(process_offset, first_wall, last_wall):
            # A process stamps perf = wall - its perf_epoch_offset().
            return StatsSnapshot(
                submitted=4, completed=4, failed=0, batches=1,
                batch_histogram={4: 1}, queue_depth=0, max_queue_depth=4,
                busy_seconds=0.5,
                wall_seconds=last_wall - first_wall,
                first_submit=first_wall - process_offset,
                last_done=last_wall - process_offset,
            )

        # Worker A active (wall) [1000.0, 1001.0], worker B active
        # [1000.5, 1001.5]: the true fleet window is 1.5 s.
        offset_a, offset_b, offset_parent = 900.0, -500.0, 250.0
        snap_a = snapshot_from(offset_a, 1000.0, 1001.0)
        snap_b = snapshot_from(offset_b, 1000.5, 1001.5)
        # Unrebased, the "window" is the epoch gap, not wall time.
        broken = merge_snapshots([snap_a, snap_b])
        assert broken.wall_seconds > 1000
        # Rebase each onto the parent clock: delta = sender's offset -
        # receiver's offset (what the process shard computes per
        # transfer).
        fixed = merge_snapshots([
            snap_a.rebased(offset_a - offset_parent),
            snap_b.rebased(offset_b - offset_parent),
        ])
        assert fixed.wall_seconds == pytest.approx(1.5)
        assert fixed.solves_per_second == pytest.approx(8 / 1.5)

    def test_merge_keeps_high_water_above_live_depth(self):
        """Summed fleet depth can exceed every per-replica peak; the
        merged mark must cover it (queue_depth <= max_queue_depth is
        part of the snapshot contract)."""
        replicas = []
        for _ in range(2):
            s = ServiceStats()
            s.record_submit(queue_depth=5)
            replicas.append(s.snapshot())
        merged = merge_snapshots(replicas)
        assert merged.queue_depth == 10
        assert merged.max_queue_depth >= merged.queue_depth

    def test_snapshot_consistent_under_submit_hammer(self, serving_problem):
        """The stats-race regression test: client threads hammer submit
        while the main thread polls snapshots.  Every snapshot must be
        an internally consistent cut — the histogram mass must equal
        ``completed + failed`` exactly (a torn read would catch a batch
        counted in one but not yet the other), and counters must be
        monotonic."""
        prob, bank = serving_problem
        n_clients, per_client = 4, 40
        tickets: list = []
        tickets_lock = threading.Lock()
        with SolveService(
            prob, max_batch=4, max_wait=0.0005, background=True,
            tol=0.0,
        ) as svc:
            def client(cid):
                for j in range(per_client):
                    t = svc.submit(bank[(cid + j) % len(bank)], maxiter=2)
                    with tickets_lock:
                        tickets.append(t)

            threads = [
                threading.Thread(target=client, args=(cid,))
                for cid in range(n_clients)
            ]
            for t in threads:
                t.start()
            last_completed = 0
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                snap = svc.stats
                mass = sum(
                    size * count
                    for size, count in snap.batch_histogram.items()
                )
                assert mass == snap.completed + snap.failed
                assert snap.completed >= last_completed  # monotonic
                last_completed = snap.completed
                assert snap.submitted >= snap.completed + snap.failed
                assert 0 <= snap.queue_depth <= snap.max_queue_depth
                if snap.completed == n_clients * per_client:
                    break
            for t in threads:
                t.join()
            for t in tickets:
                t.result(timeout=60)
            final = svc.stats
        assert final.completed == n_clients * per_client
        assert final.failed == 0
        assert final.queue_depth == 0

class TestMixedPrecisionService:
    """Per-request and service-default ``precision="mixed"`` through the
    micro-batching front: separate dispatch groups, solo-equivalent
    numerics, and honest bounces on problems without an fp32 twin."""

    def mixed_reference(self, prob, b, tol=1e-10, maxiter=200):
        from repro.sem.cg import cg_solve_mixed

        return cg_solve_mixed(
            prob.apply_A, prob.apply_A32, b,
            precond_diag=prob.precond_diag(), tol=tol, maxiter=maxiter,
            workspace=prob.workspace,
            workspace32=prob.batch_workspace(1, dtype=np.float32),
        )

    def test_per_request_mixed_resolves_mixed_result(self, serving_problem):
        from repro.sem.cg import MixedCGResult

        prob, bank = serving_problem
        with SolveService(prob, max_batch=4) as svc:
            ticket = svc.submit(bank[0], precision="mixed")
            svc.flush()
            got = ticket.result(timeout=60)
        assert isinstance(got, MixedCGResult)
        assert got.converged
        want = self.mixed_reference(prob, bank[0])
        assert np.array_equal(got.x, want.x)
        assert got.sweeps == want.sweeps
        assert got.inner_iterations == want.inner_iterations
        assert got.residual_history == want.residual_history

    def test_coalesced_mixed_and_fp64_split_into_groups(
        self, serving_problem, sequential_solve, assert_same_result
    ):
        """Mixed and fp64 requests queued into the same batch must each
        get exactly their solo path's numerics — the service splits the
        batch into separate dispatch groups at solve time."""
        from repro.sem.cg import MixedCGResult

        prob, bank = serving_problem
        with SolveService(prob, max_batch=8) as svc:
            tickets = [
                svc.submit(
                    b, precision="mixed" if k % 2 else "fp64"
                )
                for k, b in enumerate(bank[:6])
            ]
            svc.flush()
            results = [t.result(timeout=60) for t in tickets]
            snap = svc.stats
        for k, (b, got) in enumerate(zip(bank[:6], results)):
            if k % 2:
                assert isinstance(got, MixedCGResult)
                want = self.mixed_reference(prob, b)
                assert np.array_equal(got.x, want.x)
            else:
                assert not isinstance(got, MixedCGResult)
                assert_same_result(got, sequential_solve(prob, b))
        # Two dispatch groups: one stacked fp64 solve, one stacked mixed.
        assert snap.completed == 6

    def test_solve_many_all_mixed(self, serving_problem):
        from repro.sem.cg import MixedCGResult

        prob, bank = serving_problem
        with SolveService(prob, max_batch=4) as svc:
            results = svc.solve_many(bank[:4], precision="mixed")
        for b, got in zip(bank[:4], results):
            assert isinstance(got, MixedCGResult)
            want = self.mixed_reference(prob, b)
            assert np.array_equal(got.x, want.x)

    def test_service_inherits_problem_precision(self):
        from repro.sem.cg import MixedCGResult

        ref = ReferenceElement.from_degree(3)
        mesh = BoxMesh.build(ref, (2, 2, 1))
        prob = PoissonProblem(
            mesh, ax_backend="matmul", precision="mixed"
        )
        _, forcing = sine_manufactured(mesh.extent)
        b = prob.rhs_from_forcing(forcing)
        with SolveService(prob, max_batch=2) as svc:
            assert svc.precision == "mixed"
            t_mixed = svc.submit(b)
            # And the per-request override back to fp64 still works.
            t_fp64 = svc.submit(b, precision="fp64")
            svc.flush()
            got = t_mixed.result(timeout=60)
            got64 = t_fp64.result(timeout=60)
        assert isinstance(got, MixedCGResult)
        assert not isinstance(got64, MixedCGResult)

    def test_invalid_precision_bounces_at_submit(self, serving_problem):
        prob, bank = serving_problem
        with SolveService(prob, max_batch=2) as svc:
            with pytest.raises(ValueError, match="precision"):
                svc.submit(bank[0], precision="fp32")
