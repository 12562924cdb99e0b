"""Tests for repro.serve.asyncio_front (the asyncio serving facade)."""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.serve import (
    AsyncSolveService,
    FaultPlan,
    ProcessShardedSolveService,
    QueueClosed,
    SolveService,
)


class TestAsyncSolve:
    def test_solve_bit_identical(
        self, serving_problem, sequential_solve, assert_same_result,
        fresh_problem
    ):
        prob, bank = serving_problem

        async def run():
            svc = SolveService(
                fresh_problem, max_batch=8, max_wait=0.002, background=True,
            )
            async with AsyncSolveService(svc) as asvc:
                return await asvc.solve(bank[0], tol=1e-10, maxiter=200)

        got = asyncio.run(run())
        assert_same_result(got, sequential_solve(prob, bank[0]))

    def test_solve_many_coalesces_and_matches(
        self, serving_problem, sequential_solve, assert_same_result,
        fresh_problem
    ):
        prob, bank = serving_problem

        async def run():
            svc = SolveService(
                fresh_problem, max_batch=8, max_wait=0.05, background=True,
            )
            # The dispatcher may look at the queue only once all eight
            # are in: the loop thread holds the batcher's (reentrant)
            # lock until the eighth put, so a loop descheduled between
            # two submits cannot hand the dispatcher a lone request.
            batcher = svc._batcher
            put, held = batcher.put, [True]

            def put_then_let_go(item, block=True):
                depth = put(item, block)
                if depth == 8 and held[0]:
                    held[0] = False
                    batcher._cond.release()
                return depth

            batcher._cond.acquire()
            batcher.put = put_then_let_go
            try:
                async with AsyncSolveService(svc) as asvc:
                    results = await asvc.solve_many(
                        bank[:8], tol=1e-10, maxiter=200
                    )
                    return results, asvc.service.stats
            finally:
                if held[0]:
                    batcher._cond.release()

        results, stats = asyncio.run(run())
        for b, got in zip(bank[:8], results):
            assert_same_result(got, sequential_solve(prob, b))
        # All eight were submitted before any await on results, so they
        # coalesced into one full batch — async costs no batching.
        assert stats.batch_histogram == {8: 1}

    def test_sharded_backend_with_keys(
        self, serving_problem, sequential_solve, assert_same_result
    ):
        prob, bank = serving_problem

        async def run():
            svc = ProcessShardedSolveService(
                prob, workers=2, policy="tenant", max_wait=0.002,
            )
            async with AsyncSolveService(svc) as asvc:
                keys = [f"tenant-{k % 3}" for k in range(12)]
                results = await asvc.solve_many(bank[:12], keys=keys)
                return results, svc.routed

        results, routed = asyncio.run(run())
        for b, got in zip(bank[:12], results):
            assert_same_result(got, sequential_solve(prob, b))
        assert sum(routed) == 12

    def test_error_propagates_to_future(self, fresh_problem):
        class Boom(RuntimeError):
            pass

        async def run():
            svc = SolveService(
                fresh_problem, max_batch=2, max_wait=0.002, background=True,
            )
            svc._operator = lambda v, out=None: (_ for _ in ()).throw(
                Boom("operator exploded")
            )
            async with AsyncSolveService(svc) as asvc:
                with pytest.raises(Boom):
                    await asvc.solve(np.ones(fresh_problem.n_dofs))

        asyncio.run(run())

    def test_submit_after_close_raises(self, serving_problem, fresh_problem):
        _, bank = serving_problem

        async def run():
            asvc = AsyncSolveService(
                SolveService(fresh_problem, background=True)
            )
            await asvc.aclose()
            with pytest.raises(QueueClosed):
                await asvc.submit(bank[0])
            await asvc.aclose()  # idempotent

        asyncio.run(run())

    def test_non_service_rejected(self):
        with pytest.raises(TypeError, match="SolveService"):
            AsyncSolveService(object())

    def test_foreground_service_rejected(self, fresh_problem):
        """A foreground service would strand awaited partial batches
        forever (nothing flushes on the asyncio side) — refuse it at
        construction instead of hanging at await time."""
        svc = SolveService(fresh_problem, max_batch=8, background=False)
        try:
            with pytest.raises(ValueError, match="background"):
                AsyncSolveService(svc)
        finally:
            svc.close()

    def test_keys_length_mismatch(self, serving_problem, fresh_problem):
        _, bank = serving_problem

        async def run():
            async with AsyncSolveService(
                SolveService(fresh_problem, background=True)
            ) as asvc:
                with pytest.raises(ValueError, match="keys length"):
                    await asvc.solve_many(bank[:3], keys=["a"])

        asyncio.run(run())


class TestSubmitPaths:
    """``submit`` enqueues from the loop thread itself and takes the
    executor only under backpressure — on every tier."""

    @staticmethod
    def record_doors(svc):
        """Log ``(block, thread)`` of every ``svc.submit`` call (both
        doors go through it: ``try_submit`` is ``submit`` told not to
        wait)."""
        doors = []
        inner = svc.submit

        def recorded(b, **kwargs):
            doors.append(
                (kwargs.get("_block", True), threading.current_thread())
            )
            return inner(b, **kwargs)

        svc.submit = recorded
        return doors

    def test_uncontended_submit_never_leaves_the_loop_thread(
        self, serving_problem, sequential_solve, assert_same_result,
        fresh_problem
    ):
        prob, bank = serving_problem

        async def run():
            svc = SolveService(
                fresh_problem, max_batch=4, max_wait=0.002, background=True,
            )
            doors = self.record_doors(svc)
            async with AsyncSolveService(svc) as asvc:
                got = await asvc.solve_many(bank[:8], tol=1e-10, maxiter=200)
            return got, doors

        got, doors = asyncio.run(run())
        assert doors == [(False, threading.main_thread())] * 8
        for res, b in zip(got, bank):
            assert_same_result(res, sequential_solve(prob, b))

    def test_full_queue_parks_on_executor_while_loop_keeps_ticking(
        self, serving_problem, gate_dispatcher, sequential_solve,
        assert_same_result, fresh_problem
    ):
        prob, bank = serving_problem

        async def run():
            loop = asyncio.get_running_loop()
            svc = SolveService(
                fresh_problem, max_batch=2, max_wait=0.0, max_pending=2,
                background=True,
            )
            # Hold the dispatcher inside its first solve: the queue
            # behind it fills and stays full until the gate opens.
            gate, parked = gate_dispatcher(svc)
            doors = self.record_doors(svc)
            ticks = 0

            async def heartbeat():
                nonlocal ticks
                while True:
                    ticks += 1
                    await asyncio.sleep(0.001)

            async with AsyncSolveService(svc) as asvc:
                try:
                    futures = [await asvc.submit(bank[0])]
                    assert await loop.run_in_executor(None, parked.wait, 30)
                    while svc.queue_depth < 2:
                        futures.append(
                            await asvc.submit(bank[len(futures)])
                        )
                    fast = len(futures)
                    beat = asyncio.ensure_future(heartbeat())
                    blocked = asyncio.ensure_future(
                        asvc.submit(bank[fast])
                    )
                    await asyncio.sleep(0.1)
                    # Parked — on the executor, not on the loop.
                    assert not blocked.done()
                    ticks_while_full = ticks
                    gate.set()
                    futures.append(await blocked)
                    got = await asyncio.gather(*futures)
                    beat.cancel()
                finally:
                    gate.set()
            return got, doors, fast, ticks_while_full, svc.stats

        got, doors, fast, ticks_while_full, stats = asyncio.run(run())
        assert ticks_while_full >= 20  # ~100 at 1 ms; never blocked
        main = threading.main_thread()
        # The refused try is the last loop-thread call; the blocking
        # retry of the same request is the only call on another thread.
        assert [door for door in doors if door[1] is main] == (
            [(False, main)] * (fast + 1)
        )
        elsewhere = [door for door in doors if door[1] is not main]
        assert [block for block, _ in elsewhere] == [True]
        for res, b in zip(got, bank):
            assert_same_result(res, sequential_solve(prob, b))
        # Fast-path, refused and fallback submits: each request once.
        assert stats.submitted == len(got) == stats.completed

    def test_invalid_request_raises_before_any_future(
        self, serving_problem, fresh_problem
    ):
        _, bank = serving_problem

        async def run():
            svc = SolveService(fresh_problem, background=True)
            async with AsyncSolveService(svc) as asvc:
                with pytest.raises(ValueError, match="tol"):
                    await asvc.submit(bank[0], tol=-1.0)
                with pytest.raises(ValueError, match="shape"):
                    await asvc.submit(np.ones(3))
                return svc.stats.submitted, svc.queue_depth

        assert asyncio.run(run()) == (0, 0)

    def test_service_without_try_submit_is_rejected(self):
        """One submit path for every tier: a backend that cannot be
        asked not to wait is refused at construction."""

        class Backend:
            def submit(self, b, **kwargs):
                raise AssertionError("never called")

            def close(self):
                pass

        with pytest.raises(TypeError, match="try_submit"):
            AsyncSolveService(Backend())

    def test_process_fleet_parks_on_executor_only_for_a_full_ring(
        self, serving_problem, sequential_solve, assert_same_result
    ):
        """The process tier takes the same path: staging and doorbell
        run on the loop thread; with its one ring slot held behind a
        worker asleep on its first block, the next submit is refused
        there (counted nowhere) and parks on the executor, while the
        loop keeps ticking."""
        prob, bank = serving_problem

        async def run():
            svc = ProcessShardedSolveService(
                prob, workers=1, ring_slots=1, max_batch=1,
                max_wait=0.002, tol=1e-10, maxiter=200,
                chaos=FaultPlan(slow_solves={0: {1: 1.0}}),
            )
            doors = self.record_doors(svc)
            ticks = 0

            async def heartbeat():
                nonlocal ticks
                while True:
                    ticks += 1
                    await asyncio.sleep(0.001)

            async with AsyncSolveService(svc) as asvc:
                first = await asvc.submit(bank[0])
                beat = asyncio.ensure_future(heartbeat())
                second = await asvc.submit(bank[1])
                beat.cancel()
                got = await asyncio.gather(first, second)
                return got, doors, ticks, svc.routed, svc.stats

        got, doors, ticks, routed, stats = asyncio.run(run())
        main = threading.main_thread()
        assert [door for door in doors if door[1] is main] == (
            [(False, main)] * 2
        )
        elsewhere = [door for door in doors if door[1] is not main]
        assert [block for block, _ in elsewhere] == [True]
        assert ticks >= 20  # the loop never waited for the slot
        assert routed == (2,) and stats.submitted == 2
        for res, b in zip(got, bank):
            assert_same_result(res, sequential_solve(prob, b))


class TestAsyncCancellation:
    def test_cancelled_future_does_not_poison_batch(
        self, serving_problem, sequential_solve, assert_same_result,
        fresh_problem
    ):
        """The acceptance test: cancel one request's future while its
        batch lingers; the batch still solves, every *other* request
        resolves bit-identically, and the cancelled future stays
        cancelled (its result is dropped, not delivered)."""
        prob, bank = serving_problem

        async def run():
            # Huge max_wait parks the forming burst until close() drains
            # it (the first request may leave alone; the loop does not
            # yield before the cancel, so the outcome is the same).
            svc = SolveService(
                fresh_problem, max_batch=8, max_wait=30.0, background=True,
            )
            async with AsyncSolveService(svc) as asvc:
                futures = [await asvc.submit(b) for b in bank[:4]]
                futures[1].cancel()
                with pytest.raises(asyncio.CancelledError):
                    await futures[1]
                # aclose (via the context manager) drains the batch —
                # but gather the survivors first to prove they resolve.
                await asvc.aclose()
                survivors = await asyncio.gather(
                    futures[0], futures[2], futures[3]
                )
                return survivors, futures[1], svc.stats

        survivors, cancelled, stats = asyncio.run(run())
        for b, got in zip(
            (bank[0], bank[2], bank[3]), survivors
        ):
            assert_same_result(got, sequential_solve(prob, b))
        assert cancelled.cancelled()
        # The batch solved all four requests — the cancelled one was
        # dropped at delivery, not yanked from the stacked solve.
        assert stats.completed == 4
        assert stats.failed == 0

    def test_many_in_flight_with_scattered_cancels(
        self, serving_problem, sequential_solve, assert_same_result,
        fresh_problem
    ):
        prob, bank = serving_problem

        async def run():
            svc = SolveService(
                fresh_problem, max_batch=4, max_wait=0.05, background=True,
            )
            async with AsyncSolveService(svc) as asvc:
                futures = [
                    await asvc.submit(bank[k % len(bank)]) for k in range(12)
                ]
                for k in (1, 5, 9):
                    futures[k].cancel()
                done = await asyncio.gather(
                    *(futures[k] for k in range(12) if k not in (1, 5, 9))
                )
                await asvc.aclose()  # settle batches holding only cancels
                return done, svc.stats

        done, stats = asyncio.run(run())
        keep = [k for k in range(12) if k not in (1, 5, 9)]
        for k, got in zip(keep, done):
            assert_same_result(
                got, sequential_solve(prob, bank[k % len(bank)])
            )
        assert stats.completed == 12  # cancelled ones still solved
