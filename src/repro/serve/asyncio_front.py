"""Asyncio front-end over the micro-batching (and sharded) solve services.

The synchronous clients of :class:`~repro.serve.service.SolveService`
block a thread per in-flight request (``ticket.result()``).  A
coroutine-based application — the natural shape of a request-serving
host — wants thousands of in-flight solves on one event loop with no
busy-waiting and no thread-per-request.  :class:`AsyncSolveService`
provides that without touching the batching core: the same
:class:`~repro.serve.scheduler.MicroBatcher` queues, the same dispatcher
threads, the same bit-identical results.

The bridge works ticket-by-ticket:

1. ``submit`` first calls the service's non-blocking ``try_submit``
   right on the event loop — validation, a copy of the rhs and an
   enqueue under a briefly held lock, no thread hop.  Only when that
   reports backpressure (a queue at ``max_pending``, a process-fleet
   ring with no free slot) does the blocking ``service.submit`` run on
   the loop's default executor, so a full queue parks this one
   coroutine and never the loop itself.  Both tiers take this one
   path: :class:`~repro.serve.service.SolveService` and
   :class:`~repro.serve.procshard.ProcessShardedSolveService`;
2. a done-callback on the returned
   :class:`~repro.serve.service.SolveTicket` fires on the *dispatcher*
   thread when the batch resolves, and re-enters the event loop via
   ``loop.call_soon_threadsafe`` to complete an :class:`asyncio.Future`;
3. awaiting that future suspends the coroutine — no polling anywhere.

Cancellation is drop-only by design: cancelling the asyncio future
abandons *waiting* for the result, but the request itself stays in its
batch (requests coalesce into one stacked ``cg_solve_batched`` call —
yanking one out would change its batchmates' dispatch, violating the
"batching is invisible" contract).  The transfer callback simply
discards the result of a cancelled future; the batch and every other
ticket in it are unaffected.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from repro.sem.cg import CGResult
from repro.serve.service import SolveTicket


class AsyncSolveService:
    """Awaitable facade over a solve service (plain or sharded).

    Parameters
    ----------
    service:
        A :class:`~repro.serve.service.SolveService` with
        ``background=True`` or a
        :class:`~repro.serve.procshard.ProcessShardedSolveService`
        (whose workers always run background dispatchers).  Background
        dispatch is *required*, not advised: nothing on the asyncio side ever
        flushes, so a foreground service would strand a lingering
        partial batch — and the futures awaiting it — forever.  The
        front-end does not own the service unless it closes it: leaving
        an ``async with`` block (or awaiting :meth:`aclose`) drains and
        closes the underlying service.

    Thread safety / loop affinity
    -----------------------------
    Every coroutine must run on the loop it awaits on (the usual asyncio
    rule); the underlying service may simultaneously serve synchronous
    threaded clients — the queues are shared and thread-safe.

    Examples
    --------
    >>> async with AsyncSolveService(svc) as asvc:      # doctest: +SKIP
    ...     results = await asvc.solve_many(rhs_block)
    """

    def __init__(self, service) -> None:
        required = ("submit", "try_submit", "close")
        missing = [a for a in required if not hasattr(service, a)]
        if missing:
            raise TypeError(
                f"service {type(service).__name__} lacks {missing}; "
                "expected a SolveService or ProcessShardedSolveService"
            )
        # A foreground SolveService never dispatches partial batches on
        # its own, and no coroutine here ever flushes — awaiting such a
        # service would hang forever on the first non-full batch.
        # (ProcessShardedSolveService has no `background` attribute;
        # its workers always run dispatchers.)
        if getattr(service, "background", True) is False:
            raise ValueError(
                "AsyncSolveService requires a background-dispatching "
                "service (SolveService(..., background=True) or a "
                "ProcessShardedSolveService); a foreground service would "
                "leave partial batches — and their awaited futures — "
                "unresolved"
            )
        self.service = service

    # ------------------------------------------------------------------
    async def submit(
        self,
        b: NDArray[np.float64],
        tol: float | None = None,
        maxiter: int | None = None,
        key: object | None = None,
        deadline: float | None = None,
        precision: str | None = None,
    ) -> "asyncio.Future[CGResult]":
        """Queue one right-hand side; returns an awaitable future.

        Parameters
        ----------
        b:
            Right-hand side of shape ``(n_dofs,)`` (copied at
            submission).
        tol / maxiter:
            Per-request overrides forwarded to the service.
        key:
            Routing key, forwarded only when set (sharded services route
            by it; plain services take no ``key`` argument).
        deadline:
            Optional time budget in seconds, forwarded to the service;
            an expired request rejects the future with
            :class:`~repro.serve.errors.DeadlineExceeded`.
        precision:
            Per-request solve policy override (``"fp64"`` or
            ``"mixed"``), forwarded to the service; mixed futures
            resolve to a :class:`~repro.sem.cg.MixedCGResult`.

        Returns
        -------
        asyncio.Future
            Resolves to the request's :class:`~repro.sem.cg.CGResult`
            on the calling loop, or raises the batch's exception.
            Cancelling it abandons the wait without disturbing the
            request's batch.

        Raises
        ------
        ValueError
            Invalid shape/``tol``/``maxiter``/``deadline`` (surfaced
            here, before any future exists).
        ~repro.serve.errors.ServiceClosed
            If the service has been closed.
        ~repro.serve.errors.Overloaded
            If admission control shed the request (retryable).

        Notes
        -----
        The service's ``try_submit`` runs here, on the loop: it never
        waits.  The blocking ``service.submit`` (it parks on
        backpressure when the queue is at ``max_pending``) runs on the
        loop's default executor, and only when ``try_submit`` reported
        a full queue — so a full queue suspends this coroutine, never
        the event loop.
        """
        loop = asyncio.get_running_loop()
        knobs = dict(
            tol=tol, maxiter=maxiter, deadline=deadline,
            precision=precision,
        )
        if key is not None:
            knobs["key"] = key
        ticket = self.service.try_submit(b, **knobs)
        if ticket is None:
            ticket = await loop.run_in_executor(
                None, functools.partial(self.service.submit, b, **knobs)
            )
        return _ticket_to_future(ticket, loop)

    async def solve(
        self,
        b: NDArray[np.float64],
        tol: float | None = None,
        maxiter: int | None = None,
        key: object | None = None,
        deadline: float | None = None,
        precision: str | None = None,
    ) -> CGResult:
        """Submit one request and await its result.

        Returns
        -------
        ~repro.sem.cg.CGResult
            Bit-identical to a sequential warm
            :func:`~repro.sem.cg.cg_solve` of the same system.
        """
        future = await self.submit(
            b, tol=tol, maxiter=maxiter, key=key, deadline=deadline,
            precision=precision,
        )
        return await future

    async def solve_many(
        self,
        bs,
        tol: float | None = None,
        maxiter: int | None = None,
        keys: Sequence[object] | None = None,
        deadline: float | None = None,
        precision: str | None = None,
    ) -> list[CGResult]:
        """Solve a block of right-hand sides concurrently; input order.

        All requests are submitted before any result is awaited, so they
        coalesce into full batches exactly as a threaded burst would.

        Parameters
        ----------
        bs:
            ``(M, n)`` array or sequence of ``(n,)`` vectors.
        tol / maxiter:
            Shared per-request overrides.
        keys:
            Optional per-request routing keys (``len(keys) == M``).
        deadline:
            Shared per-request time budget in seconds.
        precision:
            Shared per-request solve policy override.

        Returns
        -------
        list of ~repro.sem.cg.CGResult
        """
        if keys is not None and len(keys) != len(bs):
            raise ValueError(
                f"keys length {len(keys)} != number of requests {len(bs)}"
            )
        # Submit concurrently: the submits that fall back to the
        # executor (full queue) would otherwise serialize M round-trips
        # and trickle-feed the batchers.
        futures = await asyncio.gather(*(
            self.submit(
                b, tol=tol, maxiter=maxiter,
                key=None if keys is None else keys[i],
                deadline=deadline, precision=precision,
            )
            for i, b in enumerate(bs)
        ))
        return list(await asyncio.gather(*futures))

    async def aclose(self) -> None:
        """Drain and close the underlying service without blocking the
        loop (the close — queue drain + dispatcher join — runs on the
        default executor).  Idempotent, like ``service.close``."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.service.close)

    async def __aenter__(self) -> "AsyncSolveService":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()


def _ticket_to_future(
    ticket: SolveTicket, loop: asyncio.AbstractEventLoop
) -> "asyncio.Future[CGResult]":
    """Bridge a resolved-on-any-thread ticket to a loop-bound future.

    The ticket's done-callback runs on the resolving thread (dispatcher
    or flushing client); it reads the outcome there (non-blocking — the
    ticket is done) and hops to the event loop via
    ``call_soon_threadsafe`` to complete the future.  A future the
    caller has already cancelled is left alone — the solve result is
    simply dropped, and the request's batchmates never notice.
    """
    future: "asyncio.Future[CGResult]" = loop.create_future()
    # The gateway's deadline enforcement needs the underlying ticket:
    # cancelling only the asyncio future abandons the *wait*, while
    # ticket.cancel() marks the request itself disowned (still
    # drop-only) so the process shard's watchdog can reclaim its
    # staged ring slot.
    future.solve_ticket = ticket  # type: ignore[attr-defined]

    def transfer(done: SolveTicket) -> None:  # dispatcher thread
        # A ticket cancelled through the synchronous API has no outcome
        # to read (exception() would raise CancelledError here, on the
        # dispatcher thread); propagate the cancellation to the future.
        ticket_cancelled = done.cancelled()
        error = None if ticket_cancelled else done.exception()

        def apply() -> None:  # event-loop thread
            if future.cancelled():
                return  # drop-only cancellation
            if ticket_cancelled:
                future.cancel()
            elif error is not None:
                future.set_exception(error)
            else:
                future.set_result(done.result())

        try:
            loop.call_soon_threadsafe(apply)
        except RuntimeError:
            # The loop shut down while requests were in flight; there is
            # nobody left to deliver to.  The solve itself completed
            # normally (the ticket holds the result).
            pass

    ticket.add_done_callback(transfer)
    return future
