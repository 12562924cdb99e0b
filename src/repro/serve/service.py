"""The dynamic micro-batching solve service.

The paper frames the FPGA SEM accelerator as a device an application
streams solves through; Nekbone — its CPU baseline — is the Jacobi-CG
loop this repo runs allocation-free and batched.  PR 2 built the batched
primitive (:func:`repro.sem.cg.cg_solve_batched`, one warm workspace
carrying ``B`` stacked right-hand sides); this module builds the thing
that *feeds* it: a service that accepts independent single-RHS solve
requests from any number of client threads and dynamically coalesces
them into stacked batched solves.

Guarantees:

* **Bit-identical results.**  The CG loop takes each inner product row
  by row (two fixed halves of eight fp64 lanes — never a function of
  the batch size), the gather adds in local order one row at a time,
  and the batched kernels sweep systems through the identical op
  sequence, so every request's
  :class:`~repro.sem.cg.CGResult` is bit-for-bit what a sequential
  warm :func:`~repro.sem.cg.cg_solve` would have produced — batching is
  purely a throughput decision, invisible to numerics.
* **Per-request parameters.**  ``tol`` and ``maxiter`` ride with each
  request; heterogeneous requests coalesce into one stacked solve via
  the per-system stopping criteria of
  :func:`~repro.sem.cg.cg_solve_batched`.
* **Backpressure.**  ``max_pending`` bounds the queue; ``submit``
  blocks (never drops) when clients outrun the solver.

Two front-ends share the machinery:

* :meth:`SolveService.solve_many` — synchronous, for scripts: submit a
  block of requests, drain inline, get ordered results.
* ``background=True`` — a dispatcher thread batches concurrent
  :meth:`SolveService.submit` calls from many clients, firing a batch
  when ``max_batch`` requests are pending or ``max_wait`` seconds after
  the oldest arrived — and at once when the request it finds is alone,
  since only a burst of two or more is worth lingering for.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from repro.analysis.runtime import race_checked
from repro.sem.cg import (
    CGResult,
    MixedCGResult,
    cg_solve_batched,
    cg_solve_batched_mixed,
    check_maxiter,
    check_precision,
    check_tol,
)
from repro.sem.problem import SEMProblem
from repro.serve.errors import DeadlineExceeded, ServiceClosed
from repro.serve.scheduler import MicroBatcher
from repro.serve.stats import ServiceStats, StatsSnapshot

def check_problem(problem) -> None:
    """Refuse anything but an :class:`~repro.sem.problem.SEMProblem` —
    what every serving front solves through — with a ``TypeError``
    that names the fix (a :class:`~repro.sem.nekbone.NekboneCase` is a
    driver; its ``case.problem`` is what is served)."""
    if not isinstance(problem, SEMProblem):
        raise TypeError(
            f"problem {type(problem).__name__} is not an SEMProblem; "
            "serve a PoissonProblem or HelmholtzProblem (for a "
            "NekboneCase, serve its case.problem)"
        )


def check_request(
    n: int,
    b: NDArray[np.float64],
    tol: float | None = None,
    maxiter: int | None = None,
    deadline: float | None = None,
    precision: str | None = None,
    key: object | None = None,
    snapshot: bool = True,
) -> "SolveRequest":
    """Validate one request and build its record; no side effects.

    The single source of request-validation truth, and the one place a
    :class:`SolveRequest` is made: by :meth:`SolveService.submit` /
    :meth:`SolveService.solve_many`, by the process fleet's parent-side
    pre-flight, and by a fleet worker from each doorbell.  ``None``
    knobs pass through unchecked, for the service that queues the
    request to fill with its defaults; everything else is coerced and
    bounds-checked.  ``deadline`` is the request's *relative* time
    budget in seconds (``None`` = no deadline), turned into the
    record's absolute ``time.monotonic()`` instant here — queue time
    counts against the budget.  ``precision`` is the request's solve
    policy (``"fp64"``/``"mixed"``); ``key`` its fleet routing key.

    ``snapshot=False`` skips the defensive rhs copy and accepts ``b``
    as a zero-copy *view* (coerced only if it is not already a float64
    ndarray) — for callers whose transport already owns the bytes: the
    process fleet's workers solve straight out of shared-memory ring
    slots, and its parent copies into a slot itself, making a prior
    snapshot pure waste.  Such callers take on the snapshot contract
    themselves: the array must not change under a queued request.
    """
    if snapshot:
        b = np.array(b, dtype=np.float64)  # snapshot: caller may mutate
    else:
        b = np.asarray(b, dtype=np.float64)
    if b.shape != (n,):
        raise ValueError(f"rhs must have shape ({n},), got {b.shape}")
    if tol is not None:
        tol = float(check_tol(tol))
    if maxiter is not None:
        maxiter = int(check_maxiter(maxiter))
    if deadline is not None:
        deadline = float(deadline)
        if not np.isfinite(deadline) or deadline <= 0:
            raise ValueError(
                f"deadline must be finite and > 0 seconds, got {deadline}"
            )
        deadline = time.monotonic() + deadline
    if precision is not None:
        check_precision(precision)
    return SolveRequest(
        SolveTicket(), b, tol, maxiter, deadline, precision, key
    )


class SolveTicket:
    """Handle to one submitted request; resolves to a
    :class:`~repro.sem.cg.CGResult`.

    Tickets are created by :meth:`SolveService.submit` and resolved by
    whichever thread executes the batch containing the request (the
    background dispatcher, or a client draining synchronously).  A thin
    veneer over :class:`concurrent.futures.Future`, which already has
    the cross-thread resolve/wait/re-raise semantics needed here.

    A ticket can be :meth:`cancel`-led to *disown* the request — e.g.
    after :meth:`result` timed out and the caller no longer wants the
    answer.  Cancellation is **drop-only**: it never reaches into a
    queue or a batch (so it cannot poison batchmates); the solve may
    still execute and still counts in the service stats — only the
    result's delivery is dropped.  These are exactly the semantics the
    asyncio front has always had (cancelling its wrapped future), now
    uniform across fronts.
    """

    __slots__ = ("_future",)

    def __init__(self) -> None:
        self._future: Future[CGResult] = Future()

    def done(self) -> bool:
        """True once the request has been solved (or failed)."""
        return self._future.done()

    def result(self, timeout: float | None = None) -> CGResult:
        """Block until resolved and return the request's result.

        Parameters
        ----------
        timeout:
            Seconds to wait; ``None`` waits indefinitely.

        Returns
        -------
        ~repro.sem.cg.CGResult
            The request's solve outcome.

        Raises
        ------
        TimeoutError
            If ``timeout`` elapses before the request resolves.
        Exception
            Re-raises the batch's exception if the solve failed.
        """
        return self._future.result(timeout)

    def exception(
        self, timeout: float | None = None
    ) -> BaseException | None:
        """Block until resolved and return the failure (or ``None``).

        The non-raising twin of :meth:`result`: callers that need to
        inspect a failed batch's error without a ``try``/``except`` (the
        asyncio front-end's transfer callback) read it here.
        """
        return self._future.exception(timeout)

    def add_done_callback(self, fn: "Callable[[SolveTicket], None]") -> None:
        """Invoke ``fn(ticket)`` once the request resolves or fails.

        The callback runs on whichever thread resolves the ticket (the
        background dispatcher or a draining client) — or immediately on
        the calling thread if the ticket is already done — so it must be
        cheap and must not block.  This is the hand-off point the
        asyncio front-end uses to re-enter the event loop via
        ``loop.call_soon_threadsafe``.
        """
        self._future.add_done_callback(lambda _f: fn(self))

    # census: failure path: the gateway disowns a request past its deadline
    def cancel(self) -> bool:
        """Disown the request: drop its result when (and if) it arrives.

        Returns ``True`` if the ticket was still pending (it is now
        cancelled: :meth:`result`/:meth:`exception` raise
        :class:`concurrent.futures.CancelledError`, done callbacks
        fire), ``False`` if the request had already resolved or failed.
        Drop-only — the request is *not* pulled out of its queue and a
        batch already containing it still solves every batchmate; the
        service simply discards the outcome on delivery.
        """
        return self._future.cancel()

    def cancelled(self) -> bool:
        """True once :meth:`cancel` has disowned the request."""
        return self._future.cancelled()

    # Called by the service only.  Cancellation races with resolution
    # (client thread vs. dispatcher), and futures refuse transitions on
    # a cancelled/settled state — for a drop-only contract losing that
    # race simply means the outcome is discarded.
    def _resolve(self, result: CGResult) -> None:
        if not self._future.cancelled():
            try:
                self._future.set_result(result)
            except InvalidStateError:
                pass

    # census: failure path: resolves a ticket with its error
    def _fail(self, error: BaseException) -> None:
        if not self._future.cancelled():
            try:
                self._future.set_exception(error)
            except InvalidStateError:
                pass


@dataclass(slots=True, eq=False)
class SolveRequest:
    """One solve request, from validation to resolution.

    Built once, by :func:`check_request`, and passed along unchanged: a
    :class:`SolveService` queues it, the process fleet registers,
    stages and retries it, and a fleet worker rebuilds it from the
    doorbell that is its wire form.

    ``deadline_at`` is absolute ``time.monotonic()`` (or ``None``): the
    instant after which the request must not *start* solving.  A
    ``None`` ``tol`` / ``maxiter`` / ``precision`` takes the defaults
    of the service that queues it.  ``key`` is the fleet's routing key;
    ``attempts`` counts the fleet's registrations of the request with a
    worker, and ``staged`` is ``(ring, ordinal, slot)`` while its rhs
    is parked in a worker's ring slot (``b`` then aliases the slot's
    row), ``None`` otherwise.
    """

    ticket: SolveTicket
    b: NDArray[np.float64]
    tol: float | None = None
    maxiter: int | None = None
    deadline_at: float | None = None
    precision: str | None = None
    key: object | None = None
    attempts: int = 0
    staged: tuple | None = None

    def spent(self) -> bool:
        """Has the request's deadline (if any) passed?"""
        return (
            self.deadline_at is not None
            and time.monotonic() >= self.deadline_at
        )


class _WouldBlock(Exception):
    """How a submit that ``try_submit`` asked not to wait says there is
    no room: the queue is at ``max_pending`` (or, on the process fleet,
    the routed worker's ring is full).  Never reaches a caller:
    ``try_submit`` returns ``None`` in its place."""


@race_checked
@dataclass
class SolveService:
    """Dynamic micro-batching front-end over one SEM problem.

    Parameters
    ----------
    problem:
        An :class:`~repro.sem.problem.SEMProblem`: a
        :class:`~repro.sem.poisson.PoissonProblem` or
        :class:`~repro.sem.helmholtz.HelmholtzProblem` (a
        :class:`~repro.sem.nekbone.NekboneCase` serves its
        ``case.problem``); anything else is a ``TypeError``.
    max_batch:
        Largest number of requests coalesced into one stacked solve.
    max_wait:
        Latency bound on coalescing: the background dispatcher fires a
        partial batch once the *oldest* pending request has waited this
        many seconds since arrival (time spent solving the previous
        batch counts).  It lingers only while two or more requests are
        pending: a request that is alone when the dispatcher looks is
        solved at once.  Ignored by the synchronous front-end, which
        drains on demand.
    max_pending:
        Backpressure bound on queued requests; ``submit`` blocks while
        the queue is full.  Defaults to ``4 * max_batch`` in background
        mode, unbounded otherwise (the synchronous front-end drains
        inline, so its queue cannot grow past ``max_batch``).
    tol / maxiter:
        Service-level defaults for requests that don't override them.
    precision:
        Service-level default solve policy (``"fp64"`` or ``"mixed"``)
        for requests that don't override it per submission.  ``None``
        (the default) inherits the problem's own ``precision``
        attribute, so a fleet built over a ``precision="mixed"``
        problem serves mixed by default without re-stating the policy
        at every layer.  Mixed and
        fp64 requests may coalesce into the same queue batch; the
        service splits them into **separate dispatch groups** at solve
        time (one fp64 :func:`~repro.sem.cg.cg_solve_batched`, one
        fp32-inner :func:`~repro.sem.cg.cg_solve_batched_mixed`), so
        each request's numerics are exactly its precision's solo path.
    background:
        Spawn the dispatcher thread.  Without it, batches fire inside
        ``submit`` whenever ``max_batch`` requests are pending, and
        :meth:`flush` / :meth:`solve_many` drain the rest.

    Close the service (or use it as a context manager) to drain the
    queue and stop the dispatcher; tickets submitted before ``close``
    are always resolved.

    Thread safety
    -------------
    :meth:`submit`, :meth:`flush`, :meth:`solve_many`, :attr:`stats`
    and :meth:`close` are safe from any number of threads: the queue is
    a lock-protected :class:`~repro.serve.scheduler.MicroBatcher`,
    solves serialize on the service's solve lock, and stats snapshots
    are cut under the accumulator's lock.
    The *problem* itself is single-solve (shared workspace buffers) —
    which is exactly what the solve lock enforces; use
    :class:`~repro.serve.procshard.ProcessShardedSolveService` for
    solve-level parallelism across worker processes.
    """

    _TRACKED_LOCKS = ("_solve_lock",)

    problem: object
    max_batch: int = 8
    max_wait: float = 1e-3
    max_pending: int | None = None
    tol: float = 1e-10
    maxiter: int = 1000
    precision: str | None = None
    background: bool = False

    stats_accumulator: ServiceStats = field(
        init=False, repr=False, default_factory=ServiceStats
    )

    def __post_init__(self) -> None:
        check_problem(self.problem)
        if self.precision is None:
            self.precision = self.problem.precision
        check_precision(self.precision)
        # The defaults a request's None knobs take: checked here, once,
        # so filling them in at enqueue needs no check of its own.
        self.tol = float(check_tol(self.tol))
        self.maxiter = int(check_maxiter(self.maxiter))
        if self.max_pending is None and self.background:
            self.max_pending = 4 * self.max_batch
        self._operator = self.problem.operator
        self._operator32 = self.problem.operator32
        self._diag = self.problem.precond_diag()
        self._n = int(self.problem.n_dofs)
        # Held around every stacked solve: the problem's workspaces are
        # reused in place (the fp64 ones by both precisions), so they
        # admit one solve at a time whoever drains — dispatcher or client.
        self._solve_lock = threading.Lock()
        self._batcher: MicroBatcher[SolveRequest] = MicroBatcher(
            max_batch=self.max_batch,
            max_wait=self.max_wait,
            max_pending=self.max_pending,
        )
        # Snapshots sample the live queue length inside the stats lock,
        # so concurrent submitters/dispatchers can never leave a stale
        # depth behind (see ServiceStats.depth_fn).
        self.stats_accumulator.depth_fn = self._batcher.__len__
        self._dispatcher: threading.Thread | None = None
        if self.background:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop,
                name="sem-serve-dispatch",
                daemon=True,
            )
            self._dispatcher.start()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(
        self,
        b: NDArray[np.float64],
        tol: float | None = None,
        maxiter: int | None = None,
        deadline: float | None = None,
        precision: str | None = None,
        _block: bool = True,
    ) -> SolveTicket:
        """Queue one right-hand side for solving; returns its ticket.

        Parameters
        ----------
        b:
            Right-hand side of shape ``(n_dofs,)``.  Copied at
            submission, so callers may reuse their buffer immediately.
        tol / maxiter:
            Per-request overrides of the service defaults; each request
            keeps its own stopping criteria inside whatever batch it
            coalesces into.
        deadline:
            Optional time budget in seconds (relative to now).  A
            request still queued when it expires fails its ticket with
            :class:`~repro.serve.errors.DeadlineExceeded` instead of
            solving; a request already mid-solve is never interrupted
            (the deadline gates *starting* work, not finishing it).
        precision:
            Per-request override of the service's solve policy
            (``"fp64"`` or ``"mixed"``); the ticket resolves to a
            :class:`~repro.sem.cg.MixedCGResult` for mixed requests.

        Returns
        -------
        SolveTicket
            Resolves to the request's :class:`~repro.sem.cg.CGResult`
            (or :class:`~repro.sem.cg.MixedCGResult`).

        Raises
        ------
        ValueError
            On a bad rhs shape or invalid ``tol``/``maxiter``/
            ``deadline`` — bounced off the offending caller here, never
            allowed to poison the innocent batchmates a bad value would
            have coalesced with.
        ~repro.serve.errors.ServiceClosed
            After :meth:`close`.

        Notes
        -----
        Thread-safe; blocks when the queue is at ``max_pending``
        (backpressure).  In synchronous mode (no background dispatcher)
        the submitter whose request fills a batch pays for solving it
        inline.
        """
        request = check_request(self._n, b, tol, maxiter, deadline, precision)
        # _block is try_submit's: it comes through here, not around, so
        # that a wrapper put on ``submit`` sees every request.
        return self._enqueue([request], _block)[0]

    def try_submit(
        self, b: NDArray[np.float64], **knobs
    ) -> SolveTicket | None:
        """:meth:`submit` that never waits for queue space.

        Takes :meth:`submit`'s per-request keywords and validates,
        counts and enqueues exactly as it does; the one difference is a
        queue at ``max_pending``, which returns ``None`` (nothing
        enqueued, nothing counted) where :meth:`submit` would park the
        caller.  This is what lets the asyncio front submit from the
        event-loop thread itself and pay an executor hop only under
        backpressure.

        Returns
        -------
        SolveTicket or None
            The request's ticket, or ``None`` if it would have blocked.

        Raises
        ------
        ValueError, ~repro.serve.errors.ServiceClosed
            As :meth:`submit`.
        """
        try:
            return self.submit(b, **knobs, _block=False)
        except _WouldBlock:
            return None

    def submit_block(
        self, requests: "list[SolveRequest]"
    ) -> list[SolveTicket]:
        """Queue a block of requests built by :func:`check_request`.

        The block-ingest twin of :meth:`submit`, used by the fleet's
        workers: with a background dispatcher the whole block goes in
        under one queue-lock acquisition and one dispatcher wake-up
        instead of one per request.  Validation has already happened,
        in :func:`check_request`; a record built with ``snapshot=False``
        queues its rhs as a zero-copy view, so a worker hands its
        shared-memory ring slots to the solver without re-staging a
        payload byte (the caller guarantees the bytes stay put until
        the request resolves).

        Returns
        -------
        list of SolveTicket
            One ticket per request, in order.  When the service closes
            mid-block, the requests already queued resolve normally
            (drain-on-close) and the stragglers' tickets fail with
            :class:`~repro.serve.errors.ServiceClosed`, so a bulk caller
            never has to guess which half of its block survived.

        Raises
        ------
        ~repro.serve.errors.ServiceClosed
            If the service was closed before any of the block got in.
        """
        return self._enqueue(requests)

    def _enqueue(
        self, requests: "list[SolveRequest]", block: bool = True
    ) -> list[SolveTicket]:
        """The one way into the queue, for :meth:`submit`,
        :meth:`try_submit`, :meth:`submit_block` and :meth:`solve_many`.

        Fills each request's ``None`` knobs with the service defaults
        and counts it, then enqueues.  A refusal that lands before any
        request got in is raised — :class:`_WouldBlock` when ``block``
        is false and the queue cannot take the requests,
        :class:`~repro.serve.errors.ServiceClosed` after :meth:`close`
        — and rolls back every count.  A close that lands mid-block
        rolls back and fails only the stragglers.
        """
        stats = self.stats_accumulator
        for request in requests:
            if request.tol is None:
                request.tol = self.tol
            if request.maxiter is None:
                request.maxiter = self.maxiter
            if request.precision is None:
                request.precision = self.precision
            # Count BEFORE enqueueing: once a request is in the queue a
            # background dispatcher may solve and record it at once, and
            # a snapshot cut in between must never show more
            # completions than submissions.
            stats.record_submit()
        dispatcher = self._dispatcher
        # With a dispatcher draining, the block goes in at once.  In
        # the foreground nothing else drains: putting a block at once
        # could wedge on its own max_pending bound, so requests go in
        # one by one and the one that fills a batch pays for solving
        # it inline.
        chunks = (
            [requests] if dispatcher is not None
            else [[request] for request in requests]
        )
        enqueued = 0
        try:
            for chunk in chunks:
                depth = self._batcher.put(*chunk, block=block)
                if depth is None:
                    raise _WouldBlock
                enqueued += len(chunk)
                stats.record_depth(depth)
                if dispatcher is None and depth >= self.max_batch:
                    self._drain(once=True)
        except BaseException as exc:
            enqueued += getattr(exc, "enqueued", 0)
            for _ in requests[enqueued:]:
                stats.record_rejected()
            if not enqueued or not isinstance(exc, ServiceClosed):
                raise
            for request in requests[enqueued:]:
                request.ticket._fail(exc)
        return [request.ticket for request in requests]

    def flush(self) -> None:
        """Solve everything pending on the caller's thread.

        The synchronous complement to the background dispatcher: after a
        burst of :meth:`submit` calls, one ``flush`` resolves every
        outstanding ticket (partial batches included).  Safe to call in
        background mode too (client and dispatcher simply split the
        queue between them).
        """
        self._drain(once=False)

    def solve_many(
        self,
        bs,
        tol: float | None = None,
        maxiter: int | None = None,
        deadline: float | None = None,
        precision: str | None = None,
    ) -> "list[CGResult | MixedCGResult]":
        """Solve a block of right-hand sides; results in input order.

        The scripted front-end: equivalent to submitting every row and
        waiting on every ticket, with the batches solved inline (or by
        the dispatcher in background mode).

        Parameters
        ----------
        bs:
            ``(M, n)`` array or sequence of ``(n,)`` vectors; ``M`` may
            exceed ``max_batch`` — the service chunks it.
        tol / maxiter:
            Shared per-request overrides of the service defaults.
        deadline:
            Shared per-request time budget in seconds (see
            :meth:`submit`); waiting on the results re-raises
            :class:`~repro.serve.errors.DeadlineExceeded` for any row
            that expired before solving.
        precision:
            Shared per-request solve policy override (``"fp64"`` or
            ``"mixed"``).

        Returns
        -------
        list of ~repro.sem.cg.CGResult
            One result per input row, in input order, each bit-identical
            to a sequential warm solve of that row
            (:class:`~repro.sem.cg.MixedCGResult` for mixed rows).
        """
        tickets = self.submit_block([
            check_request(self._n, b, tol, maxiter, deadline, precision)
            for b in bs
        ])
        if self._dispatcher is None:
            self.flush()
        return [t.result() for t in tickets]

    @property
    def stats(self) -> StatsSnapshot:
        """A consistent snapshot of the service counters."""
        return self.stats_accumulator.snapshot()

    @property
    def queue_depth(self) -> int:
        """Requests currently pending (not yet dispatched)."""
        return len(self._batcher)

    def close(self) -> None:
        """Drain pending requests, resolve their tickets, stop serving.

        Idempotent.  Further ``submit`` calls raise ``ServiceClosed``.
        """
        self._batcher.close()
        # Snapshot-then-clear: two threads racing into close() must not
        # both pass the None check and have one call .join() on the
        # None the other already stored.  Joining the same Thread twice
        # is safe; joining None is an AttributeError.
        dispatcher = self._dispatcher
        self._dispatcher = None
        if dispatcher is not None:
            dispatcher.join()
        self._drain(once=False)  # foreground leftovers (no-op otherwise)

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while True:
            batch = self._batcher.take_batch()
            if batch:
                self._solve_batch(batch)
            elif self._batcher.closed:
                return
            # else: another thread drained the queue first; wait again.

    def _drain(self, once: bool) -> None:
        """Pop-and-solve pending batches on the calling thread.

        Safe from any number of threads: pops are serialized by the
        batcher's lock and solves by the solve lock.
        """
        while True:
            batch = self._batcher.take_batch_nowait()
            if not batch:
                return
            self._solve_batch(batch)
            if once:
                return

    def _solve_batch(self, batch: list[SolveRequest]) -> None:
        """One stacked dispatch: solve ``len(batch)`` requests at once.

        The batch is already popped from the queue, so every ticket in
        it MUST leave here resolved or failed — batch assembly included
        in the guarded region, else an allocation failure would strand
        tickets forever.  ``KeyboardInterrupt``/``SystemExit`` still
        fail the tickets (their waiters unblock) but propagate to the
        caller instead of being swallowed into ticket state.

        Requests whose deadline has already passed are expired here —
        one clock read gates the whole batch, *before* any solve work —
        so an expired request never consumes solver time and never
        delays its live batchmates.

        Mixed-precision and fp64 requests that coalesced into the same
        queue batch are split into separate dispatch groups (one stacked
        solve and one stats record each): the two paths run different
        kernels over different workspaces, and sharing a stacked solve
        would force one group through the other's numerics.
        """
        now = time.monotonic()
        expired = [
            req for req in batch
            if req.deadline_at is not None and req.deadline_at <= now
        ]
        if expired:
            self.stats_accumulator.record_expired(len(expired))
            for req in expired:
                req.ticket._fail(DeadlineExceeded(
                    "request deadline expired before its solve started"
                ))
            batch = [
                req for req in batch
                if req.deadline_at is None or req.deadline_at > now
            ]
            if not batch:
                return
        groups = [
            group for group in (
                [req for req in batch if req.precision != "mixed"],
                [req for req in batch if req.precision == "mixed"],
            ) if group
        ]
        for i, group in enumerate(groups):
            try:
                self._solve_group(group)
            except BaseException:
                # Only interrupts escape _solve_group; fail the still
                # pending later groups' tickets before propagating so
                # no waiter is stranded.
                for later in groups[i + 1:]:
                    for req in later:
                        req.ticket._fail(ServiceClosed(
                            "service interrupted before this dispatch group"
                        ))
                raise

    def _solve_group(self, batch: list[SolveRequest]) -> None:
        """One stacked dispatch of same-precision requests."""
        mixed = batch[0].precision == "mixed"
        start = time.perf_counter()
        nb = len(batch)
        try:
            bs = np.stack([req.b for req in batch])
            tols = np.array([req.tol for req in batch])
            maxiters = np.array(
                [req.maxiter for req in batch], dtype=np.int64
            )
            with self._solve_lock:
                ws = self.problem.batch_workspace(nb)
                if mixed:
                    ws32 = self.problem.batch_workspace(nb, dtype=np.float32)
                    res = cg_solve_batched_mixed(
                        self._operator, self._operator32, bs,
                        precond_diag=self._diag, tol=tols,
                        maxiter=maxiters, workspace=ws, workspace32=ws32,
                    )
                else:
                    res = cg_solve_batched(
                        self._operator, bs, precond_diag=self._diag,
                        tol=tols, maxiter=maxiters, workspace=ws,
                    )
        except BaseException as exc:  # resolve tickets even on breakdown
            # Stats first, tickets second: a client that has seen its
            # ticket resolve must also see itself counted in the next
            # snapshot (the inverse order would let snapshots trail the
            # results they describe).
            self.stats_accumulator.record_batch(
                nb, time.perf_counter() - start, len(self._batcher),
                failed=True,
            )
            for req in batch:
                req.ticket._fail(exc)
            if not isinstance(exc, Exception):
                raise  # interrupts abort the drain/dispatch loop
            return
        self.stats_accumulator.record_batch(
            nb, time.perf_counter() - start, len(self._batcher),
        )
        for k, req in enumerate(batch):
            req.ticket._resolve(res.row(k))
