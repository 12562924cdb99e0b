"""Process-level sharded serving with worker supervision and respawn.

One :class:`~repro.serve.service.SolveService` owns one problem and one
warm queue: its ceiling is one core's, and replicating it *within* the
process loses to a single service (the pure-Python dispatch path —
routing, ticket resolution, stats — serializes on the GIL; see the
scaling table in ``docs/serving.md``).
:class:`ProcessShardedSolveService` is the fleet: ``K`` worker
*processes*, each running a warm in-process
:class:`~repro.serve.service.SolveService` (own GIL, own dispatcher
thread, own workspaces) over a problem rebuilt from a picklable
:class:`~repro.sem.spec.ProblemSpec`.

The paper's core observation — SEM throughput is bound by how well the
memory system is exploited, not by FLOPs — shapes the design: the big
immutable arrays (``Geometry.g_soa`` and its fp32 twin, the
gather-scatter l2g map and multiplicities, nodal coordinates,
quadrature arrays, the Jacobi diagonal) are exported **once** into one
``multiprocessing.shared_memory`` block (its layout is
:mod:`repro.sem.spec`'s alone) and attached zero-copy by every worker.
``K`` processes, one physical copy of the problem — instead of ``K``
rebuilt or pickled duplicates.

Routing happens parent-side (a policy router and the health-gated
pick step); a parent-side reader bridges replies back into
:class:`~repro.serve.service.SolveTicket`\\ s, so the client API is
:class:`~repro.serve.service.SolveService`'s plus a routing ``key``.
Because every worker rebuilds the *same* problem from the *same* shared
arrays and runs the identical CG path, per-request results are
bit-identical to a sequential warm :func:`~repro.sem.cg.cg_solve` under
every routing policy.  Solves are **pure**: retrying a
crashed request on a different worker returns the *same bits* the dead
worker would have produced, which is what makes transparent retry safe.

This module is the fleet's **policy**: routing, the timer heap, the
retry / restart / health decisions and the client API.  The
**mechanism** it decides over is :mod:`repro.serve.replica` — one
:class:`~repro.serve.replica.Replica` per worker slot owning both ends
of the wire protocol: the worker process, its per-worker shared-memory
:class:`~repro.sem.shared.SlotRing` (the client writes each rhs
*directly into a ring slot*, the worker solves a view of it and writes
``x`` back in place; the pipe is a doorbell carrying slot ordinals and
scalar knobs, so the fleet's
:attr:`~repro.serve.stats.StatsSnapshot.copy_bytes` stays 0 — the
serving analogue of the paper's on-chip dataflow argument), the reader
thread and the locks.  The fleet takes no worker lock and calls no ring
method.  One rule connects the two: a request registered with a replica
belongs to whoever removes the registration — a reply, the dead
worker's exit sweep, or the deadline watchdog's
:meth:`~repro.serve.replica.Replica.claim`, exactly one of them — and
every request that ends up with *no* replica (swept from a dead one, or
refused by one that died before registering it) passes through the one
decision :meth:`ProcessShardedSolveService._orphaned`.

Self-healing (the fleet is always supervised):

* **Supervision & respawn.**  A supervisor thread owns a monotonic
  timer heap of pending actions (retries, respawns, deadline
  watchdogs).  A worker that dies (killed, OOM, segfault) is marked
  ``DEGRADED`` in the fleet's :class:`~repro.serve.health.FleetHealth`
  registry and a respawn is scheduled under the
  :class:`~repro.serve.health.RestartPolicy`'s exponential backoff; a
  worker that keeps dying trips the circuit breaker
  (``max_restarts``) and is ``EJECTED`` for the service's lifetime.
  Respawned workers rebuild from the *same* picklable spec re-attached
  to the *existing* shared problem block — the problem is never
  re-exported — and are re-admitted to routing on a successful
  handshake.
* **Deadlines + transparent retry.**  Requests carry an optional
  relative ``deadline`` (seconds).  In-flight requests on a crashed
  worker are automatically resubmitted to a healthy worker under the
  :class:`~repro.serve.health.RetryPolicy` (bounded attempts,
  exponential backoff); only when the policy is exhausted does the
  client see :class:`~repro.serve.errors.FleetUnavailable` (with the
  underlying :class:`~repro.serve.errors.WorkerCrashed` as its
  ``__cause__`` — a crash is never itself a client-visible outcome),
  and only when the time budget runs out does it see
  :class:`~repro.serve.errors.DeadlineExceeded`.
* **Health-gated routing.**  Routing never targets a
  ``DEGRADED``/``EJECTED`` worker (the
  :func:`~repro.serve.scheduler.pick_healthy` gate); with no worker in
  rotation a submit raises
  :class:`~repro.serve.errors.FleetUnavailable`.  The fleet sheds
  nothing: load shedding is the gateway's
  :class:`~repro.serve.health.AdmissionPolicy`, the one shed point.
* **Deterministic fault injection.**  A
  :class:`~repro.serve.chaos.FaultPlan` (see
  :mod:`repro.serve.chaos`) kills worker ``K`` after its ``M``-th
  dispatch, delays or drops specific pipe sends, and schedules
  worker-side slow solves — all keyed by per-worker dispatch ordinals
  counted across respawns, so chaos runs replay exactly.

Guarantees:

* **Drain-on-close.**  ``close()`` settles pending supervised actions,
  closes every worker's queue, waits for each to drain and resolve
  every in-flight ticket, then joins the processes and unlinks the
  shared blocks.  Submits after close raise
  :class:`~repro.serve.errors.ServiceClosed`.
* **No request hangs.**  Every ticket resolves: with its result, or
  with the taxonomy error that tells the client what to do
  (``DeadlineExceeded`` / ``FleetUnavailable`` / ``ServiceClosed``).
  The one documented exception: a chaos-dropped
  send with *no* deadline has no watchdog to fire — drop faults
  require deadlines.
* **Meaningful fleet stats.**  Workers ship
  :class:`~repro.serve.stats.StatsSnapshot`\\ s whose
  ``perf_counter`` stamps are rebased onto the parent's clock at
  transfer time (:func:`~repro.serve.stats.perf_epoch_offset`); the
  parent adds its own ``retries`` / ``restarts`` / ``expired``
  counters to the merged snapshot.
"""

from __future__ import annotations

import heapq
import itertools
import operator
import threading
import time
from dataclasses import replace
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from repro.sem.cg import CGResult
from repro.serve.chaos import FaultInjector, FaultPlan
from repro.serve.errors import (
    DeadlineExceeded,
    FleetUnavailable,
    ServiceClosed,
    WorkerCrashed,
)
from repro.serve.health import (
    FleetHealth,
    HealthState,
    RestartPolicy,
    RetryPolicy,
)
from repro.serve.replica import MAX_RING_SLOTS, Replica, _Inflight, unstage
from repro.serve.scheduler import (
    Router,
    attach_cost_feedback,
    pick_healthy,
    resolve_router,
)
from repro.serve.service import (
    SolveTicket,
    _WouldBlock,
    check_problem,
    check_request,
)
from repro.serve.stats import StatsSnapshot, merge_snapshots, perf_epoch_offset

__all__ = ["ProcessShardedSolveService"]

#: Sentinel for "defer to SolveService's own default", so the workers'
#: service knobs have exactly one source of defaults (the
#: :class:`~repro.serve.service.SolveService` dataclass).
_UNSET: object = object()


class ProcessShardedSolveService:
    """Route solve requests across ``K`` supervised worker *processes*.

    Parameters
    ----------
    problem:
        An :class:`~repro.sem.problem.SEMProblem` (a
        :class:`~repro.sem.poisson.PoissonProblem` or
        :class:`~repro.sem.helmholtz.HelmholtzProblem`; a
        :class:`~repro.sem.nekbone.NekboneCase` serves its
        ``case.problem``) on the production kernel.  Its immutable
        arrays are exported to one shared-memory block once; every
        worker (including respawned ones) rebuilds a solve-identical
        problem attached to the same physical pages.  The parent's
        problem instance itself is *not* used to solve — it is the
        template.
    workers:
        Number of worker processes (``K >= 1``), one per core being the
        intended deployment.
    policy:
        ``"tenant"`` (consistent hash on the request's routing key, so
        one tenant's requests meet in one worker's queue and coalesce
        into the same batches), ``"round-robin"``, ``"cost"``
        (predicted-work placement via
        :class:`~repro.serve.costmodel.CostAwareRouter`), or a ready
        :class:`~repro.serve.scheduler.Router` sized for ``workers``.
    max_batch / max_wait / max_pending / tol / maxiter / precision:
        Forwarded to every worker's in-process
        :class:`~repro.serve.service.SolveService`; omitted knobs take
        that dataclass's own defaults (only what was set is forwarded,
        so there is exactly one set of defaults).  ``max_wait`` is a
        worker's linger for a forming burst of two or more; a request
        alone in a worker's queue when its dispatcher looks is solved
        at once.
    retry:
        :class:`~repro.serve.health.RetryPolicy` governing transparent
        resubmission of requests lost to a worker crash (solves are
        pure, so a retried request returns bit-identical results).
        A request that exhausts it fails with
        :class:`~repro.serve.errors.FleetUnavailable`.
    restart:
        :class:`~repro.serve.health.RestartPolicy` governing worker
        respawn backoff and the ``max_restarts`` circuit breaker (a
        slot that trips it is ejected for the service's lifetime).
    chaos:
        Optional :class:`~repro.serve.chaos.FaultPlan` (or prepared
        :class:`~repro.serve.chaos.FaultInjector`) of deterministic
        faults — worker kills, pipe send delays/drops, slow solves.
        Test/benchmark instrumentation; ``None`` in production.
    ring_slots:
        Slots per worker :class:`~repro.sem.shared.SlotRing` (default
        32, at most :data:`~repro.serve.replica.MAX_RING_SLOTS`).
        Request/response payloads ride the rings; the pipe
        carries only doorbells (slot ordinals and scalars), so the
        request payload path copies **zero bytes** through a transport
        hop (``stats.copy_bytes == 0``).  A full ring is backpressure:
        staging blocks until a slot is released, never overwriting an
        unconsumed one.

    Workers always start by ``spawn`` and are always pinned, one CPU
    each, round-robin over the parent's affinity mask (best-effort:
    hosts that deny affinity calls degrade to unpinned workers,
    attested as ``pinned_cpus=None`` in :meth:`worker_info`).

    Thread safety
    -------------
    :meth:`submit` / :meth:`solve_many` / :attr:`stats` / :meth:`close`
    are safe from any number of client threads.  Backpressure is
    end-to-end: a worker at ``max_pending`` stops reading its pipe, its
    unread doorbells keep their slots staged, the ring fills, and the
    submitting client blocks acquiring a slot.

    Examples
    --------
    >>> svc = ProcessShardedSolveService(problem, workers=2)
    >>> ticket = svc.submit(b, key="tenant-42", deadline=5.0)  # doctest: +SKIP
    >>> svc.close()
    """

    #: Seconds to wait for a worker to drain and exit on close before
    #: it is terminated forcefully.
    JOIN_TIMEOUT: float = 60.0
    #: Grace added to a request's deadline before the parent-side
    #: watchdog fails it: the worker itself expires overdue requests
    #: (the wire carries the remaining budget), so the watchdog is a
    #: backstop for *lost* requests (dropped sends, wedged workers) and
    #: must not race a merely slow reply.
    EXPIRE_GRACE: float = 0.5
    #: Backoff when a retry finds no healthy worker but some worker is
    #: recoverable (a respawn is pending) — requeue rather than fail.
    RETRY_REQUEUE_WAIT: float = 0.05

    def __init__(
        self,
        problem: object,
        workers: int = 2,
        policy: "str | Router" = "tenant",
        max_batch: "int | object" = _UNSET,
        max_wait: "float | object" = _UNSET,
        max_pending: "int | None | object" = _UNSET,
        tol: "float | object" = _UNSET,
        maxiter: "int | object" = _UNSET,
        precision: "str | object" = _UNSET,
        retry: RetryPolicy = RetryPolicy(),
        restart: RestartPolicy = RestartPolicy(),
        chaos: "FaultPlan | FaultInjector | None" = None,
        ring_slots: int = 32,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if not 1 <= ring_slots <= MAX_RING_SLOTS:
            raise ValueError(
                f"ring_slots must be in [1, {MAX_RING_SLOTS}], got "
                f"{ring_slots}"
            )
        if not isinstance(retry, RetryPolicy):
            raise TypeError(
                f"retry must be a RetryPolicy, got {type(retry).__name__}"
            )
        if not isinstance(restart, RestartPolicy):
            raise TypeError(
                f"restart must be a RestartPolicy, got "
                f"{type(restart).__name__}"
            )
        check_problem(problem)
        self.policy = (
            policy if isinstance(policy, str) else type(policy).__name__
        )
        self.health = FleetHealth(workers)
        self._router = resolve_router(policy, workers)
        knobs = dict(
            max_batch=max_batch, max_wait=max_wait, max_pending=max_pending,
            tol=tol, maxiter=maxiter, precision=precision,
        )
        self._forwarded = {
            name: value for name, value in knobs.items()
            if value is not _UNSET
        }
        self._lock = threading.Lock()
        self._routed = [0] * workers  # guarded-by: _lock
        self._health_diverted = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self.workers = workers
        self.ring_slots = ring_slots
        self.retry = retry
        self.restart = restart
        if chaos is None:
            injector: FaultInjector | None = None
        elif isinstance(chaos, FaultInjector):
            injector = chaos
        elif isinstance(chaos, FaultPlan):
            injector = FaultInjector(chaos)
        else:
            raise TypeError(
                f"chaos must be a FaultPlan, FaultInjector or None, got "
                f"{type(chaos).__name__}"
            )
        self._expired = 0  # guarded-by: _lock
        self._retried = 0  # guarded-by: _lock
        self._restarts = 0  # guarded-by: _lock
        self._torn_down = False  # guarded-by: _lock
        self._n = int(problem.n_dofs)
        # Supervisor state must exist before any worker (and so any
        # reader thread) does: a crash during startup already routes
        # through _schedule.
        self._heap: list = []
        self._sup_cond = threading.Condition()
        self._sup_stop = False
        self._sup_exited = False
        self._seq_counter = itertools.count()
        self._supervisor: threading.Thread | None = None
        # Validate the forwarded knobs parent-side with SolveService's
        # own constructor (the single source of validation truth): a
        # bad max_batch must raise here as a plain ValueError, not as a
        # worker-startup failure relayed across a process boundary.
        from repro.serve.service import SolveService

        SolveService(problem, background=False, **self._forwarded).close()
        self._export = problem.export_shared()
        #: One :class:`~repro.serve.replica.Replica` per worker slot,
        #: for the service's lifetime (a respawn is the same object).
        self._workers: list[Replica] = []
        try:
            # Launch all, then wait for each: the workers import in
            # parallel.
            for index in range(workers):
                self._workers.append(Replica(
                    index, self._export, self._n, ring_slots,
                    self._forwarded, injector, self._replica_exited,
                ))
            for replica in self._workers:
                replica.start()
        except BaseException:
            for replica in self._workers:
                replica.join(0.0)
            self._export.close()
            raise
        self._supervisor = threading.Thread(
            target=self._supervisor_loop,
            name="sem-procshard-supervisor", daemon=True,
        )
        self._supervisor.start()

    # ------------------------------------------------------------------
    # Supervision: timer heap + action handlers
    # ------------------------------------------------------------------
    def _schedule(self, delay: float, action: tuple) -> None:
        """Enqueue ``action`` to run ``delay`` seconds from now.

        After the supervisor has exited (close), the action is settled
        *inline* in its terminal form instead — nothing scheduled is
        ever silently dropped, which is what keeps the no-request-hangs
        guarantee through shutdown races.
        """
        with self._sup_cond:
            if not self._sup_exited:
                heapq.heappush(
                    self._heap,
                    (
                        time.monotonic() + delay,
                        next(self._seq_counter),
                        action,
                    ),
                )
                self._sup_cond.notify()
                return
        self._final_action(action)

    def _supervisor_loop(self) -> None:
        """Run timed actions; on stop, settle everything left."""
        while True:
            leftovers: list | None = None
            with self._sup_cond:
                while True:
                    if self._sup_stop:
                        leftovers = [
                            heapq.heappop(self._heap)[2]
                            for _ in range(len(self._heap))
                        ]
                        self._sup_exited = True
                        action = None
                        break
                    if self._heap:
                        wait = self._heap[0][0] - time.monotonic()
                        if wait <= 0:
                            action = heapq.heappop(self._heap)[2]
                            break
                        self._sup_cond.wait(timeout=wait)
                    else:
                        self._sup_cond.wait()
            if leftovers is not None:
                for act in leftovers:
                    try:
                        self._final_action(act)
                    except Exception:
                        pass
                return
            try:
                self._run_action(action)
            except Exception:
                # The supervisor must survive anything a handler hits
                # (a torn-down pipe, a racing close): one failed action
                # must not kill retries/respawns for the whole fleet.
                pass

    def _run_action(self, action: tuple) -> None:
        tag = action[0]
        if tag == "retry":
            self._handle_retry(action[1])
        elif tag == "respawn":
            self._handle_respawn(action[1])
        elif tag == "expire":
            self._handle_expire(action[1], action[2], action[3])

    # census: failure path: settles what the stopped supervisor left
    def _final_action(self, action: tuple) -> None:
        """Terminal settlement for an action after the supervisor exits:
        retries get one last immediate dispatch attempt (the workers
        have not been told to close yet — close stops the supervisor
        first), expiries fire if due, respawns are moot."""
        tag = action[0]
        if tag == "retry":
            self._handle_retry(action[1], final=True)
        elif tag == "expire":
            self._handle_expire(action[1], action[2], action[3])

    def _handle_respawn(self, slot: int) -> None:
        """Replace a dead worker with a fresh generation, or back off."""
        if self.closed or self.health.state(slot) is HealthState.EJECTED:
            return
        try:
            self._workers[slot].respawn()
        except Exception:
            self._restart_or_eject(slot)
            return
        # Re-admission: from here on the routing mask includes the slot
        # again (mark_healthy is a no-op if a racing eject won).
        self.health.mark_healthy(slot)
        with self._lock:
            self._restarts += 1

    def _restart_or_eject(self, slot: int) -> None:
        """Charge one restart attempt to a dead slot: schedule its
        respawn under the policy's backoff, or — circuit breaker — eject
        a slot that keeps dying and stop feeding it processes."""
        n = self.health.record_restart_attempt(slot)
        if n > self.restart.max_restarts:
            self.health.eject(slot)
        else:
            self._schedule(self.restart.backoff(n), ("respawn", slot))

    def _replica_exited(
        self, replica: Replica, orphans: "list[_Inflight]",
        crash: WorkerCrashed,
    ) -> None:
        """A worker generation ended (its reader's ``on_exit``): unless
        the fleet is closing, take the slot out of rotation and schedule
        its respawn; either way the requests it died holding are ours
        to settle."""
        final = self.closed
        if not final:
            self.health.mark_degraded(replica.index)
            self._restart_or_eject(replica.index)
        for inflight in orphans:
            self._orphaned(inflight, crash, final)

    def _orphaned(
        self, inflight: _Inflight, cause: "BaseException | None",
        final: bool = False,
    ) -> None:
        """Decide the fate of a request no replica holds: the one place
        a crash turns into a retry, an expiry or a failure.

        The caller *owns* ``inflight`` — it removed its registration
        (the exit sweep), or dispatch refused it before registering
        (``cause`` is then what dispatch raised), or its retry timer
        just fired — which is what makes it safe to settle here without
        asking anyone.  ``final`` is the shutdown settlement: nobody is
        left to retry on.
        """
        ticket = inflight.ticket
        retry = False
        if ticket.done():
            pass  # cancelled client-side: just free the slot
        elif inflight.spent():
            with self._lock:
                self._expired += 1
            ticket._fail(DeadlineExceeded(
                f"request deadline expired with the request orphaned "
                f"after {inflight.attempts} attempt(s), before it could "
                "be dispatched again"
            ))
        elif final or inflight.attempts >= self.retry.max_attempts:
            error = FleetUnavailable(
                f"request failed after {inflight.attempts} attempt(s); "
                f"last: {cause}"
            )
            error.__cause__ = cause
            ticket._fail(error)
        else:
            retry = True
            if inflight.staged is None:
                # Validation hands out zero-copy views of the caller's
                # array; a retry outliving the submit call must not
                # alias memory the caller is free to mutate.
                inflight.b = np.array(inflight.b)
        # A live request's staged rhs is copied out of the slot here, so
        # the retry carries bit-identical bytes wherever it lands.
        unstage([inflight])
        if retry:
            self._schedule(
                self.retry.backoff(max(inflight.attempts, 1)),
                ("retry", inflight),
            )

    def _handle_retry(self, inflight: _Inflight, final: bool = False) -> None:
        """Redispatch one orphaned request to a healthy worker.

        ``final`` marks the supervisor's shutdown settlement: no more
        rescheduling — dispatch now or fail the ticket with the
        taxonomy error that explains why.
        """
        if inflight.ticket.done() or inflight.spent():
            self._orphaned(inflight, None)  # nothing left to place
            return
        live = [i for i, ok in enumerate(self.health.mask()) if ok]
        if not live:
            if final or not self.health.any_recoverable():
                self._orphaned(inflight, WorkerCrashed(
                    f"no healthy worker to retry on; fleet state "
                    f"{[s.value for s in self.health.states]}"
                ), final=True)
            else:
                # A respawn is pending; park the retry until it lands.
                # No attempt is charged — nothing was dispatched.
                self._schedule(
                    self.RETRY_REQUEUE_WAIT, ("retry", inflight)
                )
            return
        try:
            # Bounded slot acquisition: the supervisor thread runs every
            # timer — it must not park indefinitely on one full ring.
            self._hand_over(
                min(live, key=self.queue_depths.__getitem__), [inflight],
                acquire_timeout=self.RETRY_REQUEUE_WAIT,
            )
        except TimeoutError as exc:
            # Ring full: no attempt was charged (nothing registered);
            # requeue unless this is the shutdown settlement.
            if final:
                self._orphaned(inflight, exc, final)
            else:
                self._schedule(
                    self.RETRY_REQUEUE_WAIT, ("retry", inflight)
                )
        except (WorkerCrashed, ServiceClosed) as exc:
            self._orphaned(inflight, exc, final)
        else:
            with self._lock:
                self._retried += 1

    # census: failure path: a request's deadline lapses in flight
    def _handle_expire(
        self, replica: Replica, token: int, inflight: _Inflight
    ) -> None:
        """Deadline watchdog: fail a request still unresolved a grace
        past its deadline (lost send, wedged worker) — if it can still
        :meth:`~repro.serve.replica.Replica.claim` the registration;
        a reply or a crash sweep that got there first owns the request
        instead."""
        if not inflight.spent() or not replica.claim(token, inflight):
            return
        ticket = inflight.ticket
        if not ticket.done():
            with self._lock:
                self._expired += 1
            ticket._fail(DeadlineExceeded(
                f"request deadline passed {self.EXPIRE_GRACE:.1f}s ago "
                f"with no reply from worker {replica.index}"
            ))
        # else: settled but still registered means cancelled client-side
        # (e.g. a gateway disowning the request at its own deadline) —
        # not an expiry, its deadline decided nothing.  Either way the
        # staged slot of a lost request is reclaimed here; if a wedged
        # worker later completes it anyway, the stale write is caught by
        # the sequence-header check, never silently served.
        unstage([inflight])

    def _ask_live(self, tag: str) -> list[tuple]:
        """:meth:`~repro.serve.replica.Replica.ask` every worker in
        turn; one that is dead, or dies under the ask, is skipped."""
        replies = []
        for replica in self._workers:
            try:
                replies.append(replica.ask(tag))
            except WorkerCrashed:
                continue
        return replies

    # ------------------------------------------------------------------
    # Validation / hand-over plumbing
    # ------------------------------------------------------------------
    def _validate_request(
        self, b, tol, maxiter, deadline, precision=None
    ) -> tuple:
        """Validate one request parent-side (bad requests must bounce
        before crossing the process boundary).  ``None`` knobs pass
        through for the worker's service to resolve; the checks
        themselves are :func:`repro.serve.service.check_request` — the
        same single source of truth the workers apply.

        Validation takes a zero-copy *view* (``snapshot=False``): the
        one write that moves the bytes is the staging store into the
        ring slot, and dispatch happens within the same client call,
        before the caller can mutate its array.
        """
        return check_request(
            self._n, b, tol, maxiter, deadline, precision,
            snapshot=False,
        )

    def _check_open(self) -> None:
        with self._lock:
            if self._closed:
                raise ServiceClosed(
                    "submit on a closed process-sharded service"
                )

    def _admit(
        self,
        key: object | None,
        planned: Sequence[int] | None = None,
    ) -> tuple[int, bool]:
        """Route one request: health mask → depth sample →
        :func:`~repro.serve.scheduler.pick_healthy`.

        ``planned`` counts, per worker, requests the caller has routed
        but not yet handed over (a block being planned); they are added
        to the live depths so the decision sees what per-request
        submission would have accumulated.  Returns ``(worker,
        health_diverted)``; the caller books a health diversion with
        :meth:`_count` once its hand-over decides it counts.  Raises
        :class:`~repro.serve.errors.FleetUnavailable` when no worker is
        in rotation.
        """
        mask = self.health.mask()
        healthy = None if all(mask) else mask
        # Sampling depths takes every replica's state lock; skip it on
        # the hot path when neither the policy nor health steering
        # reads it.
        if self._router.uses_depths or healthy is not None:
            depths = self.queue_depths
            if planned is not None:
                depths = tuple(map(operator.add, depths, planned))
        else:
            depths = (0,) * len(mask)
        return pick_healthy(self._router, key, depths, healthy)

    def _count(
        self,
        target: int,
        routed: int = 1,
        health_diverted: bool = False,
    ) -> None:
        """Book ``routed`` requests handed to ``target`` and the
        health diversion that steered them there."""
        with self._lock:
            self._routed[target] += routed
            self._health_diverted += health_diverted

    def _hand_over(
        self,
        chosen: int,
        inflights: "list[_Inflight]",
        acquire_timeout: "float | None" = None,
    ) -> None:
        """:meth:`~repro.serve.replica.Replica.dispatch` a group to
        worker ``chosen`` and do what the fleet owes a registered
        request: book it as routed, arm the deadline watchdog (which is
        also what eventually fails a chaos-*dropped* send), and — on
        its first registration only, a retry keeps its charge — wire it
        into the router's cost feedback.
        Raises what ``dispatch`` raises — before anything registered."""
        replica = self._workers[chosen]
        # Read before dispatch registers them: until then the caller
        # alone holds these requests.
        fresh = [inf for inf in inflights if inf.attempts == 0]
        tokens = replica.dispatch(inflights, acquire_timeout)
        now = time.monotonic()
        for token, inf in zip(tokens, inflights):
            if inf.deadline_at is not None:
                self._schedule(
                    max(inf.deadline_at - now, 0.0) + self.EXPIRE_GRACE,
                    ("expire", replica, token, inf),
                )
        for inf in fresh:
            attach_cost_feedback(
                self._router, inf.ticket, chosen, inf.key, inf.tol,
                inf.precision,
            )
        self._count(chosen, len(inflights))

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(
        self,
        b: NDArray[np.float64],
        tol: float | None = None,
        maxiter: int | None = None,
        key: object | None = None,
        deadline: float | None = None,
        precision: str | None = None,
        _block: bool = True,
    ) -> SolveTicket:
        """Route one right-hand side to a healthy worker; returns its
        ticket.

        Parameters
        ----------
        b:
            Right-hand side of shape ``(n_dofs,)``.  The bytes are
            written once into the routed worker's shared slot ring
            before this call returns (zero transport copies).
        tol / maxiter:
            Per-request overrides of the workers' service defaults.
        key:
            Routing key (tenant id).  The ``tenant`` policy hashes it to
            pick the worker (keyless requests fall back to
            round-robin); ``cost`` predicts work from it; the other
            policies ignore it.
        deadline:
            Optional time budget in seconds (relative to now).  An
            expired request fails its ticket with
            :class:`~repro.serve.errors.DeadlineExceeded` — whether it
            expired queued behind a slow worker, lost to a crash, or
            mid-retry.
        precision:
            Per-request solve policy override (``"fp64"`` or
            ``"mixed"``), resolved against the worker services'
            default; mixed tickets resolve to a
            :class:`~repro.sem.cg.MixedCGResult`.  The fp32 inner
            solves stream the parent's shared fp32 geometry twin —
            attested in :meth:`worker_info` — so no worker pays a
            private cast.

        Returns
        -------
        ~repro.serve.service.SolveTicket
            Resolves to the request's :class:`~repro.sem.cg.CGResult`,
            bit-identical to a sequential warm solve regardless of
            which worker served it — including after a transparent
            retry on a different worker.

        Raises
        ------
        ValueError
            On a bad shape or invalid ``tol``/``maxiter``/``deadline``
            (bounced parent-side, before crossing the process
            boundary).
        ~repro.serve.errors.ServiceClosed
            After :meth:`close`.
        ~repro.serve.errors.FleetUnavailable
            When no healthy worker exists to route to.  (A worker that
            dies under the request never raises here: the ticket is
            retried, and fails with ``FleetUnavailable`` only once the
            retry policy is exhausted.)

        Notes
        -----
        Blocks only while the routed worker's ring is full (that is the
        backpressure); :meth:`try_submit`
        returns ``None`` there instead, which is what lets the asyncio
        front submit to this tier from the loop thread too.  The
        doorbell write itself does not wait: at most ``ring_slots``
        doorbells are ever unread (see
        :data:`~repro.serve.replica.MAX_RING_SLOTS`).
        """
        b, tol, maxiter, deadline, precision = self._validate_request(
            b, tol, maxiter, deadline, precision
        )
        self._check_open()
        chosen, diverted = self._admit(key)
        deadline_at = (
            None if deadline is None else time.monotonic() + deadline
        )
        inflight = _Inflight(
            SolveTicket(), b, tol, maxiter, deadline_at, precision, key
        )
        try:
            self._hand_over(chosen, [inflight], None if _block else 0.0)
        except TimeoutError:
            # Only try_submit bounds the wait for a slot; it routes
            # again (and is counted) when it comes back to block.
            raise _WouldBlock from None
        except WorkerCrashed as exc:
            # The worker died between the health sample and the
            # registration.
            self._orphaned(inflight, exc)
        if diverted:
            self._count(chosen, 0, diverted)
        return inflight.ticket

    def try_submit(self, b, **knobs) -> SolveTicket | None:
        """:meth:`submit` that never waits for room: ``None`` where it
        would park — the routed worker's ring full (see
        :meth:`SolveService.try_submit
        <repro.serve.service.SolveService.try_submit>`).  The request
        is routed as usual, a refused attempt is counted nowhere, and
        closed and unavailable fleets still raise."""
        try:
            # Through self.submit, not around it: a wrapper put on
            # ``submit`` must see every request.
            return self.submit(b, **knobs, _block=False)
        except _WouldBlock:
            return None

    def solve_many(
        self,
        bs,
        tol: float | None = None,
        maxiter: int | None = None,
        keys: Sequence[object] | None = None,
        deadline: float | None = None,
        precision: str | None = None,
    ) -> list[CGResult]:
        """Solve a block of right-hand sides; results in input order.

        The whole block is routed up front and shipped as *one* pipe
        message per addressed worker (requests are where the process
        tier pays, so they travel in bulk); routing decisions that read
        depths see the live in-flight counts plus the requests already
        planned within this call, exactly as per-request submission
        would have accumulated them.  A group lost to a dying worker is
        transparently redispatched under the retry policy.
        """
        if keys is not None and len(keys) != len(bs):
            raise ValueError(
                f"keys length {len(keys)} != number of requests {len(bs)}"
            )
        validated = [
            self._validate_request(b, tol, maxiter, deadline, precision)
            for b in bs
        ]
        self._check_open()
        planned = [0] * self.workers
        groups: dict[int, list] = {}
        order: list[tuple[int, int]] = []
        for i, item in enumerate(validated):
            key = None if keys is None else keys[i]
            chosen, diverted = self._admit(key, planned)
            if diverted:
                self._count(chosen, 0, diverted)
            planned[chosen] += 1
            slot = groups.setdefault(chosen, [])
            order.append((chosen, len(slot)))
            slot.append((*item, key))
        now = time.monotonic()
        dispatched: dict[int, list[_Inflight]] = {}
        for chosen, items in groups.items():
            inflights = [
                _Inflight(
                    SolveTicket(), vb, vtol, vmi,
                    None if vdl is None else now + vdl, vprec, key,
                )
                for vb, vtol, vmi, vdl, vprec, key in items
            ]
            dispatched[chosen] = inflights
            try:
                self._hand_over(chosen, inflights)
            except ServiceClosed as exc:
                # A closing service must not abandon the groups already
                # dispatched: settle this group's tickets and keep
                # going — the gather below re-raises.
                for inflight in inflights:
                    inflight.ticket._fail(exc)
            except WorkerCrashed as exc:
                for inflight in inflights:
                    self._orphaned(inflight, exc)
        tickets = [dispatched[chosen][pos].ticket for chosen, pos in order]
        return [t.result() for t in tickets]

    def close(self) -> None:
        """Drain every worker, join the processes, unlink shared memory.

        Idempotent.  The supervisor is stopped *first* and settles its
        outstanding actions (pending retries get one final dispatch
        while the workers still accept traffic; due expiries fire;
        respawns are moot) — then every worker drains.  Every ticket
        submitted before ``close`` resolves (the no-dropped-requests
        guarantee, chaos-dropped sends without deadlines excepted);
        workers that fail to drain within :attr:`JOIN_TIMEOUT` are
        terminated, failing whatever they still held.
        """
        with self._lock:
            self._closed = True
            if self._torn_down:
                return
            self._torn_down = True
        with self._sup_cond:
            self._sup_stop = True
            self._sup_cond.notify()
        if self._supervisor is not None:
            self._supervisor.join(timeout=self.JOIN_TIMEOUT)
        for replica in self._workers:
            replica.begin_close()
        for replica in self._workers:
            replica.join(self.JOIN_TIMEOUT)
        self._export.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once ``close`` has begun; late submits raise
        :class:`~repro.serve.errors.ServiceClosed`."""
        with self._lock:
            return self._closed

    @property
    def routed(self) -> tuple[int, ...]:
        """Requests handed to each worker (a health diversion lands on
        the worker it was steered *to*; a retry counts again on the
        worker that served the redispatch)."""
        with self._lock:
            return tuple(self._routed)

    @property
    def health_diverted(self) -> int:
        """Requests steered off an out-of-rotation worker by health
        gating."""
        with self._lock:
            return self._health_diverted

    @property
    def spec(self):
        """The picklable :class:`~repro.sem.spec.ProblemSpec` workers
        rebuilt their problems from (the problem block's manifest
        included)."""
        return self._export.spec

    @property
    def shared_blocks(self) -> tuple[str, ...]:
        """Names of the live shared-memory blocks — the one problem
        block plus one slot ring per worker (empty after close)."""
        return self._export.block_names + sum(
            (replica.blocks for replica in self._workers), ()
        )

    @property
    def alive_workers(self) -> tuple[bool, ...]:
        """Liveness of each worker slot's reply channel (a respawned
        worker counts as alive again)."""
        return tuple(replica.live for replica in self._workers)

    @property
    def queue_depths(self) -> tuple[int, ...]:
        """In-flight request count per worker (submitted, unresolved)."""
        return tuple(replica.depth for replica in self._workers)

    @property
    def restarts(self) -> int:
        """Worker respawns that completed (handshake passed and the
        slot re-admitted to routing)."""
        with self._lock:
            return self._restarts

    @property
    def retried(self) -> int:
        """Crash-orphaned requests successfully redispatched."""
        with self._lock:
            return self._retried

    def worker_info(self) -> tuple[dict, ...]:
        """One introspection dict per live worker (pid, the problem
        block and the ring it maps, whether its fp64 and fp32 ``g_soa``
        are read-only views into that block) — the zero-copy sharing,
        attested by the workers themselves."""
        return tuple(info for info, in self._ask_live("info"))

    @property
    def replica_stats(self) -> tuple[StatsSnapshot, ...]:
        """One snapshot per live worker, clock-rebased onto this
        process (see :meth:`repro.serve.stats.StatsSnapshot.rebased`);
        dead workers' stats died with them and are omitted (respawned
        workers start fresh)."""
        return tuple(
            snapshot.rebased(worker_offset - perf_epoch_offset())
            for snapshot, worker_offset in self._ask_live("stats")
        )

    @property
    def stats(self) -> StatsSnapshot:
        """Aggregate fleet snapshot (see
        :func:`~repro.serve.stats.merge_snapshots`): the live workers'
        counters sum, ``wall_seconds`` spans the earliest submission to
        the latest completion across them, so ``solves_per_second``
        reads as fleet throughput — plus the outcomes decided here,
        which no worker saw (``retries``, ``restarts`` and
        parent-side ``expired``: requests the watchdog or a crash
        failed on their deadline), added to whatever the workers
        reported."""
        merged = merge_snapshots(self.replica_stats)
        with self._lock:
            extra = {
                "expired": self._expired,
                "retries": self._retried,
                "restarts": self._restarts,
            }
        if any(extra.values()):
            merged = replace(merged, **{
                name: getattr(merged, name) + count
                for name, count in extra.items()
            })
        return merged
