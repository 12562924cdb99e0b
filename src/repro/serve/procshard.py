"""Process-level sharded serving with worker supervision and respawn.

:class:`~repro.serve.shard.ShardedSolveService` replicates *within* one
process: its replicas' BLAS and large ufuncs release the GIL, but the
pure-Python dispatch path — routing, ticket resolution, stats — still
serializes on it, which caps scaling on many-core hosts.
:class:`ProcessShardedSolveService` lifts that ceiling: ``K`` worker
*processes*, each running a warm in-process
:class:`~repro.serve.service.SolveService` (own GIL, own dispatcher
thread, own workspace pool) over a problem rebuilt from a picklable
:class:`~repro.sem.spec.ProblemSpec`.

The paper's core observation — SEM throughput is bound by how well the
memory system is exploited, not by FLOPs — shapes the design: the big
immutable arrays (``Geometry.g_soa``, the gather-scatter
sort-permutation/segment/multiplicity caches, nodal coordinates,
quadrature arrays, the Jacobi diagonal) are exported **once** into
``multiprocessing.shared_memory`` blocks and attached zero-copy by
every worker.  ``K`` processes, one physical copy of the geometry —
instead of ``K`` rebuilt or pickled duplicates.

Admission and routing are the thread-shard's, literally: both classes
extend :class:`~repro.serve.fleet.FleetFront` (policy routers, the
``queue_watermark`` + ``on_overload`` diversion, the shed gate and the
health-gated pick step); a parent-side reader bridges replies back into
:class:`~repro.serve.service.SolveTicket`\\ s, so the client API is
identical to the in-process shard's.  Because every worker rebuilds the
*same* problem from the *same* shared arrays and runs the identical CG
path, per-request results are bit-identical to a sequential warm
:func:`~repro.sem.cg.cg_solve` under every routing policy — the same
contract the in-process shard tests.  Solves are **pure**: retrying a
crashed request on a different worker returns the *same bits* the dead
worker would have produced, which is what makes transparent retry safe.

Payloads travel one way only — **zero-copy slot rings.**  Each worker
owns a per-worker shared-memory :class:`~repro.sem.shared.SlotRing`:
the client writes each rhs *directly into a ring slot*, the worker
solves a view of that slot and writes ``x`` back in place, and the pipe
is a **doorbell/control channel** carrying slot ordinals and scalar
knobs (tol / maxiter / deadline / precision) plus errors.  Request
payloads cross zero serialization hops — the fleet's
:attr:`~repro.serve.stats.StatsSnapshot.copy_bytes` stays 0 — which is
the serving analogue of the paper's on-chip dataflow argument:
sub-millisecond solves must not pay a pickle-and-pipe round trip per
vector.  Slot hand-off uses monotonic ordinals stamped in
sequence-number headers, so a slot is never read while writable and a
stale write is detectable; a full ring blocks the submitter (that *is*
the backpressure).  Workers are core-pinned via
``os.sched_setaffinity`` (best-effort, guarded on non-Linux) so each
ring's pages stay hot next to the worker that drains them.

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
  to the *existing* shared-memory export — the geometry is never
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
* **Health-gated routing + admission control.**  Routing never targets
  a ``DEGRADED``/``EJECTED`` worker (the shared
  :func:`~repro.serve.scheduler.pick_with_diversion` health gate);
  with ``shed_watermark`` set, submits are shed with retryable
  :class:`~repro.serve.errors.Overloaded` once every *healthy*
  worker's in-flight depth reaches the mark — graceful degradation
  instead of unbounded queueing while the fleet heals.
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
  parent adds its own ``retries`` / ``restarts`` / ``expired`` /
  ``shed`` counters to the merged snapshot.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import pickle
import threading
import time
from dataclasses import replace
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from repro.sem.cg import CGResult
from repro.sem.shared import SlotRing
from repro.serve.chaos import FaultInjector, FaultPlan
from repro.serve.errors import (
    DeadlineExceeded,
    FleetUnavailable,
    ServiceClosed,
    WorkerCrashed,
)
from repro.serve.fleet import _UNSET, FleetFront, OverloadHook
from repro.serve.health import HealthState, RestartPolicy, RetryPolicy
from repro.serve.scheduler import Router, attach_cost_feedback
from repro.serve.service import SolveTicket, check_request
from repro.serve.stats import StatsSnapshot, perf_epoch_offset

__all__ = ["ProcessShardedSolveService"]


def _sendable_error(exc: BaseException) -> BaseException:
    """``exc`` if it survives pickling, else a faithful ``RuntimeError``.

    Ticket failures cross the process boundary by value; an unpicklable
    exception (e.g. one holding a lock or a workspace) must degrade to
    its message, never take down the reply channel.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _worker_info(problem, spec, ring, pinned) -> dict:
    """Introspection payload for the parent's ``worker_info`` (tests
    prove the zero-copy sharing through it)."""
    inner = getattr(problem, "problem", problem)
    geo = inner.geometry
    shm = getattr(geo, "_shm", None)
    # fp32 attestation: the mixed path's geometry twin must be the
    # parent's shared export, not a private worker-side cast.
    twins = getattr(geo, "_dtype_twins", None) or {}
    twin32 = twins.get(np.dtype(np.float32).str)
    shm32 = None if twin32 is None else getattr(twin32, "_shm", None)
    return {
        "pid": os.getpid(),
        "n_dofs": int(problem.n_dofs),
        "geometry_block": None if shm is None else shm.name,
        "g_soa_writeable": bool(geo.g_soa.flags.writeable),
        "shared_blocks": tuple(spec.shared_blocks),
        "precision": spec.precision,
        "geometry32_block": None if shm32 is None else shm32.name,
        "geometry32_dtype": (
            None if twin32 is None else str(twin32.g_soa.dtype)
        ),
        "g32_soa_writeable": (
            None if twin32 is None
            else bool(twin32.g_soa.flags.writeable)
        ),
        # Ring attestation: which shared slot ring this worker solves
        # out of (name/slots/dtype), and that its request side really
        # is the parent's block mapped read-only — the payload twin of
        # the one-geometry-copy attestation above.
        "ring_block": ring.manifest.block,
        "ring_slots": int(ring.manifest.slots),
        "ring_n": int(ring.manifest.n),
        "ring_dtype": str(np.dtype(ring.manifest.dtype)),
        "ring_rhs_writeable": bool(ring.rhs.flags.writeable),
        "pinned_cpus": pinned,
    }


def _worker_main(
    spec,
    conn,
    service_kwargs: dict,
    slow_schedule: dict | None = None,
    pin_to: "tuple[int, ...] | None" = None,
) -> None:
    """Worker-process entry point: rebuild, serve, drain, exit.

    Protocol (tuples over the pipe; parent -> worker):
    ``("solve_block", [...])`` where each item is a doorbell
    ``(req_id, ordinal, slot, tol, maxiter, deadline_remaining,
    precision)``: the rhs is already sitting in the worker's
    :class:`~repro.sem.shared.SlotRing` slot (``spec.ring``) and the
    worker solves a zero-copy view of it, writing ``x`` back in place
    and stamping ``resp_seq[slot] = ordinal`` before replying — the
    pipe message carries *no payload bytes* either way.
    ``deadline_remaining`` is the request's *remaining* time budget in
    seconds (monotonic clocks don't compare across processes, so the
    wire carries a relative quantity) or ``None``; ``precision`` the
    request's solve policy (``"fp64"`` / ``"mixed"`` / ``None`` = the
    worker service's default); ``("stats", token)``, ``("info",
    token)``, ``("flush", token)``, ``("close",)``.  Worker -> parent:
    ``("ready", pid)`` / ``("fatal", exc)`` once at startup, then
    ``("done_block", [(req_id, ok, result | exc), ...])`` blocks of
    results (a successful ``result`` is the CGResult/MixedCGResult
    metadata with ``x=None`` — the solution bytes ride the ring, not
    the pipe), ``("stats", token, snapshot,
    clock_offset)``, ``("info", token, dict)``, ``("flushed", token)``,
    and ``("bye",)`` after a graceful drain.

    ``slow_schedule`` maps 1-based ``solve_block`` ordinals to seconds
    slept before ingesting that block — the deterministic slow-solve
    fault of :class:`~repro.serve.chaos.FaultPlan`, applied worker-side
    so the parent's pipes and supervision observe genuine latency.

    ``pin_to`` is the parent-assigned CPU set for this worker
    (``os.sched_setaffinity``, best-effort: non-Linux hosts and denied
    affinity calls degrade to an unpinned worker, attested as
    ``pinned_cpus=None`` in the info payload).  Pinning keeps each
    ring's pages hot in the cache hierarchy next to the one worker
    that drains them — the NUMA-aware layout the ROADMAP calls for.

    Traffic is deliberately *blocked* in both directions: on a host
    where the solves themselves take fractions of a millisecond, one
    pipe message (pickle + syscall + a cross-process wakeup) per
    request would dominate; grouping requests per worker and sweeping
    finished results into coalesced ``done_block`` messages keeps the
    process boundary off the critical path.
    """
    import queue

    from repro.sem.spec import rebuild
    from repro.serve.service import SolveService

    pinned: "tuple[int, ...] | None" = None
    if pin_to is not None and hasattr(os, "sched_setaffinity"):
        try:  # best-effort: containers may deny affinity changes
            os.sched_setaffinity(0, pin_to)
            pinned = tuple(sorted(os.sched_getaffinity(0)))
        except (OSError, ValueError):
            pinned = None

    try:
        problem = rebuild(spec)
        svc = SolveService(problem, background=True, **service_kwargs)
        ring = SlotRing.attach(spec.ring)
    except BaseException as exc:
        try:
            conn.send(("fatal", _sendable_error(exc)))
        except OSError:
            pass
        conn.close()
        return

    send_lock = threading.Lock()

    def send(msg) -> None:
        # Serialized: the result pump runs beside this loop's control
        # replies, and Connection.send is not thread-safe.  A vanished
        # parent is not an error worth dying loudly for — the worker
        # just finishes draining and exits.
        with send_lock:
            try:
                conn.send(msg)
            except (OSError, ValueError, BrokenPipeError):
                pass

    # Finished results flow through a local queue to a pump thread that
    # sweeps everything available into one done_block per send — while
    # one message is in flight, later completions pile up and ride the
    # next one (opportunistic coalescing, exactly like micro-batching).
    results: "queue.SimpleQueue" = queue.SimpleQueue()

    #: Seconds the pump lingers for the next finished result before
    #: shipping the block: tickets of one stacked solve resolve
    #: microseconds apart, so this tiny linger folds a whole batch into
    #: one pipe message at a sub-millisecond delivery-latency cost.
    pump_linger = 2e-4

    def pump() -> None:
        while True:
            item = results.get()
            block = [item]
            while True:
                try:
                    block.append(results.get(timeout=pump_linger))
                except queue.Empty:
                    break
            stop = any(entry is None for entry in block)
            entries = [entry for entry in block if entry is not None]
            if entries:
                send(("done_block", entries))
            if stop:
                return

    pump_thread = threading.Thread(
        target=pump, name="sem-procshard-pump", daemon=True
    )
    pump_thread.start()

    def report(req_id: int, ordinal: int, slot: int, ticket) -> None:
        # Zero-copy response: the solution vector goes back through the
        # ring slot it arrived in; only the CGResult metadata (x=None)
        # rides the pipe.  resp_seq is stamped *after* the x write so
        # the parent never reads a half-written solution.
        exc = ticket.exception()
        if exc is None:
            res = ticket.result()
            ring.x[slot][...] = res.x
            ring.resp_seq[slot] = ordinal
            results.put((req_id, True, replace(res, x=None)))
        else:
            results.put((req_id, False, _sendable_error(exc)))

    block_ordinal = 0
    send(("ready", os.getpid()))
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                return  # parent died; finally drains and exits
            tag = msg[0]
            if tag == "solve_block":
                block = msg[1]
                block_ordinal += 1
                if slow_schedule:
                    pause = slow_schedule.get(block_ordinal)
                    if pause:
                        time.sleep(pause)
                # Each item is a doorbell (req_id, ordinal, slot, tol,
                # maxiter, deadline, precision).  The slot header must
                # match the doorbell's ordinal — a mismatch means the
                # parent recycled the slot after giving up on this
                # request (expiry), so the rhs bytes are no longer ours
                # to read; report it rather than solve garbage.
                good = []
                for item in block:
                    req_id, ordinal, slot = item[0], item[1], item[2]
                    if (
                        0 <= slot < ring.manifest.slots
                        and int(ring.req_seq[slot]) == ordinal
                    ):
                        good.append(item)
                    else:
                        results.put((
                            req_id, False,
                            RuntimeError(
                                f"stale ring doorbell: slot {slot} "
                                f"ordinal {ordinal} no longer owns "
                                "the slot"
                            ),
                        ))
                if good:
                    try:
                        # Bulk ingest: one queue-lock acquisition and
                        # one dispatcher wake-up for the whole block.
                        # Closure mid-block is reported through the
                        # tickets, so every req_id gets exactly one
                        # reply either way.  snapshot=False: the solver
                        # batches views of the shared slots directly —
                        # no ingest copy on either side of the process
                        # boundary.
                        tickets = svc.submit_block(
                            [
                                (ring.rhs[slot], tol, mi, dl, prec)
                                for _, _, slot, tol, mi, dl, prec in good
                            ],
                            snapshot=False,
                        )
                    except BaseException as exc:
                        # All-or-nothing failure (validation): nothing
                        # was enqueued; report every item.
                        error = _sendable_error(exc)
                        for req_id, *_ in good:
                            results.put((req_id, False, error))
                    else:
                        for item, ticket in zip(good, tickets):
                            ticket.add_done_callback(
                                lambda t,
                                rid=item[0],
                                o=item[1],
                                s=item[2]: report(rid, o, s, t)
                            )
            elif tag == "stats":
                send(("stats", msg[1], svc.stats, perf_epoch_offset()))
            elif tag == "info":
                send(("info", msg[1], _worker_info(problem, spec, ring, pinned)))
            elif tag == "flush":
                svc.flush()
                send(("flushed", msg[1]))
            elif tag == "close":
                # Drain: close() resolves every pending ticket (their
                # callbacks enqueue the remaining results), then the
                # pump flushes and exits before "bye" goes out — the
                # parent's reader can trust bye to mean "nothing in
                # flight".
                svc.close()
                results.put(None)
                pump_thread.join()
                send(("bye",))
                return
    finally:
        try:
            svc.close()
        except Exception:
            pass
        results.put(None)
        pump_thread.join(timeout=5.0)
        try:
            ring.close()  # drop the mapping; the parent owns unlink
        except Exception:
            pass
        conn.close()


class _Reply:
    """Parent-side slot for one worker request/response exchange."""

    __slots__ = ("event", "payload", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.payload: tuple = ()
        self.error: BaseException | None = None


class _Inflight:
    """Parent-side record of one request: everything needed to retry it.

    Solves are pure, so the snapshot (``b``/``tol``/``maxiter``) plus
    the absolute deadline is a complete resubmission recipe; the ticket
    is the one client-visible object and survives every redispatch.
    ``attempts`` counts registrations with a worker (incremented inside
    :meth:`ProcessShardedSolveService._dispatch_inflights`).

    ``staged`` is ``(ring, ordinal, slot)`` while the request is parked
    in a worker's :class:`~repro.sem.shared.SlotRing` (``b`` then
    aliases the slot's rhs row) and ``None`` otherwise.  Whoever
    removes the inflight from a worker's pending map owns releasing the
    slot — via :meth:`ProcessShardedSolveService._unstage`, which first
    copies the rhs back out to a private array when the ticket may
    still be retried.
    """

    __slots__ = (
        "ticket", "b", "tol", "maxiter", "deadline_at", "precision",
        "attempts", "staged",
    )

    def __init__(
        self, ticket, b, tol, maxiter, deadline_at, precision=None
    ) -> None:
        self.ticket = ticket
        self.b = b
        self.tol = tol
        self.maxiter = maxiter
        self.deadline_at = deadline_at  # time.monotonic() absolute, or None
        self.precision = precision  # "fp64" / "mixed" / None (worker default)
        self.attempts = 0
        self.staged = None


class _Worker:
    """Parent-side handle: process, pipe, in-flight bookkeeping."""

    __slots__ = (
        "index", "generation", "process", "conn", "send_lock",
        "state_lock", "seq", "pending", "replies", "alive", "close_sent",
        "reader",
    )

    def __init__(self, index: int, generation: int, process, conn) -> None:
        self.index = index
        self.generation = generation
        self.process = process
        self.conn = conn
        # send_lock serializes writers on the pipe; state_lock guards
        # the bookkeeping.  They are distinct so the reader thread is
        # never blocked behind a writer stuck on a full pipe (which
        # would deadlock backpressure: the worker unclogs the pipe only
        # if the reader keeps consuming its results).
        self.send_lock = threading.Lock()
        self.state_lock = threading.Lock()
        self.seq = 0
        self.pending: dict[int, _Inflight] = {}
        self.replies: dict[int, _Reply] = {}
        self.alive = True
        self.close_sent = False
        self.reader: threading.Thread | None = None


class ProcessShardedSolveService(FleetFront):
    """Route solve requests across ``K`` supervised worker *processes*.

    Parameters
    ----------
    problem:
        A :class:`~repro.sem.poisson.PoissonProblem`,
        :class:`~repro.sem.helmholtz.HelmholtzProblem` or
        :class:`~repro.sem.nekbone.NekboneCase` — anything providing
        the spec protocol (``export_shared()``, ``n_dofs``).  Its
        immutable arrays are exported to shared memory once; every
        worker (including respawned ones) rebuilds a solve-identical
        problem attached to the same physical pages.  The parent's
        problem instance itself is *not* used to solve — it is the
        template.
    workers:
        Number of worker processes (``K >= 1``), one per core being the
        intended deployment.
    policy:
        ``"tenant"``, ``"least-loaded"``, ``"round-robin"``, or a ready
        :class:`~repro.serve.scheduler.Router` sized for ``workers`` —
        the same policies, with the same semantics, as the in-process
        :class:`~repro.serve.shard.ShardedSolveService`.
    max_batch / max_wait / max_pending / tol / maxiter / precision /
    precondition:
        Forwarded to every worker's in-process
        :class:`~repro.serve.service.SolveService`; omitted knobs take
        that dataclass's own defaults (the shared
        :class:`~repro.serve.fleet.FleetFront` forwards only what was
        set, so there is exactly one set of defaults).
    queue_watermark / on_overload / shed_watermark:
        Watermark diversion and the admission-control shed point, as in
        the thread-shard (one implementation serves both).  Depths here
        count *in-flight* requests per worker (submitted, not yet
        resolved) — the parent cannot cheaply observe a worker's
        internal queue, and in-flight is the quantity backpressure
        actually acts on.
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
    start_method:
        ``multiprocessing`` start method (default ``"spawn"``: workers
        import fresh and attach the shared blocks explicitly, proving
        zero-copy sharing rather than inheriting pages by fork
        accident; ``"fork"``/``"forkserver"`` also work).
    ring_slots:
        Slots per worker :class:`~repro.sem.shared.SlotRing` (default
        32).  Request/response payloads ride the rings; the pipe
        carries only doorbells (slot ordinals and scalars), so the
        request payload path copies **zero bytes** through a transport
        hop (``stats.copy_bytes == 0``).  A full ring is backpressure:
        staging blocks until a slot is released, never overwriting an
        unconsumed one.
    pin_cores:
        Pin each worker process to one CPU (round-robin over the
        parent's affinity mask via ``os.sched_setaffinity``);
        best-effort — hosts that deny affinity calls degrade to
        unpinned workers, attested as ``pinned_cpus=None`` in
        :meth:`worker_info`.

    Thread safety
    -------------
    :meth:`submit` / :meth:`solve_many` / :attr:`stats` / :meth:`close`
    are safe from any number of client threads.  Backpressure is
    end-to-end: a worker at ``max_pending`` stops reading its pipe, the
    pipe fills, and the submitting client blocks in ``send``.

    Examples
    --------
    >>> svc = ProcessShardedSolveService(problem, workers=2)
    >>> ticket = svc.submit(b, key="tenant-42", deadline=5.0)  # doctest: +SKIP
    >>> svc.close()
    """

    #: Seconds to wait for a worker's startup handshake (spawn imports
    #: numpy + this library from scratch).
    HANDSHAKE_TIMEOUT: float = 120.0
    #: Seconds to wait for a stats/info/flush reply.
    REPLY_TIMEOUT: float = 60.0
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

    _noun = "worker"

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
        precondition: "bool | object" = _UNSET,
        queue_watermark: int | None = None,
        on_overload: OverloadHook | None = None,
        shed_watermark: int | None = None,
        retry: RetryPolicy = RetryPolicy(),
        restart: RestartPolicy = RestartPolicy(),
        chaos: "FaultPlan | FaultInjector | None" = None,
        start_method: str = "spawn",
        ring_slots: int = 32,
        pin_cores: bool = True,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if ring_slots < 1:
            raise ValueError(f"ring_slots must be >= 1, got {ring_slots}")
        if not isinstance(retry, RetryPolicy):
            raise TypeError(
                f"retry must be a RetryPolicy, got {type(retry).__name__}"
            )
        if not isinstance(restart, RestartPolicy):
            raise TypeError(
                f"restart must be a RestartPolicy, got "
                f"{type(restart).__name__}"
            )
        if not hasattr(problem, "export_shared"):
            raise TypeError(
                f"problem {type(problem).__name__} lacks export_shared(); "
                "process sharding rebuilds workers from a shared-memory "
                "spec (PoissonProblem, HelmholtzProblem and NekboneCase "
                "all provide it)"
            )
        super().__init__(
            workers, policy, queue_watermark, on_overload, shed_watermark,
            max_batch=max_batch, max_wait=max_wait,
            max_pending=max_pending, tol=tol, maxiter=maxiter,
            precision=precision, precondition=precondition,
        )
        self.workers = workers
        self.ring_slots = ring_slots
        self.pin_cores = pin_cores
        self.retry = retry
        self.restart = restart
        if chaos is None:
            self._injector: FaultInjector | None = None
        elif isinstance(chaos, FaultInjector):
            self._injector = chaos
        elif isinstance(chaos, FaultPlan):
            self._injector = FaultInjector(chaos)
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
        # One request/response slot ring per worker: a crashed worker's
        # replacement re-attaches the *same* ring (same physical pages),
        # so staged rhs bytes survive the respawn.
        self._rings: list[SlotRing] = []
        try:
            for _ in range(workers):
                self._rings.append(SlotRing.create(ring_slots, self._n))
        except BaseException:
            self._release_shared()
            raise
        self._ctx = multiprocessing.get_context(start_method)
        self._workers: list[_Worker] = []
        started: list[_Worker] = []
        try:
            for index in range(workers):
                started.append(self._spawn_worker(index, generation=0))
            for w in started:
                self._handshake(w)
            self._workers = started
            for w in started:
                w.reader = threading.Thread(
                    target=self._reader_loop, args=(w,),
                    name=f"sem-procshard-reader-{w.index}", daemon=True,
                )
                w.reader.start()
        except BaseException:
            self._workers = []
            for w in started:
                if w.process.is_alive():
                    w.process.terminate()
                w.process.join(timeout=5.0)
                w.conn.close()
            self._release_shared()
            raise
        self._supervisor = threading.Thread(
            target=self._supervisor_loop,
            name="sem-procshard-supervisor", daemon=True,
        )
        self._supervisor.start()

    # ------------------------------------------------------------------
    # Construction / teardown plumbing
    # ------------------------------------------------------------------
    def _spawn_worker(self, index: int, generation: int) -> _Worker:
        """Start one worker process (fresh or respawn) on a fresh pipe.

        Respawns rebuild from the *same* spec attached to the *same*
        shared-memory export — nothing is re-exported — and re-attach
        the *same* slot ring, so rhs bytes staged before a crash are
        still in place for retry.
        """
        parent_conn, child_conn = self._ctx.Pipe()
        slow = (
            None
            if self._injector is None
            else self._injector.worker_slow_schedule(index) or None
        )
        name = (
            f"sem-procshard-{index}"
            if generation == 0
            else f"sem-procshard-{index}-g{generation}"
        )
        spec = self._export.spec_with_ring(self._rings[index].manifest)
        process = self._ctx.Process(
            target=_worker_main,
            args=(spec, child_conn, self._forwarded, slow,
                  self._pin_for(index)),
            name=name,
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(index, generation, process, parent_conn)

    def _release_shared(self) -> None:
        """Unmap and unlink every ring and the problem export."""
        for ring in self._rings:
            ring.close(unlink=True)
        self._rings = []
        self._export.close(unlink=True)

    def _pin_for(self, index: int) -> "tuple[int, ...] | None":
        """CPU set for worker ``index``: round-robin over the parent's
        affinity mask, or ``None`` when pinning is off/unsupported."""
        if not self.pin_cores or not hasattr(os, "sched_getaffinity"):
            return None
        try:
            avail = sorted(os.sched_getaffinity(0))
        except OSError:
            return None
        if not avail:
            return None
        return (avail[index % len(avail)],)

    def _handshake(self, w: _Worker) -> None:
        """Consume the worker's startup message or fail construction."""
        if not w.conn.poll(self.HANDSHAKE_TIMEOUT):
            raise RuntimeError(
                f"worker {w.index} did not report ready within "
                f"{self.HANDSHAKE_TIMEOUT:.0f}s"
            )
        try:
            msg = w.conn.recv()
        except (EOFError, OSError) as exc:
            raise RuntimeError(
                f"worker {w.index} exited during startup"
            ) from exc
        if msg[0] == "fatal":
            raise RuntimeError(
                f"worker {w.index} failed to build its service"
            ) from msg[1]
        if msg[0] != "ready":
            raise RuntimeError(
                f"worker {w.index} sent unexpected startup message "
                f"{msg[0]!r}"
            )

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
        old = self._workers[slot]
        generation = old.generation + 1
        try:
            w = self._spawn_worker(slot, generation)
            try:
                self._handshake(w)
            except BaseException:
                if w.process.is_alive():
                    w.process.terminate()
                w.process.join(timeout=5.0)
                w.conn.close()
                raise
        except Exception:
            self._restart_or_eject(slot)
            return
        w.reader = threading.Thread(
            target=self._reader_loop, args=(w,),
            name=f"sem-procshard-reader-{slot}-g{generation}",
            daemon=True,
        )
        self._workers[slot] = w
        w.reader.start()
        # Re-admission: from here on the routing mask includes the slot
        # again (mark_healthy is a no-op if a racing eject won).
        self.health.mark_healthy(slot)
        # The replacement attached the same ring; staging may block on
        # it again instead of failing with the crash error.
        self._rings[slot].resume()
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

    def _handle_retry(self, inflight: _Inflight, final: bool = False) -> None:
        """Redispatch one crash-orphaned request to a healthy worker.

        ``final`` marks the supervisor's shutdown settlement: no more
        rescheduling — dispatch now or fail the ticket with the
        taxonomy error that explains why.
        """
        ticket = inflight.ticket
        if ticket.done():
            return
        if (
            inflight.deadline_at is not None
            and time.monotonic() >= inflight.deadline_at
        ):
            with self._lock:
                self._expired += 1
            ticket._fail(DeadlineExceeded(
                "request deadline expired before a retry could be "
                "dispatched"
            ))
            return
        mask = self.health.mask()
        if not any(mask):
            if not final and self.health.any_recoverable():
                # A respawn is pending; park the retry until it lands.
                # No attempt is charged — nothing was dispatched.
                self._schedule(
                    self.RETRY_REQUEUE_WAIT, ("retry", inflight)
                )
            else:
                ticket._fail(FleetUnavailable(
                    f"no healthy worker to retry on after "
                    f"{inflight.attempts} attempt(s); fleet state "
                    f"{[s.value for s in self.health.states]}"
                ))
            return
        depths = self.queue_depths
        chosen = min(
            (i for i in range(len(mask)) if mask[i]),
            key=depths.__getitem__,
        )
        try:
            # Bounded slot acquisition: the supervisor thread runs every
            # timer — it must not park indefinitely on one full ring.
            self._dispatch_inflights(
                chosen, [inflight],
                acquire_timeout=self.RETRY_REQUEUE_WAIT,
            )
        except TimeoutError:
            # Ring full: no attempt was charged (nothing registered);
            # requeue unless this is the shutdown settlement.
            if final:
                ticket._fail(FleetUnavailable(
                    f"no free ring slot on worker {chosen} at shutdown "
                    f"after {max(inflight.attempts, 1)} attempt(s)"
                ))
            else:
                self._schedule(
                    self.RETRY_REQUEUE_WAIT, ("retry", inflight)
                )
            return
        except (WorkerCrashed, ServiceClosed) as exc:
            if final or inflight.attempts >= self.retry.max_attempts:
                error = FleetUnavailable(
                    f"request failed after {max(inflight.attempts, 1)} "
                    f"attempt(s); last dispatch hit: {exc}"
                )
                error.__cause__ = exc
                ticket._fail(error)
            else:
                self._retry_later(inflight)
            return
        with self._lock:
            self._retried += 1

    def _handle_expire(
        self, w: _Worker, req_id: int, inflight: _Inflight
    ) -> None:
        """Deadline watchdog: fail a request still unresolved a grace
        past its deadline (lost send, wedged worker).  Identity-checked
        so a redispatched request's stale watchdog never fires on the
        new registration."""
        ticket = inflight.ticket
        if (
            inflight.deadline_at is None
            or time.monotonic() < inflight.deadline_at
        ):
            return
        with w.state_lock:
            if w.pending.get(req_id) is not inflight:
                return
            w.pending.pop(req_id, None)
        if ticket.done():
            # Settled but still registered means cancelled client-side
            # (e.g. a gateway disowning the request at its own deadline):
            # the outcome is already decided, but the registration and
            # the staged slot are not freed by anyone else if the send
            # was dropped or the worker wedged.
            # Reclaim them here; don't count the request as expired (its
            # deadline didn't decide anything, the cancel did).
            self._unstage([inflight])
            return
        with self._lock:
            self._expired += 1
        ticket._fail(DeadlineExceeded(
            f"request deadline passed {self.EXPIRE_GRACE:.1f}s ago with "
            f"no reply from worker {w.index}"
        ))
        # Reclaim the ring slot of a lost request.  If a wedged worker
        # later completes it anyway, the stale write is caught by the
        # sequence-header check, never silently served.
        self._unstage([inflight])

    # ------------------------------------------------------------------
    # Reader: replies, crash detection
    # ------------------------------------------------------------------
    def _reader_loop(self, w: _Worker) -> None:
        """Drain one worker's pipe, resolving tickets and replies.

        Exits on ``bye`` (graceful) or EOF (crash / parent-initiated
        teardown).  On an unexpected exit the crash path marks the slot
        degraded, schedules its respawn, and hands salvageable
        in-flight requests to the retry machinery; during close every
        ticket and reply still registered is failed — either way no
        client ever hangs on a dead worker.
        """
        try:
            while True:
                try:
                    msg = w.conn.recv()
                except (EOFError, OSError):
                    break
                tag = msg[0]
                if tag == "done_block":
                    for req_id, ok, payload in msg[1]:
                        with w.state_lock:
                            inflight = w.pending.pop(req_id, None)
                        if inflight is None:
                            continue
                        staged = inflight.staged
                        if staged is None:
                            # A second registration of a request the
                            # double-retry race (ROADMAP item 5, cause
                            # (a)) dispatched twice: the first reply
                            # settled the ticket and released the slot.
                            continue
                        # The pipe carried metadata only (x=None); the
                        # solution bytes are in the slot, guarded by
                        # its response sequence header.  Copy x out,
                        # release the slot, then resolve — in that
                        # order, so the client never observes a ticket
                        # whose slot is still held.
                        ring, ordinal, slot = staged
                        result = error = None
                        if not ok:
                            error = payload
                        elif int(ring.resp_seq[slot]) != ordinal:
                            error = RuntimeError(
                                f"ring slot {slot} response header "
                                f"{int(ring.resp_seq[slot])} != expected "
                                f"ordinal {ordinal}: the slot was "
                                "overwritten by a stale late completion"
                            )
                        else:
                            result = replace(
                                payload, x=np.array(ring.x[slot])
                            )
                        inflight.staged = None
                        ring.release(ordinal)
                        if error is None:
                            inflight.ticket._resolve(result)
                        else:
                            inflight.ticket._fail(error)
                elif tag in ("stats", "info", "flushed"):
                    with w.state_lock:
                        reply = w.replies.pop(msg[1], None)
                    if reply is not None:
                        reply.payload = msg[2:]
                        reply.event.set()
                elif tag == "bye":
                    break
        finally:
            with w.state_lock:
                w.alive = False
                close_sent = w.close_sent
                pending = list(w.pending.values())
                w.pending.clear()
                replies = list(w.replies.values())
                w.replies.clear()
            crash = WorkerCrashed(
                f"worker {w.index} (pid {w.process.pid}) exited with "
                f"{len(pending)} request(s) in flight"
            )
            for reply in replies:
                reply.error = crash
                reply.event.set()
            if not close_sent:
                # Wake anyone blocked staging into this worker's full
                # ring (and bounce new stagers): the slots they wait
                # for may never come back.  The replacement worker
                # re-attaches the same ring, so a successful respawn
                # resumes it.
                self._rings[w.index].interrupt(WorkerCrashed(
                    f"worker {w.index} has died; its ring accepts no "
                    "new requests"
                ))
            if close_sent or self.closed or self._workers[w.index] is not w:
                # Shutdown: nobody is left to retry on or respawn for.
                for inflight in pending:
                    inflight.ticket._fail(crash)
                self._unstage(pending)
                return
            self.health.mark_degraded(w.index)
            self._restart_or_eject(w.index)
            retry = self.retry
            now = time.monotonic()
            for inflight in pending:
                ticket = inflight.ticket
                if ticket.done():
                    self._unstage([inflight])
                elif (
                    inflight.deadline_at is not None
                    and now >= inflight.deadline_at
                ):
                    with self._lock:
                        self._expired += 1
                    ticket._fail(DeadlineExceeded(
                        "request deadline expired when its worker "
                        "crashed"
                    ))
                    self._unstage([inflight])
                elif inflight.attempts >= retry.max_attempts:
                    error = FleetUnavailable(
                        f"request failed after {inflight.attempts} "
                        f"attempt(s); its last worker crashed"
                    )
                    error.__cause__ = crash
                    ticket._fail(error)
                    self._unstage([inflight])
                else:
                    # Copy the rhs out of the dead worker's slot (the
                    # shared pages survive the crash untouched — the
                    # worker's view is read-only) so the retry carries
                    # bit-identical bytes wherever it lands.
                    self._unstage([inflight])
                    self._schedule(
                        retry.backoff(inflight.attempts),
                        ("retry", inflight),
                    )

    def _request(self, w: _Worker, tag: str) -> tuple:
        """One control round-trip (stats/info/flush) with a worker."""
        reply = _Reply()
        with w.send_lock:
            with w.state_lock:
                if not w.alive:
                    raise WorkerCrashed(
                        f"worker {w.index} is not alive"
                    )
                token = w.seq
                w.seq += 1
                w.replies[token] = reply
            try:
                w.conn.send((tag, token))
            except (OSError, ValueError) as exc:
                with w.state_lock:
                    w.replies.pop(token, None)
                raise WorkerCrashed(
                    f"worker {w.index} pipe is closed"
                ) from exc
        if not reply.event.wait(self.REPLY_TIMEOUT):
            with w.state_lock:
                w.replies.pop(token, None)
            raise TimeoutError(
                f"worker {w.index} did not answer {tag!r} within "
                f"{self.REPLY_TIMEOUT:.0f}s"
            )
        if reply.error is not None:
            raise reply.error
        return reply.payload

    def _ask_live(self, tag: str) -> list[tuple]:
        """:meth:`_request` every worker in turn; one that is dead, or
        dies under the ask, is skipped (``_request`` checks liveness
        under the worker's state lock and raises ``WorkerCrashed``)."""
        replies = []
        for w in list(self._workers):
            try:
                replies.append(self._request(w, tag))
            except WorkerCrashed:
                continue
        return replies

    # ------------------------------------------------------------------
    # Routing / dispatch plumbing
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

    def _route(self, key, planned=None, shed: bool = True) -> int:
        """The shared :meth:`~repro.serve.fleet.FleetFront._admit` step;
        diversions are booked at decision time (the hand-over books
        ``routed``, and books it again for a retry)."""
        chosen, rebalanced, diverted = self._admit(key, planned, shed)
        if rebalanced or diverted:
            self._count(chosen, 0, rebalanced, diverted)
        return chosen

    def _stage_ring(
        self,
        ring: SlotRing,
        inflights: "list[_Inflight]",
        timeout: "float | None",
    ) -> None:
        """Park each request's rhs in a ring slot ahead of the doorbell.

        Runs *before* any worker lock is taken: a full ring blocks here
        (backpressure), and the thread that unblocks it is the reader
        releasing slots under ``state_lock`` — staging inside that lock
        would deadlock.  ``inf.b`` is rebound to the slot's rhs row (the
        slot is now the request's home); on any failure the staged
        slots are unwound via :meth:`_unstage`.
        """
        staged: list[_Inflight] = []
        try:
            for inf in inflights:
                ordinal, slot = ring.acquire(timeout=timeout)
                ring.rhs[slot][...] = inf.b
                inf.b = ring.rhs[slot]
                inf.staged = (ring, ordinal, slot)
                staged.append(inf)
        except BaseException:
            self._unstage(staged)
            raise

    def _unstage(self, inflights: "list[_Inflight]") -> None:
        """Release each request's ring slot (no-op for unstaged ones).

        A ticket that may still be retried gets its rhs copied back out
        to a private array first — the slot's bytes stop being ours the
        moment it is released.  Callers that are about to fail the
        ticket should do so *before* unstaging to skip that copy.
        """
        for inf in inflights:
            staged, inf.staged = inf.staged, None
            if staged is None:
                continue
            ring, ordinal, slot = staged
            if not inf.ticket.done():
                inf.b = np.array(ring.rhs[slot])
            ring.release(ordinal)

    def _retry_later(self, inflight: _Inflight) -> None:
        """Schedule the redispatch of a request whose dispatch found
        its worker dead, after giving it its own rhs bytes.

        Validation hands out zero-copy views of the caller's array; a
        retry outliving the submit call must not alias memory the
        caller is free to mutate.  (An already-staged request holds
        its own bytes and is left alone.)
        """
        if inflight.staged is None:
            inflight.b = np.array(inflight.b)
        self._schedule(
            self.retry.backoff(max(inflight.attempts, 1)),
            ("retry", inflight),
        )

    def _dispatch_inflights(
        self,
        chosen: int,
        inflights: "list[_Inflight]",
        acquire_timeout: "float | None" = None,
    ) -> None:
        """Register + send a group of requests to one worker as a
        single pipe message, applying any planned faults.

        The rhs payloads are staged into the worker's slot ring first
        (blocking while the ring is full — bounded by
        ``acquire_timeout``, which the supervisor's retry path sets so
        one full ring cannot stall the whole timer wheel) and the pipe
        message carries only doorbells.

        Increments each request's attempt count; schedules the
        parent-side deadline watchdog for deadlined requests (which is
        also what eventually fails a chaos-*dropped* send).  A chaos
        ``kill`` fires after the send, outside the locks — the reader
        then observes the death exactly as it would a real crash.
        """
        w = self._workers[chosen]
        self._stage_ring(self._rings[chosen], inflights, acquire_timeout)
        injector = self._injector
        kill = False
        req_ids: list[int] = []
        try:
            with w.send_lock:
                payload = []
                now = time.monotonic()
                with w.state_lock:
                    if w.close_sent:
                        # close() already won this worker's send_lock:
                        # the worker will drain and exit without reading
                        # another message, so admitting the block would
                        # strand its tickets until EOF mislabels them
                        # WorkerCrashed.
                        raise ServiceClosed(
                            "submit on a closed process-sharded service"
                        )
                    if not w.alive:
                        raise WorkerCrashed(
                            f"worker {chosen} has died; its requests "
                            "were failed and it accepts no new ones"
                        )
                    for inf in inflights:
                        req_id = w.seq
                        w.seq += 1
                        # Registered before the send so an arbitrarily
                        # fast reply always finds its request.
                        w.pending[req_id] = inf
                        inf.attempts += 1
                        req_ids.append(req_id)
                        remaining = (
                            None
                            if inf.deadline_at is None
                            else max(inf.deadline_at - now, 1e-9)
                        )
                        _, ring_ordinal, ring_slot = inf.staged
                        payload.append(
                            (
                                req_id, ring_ordinal, ring_slot, inf.tol,
                                inf.maxiter, remaining, inf.precision,
                            )
                        )
                drop = False
                if injector is not None:
                    ordinal = injector.next_ordinal(chosen)
                    delay, drop = injector.send_action(chosen, ordinal)
                    if delay:
                        time.sleep(delay)
                    kill = injector.should_kill(chosen, ordinal)
                if not drop:
                    try:
                        w.conn.send(("solve_block", payload))
                    except (OSError, ValueError) as exc:
                        with w.state_lock:
                            for req_id in req_ids:
                                w.pending.pop(req_id, None)
                        raise WorkerCrashed(
                            f"worker {chosen} pipe is closed"
                        ) from exc
        except BaseException:
            # Nothing was admitted (registrations were rolled back or
            # never made): unwind the staged slots so they are free for
            # whoever dispatches next.
            self._unstage(inflights)
            raise
        for req_id, inf in zip(req_ids, inflights):
            if inf.deadline_at is not None:
                self._schedule(
                    max(inf.deadline_at - now, 0.0) + self.EXPIRE_GRACE,
                    ("expire", w, req_id, inf),
                )
        self._count(chosen, len(inflights))
        if kill:
            w.process.terminate()

    # ------------------------------------------------------------------
    # Client API (mirrors ShardedSolveService)
    # ------------------------------------------------------------------
    def submit(
        self,
        b: NDArray[np.float64],
        tol: float | None = None,
        maxiter: int | None = None,
        key: object | None = None,
        deadline: float | None = None,
        precision: str | None = None,
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
            Routing key (tenant id) — semantics identical to
            :meth:`repro.serve.shard.ShardedSolveService.submit`.
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
        ~repro.serve.errors.Overloaded
            When ``shed_watermark`` is set and every healthy worker is
            at it (retryable — back off and resubmit).
        ~repro.serve.errors.FleetUnavailable
            When no healthy worker exists to route to.  (A worker that
            dies under the request never raises here: the ticket is
            retried, and fails with ``FleetUnavailable`` only once the
            retry policy is exhausted.)

        Notes
        -----
        May block, and there is deliberately no ``try_submit`` twin:
        the call stages ``b`` into the worker's shared-memory ring
        (waiting for a free slot when the ring is full) and writes the
        doorbell down a pipe under the worker's send lock.  The asyncio
        front therefore runs every submit to this tier on the loop's
        executor, where the thread tiers submit from the loop itself.
        """
        b, tol, maxiter, deadline, precision = self._validate_request(
            b, tol, maxiter, deadline, precision
        )
        self._check_open()
        chosen = self._route(key)
        deadline_at = (
            None if deadline is None else time.monotonic() + deadline
        )
        inflight = _Inflight(
            SolveTicket(), b, tol, maxiter, deadline_at, precision
        )
        try:
            self._dispatch_inflights(chosen, [inflight])
        except WorkerCrashed:
            # The worker died between the health sample and the send.
            self._retry_later(inflight)
        attach_cost_feedback(
            self._router, inflight.ticket, chosen, key, tol, precision,
        )
        return inflight.ticket

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
        would have accumulated them; the shed gate sees the block once,
        on its first request.  A group lost to a dying worker is
        transparently redispatched under the retry policy.
        """
        self._check_keys(keys, bs)
        validated = [
            self._validate_request(b, tol, maxiter, deadline, precision)
            for b in bs
        ]
        self._check_open()
        planned = [0] * self.workers
        groups: dict[int, list] = {}
        order: list[tuple[int, int]] = []
        for i, item in enumerate(validated):
            chosen = self._route(
                None if keys is None else keys[i], planned, shed=i == 0
            )
            planned[chosen] += 1
            slot = groups.setdefault(chosen, [])
            order.append((chosen, len(slot)))
            slot.append(item)
        now = time.monotonic()
        dispatched: dict[int, list[_Inflight]] = {}
        for chosen, items in groups.items():
            inflights = [
                _Inflight(
                    SolveTicket(), vb, vtol, vmi,
                    None if vdl is None else now + vdl, vprec,
                )
                for vb, vtol, vmi, vdl, vprec in items
            ]
            dispatched[chosen] = inflights
            try:
                self._dispatch_inflights(chosen, inflights)
            except ServiceClosed as exc:
                # A closing service must not abandon the groups already
                # dispatched: settle this group's tickets and keep
                # going — the gather below re-raises.
                for inflight in inflights:
                    inflight.ticket._fail(exc)
            except WorkerCrashed:
                for inflight in inflights:
                    if not inflight.ticket.done():
                        self._retry_later(inflight)
        tickets = [dispatched[chosen][pos].ticket for chosen, pos in order]
        return [t.result() for t in tickets]

    def flush(self) -> None:
        """Ask every live worker to drain its pending queue now.

        Returns once every live worker has *solved* its pending
        requests; the results themselves may still be in flight on the
        pipes for a moment (wait on the tickets for delivery).  Workers
        that die mid-flush are skipped — their in-flight tickets fail
        (or retry) through the crash path, not through this call.
        """
        self._ask_live("flush")

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
        for w in list(self._workers):
            with w.send_lock:
                with w.state_lock:
                    if not w.alive or w.close_sent:
                        continue
                    w.close_sent = True
                try:
                    w.conn.send(("close",))
                except (OSError, ValueError):
                    pass
        for w in list(self._workers):
            if w.reader is not None:
                w.reader.join(timeout=self.JOIN_TIMEOUT)
            w.process.join(timeout=self.JOIN_TIMEOUT)
            if w.process.is_alive():  # refused to drain: last resort
                w.process.terminate()
                w.process.join(timeout=5.0)
            if w.reader is not None and w.reader.is_alive():
                w.reader.join(timeout=5.0)
            w.conn.close()
        for ring in self._rings:
            # Wake any straggler blocked staging a slot before the ring
            # is torn down.  Parent-side views of slots may still be
            # referenced (SlotRing.close tolerates that); the /dev/shm
            # entry is unlinked regardless.
            ring.interrupt(ServiceClosed(
                "submit on a closed process-sharded service"
            ))
        self._release_shared()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def spec(self):
        """The picklable :class:`~repro.sem.spec.ProblemSpec` workers
        rebuilt their problems from (shared manifests included)."""
        return self._export.spec

    @property
    def shared_blocks(self) -> tuple[str, ...]:
        """Names of the live shared-memory blocks — the problem export
        plus one slot ring per worker (empty after close)."""
        return tuple(self._export.block_names) + tuple(
            ring.manifest.block for ring in self._rings
        )

    @property
    def alive_workers(self) -> tuple[bool, ...]:
        """Liveness of each worker slot's reply channel (a respawned
        worker counts as alive again)."""
        return tuple(w.alive for w in list(self._workers))

    @property
    def queue_depths(self) -> tuple[int, ...]:
        """In-flight request count per worker (submitted, unresolved)."""
        return tuple(len(w.pending) for w in list(self._workers))

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
        """One introspection dict per live worker (pid, attached block
        names, geometry writability) — the zero-copy sharing, attested
        by the workers themselves."""
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

    def _fleet_counters(self) -> dict[str, int]:  # requires-lock: _lock
        """The shared ``shed`` plus this tier's resilience counters
        (parent-side ``expired``: requests the watchdog or a crash
        failed on their deadline, which no worker counted)."""
        return {
            **super()._fleet_counters(),
            "expired": self._expired,
            "retries": self._retried,
            "restarts": self._restarts,
        }
