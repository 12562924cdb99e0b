"""One worker slot of the process fleet: both ends of its wire protocol.

:class:`~repro.serve.procshard.ProcessShardedSolveService` is *policy*
— routing, the timer heap, retry / restart / health decisions, the
client API.  This module is the *mechanism* it decides over: the
worker process (:func:`_worker_main`) and its parent-side handle
(:class:`Replica`), i.e. both ends of the doorbell format, the
shared-memory :class:`~repro.sem.shared.SlotRing` hand-off, the reader
thread, and the two locks — nothing outside this file takes a worker
lock, reads a pending map or calls a ``SlotRing`` method.

**The ownership rule.**  A request is *registered* with a replica under
its ``state_lock`` and only while the replica is alive; whoever removes
a registration settles the request.  Three parties remove
registrations, each under the same lock, so each registration is taken
by exactly one of them: the reader on a reply (resolves the ticket),
the reader's exit sweep (clears ``alive`` and takes *all* of
``pending`` in one critical section, then hands the orphans to the
fleet's ``on_exit``), and :meth:`Replica.claim` for the deadline
watchdog.  Registration is the commit point of :meth:`Replica.dispatch`:
nothing after it unwinds — a failed doorbell ``send`` included, because
a pipe that cannot be written is a worker whose exit the reader has
reported or is about to.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
from dataclasses import replace
from typing import Callable

import numpy as np

from repro.analysis.runtime import race_checked
from repro.sem import cg
from repro.sem.shared import SlotRing, mapped_block
from repro.serve.errors import ServiceClosed, WorkerCrashed
from repro.serve.stats import perf_epoch_offset

#: Workers import fresh and attach the shared blocks explicitly —
#: zero-copy sharing is proven, not inherited by fork accident (and
#: ``fork`` is unsafe in a parent that already runs threads).
_CTX = multiprocessing.get_context("spawn")


# census: failure path: an unpicklable worker-side exception
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
    # Block attestation: the one problem block this worker maps, found
    # through the fp64 factors' own mapping, and that the mixed path's
    # fp32 twin is a read-only view into the same pages — the parent's
    # export, not a private worker cast.
    g_soa = problem.geometry.g_soa
    g32_soa = problem.geometry.as_dtype(np.float32).g_soa
    block = mapped_block(g_soa)
    in_block = block is not None and block.nbytes == spec.arrays.nbytes
    return {
        "pid": os.getpid(),
        "n_dofs": int(problem.n_dofs),
        "problem_block": spec.arrays.block,
        "g_soa_in_block": in_block,
        "g_soa_writeable": bool(g_soa.flags.writeable),
        "g32_soa_in_block": bool(
            in_block and np.may_share_memory(g32_soa, block)),
        "g32_soa_writeable": bool(g32_soa.flags.writeable),
        "shared_blocks": tuple(spec.shared_blocks),
        "precision": spec.precision,
        # Ring attestation: which shared slot ring this worker solves
        # out of (name/slots/dtype), and that its request side really
        # is the parent's block mapped read-only — the payload twin of
        # the one-problem-block attestation above.
        "ring_block": ring.manifest.block,
        "ring_slots": ring.rhs.shape[0],
        "ring_n": ring.rhs.shape[1],
        "ring_dtype": str(ring.rhs.dtype),
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
    token)``, ``("close",)``.  Worker -> parent:
    ``("ready", pid)`` / ``("fatal", exc)`` once at startup, then
    ``("done_block", [(req_id, ok, result | exc), ...])`` blocks of
    results (a successful ``result`` is the CGResult/MixedCGResult
    metadata with ``x=None`` — the solution bytes ride the ring, not
    the pipe), ``("stats", token, snapshot,
    clock_offset)``, ``("info", token, dict)``, and ``("bye",)`` after
    a graceful drain.

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

    # One CPU per worker, pinned or not: its solves never split.
    cg.FLEET_WORKER = True
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
    # sweeps everything already queued into one done_block per send —
    # while one message is in flight, later completions pile up and ride
    # the next one (opportunistic coalescing, exactly like
    # micro-batching).  The pump never lingers for a result that is not
    # there yet: what it holds, it sends.
    results: "queue.SimpleQueue" = queue.SimpleQueue()

    def pump() -> None:
        while True:
            block = [results.get()]
            while True:
                try:
                    block.append(results.get_nowait())
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
                        0 <= slot < len(ring.req_seq)
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
    ``attempts`` counts registrations with a worker (incremented by
    :meth:`Replica.dispatch` as it registers); ``key`` is the routing
    key, which the fleet's cost feedback reads at the first of them.

    ``staged`` is ``(ring, ordinal, slot)`` while the request is parked
    in a worker's :class:`~repro.sem.shared.SlotRing` (``b`` then
    aliases the slot's rhs row) and ``None`` otherwise.  Whoever
    removes the inflight from a replica's pending map owns releasing
    the slot, via :func:`unstage`.
    """

    __slots__ = (
        "ticket", "b", "tol", "maxiter", "deadline_at", "precision",
        "key", "attempts", "staged",
    )

    def __init__(
        self, ticket, b, tol, maxiter, deadline_at, precision=None,
        key=None,
    ) -> None:
        self.ticket = ticket
        self.b = b
        self.tol = tol
        self.maxiter = maxiter
        self.deadline_at = deadline_at  # time.monotonic() absolute, or None
        self.precision = precision  # "fp64" / "mixed" / None (worker default)
        self.key = key
        self.attempts = 0
        self.staged = None

    def spent(self) -> bool:
        """Has the request's deadline (if any) passed?"""
        return (
            self.deadline_at is not None
            and time.monotonic() >= self.deadline_at
        )


#: Largest ring a replica accepts.  A doorbell is ~80 bytes, and one is
#: unread only while its slot is staged, so at most ``ring_slots`` sit
#: in the pipe — which is what lets a client ring it from an event-loop
#: thread (``try_submit``) without fear of parking in ``send``.  A
#: default Linux socketpair buffer (212 992 B, each small message
#: charged a whole ~770 B skb) was measured to take 278 unread doorbells
#: before a send blocks; 128 leaves more than half of it to control
#: messages.  (A wedged worker whose expired requests the watchdog
#: reclaims can still collect more: that send then waits for the worker
#: to drain or die, exactly as every submit to this tier used to.)
MAX_RING_SLOTS = 128


def _pin_for(index: int) -> "tuple[int, ...] | None":
    """CPU set for worker ``index``: round-robin over the parent's
    affinity mask, or ``None`` where affinity is unsupported."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    try:
        avail = sorted(os.sched_getaffinity(0))
    except OSError:
        return None
    if not avail:
        return None
    return (avail[index % len(avail)],)


def unstage(inflights: "list[_Inflight]") -> None:
    """Release each request's ring slot (no-op for unstaged ones).

    Only the request's current owner calls this.  A ticket that may
    still be retried gets its rhs copied back out to a private array
    first — the slot's bytes stop being ours the moment it is released
    (a dead worker's pages survive untouched: its view is read-only).
    Callers about to fail the ticket do so *before* unstaging to skip
    that copy.
    """
    for inf in inflights:
        staged, inf.staged = inf.staged, None
        if staged is None:
            continue
        ring, ordinal, slot = staged
        if not inf.ticket.done():
            inf.b = np.array(ring.rhs[slot])
        ring.release(ordinal)


@race_checked
class Replica:
    """Parent-side owner of one worker *slot* across its processes.

    The ring outlives the processes that attach it (a respawn
    re-attaches the same pages, so rhs bytes staged before a crash are
    still in place); the process, pipe and reader thread are the slot's
    current *generation*.  ``send_lock`` serializes writers on the pipe,
    ``state_lock`` guards the bookkeeping; they are distinct so the
    reader is never blocked behind a writer stuck on a full pipe (which
    would deadlock backpressure: the worker unclogs the pipe only if
    the reader keeps consuming its results), and a generation is
    installed under both, so no dispatch straddles two processes.

    ``on_exit(replica, orphans, crash)`` runs once per generation, on
    its reader thread, after the exit sweep: ``orphans`` are the
    requests the sweep took — now the callee's to settle — and
    ``crash`` the :class:`~repro.serve.errors.WorkerCrashed` describing
    the exit.  The sweep found ``close_sent`` set only if the fleet is
    closing, so the callee needs no separate "graceful" flag.
    """

    #: Seconds to wait for a worker's startup handshake (spawn imports
    #: numpy + this library from scratch).
    HANDSHAKE_TIMEOUT: float = 120.0
    #: Seconds to wait for a stats/info/flush reply.
    REPLY_TIMEOUT: float = 60.0

    _GUARDED_BY = {
        "pending": "state_lock",
        "replies": "state_lock",
        "alive": "state_lock",
        "close_sent": "state_lock",
        "seq": "state_lock",
    }
    _TRACKED_LOCKS = ("send_lock",)

    def __init__(
        self,
        index: int,
        export,
        n: int,
        ring_slots: int,
        service_kwargs: dict,
        injector,
        on_exit: "Callable[[Replica, list[_Inflight], WorkerCrashed], None]",
    ) -> None:
        self.index = index
        self._service_kwargs = service_kwargs
        self._injector = injector
        self._on_exit = on_exit
        self.send_lock = threading.Lock()
        self.state_lock = threading.Lock()
        self.seq = 0  # request and control tokens, never reused
        self.pending: dict[int, _Inflight] = {}
        self.replies: dict[int, _Reply] = {}
        self.alive = False
        self.close_sent = False
        self.generation = -1
        self.reader: threading.Thread | None = None
        self.ring = SlotRing.create(ring_slots, n)
        #: The ring's ``/dev/shm`` name until :meth:`join` unlinks it.
        self.blocks: tuple[str, ...] = (self.ring.manifest.block,)
        self._spec = export.spec_with_ring(self.ring.manifest)
        try:
            # Generation 0 starts booting now; :meth:`start` waits for
            # it, so a fleet's workers import in parallel.
            self.process, self.conn = self._launch()
        except BaseException:
            self.ring.close(unlink=True)
            raise

    # ------------------------------------------------------------------
    # Generations: launch, handshake, install, exit
    # ------------------------------------------------------------------
    def _launch(self):
        """Start one worker process on a fresh pipe, without waiting
        for it; returns ``(process, conn)``.  Every generation rebuilds
        from the *same* spec attached to the *same* shared export and
        re-attaches the *same* ring — nothing is re-exported."""
        self.generation += 1
        parent_conn, child_conn = _CTX.Pipe()
        slow = (
            None
            if self._injector is None
            else self._injector.worker_slow_schedule(self.index) or None
        )
        process = _CTX.Process(
            target=_worker_main,
            args=(self._spec, child_conn, self._service_kwargs, slow,
                  _pin_for(self.index)),
            name=f"sem-procshard-{self.index}-g{self.generation}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return process, parent_conn

    def _handshake(self, conn) -> None:
        """Consume the worker's startup message or raise."""
        if not conn.poll(self.HANDSHAKE_TIMEOUT):
            raise RuntimeError(
                f"worker {self.index} did not report ready within "
                f"{self.HANDSHAKE_TIMEOUT:.0f}s"
            )
        try:
            msg = conn.recv()
        except (EOFError, OSError) as exc:
            raise RuntimeError(
                f"worker {self.index} exited during startup"
            ) from exc
        if msg[0] == "fatal":
            raise RuntimeError(
                f"worker {self.index} failed to build its service"
            ) from msg[1]
        if msg[0] != "ready":
            raise RuntimeError(
                f"worker {self.index} sent unexpected startup message "
                f"{msg[0]!r}"
            )

    def _boot(self, process, conn) -> None:
        """Wait for a launched process's handshake, then install it as
        the live generation: reader running, ring accepting stagers.
        A process that fails its handshake is killed and the error
        raised; the replica stays dead."""
        try:
            self._handshake(conn)
        except BaseException:
            if process.is_alive():
                process.terminate()
            process.join(timeout=5.0)
            conn.close()
            raise
        with self.send_lock, self.state_lock:
            self.process, self.conn = process, conn
            self.alive = True
        self.reader = threading.Thread(
            target=self._reader_loop, args=(process, conn),
            name=f"sem-procshard-reader-{self.index}-g{self.generation}",
            daemon=True,
        )
        self.reader.start()
        self.ring.resume()

    def start(self) -> None:
        """Bring up generation 0, launched by the constructor."""
        self._boot(self.process, self.conn)

    def respawn(self) -> None:
        """Replace a dead generation with a fresh process (raises, and
        leaves the replica dead, if it fails to come up)."""
        self._boot(*self._launch())

    def _reader_loop(self, process, conn) -> None:
        """Drain one generation's pipe, settling replies; on exit —
        ``bye`` (graceful) or EOF (crash, or teardown) — sweep every
        registration still held and report it, so no client ever hangs
        on a dead worker."""
        try:
            while True:
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    break
                tag = msg[0]
                if tag == "done_block":
                    for req_id, ok, payload in msg[1]:
                        with self.state_lock:
                            inflight = self.pending.pop(req_id, None)
                        if inflight is not None:
                            self._settle(inflight, ok, payload)
                elif tag in ("stats", "info"):
                    with self.state_lock:
                        reply = self.replies.pop(msg[1], None)
                    if reply is not None:
                        reply.payload = msg[2:]
                        reply.event.set()
                elif tag == "bye":
                    break
        finally:
            with self.state_lock:
                self.alive = False
                graceful = self.close_sent
                orphans = list(self.pending.values())
                self.pending.clear()
                replies = list(self.replies.values())
                self.replies.clear()
            crash = WorkerCrashed(
                f"worker {self.index} (pid {process.pid}) exited with "
                f"{len(orphans)} request(s) in flight"
            )
            for reply in replies:
                reply.error = crash
                reply.event.set()
            if not graceful:
                # Wake anyone blocked staging into this ring (and
                # bounce new stagers): the slots they wait for may
                # never come back.  The next generation resumes it.
                self.ring.interrupt(WorkerCrashed(
                    f"worker {self.index} has died; its ring accepts no "
                    "new requests"
                ))
            self._on_exit(self, orphans, crash)

    def _settle(self, inflight: "_Inflight", ok: bool, payload) -> None:
        """Deliver one reply.  The pipe carried metadata only
        (``x=None``); the solution bytes are in the slot, guarded by its
        response sequence header.  Copy x out, release the slot, then
        resolve — in that order, so the client never observes a ticket
        whose slot is still held."""
        ring, ordinal, slot = inflight.staged
        result = error = None
        if not ok:
            error = payload
        elif int(ring.resp_seq[slot]) != ordinal:
            error = RuntimeError(
                f"ring slot {slot} response header "
                f"{int(ring.resp_seq[slot])} != expected ordinal "
                f"{ordinal}: the slot was overwritten by a stale late "
                "completion"
            )
        else:
            result = replace(payload, x=np.array(ring.x[slot]))
        inflight.staged = None
        ring.release(ordinal)
        if error is None:
            inflight.ticket._resolve(result)
        else:
            inflight.ticket._fail(error)

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def _send(self, msg: tuple) -> None:  # requires-lock: send_lock
        """Write one message; a failed write is a crash, not an error.

        Nothing is unwound and nothing raised: the pipe's other end is
        gone, so this generation's reader has swept, or is about to
        sweep, every registration — the one made for ``msg`` included —
        and *it* reports them.  (Terminating makes sure of "about to"
        even for a process that closed its pipe without exiting.)
        """
        try:
            self.conn.send(msg)
        except (OSError, ValueError):
            self.process.terminate()

    def _stage(
        self, inflights: "list[_Inflight]", timeout: "float | None"
    ) -> None:
        """Park each request's rhs in a ring slot ahead of the doorbell.

        Runs *before* any lock is taken: a full ring blocks here
        (backpressure), and the thread that unblocks it is the reader
        releasing slots.  ``inf.b`` is rebound to the slot's rhs row
        (the slot is now the request's home); on any failure the slots
        staged so far are unwound.
        """
        staged: list[_Inflight] = []
        try:
            for inf in inflights:
                ordinal, slot = self.ring.acquire(timeout=timeout)
                self.ring.rhs[slot][...] = inf.b
                inf.b = self.ring.rhs[slot]
                inf.staged = (self.ring, ordinal, slot)
                staged.append(inf)
        except BaseException:
            unstage(staged)
            raise

    def dispatch(
        self,
        inflights: "list[_Inflight]",
        acquire_timeout: "float | None" = None,
    ) -> list[int]:
        """Stage → register → doorbell: hand a group of requests to the
        worker as a single pipe message, applying any planned faults.

        Returns one registration token per request (what
        :meth:`claim` takes).  Raises ``TimeoutError`` (ring still full
        after ``acquire_timeout``; ``None`` waits),
        :class:`~repro.serve.errors.WorkerCrashed` (dead, or died while
        we waited for a slot) or
        :class:`~repro.serve.errors.ServiceClosed` (closing) — all
        *before* registering, with every staged slot released and no
        attempt charged.  Registration is the commit point: from there
        the requests belong to whoever removes them from ``pending``,
        and nothing below it raises or unwinds.  A chaos ``drop`` skips
        the doorbell (the watchdog recovers the request); a chaos
        ``kill`` fires after the send, outside the locks — the reader
        observes the death exactly as it would a real crash.
        """
        self._stage(inflights, acquire_timeout)
        injector = self._injector
        kill = drop = False
        tokens: list[int] = []
        payload = []
        with self.send_lock:
            now = time.monotonic()
            with self.state_lock:
                if self.close_sent:
                    # close() already won this send_lock: the worker
                    # will drain and exit without reading another
                    # message.
                    refusal = ServiceClosed(
                        "submit on a closed process-sharded service"
                    )
                elif not self.alive:
                    refusal = WorkerCrashed(
                        f"worker {self.index} has died and accepts no "
                        "new requests"
                    )
                else:
                    refusal = None
                    for inf in inflights:
                        # The doorbell is read off the request while it
                        # is still ours: once registered, a crash sweep
                        # may take it (and unstage it) as soon as the
                        # lock drops.
                        _, ordinal, slot = inf.staged
                        remaining = (
                            None
                            if inf.deadline_at is None
                            else max(inf.deadline_at - now, 1e-9)
                        )
                        payload.append((
                            self.seq, ordinal, slot, inf.tol, inf.maxiter,
                            remaining, inf.precision,
                        ))
                        # Registered before the send so an arbitrarily
                        # fast reply always finds its request.
                        self.pending[self.seq] = inf
                        tokens.append(self.seq)
                        self.seq += 1
                        inf.attempts += 1
            if refusal is not None:
                unstage(inflights)
                raise refusal
            process = self.process
            if injector is not None:
                nth = injector.next_ordinal(self.index)
                delay, drop = injector.send_action(self.index, nth)
                if delay:
                    time.sleep(delay)
                kill = injector.should_kill(self.index, nth)
            if not drop:
                self._send(("solve_block", payload))
        if kill:
            process.terminate()
        return tokens

    # census: failure path: the deadline watchdog takes a lapsed registration
    def claim(self, token: int, inflight: "_Inflight") -> bool:
        """Take ``inflight``'s registration for the deadline watchdog;
        ``False`` if a reply, a crash sweep or a later registration got
        there first (identity-checked, so a redispatched request's
        stale watchdog never fires on its new registration)."""
        with self.state_lock:
            if self.pending.get(token) is not inflight:
                return False
            del self.pending[token]
            return True

    def ask(self, tag: str) -> tuple:
        """One control round-trip (``stats`` / ``info`` / ``flush``);
        raises :class:`~repro.serve.errors.WorkerCrashed` if the worker
        is dead or dies under the ask."""
        reply = _Reply()
        with self.send_lock:
            with self.state_lock:
                if not self.alive:
                    raise WorkerCrashed(f"worker {self.index} is not alive")
                token = self.seq
                self.seq += 1
                self.replies[token] = reply
            self._send((tag, token))
        if not reply.event.wait(self.REPLY_TIMEOUT):
            with self.state_lock:
                self.replies.pop(token, None)
            raise TimeoutError(
                f"worker {self.index} did not answer {tag!r} within "
                f"{self.REPLY_TIMEOUT:.0f}s"
            )
        if reply.error is not None:
            raise reply.error
        return reply.payload

    @property
    def depth(self) -> int:
        """Requests registered and not yet settled."""
        with self.state_lock:
            return len(self.pending)

    @property
    def live(self) -> bool:
        """Is the current generation's reply channel open?"""
        with self.state_lock:
            return self.alive

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def begin_close(self) -> None:
        """Tell a live worker to drain and exit; from here
        :meth:`dispatch` refuses with ``ServiceClosed``."""
        with self.send_lock:
            with self.state_lock:
                if not self.alive or self.close_sent:
                    return
                self.close_sent = True
            self._send(("close",))

    def join(self, timeout: float) -> None:
        """Give the worker ``timeout`` seconds to drain and exit (its
        reader settles what it still held), terminate it if it has not,
        then close the pipe and unlink the ring."""
        if self.reader is not None:
            self.reader.join(timeout=timeout)
        self.process.join(timeout=timeout)
        if self.process.is_alive():  # refused to drain: last resort
            self.process.terminate()
            self.process.join(timeout=5.0)
        if self.reader is not None and self.reader.is_alive():
            self.reader.join(timeout=5.0)
        self.conn.close()
        # Wake any straggler blocked staging a slot before the ring is
        # torn down.  A parent-side view of a slot still referenced
        # keeps reading its bytes; the /dev/shm entry is unlinked
        # regardless.
        self.ring.interrupt(ServiceClosed(
            "submit on a closed process-sharded service"
        ))
        self.ring.close(unlink=True)
        self.blocks = ()
