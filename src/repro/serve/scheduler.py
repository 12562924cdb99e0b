"""Dynamic micro-batching queue: coalesce requests into stacked blocks.

The core serving trade-off (Karp et al.'s host-device flow, and every
inference server since): latency wants each request dispatched the
moment it arrives, throughput wants requests stacked so one warm batched
solve amortizes geometry traffic and dispatch overhead across all of
them.  :class:`MicroBatcher` implements the standard compromise — a
dispatch fires as soon as ``max_batch`` requests are pending, or
``max_wait`` seconds after the oldest pending request arrived, whichever
comes first.

The batcher is a plain thread-safe data structure (one condition
variable, one deque); the policy loop that calls :meth:`take_batch`
lives in :class:`~repro.serve.service.SolveService`.

This module also hosts the *routing* policies of the sharded service
(:class:`~repro.serve.procshard.ProcessShardedSolveService`): given
``K`` replica queues, a :class:`Router` decides which replica a request
lands on —
:class:`TenantRouter` (consistent hashing, so one tenant's requests
always meet in the same queue and coalesce into the same batches) and
:class:`RoundRobinRouter`; :mod:`repro.serve.costmodel` adds the
cost-aware one.  Routers are small, thread-safe, and
stateless apart from their own counters, so one instance serves any
number of concurrent submitters.
"""

from __future__ import annotations

import bisect
import hashlib
import threading
import time
from collections import deque
from typing import ClassVar, Generic, Sequence, TypeVar

# QueueClosed/ServiceClosed moved to repro.serve.errors (the shared
# failure taxonomy); re-exported here because this module is their
# historical home and callers import them from it.
from repro.analysis.runtime import race_checked
from repro.serve.errors import FleetUnavailable, QueueClosed, ServiceClosed

T = TypeVar("T")

__all__ = [
    "MicroBatcher",
    "QueueClosed",
    "ServiceClosed",
    "Router",
    "RoundRobinRouter",
    "TenantRouter",
    "ROUTING_POLICIES",
    "resolve_router",
    "pick_healthy",
    "attach_cost_feedback",
]


class MicroBatcher(Generic[T]):
    """Bounded request queue with coalescing (batch-at-a-time) pops.

    Parameters
    ----------
    max_batch:
        Largest number of items a single :meth:`take_batch` returns.
    max_wait:
        Seconds :meth:`take_batch` lingers after the first pending item
        for more to coalesce.  ``0.0`` pops whatever is pending
        immediately (pure opportunistic batching).
    max_pending:
        Backpressure bound: :meth:`put` blocks (or, with
        ``block=False``, declines) while this many items are queued.
        ``None`` leaves the queue unbounded (the synchronous front-end
        drains inline, so it cannot grow past ``max_batch`` there).

    Thread safety
    -------------
    Fully thread-safe: every method takes the single internal condition
    variable, so any number of producers (``put``) and consumers
    (``take_batch`` / ``take_batch_nowait``) may run concurrently.
    ``len(batcher)`` is an instantaneous sample, valid the moment it is
    read.
    """

    def __init__(
        self,
        max_batch: int,
        max_wait: float = 0.0,
        max_pending: int | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        if max_pending is not None and max_pending < max_batch:
            raise ValueError(
                f"max_pending ({max_pending}) must be >= max_batch "
                f"({max_batch}) or the queue could never fill a batch"
            )
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.max_pending = max_pending
        # Each entry carries its arrival time so the linger deadline is
        # anchored to the *oldest pending request*, not to whenever the
        # dispatcher got around to looking.
        self._items: deque[tuple[float, T]] = deque()  # guarded-by: _cond
        self._cond = threading.Condition()
        self._closed = False  # guarded-by: _cond

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        # Deliberate lock-free sample: len() of a deque is one atomic
        # word read, and callers treat the depth as instantly stale.
        return len(self._items)  # lint: ignore[lock-discipline] -- atomic depth sample

    @property
    def closed(self) -> bool:
        # Same single-word-read argument as __len__.
        return self._closed  # lint: ignore[lock-discipline] -- atomic flag sample

    def put(self, item: T, block: bool = True) -> int | None:
        """Enqueue one item, blocking while the queue is at capacity.

        Parameters
        ----------
        item:
            The request to enqueue; stamped with its arrival time so the
            linger deadline anchors to the oldest pending item.
        block:
            ``False`` makes a full queue return ``None`` instead of
            waiting for space — the enqueue an event loop can afford to
            make itself.

        Returns
        -------
        int or None
            The queue depth including the new item; ``None`` (nothing
            enqueued) when ``block=False`` found ``max_pending`` items
            queued.

        Raises
        ------
        ServiceClosed
            If the batcher has been closed (including while blocked on
            backpressure).
        """
        with self._cond:
            while (
                not self._closed
                and self.max_pending is not None
                and len(self._items) >= self.max_pending
            ):
                if not block:
                    return None
                self._cond.wait()
            if self._closed:
                raise ServiceClosed("submit on a closed solve service")
            self._items.append((time.monotonic(), item))
            self._cond.notify_all()
            return len(self._items)

    def put_many(self, items: "Sequence[T]") -> int:
        """Enqueue several items under one lock acquisition.

        The bulk twin of :meth:`put` for block ingest (the process
        shard ships requests in blocks): consumers are notified once
        per call instead of once per item, so a dispatcher lingering
        for a batch wakes when the block is in rather than after every
        element.  Blocks for backpressure exactly as :meth:`put` does —
        item by item, so consumers draining the queue unblock the rest
        of the block.

        Parameters
        ----------
        items:
            The requests to enqueue, in order.

        Returns
        -------
        int
            The queue depth including the new items.

        Raises
        ------
        ServiceClosed
            If the batcher is (or becomes) closed.  Items already
            enqueued by then stay queued and will be drained; the
            exception's ``enqueued`` attribute says how many made it,
            so the caller can settle the stragglers' tickets.
        """
        with self._cond:
            enqueued = 0
            for item in items:
                while (
                    not self._closed
                    and self.max_pending is not None
                    and len(self._items) >= self.max_pending
                ):
                    # No notify here: a full queue means items are
                    # present, so no consumer is parked on the empty
                    # wait (and notifying would just ping-pong blocked
                    # producers awake against each other).
                    self._cond.wait()
                if self._closed:
                    if enqueued:
                        self._cond.notify_all()
                    error = ServiceClosed(
                        "submit on a closed solve service"
                    )
                    error.enqueued = enqueued
                    raise error
                self._items.append((time.monotonic(), item))
                enqueued += 1
            self._cond.notify_all()
            return len(self._items)

    def take_batch(self) -> list[T]:
        """Block until a batch is ready and pop up to ``max_batch`` items.

        A batch is ready when ``max_batch`` items are pending, or the
        oldest pending item has waited ``max_wait`` since it was
        enqueued (so time the dispatcher spent solving the previous
        batch counts against the linger), or the batcher is closed
        (drain mode).

        Returns
        -------
        list
            Up to ``max_batch`` items in arrival order; ``[]`` only
            when closed *and* empty — the dispatcher's exit signal.
        """
        with self._cond:
            while not self._items and not self._closed:
                self._cond.wait()
            while (
                self._items
                and len(self._items) < self.max_batch
                and not self._closed
            ):
                # Linger for stragglers: this is the "dynamic" in
                # dynamic micro-batching.  The deadline is the oldest
                # item's arrival + max_wait, the documented per-request
                # latency bound.
                remaining = self._items[0][0] + self.max_wait \
                    - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(timeout=remaining)
            batch = [
                self._items.popleft()[1]
                for _ in range(min(self.max_batch, len(self._items)))
            ]
            if batch:
                # Space freed: wake producers blocked on backpressure.
                self._cond.notify_all()
            return batch

    def take_batch_nowait(self) -> list[T]:
        """Pop up to ``max_batch`` pending items without blocking.

        The synchronous front-end's drain primitive.

        Returns
        -------
        list
            Up to ``max_batch`` items in arrival order; ``[]``
            immediately when nothing is pending.
        """
        with self._cond:
            batch = [
                self._items.popleft()[1]
                for _ in range(min(self.max_batch, len(self._items)))
            ]
            if batch:
                self._cond.notify_all()
            return batch

    def close(self) -> None:
        """Stop accepting new items; pending items remain poppable.

        Producers blocked in :meth:`put` are woken and raise
        :class:`ServiceClosed`; :meth:`take_batch` keeps returning pending
        batches until the queue is drained, then returns ``[]``.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()


# ----------------------------------------------------------------------
# Shard routing policies
# ----------------------------------------------------------------------
class Router:
    """Base class of the shard routing policies.

    A router maps one request onto one of ``replicas`` queues: each
    subclass defines ``pick(key, depths) -> int``, which the sharded
    service calls on every submit with the request's routing key (may
    be ``None``) and the live per-replica queue depths.

    Thread safety
    -------------
    ``pick`` may be called from any number of client threads
    concurrently; subclasses guard their mutable state (the round-robin
    cursor) with a lock.  The ``depths`` argument is a point-in-time
    sample — a router must tolerate it being slightly stale.

    Attributes
    ----------
    uses_depths:
        Whether ``pick`` reads ``depths``.  Policies that don't
        (round-robin, keyed tenant picks) advertise ``False`` so the
        sharded service can skip sampling every replica queue — K lock
        acquisitions — on the hot submit path.  Defaults to ``True``
        (custom routers are assumed to want depths unless they opt
        out).
    """

    #: Conservative default: unknown subclasses get real depths.
    uses_depths: bool = True

    def __init__(self, replicas: int) -> None:
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas


@race_checked
class RoundRobinRouter(Router):
    """Cycle through the replicas in submission order.

    The baseline policy: perfectly even spread, no affinity — a tenant's
    consecutive requests land on different replicas, so they batch with
    strangers rather than with each other.
    """

    uses_depths = False

    _GUARDED_BY = {"_next": "_lock"}

    def __init__(self, replicas: int) -> None:
        super().__init__(replicas)
        self._lock = threading.Lock()
        self._next = 0

    def pick(self, key: object | None, depths: Sequence[int]) -> int:
        """Return the next replica in rotation (keys are ignored)."""
        with self._lock:
            chosen = self._next
            self._next = (chosen + 1) % self.replicas
            return chosen


class TenantRouter(Router):
    """Consistent-hash routing: one tenant's requests share one replica.

    The serving win of sharding comes from *affinity*: requests that
    coalesce well (same tenant, similar tolerances, arriving together)
    should meet in the same replica's queue.  The router hashes the
    request key onto a ring of :attr:`VNODES` virtual points per replica
    (the classic consistent-hashing construction), so

    * the same key always lands on the same replica — its requests
      batch together, and
    * resizing the fleet remaps only ``~1/K`` of the keyspace instead
      of reshuffling every tenant (the ring, not ``hash % K``, is what
      buys this).

    The hash is :func:`hashlib.blake2b` over the key's stable byte
    encoding — deliberately *not* Python's builtin ``hash``, whose
    per-process salting (``PYTHONHASHSEED``) would move every tenant on
    restart.

    Requests submitted *without* a key go round-robin.

    Parameters
    ----------
    replicas:
        Number of replica queues.
    """

    #: Virtual points per replica on the ring; more points smooth the
    #: keyspace split across replicas.
    VNODES: ClassVar[int] = 64
    uses_depths = False

    def __init__(self, replicas: int) -> None:
        super().__init__(replicas)
        ring = [
            (_stable_hash(f"replica-{r}:vnode-{v}"), r)
            for r in range(replicas)
            for v in range(self.VNODES)
        ]
        ring.sort()
        self._points = [point for point, _ in ring]
        self._owners = [owner for _, owner in ring]
        self._keyless = RoundRobinRouter(replicas)

    def pick(self, key: object | None, depths: Sequence[int]) -> int:
        """Return the ring owner of ``key`` (round-robin if ``None``)."""
        if key is None:
            return self._keyless.pick(None, depths)
        idx = bisect.bisect_right(self._points, _stable_hash(key))
        if idx == len(self._points):  # wrap past the last ring point
            idx = 0
        return self._owners[idx]


def _stable_hash(key: object) -> int:
    """A process-stable 64-bit hash of an arbitrary routing key.

    ``bytes`` keys hash as-is, ``str`` by UTF-8 encoding, everything
    else through ``repr`` (stable for ints, tuples of ints/strs, and
    the usual tenant-id shapes).
    """
    if isinstance(key, bytes):
        raw = key
    elif isinstance(key, str):
        raw = key.encode("utf-8")
    else:
        raw = repr(key).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(raw, digest_size=8).digest(), "big")


#: Routing policy names accepted by the sharded service.
ROUTING_POLICIES: tuple[str, ...] = (
    "tenant", "round-robin", "cost",
)


def resolve_router(
    policy: "str | Router", replicas: int
) -> Router:
    """Turn a policy name (or a ready :class:`Router`) into a router.

    Parameters
    ----------
    policy:
        ``"tenant"``, ``"round-robin"``, ``"cost"``
        (predicted-work placement —
        :class:`~repro.serve.costmodel.CostAwareRouter` over a private
        :class:`~repro.serve.costmodel.CostModel`; construct the router
        yourself to share a model with a gateway), or an
        already-constructed :class:`Router` (which must be sized for
        ``replicas``).
    replicas:
        Number of replica queues the router will address.

    Returns
    -------
    Router
        The routing policy instance.

    Raises
    ------
    ValueError
        For an unknown policy name or a :class:`Router` instance sized
        for a different replica count.
    """
    if isinstance(policy, Router):
        if policy.replicas != replicas:
            raise ValueError(
                f"router is sized for {policy.replicas} replicas, "
                f"service has {replicas}"
            )
        return policy
    if policy == "tenant":
        return TenantRouter(replicas)
    if policy == "round-robin":
        return RoundRobinRouter(replicas)
    if policy == "cost":
        # Local import: costmodel imports Router from this module.
        from repro.serve.costmodel import CostAwareRouter

        return CostAwareRouter(replicas)
    raise ValueError(
        f"unknown routing policy {policy!r}; expected one of "
        f"{ROUTING_POLICIES} or a Router instance"
    )


def attach_cost_feedback(
    router: Router,
    ticket,
    chosen: int,
    key: object | None,
    tol: float | None,
    precision: str | None,
) -> None:
    """Wire one admitted request into the router's cost-feedback loop.

    The process fleet calls this as a routed request is first
    registered with a worker.
    Routers that implement the duck-typed cost protocol
    (``begin_request``/``finish_request`` — see
    :class:`~repro.serve.costmodel.CostAwareRouter`) get the request's
    predicted cost charged against ``chosen`` immediately, and a
    done-callback on the ticket releases exactly that charge when the
    solve completes — feeding the actual iteration count back into the
    model when there is one (failed or cancelled tickets teach it
    nothing).  Every pre-existing router lacks the protocol and is
    skipped at the cost of one ``getattr``.

    A request the process shard retries onto a *different* worker keeps
    its charge on the original pick — the ledger is a routing signal,
    not an audit, and crash retries are rare enough that a briefly
    misattributed in-flight cost is noise the next completions wash
    out.
    """
    begin = getattr(router, "begin_request", None)
    if begin is None:
        return
    cost = begin(chosen, key, tol, precision)
    finish = router.finish_request

    def _release(done) -> None:
        iterations = None
        if not done.cancelled():
            error = done.exception()  # non-blocking: ticket is done
            if error is None:
                iterations = getattr(
                    done.result(), "iterations", None
                )
        finish(chosen, cost, key, tol, precision, iterations)

    ticket.add_done_callback(_release)


def pick_healthy(
    router: Router,
    key: object | None,
    depths: Sequence[int],
    healthy: Sequence[bool] | None = None,
) -> tuple[int, bool]:
    """One routed pick, health-gated.

    The routing step of
    :class:`~repro.serve.procshard.ProcessShardedSolveService`: ask
    ``router`` for a worker; when it is not healthy, steer to the
    shallowest healthy queue (ties break low).

    Parameters
    ----------
    router:
        The policy router (sized for ``len(depths)`` targets).
    key:
        The request's routing key (may be ``None``).
    depths:
        Per-target depth sample the decision should see.
    healthy:
        Optional per-target admission mask (``True`` = routable).
        ``None`` means every target is routable, with no masking
        overhead.

    Returns
    -------
    (int, bool)
        The final target index, and whether health gating moved it off
        an unhealthy target (the caller's health-diversion accounting).

    Raises
    ------
    ValueError
        If the router returns an out-of-range index — a buggy custom
        policy must fail loudly, not silently wrap onto the last
        target.
    FleetUnavailable
        If ``healthy`` is all-``False``: there is no target at all.
    """
    replicas = router.replicas
    all_healthy = healthy is None or all(healthy)
    if not all_healthy and not any(healthy):
        raise FleetUnavailable(
            "no healthy worker to route to (all "
            f"{len(healthy)} workers are out of rotation)"
        )
    chosen = router.pick(key, depths)
    if not 0 <= chosen < replicas:
        raise ValueError(
            f"router {type(router).__name__} picked worker "
            f"{chosen}, expected 0..{replicas - 1}"
        )
    if all_healthy or healthy[chosen]:
        return chosen, False
    shallowest = min(
        (i for i in range(replicas) if healthy[i]),
        key=depths.__getitem__,
    )
    return shallowest, True
