"""The routing/admission front the thread and process fleets share.

:class:`~repro.serve.shard.ShardedSolveService` and
:class:`~repro.serve.procshard.ProcessShardedSolveService` differ in
*how a routed request reaches a replica* (a call into an in-process
:class:`~repro.serve.service.SolveService` vs a shared-memory ring slot
plus a doorbell down a pipe, under supervision) — not in how it is
admitted and routed.  :class:`FleetFront` is that common half, written
once.  A subclass provides ``submit`` (taking the private ``_block``
that :meth:`FleetFront.try_submit` passes), ``queue_depths``,
``replica_stats`` (one :class:`~repro.serve.stats.StatsSnapshot` per
live target) and ``close``, and calls :meth:`FleetFront._admit` /
:meth:`FleetFront._count` around its own hand-over.  Retry and respawn
stay in the process tier: a retry lands on a *different* worker, so
they are fleet decisions of that tier, not properties of a replica.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import replace
from typing import Callable, Sequence

from repro.serve.errors import Overloaded
from repro.serve.health import FleetHealth
from repro.serve.scheduler import (
    Router,
    pick_with_diversion,
    resolve_router,
)
from repro.serve.service import SolveTicket, _WouldBlock
from repro.serve.stats import StatsSnapshot, merge_snapshots

#: Signature of the overload hook: ``(chosen_replica, depths) -> index
#: to divert to, or None to fall back to the least-loaded replica``.
OverloadHook = Callable[[int, tuple[int, ...]], "int | None"]

#: Sentinel for "defer to SolveService's own default", so the replica
#: services' knobs have exactly one source of defaults (the
#: :class:`~repro.serve.service.SolveService` dataclass) and the two
#: fleet constructors can never drift apart.
_UNSET: object = object()


class FleetFront:
    """Admission, routing and accounting for a fleet of ``size``
    targets: watermark validation, the policy router and its
    least-loaded fallback, the :class:`~repro.serve.health.FleetHealth`
    registry, the shed gate, the routing counters and the stats fold.

    ``policy`` / ``queue_watermark`` / ``on_overload`` /
    ``shed_watermark`` are as documented on the two services; ``knobs``
    are the replica :class:`~repro.serve.service.SolveService` knobs, of
    which only the explicitly-set ones are kept (``_forwarded``), so
    omitted ones fall through to ``SolveService``'s own defaults.
    """

    #: How this tier names a routing target in refusals.
    _noun = "replica"

    def __init__(
        self,
        size: int,
        policy: "str | Router",
        queue_watermark: int | None,
        on_overload: OverloadHook | None,
        shed_watermark: int | None,
        **knobs: object,
    ) -> None:
        if queue_watermark is not None and queue_watermark < 1:
            raise ValueError(
                f"queue_watermark must be >= 1, got {queue_watermark}"
            )
        if shed_watermark is not None:
            if shed_watermark < 1:
                raise ValueError(
                    f"shed_watermark must be >= 1, got {shed_watermark}"
                )
            if (
                queue_watermark is not None
                and shed_watermark < queue_watermark
            ):
                raise ValueError(
                    f"shed_watermark ({shed_watermark}) must be >= "
                    f"queue_watermark ({queue_watermark}): diversion "
                    "rebalances below the shed point"
                )
        self.policy = (
            policy if isinstance(policy, str) else type(policy).__name__
        )
        self.queue_watermark = queue_watermark
        self.on_overload = on_overload
        self.shed_watermark = shed_watermark
        self.health = FleetHealth(size)
        self._router = resolve_router(policy, size)
        self._least_loaded = resolve_router("least-loaded", size)
        self._forwarded = {
            name: value for name, value in knobs.items()
            if value is not _UNSET
        }
        self._lock = threading.Lock()
        self._routed = [0] * size  # guarded-by: _lock
        self._rebalanced = 0  # guarded-by: _lock
        self._health_diverted = 0  # guarded-by: _lock
        self._shed = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock

    # ------------------------------------------------------------------
    # The one admission/routing step
    # ------------------------------------------------------------------
    def _admit(
        self,
        key: object | None,
        planned: Sequence[int] | None = None,
        shed: bool = True,
    ) -> tuple[int, bool, bool]:
        """Admit and route one request: health mask → depth sample →
        shed gate → :func:`~repro.serve.scheduler.pick_with_diversion`.

        ``planned`` counts, per target, requests the caller has routed
        but not yet handed over (a block being planned); they are added
        to the live depths so the decision sees what per-request
        submission would have accumulated.  ``shed=False`` skips the
        gate for the later requests of a block admitted whole on its
        first.  Returns ``(target, rebalanced, health_diverted)`` for
        the caller to book with :meth:`_count` once its hand-over
        decides they count.  Raises
        :class:`~repro.serve.errors.Overloaded` (counted in
        :attr:`shed`) when every healthy target's depth has reached
        ``shed_watermark``, :class:`~repro.serve.errors.FleetUnavailable`
        when no target is in rotation.
        """
        mask = self.health.mask()
        healthy = None if all(mask) else mask
        # Sampling depths takes every replica's queue lock; skip it on
        # the hot path when neither the policy, a watermark, admission
        # control nor health steering reads it.
        if (
            self._router.uses_depths
            or self.queue_watermark is not None
            or self.shed_watermark is not None
            or healthy is not None
        ):
            depths = self.queue_depths
            if planned is not None:
                depths = tuple(map(operator.add, depths, planned))
        else:
            depths = (0,) * len(mask)
        if shed and self.shed_watermark is not None:
            admitting = [d for d, ok in zip(depths, mask) if ok]
            if admitting and min(admitting) >= self.shed_watermark:
                with self._lock:
                    self._shed += 1
                raise Overloaded(
                    f"every healthy {self._noun}'s queue is at the shed "
                    f"watermark ({self.shed_watermark}); retry after "
                    "backoff"
                )
        return pick_with_diversion(
            self._router, self._least_loaded, key, depths,
            self.queue_watermark, self.on_overload, noun=self._noun,
            healthy=healthy,
        )

    def _count(
        self,
        target: int,
        routed: int = 1,
        rebalanced: bool = False,
        health_diverted: bool = False,
    ) -> None:
        """Book ``routed`` requests handed to ``target`` and the
        diversions that steered them there."""
        with self._lock:
            self._routed[target] += routed
            self._rebalanced += rebalanced
            self._health_diverted += health_diverted

    def try_submit(self, b, **knobs) -> SolveTicket | None:
        """:meth:`submit` that never waits for room: ``None`` where it
        would park — the routed replica's queue at ``max_pending``
        (thread fleet; see :meth:`SolveService.try_submit
        <repro.serve.service.SolveService.try_submit>`) or the routed
        worker's ring full (process fleet).  The request is routed as
        usual, a refused attempt is counted nowhere, and shed, closed
        and unavailable fleets still raise."""
        try:
            # Through self.submit, not around it: a wrapper put on
            # ``submit`` must see every request.
            return self.submit(b, **knobs, _block=False)
        except _WouldBlock:
            return None

    @staticmethod
    def _check_keys(keys: Sequence[object] | None, bs) -> None:
        """``solve_many``'s per-request routing keys must match ``bs``."""
        if keys is not None and len(keys) != len(bs):
            raise ValueError(
                f"keys length {len(keys)} != number of requests {len(bs)}"
            )

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
        """Requests handed to each target (diversions land on the
        target they were diverted *to*; in the process tier a retry
        counts again on the worker that served the redispatch)."""
        with self._lock:
            return tuple(self._routed)

    @property
    def rebalanced(self) -> int:
        """Requests diverted off their routed target by the watermark."""
        with self._lock:
            return self._rebalanced

    @property
    def health_diverted(self) -> int:
        """Requests steered off an out-of-rotation target by health
        gating (distinct from watermark :attr:`rebalanced`)."""
        with self._lock:
            return self._health_diverted

    @property
    def shed(self) -> int:
        """Requests refused at admission with
        :class:`~repro.serve.errors.Overloaded`."""
        with self._lock:
            return self._shed

    def _fleet_counters(self) -> dict[str, int]:  # requires-lock: _lock
        """Fleet-level :class:`~repro.serve.stats.StatsSnapshot`
        counters: outcomes decided here, which no replica saw."""
        return {"shed": self._shed}

    @property
    def stats(self) -> StatsSnapshot:
        """Aggregate fleet snapshot (see
        :func:`~repro.serve.stats.merge_snapshots`): the live targets'
        counters sum, ``wall_seconds`` spans the earliest submission to
        the latest completion across them, so ``solves_per_second``
        reads as fleet throughput — plus the fleet's own counters
        (``shed``; the process tier adds ``retries`` / ``restarts`` and
        parent-side ``expired``), added to whatever the targets
        reported."""
        merged = merge_snapshots(self.replica_stats)
        with self._lock:
            extra = self._fleet_counters()
        if any(extra.values()):
            merged = replace(merged, **{
                name: getattr(merged, name) + count
                for name, count in extra.items()
            })
        return merged
