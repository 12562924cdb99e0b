"""Service-side counters for the micro-batching solve service.

The paper's serving story is throughput: how many solves per second the
device sustains when the host keeps its pipeline full.  The stats here
make that observable on the CPU substrate — every
:class:`~repro.serve.service.SolveService` owns a :class:`ServiceStats`
accumulator and exposes immutable :class:`StatsSnapshot` views of it
(queue depth, the batch-size histogram that shows how well coalescing is
working, and solves per second).  Sharded services
(:class:`~repro.serve.procshard.ProcessShardedSolveService`) aggregate
one snapshot per worker into a fleet view with :func:`merge_snapshots`.

Thread safety
-------------
Every mutator and :meth:`ServiceStats.snapshot` take the accumulator's
internal lock, so a snapshot is always a *consistent* cut: the batch
histogram always sums to ``completed + failed``, never to a value read
mid-update.  The live queue depth is sampled through
:attr:`ServiceStats.depth_fn` inside that same critical section — the
depth reported by a snapshot is the queue's length at snapshot time,
not a stale value recorded by whichever dispatcher thread last touched
the counters.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable


def perf_epoch_offset() -> float:
    """This process's ``time.time() - time.perf_counter()`` right now.

    ``time.perf_counter()`` has an arbitrary per-process epoch — stamps
    taken in two processes are not comparable, so a fleet window
    computed across raw cross-process stamps is meaningless.  This
    offset maps a process's ``perf_counter`` stamps onto the shared
    wall clock: ship it alongside a snapshot and the receiver rebases
    with :meth:`StatsSnapshot.rebased`, ``delta = sender_offset -
    perf_epoch_offset()`` — after which the sender's stamps read as if
    taken on the receiver's own ``perf_counter``.

    The mapping is as accurate as the two wall clocks agree (exact on
    one host, which is the process-shard's deployment unit).
    """
    # The one sanctioned wall-clock read in serve/: this *is* the rebase
    # helper the rule points everyone else at.
    return time.time() - time.perf_counter()  # lint: ignore[wall-clock] -- epoch rebase helper itself


@dataclass(frozen=True)
class StatsSnapshot:
    """Immutable view of a service's counters at one instant.

    Attributes
    ----------
    submitted / completed / failed:
        Request counts.  ``failed`` counts requests whose batch raised
        (e.g. a CG breakdown); their tickets re-raise the error.
    batches:
        Number of stacked ``cg_solve_batched`` dispatches executed.
    batch_histogram:
        ``{batch_size: count}`` — the coalescing fingerprint.  All mass
        at 1 means micro-batching never kicked in; mass at ``max_batch``
        means the pipeline stayed full.
    queue_depth / max_queue_depth:
        Pending requests at snapshot time / high-water mark.
    busy_seconds:
        Total wall time spent inside batched solves.
    wall_seconds:
        Wall time from the first submission to the latest completion.
    first_submit / last_done:
        ``time.perf_counter()`` stamps of the first submission and the
        latest completion (``None`` before any traffic).
        :func:`merge_snapshots` uses them to compute the true fleet
        activity window even when replicas were busy at disjoint times.
        ``perf_counter``'s epoch is only comparable *within one
        process* — before merging snapshots that crossed a process
        boundary, rebase them onto the receiving process's clock with
        :meth:`rebased` + :func:`perf_epoch_offset` (the process-level
        shard does this at snapshot-transfer time).
    expired / retries / restarts:
        Resilience counters.  ``expired`` — requests whose deadline
        tripped before a solve started (they are neither completed nor
        failed: ``completed + failed + expired <= submitted``).
        ``retries`` — crash-lost requests transparently resubmitted.
        ``restarts`` — dead workers respawned into their slot.
    copy_bytes:
        Request-payload bytes copied through a serialization/transport
        hop on their way to a solver (pickled rhs vectors crossing a
        pipe, staging snapshots taken because the transport cannot hold
        a view).  The zero-copy audit counter — any hop that copies a
        payload must report it here: the process shard's shared-memory
        rings add **zero** — clients write straight into ring slots
        and workers solve views of them.  Solve-side
        work (batch assembly stacking, the worker's in-place write of
        ``x`` back into its slot) is not transport and is not counted.
    tenant_iterations:
        Per-tenant solve-cost history:
        ``{(tenant, tol, precision): (count, iterations_sum)}``.  The
        raw material of cost-predicted scheduling — a
        :class:`~repro.serve.costmodel.CostModel` predicts from the same
        observations.  Recorded by whichever layer knows the tenant
        (the gateway; plain services never learn tenant identities), so
        most service-level snapshots carry an empty mapping.
    """

    submitted: int
    completed: int
    failed: int
    batches: int
    batch_histogram: dict[int, int]
    queue_depth: int
    max_queue_depth: int
    busy_seconds: float
    wall_seconds: float
    first_submit: float | None = None
    last_done: float | None = None
    expired: int = 0
    retries: int = 0
    restarts: int = 0
    copy_bytes: int = 0
    tenant_iterations: dict[tuple, tuple[int, float]] = field(
        default_factory=dict
    )

    @property
    def solves_per_second(self) -> float:
        """Completed requests per wall-clock second (first submit to
        latest completion); ``0.0`` before anything completes."""
        if self.completed == 0 or self.wall_seconds <= 0:
            return 0.0
        return self.completed / self.wall_seconds

    @property
    def mean_batch_size(self) -> float:
        """Average number of requests coalesced per dispatch."""
        if self.batches == 0:
            return 0.0
        return (self.completed + self.failed) / self.batches

    def rebased(self, delta: float) -> "StatsSnapshot":
        """This snapshot with its clock stamps shifted by ``delta``.

        The cross-process fix-up for :attr:`first_submit` /
        :attr:`last_done`: ``perf_counter`` epochs differ per process,
        so a receiver merges foreign snapshots only after shifting
        their stamps onto its own clock, ``delta = sender's
        perf_epoch_offset() - receiver's perf_epoch_offset()``.
        Durations (``wall_seconds``, ``busy_seconds``) are epoch-free
        and unchanged; ``None`` stamps stay ``None``.
        """
        if delta == 0.0 or (
            self.first_submit is None and self.last_done is None
        ):
            return self
        return replace(
            self,
            first_submit=(
                None if self.first_submit is None
                else self.first_submit + delta
            ),
            last_done=(
                None if self.last_done is None else self.last_done + delta
            ),
        )


def merge_snapshots(snapshots: Iterable[StatsSnapshot]) -> StatsSnapshot:
    """Aggregate per-replica snapshots into one fleet-level snapshot.

    Counters and busy time sum across replicas, the batch histograms
    merge, queue depth sums (total requests pending anywhere), the
    high-water mark takes the per-replica maximum, and ``wall_seconds``
    spans the true fleet activity window — earliest ``first_submit`` to
    latest ``last_done`` across replicas — so replicas busy at
    *disjoint* times are not double-credited (falling back to the
    longest per-replica wall for snapshots without stamps).
    Consequently ``solves_per_second`` of the merged snapshot reads as
    aggregate fleet throughput.

    Parameters
    ----------
    snapshots:
        Any iterable of :class:`StatsSnapshot` (typically one per
        replica, each internally consistent).  An empty iterable yields
        an all-zero snapshot.

    Returns
    -------
    StatsSnapshot
        The aggregate view.  Note that the *set* of snapshots is not
        atomic across replicas — each replica's cut is consistent, but
        replica A's may be microseconds older than replica B's.
    """
    submitted = completed = failed = batches = 0
    expired = retries = restarts = copy_bytes = 0
    histogram: dict[int, int] = {}
    tenants: dict[tuple, tuple[int, float]] = {}
    queue_depth = max_queue_depth = 0
    busy = wall = 0.0
    firsts: list[float] = []
    lasts: list[float] = []
    for snap in snapshots:
        submitted += snap.submitted
        completed += snap.completed
        failed += snap.failed
        batches += snap.batches
        expired += snap.expired
        retries += snap.retries
        restarts += snap.restarts
        copy_bytes += snap.copy_bytes
        for size, count in snap.batch_histogram.items():
            histogram[size] = histogram.get(size, 0) + count
        for key, (count, total) in snap.tenant_iterations.items():
            have = tenants.get(key, (0, 0.0))
            tenants[key] = (have[0] + count, have[1] + total)
        queue_depth += snap.queue_depth
        max_queue_depth = max(max_queue_depth, snap.max_queue_depth)
        busy += snap.busy_seconds
        wall = max(wall, snap.wall_seconds)
        if snap.first_submit is not None:
            firsts.append(snap.first_submit)
        if snap.last_done is not None:
            lasts.append(snap.last_done)
    if firsts and lasts:
        # The true fleet window: replicas active at disjoint times must
        # not inflate solves/s (max-of-walls would credit 200 solves
        # spread over 6 s as if they fit in the busiest 1 s window).
        wall = max(wall, max(lasts) - min(firsts))
    first_submit = min(firsts) if firsts else None
    last_done = max(lasts) if lasts else None
    # Per-replica high-water marks don't sum (they peaked at different
    # times), but the fleet mark must at least cover what is pending
    # right now, or the merged snapshot would contradict itself
    # (queue_depth > max_queue_depth).
    max_queue_depth = max(max_queue_depth, queue_depth)
    return StatsSnapshot(
        submitted=submitted,
        completed=completed,
        failed=failed,
        batches=batches,
        batch_histogram=histogram,
        queue_depth=queue_depth,
        max_queue_depth=max_queue_depth,
        busy_seconds=busy,
        wall_seconds=wall,
        first_submit=first_submit,
        last_done=last_done,
        expired=expired,
        retries=retries,
        restarts=restarts,
        copy_bytes=copy_bytes,
        tenant_iterations=tenants,
    )


@dataclass
class ServiceStats:
    """Thread-safe accumulator behind :class:`StatsSnapshot`.

    Parameters
    ----------
    depth_fn:
        Optional zero-argument callable returning the *live* pending
        count (e.g. ``lambda: len(batcher)``).  When set, snapshots
        report the queue depth sampled inside the stats lock at snapshot
        time; without it they fall back to the depth recorded by the
        last mutator — which can be stale when many threads interleave
        ``submit`` and batch completion (two threads may record depths
        in the opposite order they were observed).

    Thread safety
    -------------
    All mutators take the internal lock; :meth:`snapshot` returns a
    consistent frozen copy (histogram mass always equals
    ``completed + failed``).  Submissions may come from any client
    thread, completions from the dispatcher (or a flushing client).
    """

    depth_fn: Callable[[], int] | None = None

    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _submitted: int = 0  # guarded-by: _lock
    _completed: int = 0  # guarded-by: _lock
    _failed: int = 0  # guarded-by: _lock
    _batches: int = 0  # guarded-by: _lock
    _histogram: dict[int, int] = field(default_factory=dict, repr=False)  # guarded-by: _lock
    _queue_depth: int = 0  # guarded-by: _lock
    _max_queue_depth: int = 0  # guarded-by: _lock
    _busy_seconds: float = 0.0  # guarded-by: _lock
    _first_submit: float | None = None  # guarded-by: _lock
    _last_done: float | None = None  # guarded-by: _lock
    _expired: int = 0  # guarded-by: _lock
    _copy_bytes: int = 0  # guarded-by: _lock
    _tenant_hist: dict[tuple, tuple[int, float]] = field(  # guarded-by: _lock
        default_factory=dict, repr=False
    )

    def record_submit(self, queue_depth: int | None = None) -> None:
        """One request is being submitted.

        Call *before* the request is enqueued: counting first guarantees
        no snapshot ever shows ``completed + failed > submitted``, which
        could otherwise happen if a fast dispatcher solved the request
        between its enqueue and its accounting.  Follow up with
        :meth:`record_depth` once the enqueue reports the depth (or pass
        ``queue_depth`` directly when the depth is already known), and
        roll back with :meth:`record_rejected` if the enqueue raises.

        Parameters
        ----------
        queue_depth:
            Optional queue depth including the request; feeds the
            high-water mark (and the fallback depth when no
            :attr:`depth_fn` is configured).
        """
        with self._lock:
            self._submitted += 1
            if queue_depth is not None:
                self._queue_depth = queue_depth
                self._max_queue_depth = max(
                    self._max_queue_depth, queue_depth
                )
            if self._first_submit is None:
                self._first_submit = time.perf_counter()

    def record_depth(self, queue_depth: int) -> None:
        """Feed one observed queue depth into the high-water mark."""
        with self._lock:
            self._queue_depth = queue_depth
            self._max_queue_depth = max(self._max_queue_depth, queue_depth)

    # census: failure path: rolls back a submission whose enqueue failed
    def record_rejected(self) -> None:
        """Roll back one :meth:`record_submit` whose enqueue failed
        (e.g. the queue was closed while the producer blocked).

        If the rejected request was the only traffic ever seen, the
        wall-clock anchor is reset too — otherwise a phantom first
        submission would stretch ``wall_seconds`` (and deflate
        ``solves_per_second``) for the accumulator's lifetime.
        """
        with self._lock:
            self._submitted -= 1
            if self._submitted == 0 and self._batches == 0:
                self._first_submit = None

    # census: failure path: requests whose deadline tripped before a solve
    def record_expired(self, count: int = 1) -> None:
        """``count`` requests' deadlines tripped before a solve started.

        Expired requests never reach a batched dispatch, so they stay
        out of the batch histogram and do not touch ``last_done`` (no
        solve happened); they keep ``completed + failed + expired <=
        submitted`` balanced instead of leaking "submitted but never
        resolved" ghosts.
        """
        with self._lock:
            self._expired += count

    def record_tenant(
        self,
        tenant: object | None,
        tol: float | None,
        precision: str | None,
        iterations: float,
    ) -> None:
        """One tenant-attributed solve completed in ``iterations``.

        Accumulates the per-key ``(count, iterations_sum)`` history
        behind :attr:`StatsSnapshot.tenant_iterations`.  Called by the
        layer that knows the tenant (the gateway's completion hook) —
        the batching services themselves never see tenant identities.
        """
        with self._lock:
            key = (tenant, tol, precision)
            count, total = self._tenant_hist.get(key, (0, 0.0))
            self._tenant_hist[key] = (
                count + 1, total + float(iterations)
            )

    # census: fault detection: the zero-copy audit counter
    def record_copy_bytes(self, nbytes: int) -> None:
        """``nbytes`` of request payload crossed a copying transport hop
        (see :attr:`StatsSnapshot.copy_bytes`).  Zero-copy paths simply
        never call this."""
        with self._lock:
            self._copy_bytes += nbytes

    def record_batch(
        self,
        size: int,
        seconds: float,
        queue_depth: int,
        failed: bool = False,
    ) -> None:
        """One stacked dispatch of ``size`` requests finished.

        Parameters
        ----------
        size:
            Number of requests in the dispatched batch.
        seconds:
            Wall time the batched solve took.
        queue_depth:
            Pending count observed after the batch was popped (fallback
            depth when no :attr:`depth_fn` is configured).
        failed:
            True when the batch raised — its ``size`` requests count as
            failed instead of completed.
        """
        with self._lock:
            self._batches += 1
            self._histogram[size] = self._histogram.get(size, 0) + 1
            self._busy_seconds += seconds
            self._queue_depth = queue_depth
            if failed:
                self._failed += size
            else:
                self._completed += size
            self._last_done = time.perf_counter()

    def snapshot(self) -> StatsSnapshot:
        """A consistent frozen copy of every counter.

        Returns
        -------
        StatsSnapshot
            All counters cut under one lock acquisition; the queue depth
            is the live :attr:`depth_fn` sample (taken inside the same
            critical section) when one is configured.
        """
        with self._lock:
            if self._first_submit is None or self._last_done is None:
                wall = 0.0
            else:
                wall = max(0.0, self._last_done - self._first_submit)
            depth = (
                int(self.depth_fn())
                if self.depth_fn is not None
                else self._queue_depth
            )
            # Persist a live sample that tops the recorded high-water
            # mark, so the mark never shrinks between successive
            # snapshots (it is a monotone peak, not a rolling view).
            self._max_queue_depth = max(self._max_queue_depth, depth)
            return StatsSnapshot(
                submitted=self._submitted,
                completed=self._completed,
                failed=self._failed,
                batches=self._batches,
                batch_histogram=dict(self._histogram),
                queue_depth=depth,
                max_queue_depth=self._max_queue_depth,
                busy_seconds=self._busy_seconds,
                wall_seconds=wall,
                first_submit=self._first_submit,
                last_done=self._last_done,
                expired=self._expired,
                copy_bytes=self._copy_bytes,
                tenant_iterations=dict(self._tenant_hist),
            )
