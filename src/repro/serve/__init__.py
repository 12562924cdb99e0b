"""Micro-batched solve serving on top of the batched CG primitive.

The serving layer the ROADMAP's "heavy traffic" north star calls for,
in three tiers:

* :class:`SolveService` — one warm queue: accepts independent
  single-RHS solve requests (from scripts via
  :meth:`SolveService.solve_many`, or from concurrent client threads
  via :meth:`SolveService.submit` with a background dispatcher) and
  dynamically coalesces them — up to ``max_batch`` requests, waiting at
  most ``max_wait`` — into warm
  :func:`~repro.sem.cg.cg_solve_batched` dispatches through the
  problem's cache of batched workspaces, one solve at a time.
* :class:`ProcessShardedSolveService` — K worker *processes*
  (:mod:`repro.serve.replica`: one worker slot, both ends of its wire
  protocol) behind a pluggable router: ``tenant`` (consistent hashing —
  a tenant's requests batch together), ``round-robin`` or ``cost``,
  with health-gated picks and aggregate fleet stats.  Each worker
  rebuilds the problem from a picklable spec with the big immutable
  arrays attached zero-copy from shared memory (one physical copy of
  the geometry across the fleet) and runs its own
  ``SolveService`` under its own GIL — which is why it scales where
  in-process replicas do not (``docs/serving.md`` has the table).
* :class:`AsyncSolveService` — an asyncio facade over either: ``await
  svc.solve(b)`` suspends the coroutine until the dispatcher resolves
  the ticket (``loop.call_soon_threadsafe``, no busy-waiting).

Per-request results are bit-identical to sequential warm
:func:`~repro.sem.cg.cg_solve` calls at every tier; batching, sharding
and async delivery are purely throughput decisions.

The process tier is **self-healing**: a supervisor respawns crashed
workers under a :class:`RestartPolicy` (exponential backoff + a
``max_restarts`` circuit breaker), crash-orphaned requests are
transparently retried on healthy workers under a :class:`RetryPolicy`
(solves are pure, so retries are bit-identical), routing is gated on a
:class:`FleetHealth` registry, and requests may carry ``deadline``
budgets.  Failures surface through one error taxonomy
(:mod:`repro.serve.errors`): :class:`ServiceClosed`,
:class:`DeadlineExceeded`, :class:`FleetUnavailable` (a
:class:`WorkerCrashed` is only ever its ``__cause__``, never itself a
client-visible outcome); the gateway adds retryable
:class:`Overloaded`.
Deterministic fault injection for tests and drills lives in
:mod:`repro.serve.chaos` (:class:`FaultPlan` / :class:`FaultInjector`).

On top of the fleet sits the **multi-tenant gateway**
(:mod:`repro.serve.gateway`): :class:`Gateway` is the
protocol-independent admission core — bearer-token auth
(:class:`TenantRegistry`), per-tenant :class:`TokenBucket` rate limits,
priority-aware shedding (:class:`AdmissionPolicy`, the stack's one
shed point), exact
:class:`QuotaLedger` accounting, gateway-side deadline enforcement, and
a :class:`CostModel` that learns expected iterations per ``(tenant,
tol, precision)`` from completed solves; share that model with a
:class:`CostAwareRouter` (``policy="cost"``) and the fleet routes by
*predicted work* instead of queue depth.  :class:`GatewayServer` puts a
dependency-free HTTP/1.1 + WebSocket wire protocol in front of it.

Quick taste::

    from repro.sem import BoxMesh, PoissonProblem, ReferenceElement
    from repro.serve import ProcessShardedSolveService

    problem = PoissonProblem(mesh)
    with ProcessShardedSolveService(problem, workers=2) as svc:
        tickets = [svc.submit(b, key=tenant) for tenant, b in stream]
        results = [t.result() for t in tickets]
        print(svc.stats.solves_per_second, svc.queue_depths)

See ``docs/serving.md`` for the full tour (single solve -> warm
workspace -> batched -> service -> process fleet -> async/gateway).
"""

from repro.serve.asyncio_front import AsyncSolveService
from repro.serve.auth import (
    QuotaLedger,
    Tenant,
    TenantRegistry,
    TokenBucket,
)
from repro.serve.chaos import FaultInjector, FaultPlan
from repro.serve.costmodel import CostAwareRouter, CostModel
from repro.serve.errors import (
    AuthError,
    DeadlineExceeded,
    FleetUnavailable,
    Overloaded,
    QuotaExceeded,
    RateLimited,
    ServiceClosed,
    WorkerCrashed,
)
from repro.serve.gateway import Gateway, GatewayServer
from repro.serve.health import (
    AdmissionPolicy,
    FleetHealth,
    HealthState,
    RestartPolicy,
    RetryPolicy,
)
from repro.serve.procshard import ProcessShardedSolveService
from repro.serve.scheduler import (
    MicroBatcher,
    QueueClosed,
    RoundRobinRouter,
    Router,
    TenantRouter,
    attach_cost_feedback,
    resolve_router,
)
from repro.serve.service import SolveService, SolveTicket
from repro.serve.stats import (
    ServiceStats,
    StatsSnapshot,
    merge_snapshots,
    perf_epoch_offset,
)

__all__ = [
    "SolveService",
    "ProcessShardedSolveService",
    "AsyncSolveService",
    "SolveTicket",
    "MicroBatcher",
    # Error taxonomy (repro.serve.errors)
    "ServiceClosed",
    "QueueClosed",
    "WorkerCrashed",
    "DeadlineExceeded",
    "FleetUnavailable",
    "Overloaded",
    "RateLimited",
    "QuotaExceeded",
    "AuthError",
    # Resilience (repro.serve.health / repro.serve.chaos)
    "FleetHealth",
    "HealthState",
    "RetryPolicy",
    "RestartPolicy",
    "AdmissionPolicy",
    "FaultPlan",
    "FaultInjector",
    # Gateway tier (repro.serve.gateway / auth / costmodel)
    "Gateway",
    "GatewayServer",
    "Tenant",
    "TenantRegistry",
    "TokenBucket",
    "QuotaLedger",
    "CostModel",
    "CostAwareRouter",
    "Router",
    "TenantRouter",
    "RoundRobinRouter",
    "resolve_router",
    "attach_cost_feedback",
    "ServiceStats",
    "StatsSnapshot",
    "merge_snapshots",
    "perf_epoch_offset",
]
