"""The serving stack's failure vocabulary — one taxonomy, three fronts.

Every serving tier (:class:`~repro.serve.service.SolveService`, the
process fleet, the asyncio facade and the gateway) surfaces the
same small set of errors, so a client written against one front handles
failures from all of them:

=====================  ==========  =========================================
error                  retryable?  meaning
=====================  ==========  =========================================
:class:`ServiceClosed` no          submit after :meth:`close` — the service
                                   is gone, not busy.
:class:`Overloaded`    yes         the gateway's admission policy shed the
                                   request: capacity cannot absorb it right
                                   now.  Back off and resubmit.
:class:`DeadlineExceeded` no       the request's own deadline expired before
                                   it could be solved (queued too long, or
                                   lost to a crash with no time to retry).
:class:`FleetUnavailable` yes      no healthy worker could take the request
                                   and the retry policy is exhausted (or
                                   every worker is ejected).
:class:`WorkerCrashed` --          a worker process died.  A cause, never a
                                   client-visible outcome: lost requests
                                   are transparently resubmitted, and it
                                   surfaces only as the ``__cause__`` of a
                                   :class:`FleetUnavailable`.
=====================  ==========  =========================================

"Retryable" means the condition is expected to clear (capacity returns,
a worker respawns); the terminal errors mean the request's own budget —
its deadline or the retry policy — ran out.

The multi-tenant gateway (:mod:`repro.serve.gateway`) adds three
tenancy errors on top: :class:`AuthError` (bad/missing token — HTTP
401), :class:`RateLimited` (token bucket empty — a retryable
:class:`Overloaded` subclass carrying a deterministic ``retry_after``
hint, HTTP 429), and :class:`QuotaExceeded` (admitted-work quota
exhausted — terminal until re-provisioned, HTTP 429 without a
``Retry-After``).

:class:`QueueClosed` predates this module and remains the base class of
:class:`ServiceClosed` so existing ``except QueueClosed`` handlers keep
working; new code should catch :class:`ServiceClosed`.
"""

from __future__ import annotations


class QueueClosed(RuntimeError):
    """Historical base of :class:`ServiceClosed` (kept so existing
    ``except QueueClosed`` handlers continue to match).  The serving
    fronts raise :class:`ServiceClosed`, never this base directly."""


class ServiceClosed(QueueClosed):
    """Submit on a closed service — raised uniformly by all three
    serving fronts (:class:`~repro.serve.service.SolveService`,
    :class:`~repro.serve.procshard.ProcessShardedSolveService`,
    :class:`~repro.serve.asyncio_front.AsyncSolveService`) once
    ``close()`` has begun.  Not retryable: the service is gone."""


class WorkerCrashed(RuntimeError):
    """A worker process died with requests in flight (or was targeted
    by a dispatch after dying).  An *internal* signal of the process
    shard — lost requests are transparently resubmitted to healthy
    workers and the caller sees a result or a terminal error, which
    carries this as its ``__cause__`` when the retry policy ran out."""


class DeadlineExceeded(TimeoutError):
    """A request's deadline expired before it could be solved.

    Raised from the request's own ticket (never from ``submit``):
    the deadline may trip while the request is queued, when a crash
    retry would land past it, or — enforced by the parent-side
    watchdog — when the request was lost entirely (e.g. a dropped
    pipe message).  Subclasses :class:`TimeoutError` so generic
    timeout handling catches it.  A request already mid-solve is not
    interrupted; the deadline gates *starting* work, not finishing it.
    """


class FleetUnavailable(RuntimeError):
    """No healthy worker could take the request.

    Raised at submit when every worker is dead or ejected, or from a
    ticket when crash retries exhausted the
    :class:`~repro.serve.health.RetryPolicy` without finding a healthy
    worker.  Retryable: workers may respawn (unless the fleet's
    circuit breaker has ejected them all)."""


class Overloaded(RuntimeError):
    """The gateway's :class:`~repro.serve.health.AdmissionPolicy` shed
    the request: the pending load per healthy replica is past the
    threshold of the request's priority.  Retryable by design — back
    off and resubmit; shedding exists so an overloaded fleet degrades
    by refusing work it cannot do in time, instead of queueing itself
    into timeout storms.

    Carries a deterministic backoff hint as a ``retry_after`` attribute
    (seconds; surfaced as HTTP 429 + ``Retry-After``)."""

    retry_after: "float | None" = None


class RateLimited(Overloaded):
    """The tenant's token bucket is empty: the request exceeded the
    tenant's provisioned request rate, not the fleet's capacity.
    Subclasses :class:`Overloaded` (same client remedy: back off and
    resubmit — generic overload handlers keep working) and always
    carries a ``retry_after`` hint, the deterministic seconds until the
    bucket refills one token."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class QuotaExceeded(RuntimeError):
    """The tenant's admitted-work quota is exhausted.  *Not* retryable
    on its own: unlike rate limits (which refill) and overloads (which
    drain), a quota resets only by out-of-band provisioning — clients
    should stop submitting, not back off and hammer."""


class AuthError(PermissionError):
    """The request's bearer token is missing, unknown, or revoked.
    Subclasses :class:`PermissionError`; surfaced by the HTTP gateway
    as 401."""
