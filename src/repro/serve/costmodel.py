"""Cost-predicted scheduling: learn per-request work, route by it.

The paper's throughput argument rests on *predictable per-solve cost*:
once the pipeline depth and the iteration count are known, sustained
throughput is arithmetic.  The serving analogue is that a request's
cost is not a mystery either — the same tenant solving the same
operator at the same tolerance converges in (nearly) the same number
of CG iterations every time, because the spectrum doesn't change
between requests.  :class:`CostModel` turns that regularity into a
scheduler signal: an exponentially-weighted estimate of *expected
iterations* keyed by ``(tenant, tol, precision)``, falling back to
``(tol, precision)`` and then to a global estimate for cold keys.

:class:`CostAwareRouter` is the policy that consumes it.  Queue-depth
routing counts every pending request as one unit of work; under
heterogeneous tolerances that is exactly wrong — a replica holding
four ``tol=1e-2`` requests (a dozen iterations each) is far *less*
loaded than one holding two ``tol=1e-12`` requests (a hundred-plus
each).  Worse, micro-batching amplifies the mistake: a stacked
``cg_solve_batched`` dispatch runs until its *slowest* member
converges, so a cheap request coalesced with an expensive one pays the
expensive iteration count.  Routing by predicted outstanding work both
balances actual load *and* segregates dissimilar costs onto different
replicas (work-balancing with unequal item sizes is bin packing), so
batches stay homogeneous and cheap requests stop inheriting expensive
batchmates' tails.

Feedback protocol
-----------------
The shard tiers keep routers decoupled from tickets; cost feedback
rides a small duck-typed protocol (see
:func:`~repro.serve.scheduler.attach_cost_feedback`):

* ``begin_request(replica, key, tol, precision) -> cost`` — called
  right after a routed submit is accepted; the router adds the
  predicted cost to the replica's outstanding-work ledger and returns
  it so the completion can subtract exactly what was added.
* ``finish_request(replica, cost, key, tol, precision, iterations)`` —
  called from the ticket's done-callback; subtracts ``cost`` and, when
  the solve reported its actual ``iterations``, feeds the observation
  back into the model.

Routers that don't implement the protocol (all the pre-existing
policies) are untouched — the shard tiers probe with ``getattr``.
"""

from __future__ import annotations

import threading
from typing import ClassVar, Sequence

from repro.analysis.runtime import race_checked
from repro.serve.scheduler import Router

__all__ = ["CostModel", "CostAwareRouter"]


def _cost_key(
    tenant: object | None, tol: float | None, precision: str | None
) -> tuple:
    """The model's full key; ``None`` components are legitimate values
    (service-default tol, keyless requests) and key their own cells."""
    return (tenant, tol, precision)


class _Estimate:
    """One EWMA cell: count + exponentially-weighted mean iterations."""

    __slots__ = ("count", "mean")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0

    def observe(self, value: float, alpha: float) -> None:
        self.count += 1
        if self.count == 1:
            self.mean = float(value)
        else:
            self.mean += alpha * (float(value) - self.mean)


@race_checked
class CostModel:
    """Expected-iterations estimator keyed by ``(tenant, tol, precision)``.

    Prediction falls back hierarchically: exact ``(tenant, tol,
    precision)`` history first, then ``(tol, precision)`` across
    tenants (a new tenant at a known tolerance starts from its
    tolerance class), then the global mean, then :attr:`DEFAULT_COST`.

    Thread safety
    -------------
    All methods take one internal lock; :meth:`predict` and
    :meth:`observe` are called on hot submit/completion paths and do
    O(1) work under it.
    """

    #: EWMA weight of each new observation: tracks drift (mesh
    #: deformation between a flow tenant's timesteps) while smoothing
    #: one-off outliers.
    ALPHA: ClassVar[float] = 0.3
    #: Prediction for a completely cold model (no observation at any
    #: fallback level yet).  One "average solve" in the serving shape's
    #: typical band; only the *relative* costs matter to the router, so
    #: the absolute default is uncritical.
    DEFAULT_COST: ClassVar[float] = 50.0

    _GUARDED_BY = {
        "_exact": "_lock", "_by_tol": "_lock", "_global": "_lock",
    }

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._exact: dict[tuple, _Estimate] = {}
        self._by_tol: dict[tuple, _Estimate] = {}
        self._global = _Estimate()

    # ------------------------------------------------------------------
    def predict(
        self,
        tenant: object | None = None,
        tol: float | None = None,
        precision: str | None = None,
    ) -> float:
        """Expected iterations for one request (never <= 0)."""
        with self._lock:
            cell = self._exact.get(_cost_key(tenant, tol, precision))
            if cell is None or cell.count == 0:
                cell = self._by_tol.get((tol, precision))
            if cell is None or cell.count == 0:
                cell = self._global
            if cell.count == 0:
                return self.DEFAULT_COST
            # A converged-in-zero-iterations solve (b == 0) must not
            # make a key look free to the router.
            return max(cell.mean, 1.0)

    def observe(
        self,
        tenant: object | None,
        tol: float | None,
        precision: str | None,
        iterations: float,
    ) -> None:
        """Feed one completed solve's actual iteration count back in."""
        if iterations < 0:
            raise ValueError(
                f"iterations must be >= 0, got {iterations}"
            )
        with self._lock:
            key = _cost_key(tenant, tol, precision)
            cell = self._exact.get(key)
            if cell is None:
                cell = self._exact[key] = _Estimate()
            cell.observe(iterations, self.ALPHA)
            tol_key = (tol, precision)
            cell = self._by_tol.get(tol_key)
            if cell is None:
                cell = self._by_tol[tol_key] = _Estimate()
            cell.observe(iterations, self.ALPHA)
            self._global.observe(iterations, self.ALPHA)

    def snapshot(self) -> dict[tuple, tuple[int, float]]:
        """``{(tenant, tol, precision): (count, mean_iterations)}`` for
        every exact key observed so far."""
        with self._lock:
            return {
                key: (cell.count, cell.mean)
                for key, cell in self._exact.items()
            }


@race_checked
class CostAwareRouter(Router):
    """Route each request to the replica with the least predicted
    outstanding work.

    Instead of counting queued requests, the router keeps a per-replica
    ledger of predicted iterations still in flight (fed through the
    ``begin_request``/``finish_request`` protocol) and places each
    request where that ledger is smallest.  Queue depths
    act only as a tie-breaker — they catch work the ledger cannot see,
    such as requests submitted by clients bypassing the cost hooks.

    Parameters
    ----------
    replicas:
        Number of replica queues.
    model:
        The shared :class:`CostModel`; a private one is created when
        omitted.  Pass the gateway's model so predictions warm up from
        the same observations the gateway records.  ``finish_request``
        always feeds actual iteration counts back into it (a gateway
        over this router skips its own observation, so nothing is
        weighted twice).

    Thread safety
    -------------
    The ledger is guarded by one lock; :meth:`pick`,
    :meth:`begin_request` and :meth:`finish_request` may race from any
    number of submitter and dispatcher threads.
    """

    uses_depths = True

    _GUARDED_BY = {"_outstanding": "_lock"}

    def __init__(
        self,
        replicas: int,
        model: CostModel | None = None,
    ) -> None:
        super().__init__(replicas)
        self.model = model if model is not None else CostModel()
        self._lock = threading.Lock()
        self._outstanding = [0.0] * replicas

    def pick(self, key: object | None, depths: Sequence[int]) -> int:
        """Least predicted outstanding work; ties break on queue depth,
        then on the lowest index (idle fleets fill replica 0 first,
        like the depth-only policy)."""
        with self._lock:
            return min(
                range(self.replicas),
                key=lambda i: (self._outstanding[i], depths[i], i),
            )

    # ------------------------------------------------------------------
    # Cost-feedback protocol (see scheduler.attach_cost_feedback)
    # ------------------------------------------------------------------
    def begin_request(
        self,
        replica: int,
        key: object | None,
        tol: float | None,
        precision: str | None,
    ) -> float:
        """Account one admitted request's predicted cost against
        ``replica``; returns the cost so the completion hook can
        subtract exactly this amount."""
        cost = self.model.predict(key, tol, precision)
        with self._lock:
            self._outstanding[replica] += cost
        return cost

    def finish_request(
        self,
        replica: int,
        cost: float,
        key: object | None,
        tol: float | None,
        precision: str | None,
        iterations: "float | None",
    ) -> None:
        """Release one request's predicted cost; feed the actual
        iteration count (``None`` for failed/cancelled solves, which
        teach the model nothing) back into the model."""
        with self._lock:
            # Clamp at zero: a double-release bug must not turn into a
            # replica that looks infinitely attractive.
            self._outstanding[replica] = max(
                0.0, self._outstanding[replica] - cost
            )
        if iterations is not None:
            self.model.observe(key, tol, precision, iterations)
