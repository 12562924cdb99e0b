"""Tenancy: bearer tokens, token-bucket rate limits, quota accounting.

The gateway's multi-tenant contract is three separable mechanisms, each
deliberately deterministic (injectable clocks, no jitter) so admission
decisions replay bit-for-bit in tests:

* :class:`Tenant` + :class:`TenantRegistry` — who may talk to the
  fleet.  A tenant is provisioned with a bearer token, a priority cap,
  a sustained request rate (+ burst), and an optional lifetime quota.
* :class:`TokenBucket` — the classic rate limiter: capacity ``burst``
  tokens, refilled at ``rate`` per second, one token per admitted
  request.  An empty bucket refuses with the exact seconds until the
  next token — the ``retry_after`` hint the gateway forwards as a
  429/``Retry-After``.
* :class:`QuotaLedger` — admitted-work accounting with an exactness
  invariant: a tenant is charged when (and only when) its request is
  handed to the fleet, and refunded when the fleet itself refuses
  (sheds/closes) after the charge — so ``charged(tenant)`` equals the
  number of requests actually admitted on the tenant's behalf, to the
  unit.  The property suite (`tests/properties/test_scheduling_props`)
  drives random admit/refuse/refund streams against that invariant.
"""

from __future__ import annotations

import secrets
import threading
import time
from dataclasses import dataclass, field

from repro.analysis.runtime import race_checked
from repro.serve.errors import AuthError, QuotaExceeded

__all__ = [
    "Tenant",
    "TokenBucket",
    "QuotaLedger",
    "TenantRegistry",
]


@dataclass(frozen=True)
class Tenant:
    """One provisioned tenant of the gateway.

    Parameters
    ----------
    tenant_id:
        Stable identity; doubles as the routing key (consistent-hash
        affinity) and the cost-model key.
    token:
        The bearer secret presented in ``Authorization: Bearer ...``.
        Use :meth:`TenantRegistry.provision` to mint one.
    priority:
        The tenant's priority *cap* (see
        :class:`~repro.serve.health.AdmissionPolicy`): requests may ask
        for any priority up to this; asking higher is clamped down —
        priority is provisioned, not self-declared.
    rate / burst:
        Token-bucket parameters: sustained requests/second and the
        bucket capacity (max requests admitted back-to-back after an
        idle spell).  ``rate=None`` disables rate limiting.
    quota:
        Optional lifetime cap on *admitted* requests; ``None`` is
        unmetered.  Exhaustion raises
        :class:`~repro.serve.errors.QuotaExceeded` (terminal until
        re-provisioned).
    """

    tenant_id: str
    token: str
    priority: int = 0
    rate: float | None = None
    burst: int = 8
    quota: int | None = None

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ValueError("tenant_id must be non-empty")
        if not self.token:
            raise ValueError("token must be non-empty")
        if self.priority < 0:
            raise ValueError(
                f"priority must be >= 0, got {self.priority}"
            )
        if self.rate is not None and self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.quota is not None and self.quota < 0:
            raise ValueError(f"quota must be >= 0, got {self.quota}")


@race_checked
class TokenBucket:
    """Deterministic token-bucket rate limiter with an injectable clock.

    Parameters
    ----------
    rate:
        Tokens added per second.
    burst:
        Bucket capacity (and the initial fill — a fresh tenant gets its
        full burst).
    clock:
        Monotonic-seconds callable; defaults to :func:`time.monotonic`.
        Tests inject a fake clock, which is what makes every admission
        decision (and every ``retry_after`` hint) exactly reproducible.

    Thread safety
    -------------
    :meth:`acquire` takes one internal lock; any number of gateway
    connections may race on one tenant's bucket.
    """

    _GUARDED_BY = {"_tokens": "_lock", "_stamp": "_lock"}

    def __init__(
        self, rate: float, burst: int, clock=time.monotonic
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = int(burst)
        self._clock = clock
        self._lock = threading.Lock()
        self._tokens = float(burst)
        self._stamp: float | None = None

    def _refill(self, now: float) -> None:  # requires-lock: _lock
        if self._stamp is not None and now > self._stamp:
            self._tokens = min(
                float(self.burst),
                self._tokens + (now - self._stamp) * self.rate,
            )
        self._stamp = now

    def acquire(self) -> tuple[bool, float]:
        """Try to take one token.

        Returns
        -------
        (bool, float)
            ``(True, 0.0)`` when a token was taken; ``(False,
            retry_after)`` when the bucket is empty, with the exact
            seconds until one token will be available.
        """
        with self._lock:
            now = self._clock()
            self._refill(now)
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True, 0.0
            return False, (1.0 - self._tokens) / self.rate


@race_checked
class QuotaLedger:
    """Admitted-work accounting with an exactness invariant.

    ``charge`` *before* handing the request to the fleet (so a quota
    can never be overrun by a race), ``refund`` when the fleet itself
    refused after the charge (shed / closed — the work was never
    admitted).  At every instant, :meth:`charged` equals the number of
    requests actually admitted on the tenant's behalf.

    Thread safety
    -------------
    One lock over all tenants' counters; charge/refund are O(1).
    """

    _GUARDED_BY = {"_charged": "_lock"}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._charged: dict[str, int] = {}

    def charge(self, tenant: Tenant, amount: int = 1) -> int:
        """Charge ``amount`` admitted requests against the tenant.

        Returns the tenant's new total.  Raises
        :class:`~repro.serve.errors.QuotaExceeded` — charging nothing —
        when the charge would overrun ``tenant.quota``.
        """
        if amount < 0:
            raise ValueError(f"amount must be >= 0, got {amount}")
        with self._lock:
            used = self._charged.get(tenant.tenant_id, 0)
            if (
                tenant.quota is not None
                and used + amount > tenant.quota
            ):
                raise QuotaExceeded(
                    f"tenant {tenant.tenant_id!r} quota exhausted "
                    f"({used}/{tenant.quota} admitted)"
                )
            self._charged[tenant.tenant_id] = used + amount
            return used + amount

    def refund(self, tenant: Tenant, amount: int = 1) -> int:
        """Return ``amount`` charges the fleet refused after admission
        accounting; returns the tenant's new total.  Never goes
        negative — a spurious refund is a bug worth failing loudly."""
        if amount < 0:
            raise ValueError(f"amount must be >= 0, got {amount}")
        with self._lock:
            used = self._charged.get(tenant.tenant_id, 0)
            if amount > used:
                raise ValueError(
                    f"refund of {amount} exceeds tenant "
                    f"{tenant.tenant_id!r}'s charged total {used}"
                )
            self._charged[tenant.tenant_id] = used - amount
            return used - amount

    def charged(self, tenant_id: str) -> int:
        """Requests currently charged (admitted) for one tenant."""
        with self._lock:
            return self._charged.get(tenant_id, 0)

    # census: outside input: read by the GET /v1/stats handler
    def totals(self) -> dict[str, int]:
        """``{tenant_id: charged}`` snapshot across all tenants."""
        with self._lock:
            return dict(self._charged)


@race_checked
class TenantRegistry:
    """Token → :class:`Tenant` lookup plus per-tenant rate buckets.

    Parameters
    ----------
    clock:
        Monotonic clock shared by every tenant's
        :class:`TokenBucket`; inject a fake one for deterministic
        tests.

    Thread safety
    -------------
    Registration and authentication take one lock; the per-tenant
    buckets lock themselves.
    """

    _GUARDED_BY = {"_by_token": "_lock", "_buckets": "_lock"}

    def __init__(self, clock=time.monotonic) -> None:
        self._clock = clock
        self._lock = threading.Lock()
        self._by_token: dict[str, Tenant] = {}
        self._buckets: dict[str, TokenBucket] = {}

    def register(self, tenant: Tenant) -> Tenant:
        """Add a fully-specified tenant; returns it.  Token collisions
        are rejected (a token must name exactly one tenant)."""
        with self._lock:
            existing = self._by_token.get(tenant.token)
            if existing is not None and existing.tenant_id != tenant.tenant_id:
                raise ValueError(
                    f"token already registered to tenant "
                    f"{existing.tenant_id!r}"
                )
            self._by_token[tenant.token] = tenant
            if tenant.rate is not None:
                self._buckets[tenant.tenant_id] = TokenBucket(
                    tenant.rate, tenant.burst, clock=self._clock
                )
            else:
                self._buckets.pop(tenant.tenant_id, None)
            return tenant

    def provision(self, tenant_id: str, **kwargs) -> Tenant:
        """Mint a fresh random token and register the tenant with it.

        Returns the registered :class:`Tenant` (read ``.token`` off it
        to hand to the client).  Keyword arguments are the
        :class:`Tenant` fields except ``token``.
        """
        token = secrets.token_urlsafe(24)
        return self.register(Tenant(tenant_id, token, **kwargs))

    def authenticate(self, token: str | None) -> Tenant:
        """Resolve a bearer token to its tenant.

        Raises
        ------
        ~repro.serve.errors.AuthError
            For a missing or unknown token.
        """
        if not token:
            raise AuthError("missing bearer token")
        with self._lock:
            tenant = self._by_token.get(token)
        if tenant is None:
            raise AuthError("unknown bearer token")
        return tenant

    # census: security: the kill switch for a leaked or retired token
    def revoke(self, token: str) -> bool:
        """Forget a token; returns whether it existed.  The tenant's
        bucket is dropped with it."""
        with self._lock:
            tenant = self._by_token.pop(token, None)
            if tenant is not None:
                self._buckets.pop(tenant.tenant_id, None)
            return tenant is not None

    def bucket(self, tenant: Tenant) -> TokenBucket | None:
        """The tenant's rate bucket (``None`` when unmetered)."""
        with self._lock:
            return self._buckets.get(tenant.tenant_id)
