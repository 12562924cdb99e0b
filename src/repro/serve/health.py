"""Per-replica health states and the resilience policies that act on them.

The self-healing fleet (:class:`~repro.serve.procshard.ProcessShardedSolveService`)
needs three small, separable pieces:

* :class:`FleetHealth` — a thread-safe registry of per-slot states that
  the routing step consults on every submit.  A slot is ``HEALTHY``
  (admitting requests), ``DEGRADED`` (temporarily out — its worker died
  and a respawn is pending or in flight), or ``EJECTED`` (permanently
  out — the restart circuit breaker tripped).
* :class:`RetryPolicy` — how requests lost to a crash are resubmitted:
  bounded attempts with exponential backoff.  Solves are pure (same
  rhs, same bits, any worker), which is what makes transparent
  resubmission sound.
* :class:`RestartPolicy` — how dead workers are respawned: exponential
  backoff between restarts, with a max-restarts circuit breaker so a
  worker that dies on arrival (bad host state, poisoned core) cannot
  restart-storm the fleet forever.

Both policies are deliberately **jitter-free**: backoff here is
deterministic so the chaos harness (:mod:`repro.serve.chaos`) reproduces
every supervision decision bit-for-bit in CI.  A deployment that needs
decorrelated restarts across many hosts can subclass and override
:meth:`RetryPolicy.backoff` / :meth:`RestartPolicy.backoff`.

Operators drive :class:`FleetHealth` too: :meth:`~FleetHealth.eject` a
healthy worker slot for maintenance and routing will steer around it.

:class:`AdmissionPolicy` is the gateway-side extension of the same
idea: the fleet's ``shed_watermark`` is its last line of defence, but a
front door that *knows* the fleet's health and queue depths can shed
earlier and smarter — priority-aware soft limits below the hard
watermark, with deterministic ``retry_after`` backoff hints instead of
bare refusals.  It is pure policy arithmetic (no locks, no clocks), so
the gateway's admission decisions are exactly reproducible in tests.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass

from repro.analysis.runtime import race_checked


class HealthState(enum.Enum):
    """Routing-visible health of one replica/worker slot."""

    #: Admitting requests.
    HEALTHY = "healthy"
    #: Temporarily out of rotation (crashed; respawn pending/in flight).
    DEGRADED = "degraded"
    #: Permanently out (circuit breaker tripped, or operator decision).
    EJECTED = "ejected"


@dataclass(frozen=True)
class RetryPolicy:
    """Resubmission policy for requests lost to a worker crash.

    Parameters
    ----------
    max_attempts:
        Total dispatch attempts per request (the initial submit counts
        as the first).  When a crash consumes the last attempt the
        ticket fails with
        :class:`~repro.serve.errors.FleetUnavailable`.
    backoff_base / backoff_factor / backoff_max:
        The delay before retry ``k`` (1-based) is
        ``min(backoff_max, backoff_base * backoff_factor**(k-1))``
        seconds.  Deterministic — no jitter — so fault-injection runs
        reproduce exactly.
    """

    max_attempts: int = 3
    backoff_base: float = 0.01
    backoff_factor: float = 2.0
    backoff_max: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff_base/backoff_max must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def backoff(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )


@dataclass(frozen=True)
class RestartPolicy:
    """Respawn policy for dead worker slots.

    Parameters
    ----------
    max_restarts:
        Circuit breaker: after this many restarts of one slot, the slot
        is :attr:`~HealthState.EJECTED` instead of respawned — a worker
        that keeps dying is a fault to surface, not to hide behind an
        infinite restart storm.
    backoff_base / backoff_factor / backoff_max:
        Delay before restart ``k`` of a slot (1-based):
        ``min(backoff_max, backoff_base * backoff_factor**(k-1))``
        seconds.  Deterministic (no jitter) for reproducible chaos runs.
    """

    max_restarts: int = 5
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0

    def __post_init__(self) -> None:
        if self.max_restarts < 1:
            raise ValueError(
                f"max_restarts must be >= 1, got {self.max_restarts}"
            )
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff_base/backoff_max must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def backoff(self, restart: int) -> float:
        """Seconds to wait before restart number ``restart`` (1-based)."""
        if restart < 1:
            raise ValueError(f"restart must be >= 1, got {restart}")
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** (restart - 1),
        )


@dataclass(frozen=True)
class AdmissionPolicy:
    """Priority-aware load shedding *before* the fleet watermark.

    The fleet's ``shed_watermark`` refuses work only once every healthy
    queue is already saturated; by then latency SLOs are gone.  A
    gateway applies this policy at its own front door instead: shed
    when the *per-healthy-replica* pending load crosses a soft limit
    that depends on the request's priority, so background traffic backs
    off while interactive traffic still flows — and the fleet watermark
    (the hard limit here, which should sit at or below it) is reached
    only when even top-priority load exceeds capacity.

    Parameters
    ----------
    soft_limit:
        Pending requests per healthy replica at which **priority 0**
        (lowest) requests shed.
    hard_limit:
        Pending requests per healthy replica at which *every* priority
        sheds.  Set it at (or just below) the backend's
        ``shed_watermark`` so the gateway's refusal — which carries a
        backoff hint — always fires before the fleet's bare one.
    levels:
        Number of priority classes; priorities clamp to
        ``[0, levels - 1]``.  The shed threshold interpolates linearly
        from ``soft_limit`` (priority 0) to ``hard_limit`` (top
        priority).
    retry_after_base / retry_after_max:
        The deterministic backoff hint: ``retry_after_base * (1 +
        overshoot)`` seconds, capped at ``retry_after_max``, where
        ``overshoot`` is how many requests-per-replica past the
        threshold the fleet currently is.  Deterministic (no jitter)
        for the same reason the retry/restart policies are — admission
        decisions replay exactly in tests.
    """

    soft_limit: int = 8
    hard_limit: int = 16
    levels: int = 3
    retry_after_base: float = 0.05
    retry_after_max: float = 2.0

    def __post_init__(self) -> None:
        if self.soft_limit < 1:
            raise ValueError(
                f"soft_limit must be >= 1, got {self.soft_limit}"
            )
        if self.hard_limit < self.soft_limit:
            raise ValueError(
                f"hard_limit ({self.hard_limit}) must be >= "
                f"soft_limit ({self.soft_limit})"
            )
        if self.levels < 1:
            raise ValueError(f"levels must be >= 1, got {self.levels}")
        if self.retry_after_base < 0 or self.retry_after_max < 0:
            raise ValueError(
                "retry_after_base/retry_after_max must be >= 0"
            )

    def clamp_priority(self, priority: int) -> int:
        """Clamp a requested priority into ``[0, levels - 1]``."""
        return max(0, min(int(priority), self.levels - 1))

    def shed_threshold(self, priority: int) -> float:
        """Pending-per-healthy-replica load at which this priority
        sheds (linear from ``soft_limit`` to ``hard_limit``)."""
        p = self.clamp_priority(priority)
        if self.levels == 1:
            return float(self.soft_limit)
        return self.soft_limit + (
            (self.hard_limit - self.soft_limit) * p / (self.levels - 1)
        )

    def should_shed(
        self, total_depth: int, healthy: int, priority: int = 0
    ) -> bool:
        """Shed one request of ``priority`` given ``total_depth``
        requests pending across ``healthy`` replicas?  A fleet with no
        healthy replica always sheds (the submit would only raise
        :class:`~repro.serve.errors.FleetUnavailable` deeper in)."""
        if healthy < 1:
            return True
        return (total_depth / healthy) >= self.shed_threshold(priority)

    # census: refusal: the Retry-After hint of a shed request
    def retry_after(
        self, total_depth: int, healthy: int, priority: int = 0
    ) -> float:
        """Deterministic backoff hint (seconds) for one shed request."""
        if healthy < 1:
            return self.retry_after_max
        overshoot = max(
            0.0,
            total_depth / healthy - self.shed_threshold(priority),
        )
        return min(
            self.retry_after_max,
            self.retry_after_base * (1.0 + overshoot),
        )


@race_checked
class FleetHealth:
    """Thread-safe per-slot health registry the routing step consults.

    Parameters
    ----------
    slots:
        Number of replica/worker slots (fixed for the fleet's life —
        respawn refills a slot, it never grows the fleet).

    Thread safety
    -------------
    Every method takes one internal lock; :meth:`mask` and
    :attr:`states` are point-in-time samples (routing must tolerate a
    mask a few microseconds stale, exactly as it tolerates stale queue
    depths).
    """

    _GUARDED_BY = {"_states": "_lock", "_restart_attempts": "_lock"}

    def __init__(self, slots: int) -> None:
        if slots < 1:
            raise ValueError(f"slots must be >= 1, got {slots}")
        self._lock = threading.Lock()
        self._states = [HealthState.HEALTHY] * slots
        self._restart_attempts = [0] * slots

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @property
    def states(self) -> tuple[HealthState, ...]:
        """The current state of every slot."""
        with self._lock:
            return tuple(self._states)

    def state(self, slot: int) -> HealthState:
        """The current state of one slot."""
        with self._lock:
            return self._states[slot]

    def mask(self) -> tuple[bool, ...]:
        """``True`` per slot that is admitting requests (HEALTHY)."""
        with self._lock:
            return tuple(s is HealthState.HEALTHY for s in self._states)

    @property
    def healthy_count(self) -> int:
        """Number of slots currently admitting requests."""
        with self._lock:
            return sum(
                s is HealthState.HEALTHY for s in self._states
            )

    def any_recoverable(self) -> bool:
        """True when at least one slot is DEGRADED — capacity that a
        pending respawn will bring back (EJECTED slots never return)."""
        with self._lock:
            return any(s is HealthState.DEGRADED for s in self._states)

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def mark_healthy(self, slot: int) -> None:
        """Slot is admitting requests again (fresh or respawned worker).

        An EJECTED slot stays ejected — the circuit breaker is a
        one-way door; build a new fleet to recover it.
        """
        with self._lock:
            if self._states[slot] is not HealthState.EJECTED:
                self._states[slot] = HealthState.HEALTHY

    def mark_degraded(self, slot: int) -> None:
        """Slot is temporarily out of rotation (worker died; respawn
        pending).  EJECTED slots stay ejected."""
        with self._lock:
            if self._states[slot] is not HealthState.EJECTED:
                self._states[slot] = HealthState.DEGRADED

    # census: failure path: the circuit breaker ejects a slot past max_restarts
    def eject(self, slot: int) -> None:
        """Permanently remove a slot from rotation (circuit breaker, or
        an operator draining a replica for maintenance)."""
        with self._lock:
            self._states[slot] = HealthState.EJECTED

    def record_restart_attempt(self, slot: int) -> int:
        """Count one restart attempt for a slot; returns the new total
        (the supervisor compares it against
        :attr:`RestartPolicy.max_restarts`)."""
        with self._lock:
            self._restart_attempts[slot] += 1
            return self._restart_attempts[slot]
