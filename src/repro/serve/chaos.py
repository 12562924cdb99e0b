"""Deterministic fault injection for the process-sharded serving fleet.

Resilience code that is only exercised by real crashes is resilience
code that is never exercised.  This module makes every failure mode of
:class:`~repro.serve.procshard.ProcessShardedSolveService` a scheduled,
replayable event:

* **kill worker K after M dispatches** — the parent terminates the
  worker process immediately after sending it its M-th request, which
  exercises the reader-thread crash detection, the retry path for the
  lost in-flight requests, and the supervisor's respawn.
* **delay / drop pipe messages** — the parent sleeps before (or skips
  entirely) sending a specific ``solve_block`` message, which exercises
  deadline expiry and the parent-side watchdog that recovers requests
  lost without a crash.  The ``solve_block`` message is the *doorbell*
  (the payload is already staged in the worker's slot ring), so these
  faults exercise the ring hand-off: a dropped doorbell leaves a
  staged slot that the watchdog must reclaim.
* **slow solves** — a worker sleeps a scheduled amount before solving a
  specific request ordinal, which exercises queue-depth divergence
  and deadline expiry under load.

A :class:`FaultPlan` is a frozen *description* of the faults (what, to
which worker slot, on which 1-based dispatch ordinal).  It is pure data:
hashable and printable, so CI can replay the exact same chaos
forever.  A :class:`FaultInjector` is the *live
counter state* for one service run — it watches dispatches and answers
"does a fault fire now?".  Plans are reusable; injectors are not (their
counters advance), so pass a plan to the service and let it build the
injector, or build one injector per run.

Ordinals count **dispatches to a slot across its whole lifetime**,
including retries and dispatches to a respawned worker in the same
slot — so "kill slot 0 after 2" fires once on slot 0's second dispatch
ever, and the respawned worker in slot 0 is not re-killed.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Mapping

from repro.analysis.runtime import race_checked


def _freeze_ordinal_map(raw: Mapping[int, int], noun: str) -> dict[int, int]:
    out = {}
    for slot, ordinal in raw.items():
        if int(ordinal) < 1:
            raise ValueError(
                f"{noun} ordinals are 1-based, got {ordinal} for slot {slot}"
            )
        out[int(slot)] = int(ordinal)
    return out


@dataclass(frozen=True)
class FaultPlan:
    """A frozen schedule of faults for one fleet.

    All ordinals are 1-based dispatch counts per worker *slot* (counted
    across respawns, so a fault fires at most once per slot).

    Parameters
    ----------
    kill_after:
        ``{slot: M}`` — terminate the worker in ``slot`` right after
        the parent dispatches its M-th ``solve_block`` message.
    delay_send:
        ``{(slot, M): seconds}`` — the parent sleeps that long before
        sending the slot's M-th ``solve_block`` message (exercises
        deadline expiry while "on the wire").
    drop_send:
        ``{(slot, M), ...}`` — the parent silently skips sending the
        slot's M-th ``solve_block`` message.  The worker never sees the
        requests; only the deadline watchdog can recover them, so every
        request that can be dropped must carry a deadline.
    slow_solves:
        ``{slot: {M: seconds}}`` — the worker in ``slot`` sleeps before
        enqueueing the requests of its M-th received block.  This part
        of the plan is shipped to the worker process at spawn (it is
        plain picklable data).
    """

    kill_after: Mapping[int, int] = field(default_factory=dict)
    delay_send: Mapping[tuple[int, int], float] = field(default_factory=dict)
    drop_send: frozenset[tuple[int, int]] = field(default_factory=frozenset)
    slow_solves: Mapping[int, Mapping[int, float]] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "kill_after", _freeze_ordinal_map(self.kill_after, "kill_after")
        )
        delays = {}
        for (slot, ordinal), seconds in dict(self.delay_send).items():
            if ordinal < 1:
                raise ValueError(
                    f"delay_send ordinals are 1-based, got {ordinal}"
                )
            if seconds < 0:
                raise ValueError(f"delay_send seconds must be >= 0, got {seconds}")
            delays[(int(slot), int(ordinal))] = float(seconds)
        object.__setattr__(self, "delay_send", delays)
        drops = frozenset((int(s), int(o)) for s, o in self.drop_send)
        if any(o < 1 for _, o in drops):
            raise ValueError("drop_send ordinals are 1-based")
        object.__setattr__(self, "drop_send", drops)
        slows = {}
        for slot, per_block in dict(self.slow_solves).items():
            inner = {}
            for ordinal, seconds in dict(per_block).items():
                if ordinal < 1:
                    raise ValueError(
                        f"slow_solves ordinals are 1-based, got {ordinal}"
                    )
                if seconds < 0:
                    raise ValueError(
                        f"slow_solves seconds must be >= 0, got {seconds}"
                    )
                inner[int(ordinal)] = float(seconds)
            slows[int(slot)] = inner
        object.__setattr__(self, "slow_solves", slows)

    @classmethod
    def kill_each_worker_once(
        cls, workers: int, *, first_kill_after: int = 2, stagger: int = 3
    ) -> "FaultPlan":
        """The acceptance-criterion plan: every slot dies exactly once,
        at staggered dispatch ordinals (slot ``k`` after
        ``first_kill_after + k * stagger`` dispatches) so the fleet is
        never killed all at once and each respawn is observable."""
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if first_kill_after < 1 or stagger < 0:
            raise ValueError("first_kill_after >= 1 and stagger >= 0 required")
        return cls(
            kill_after={
                k: first_kill_after + k * stagger for k in range(workers)
            }
        )


@race_checked
class FaultInjector:
    """Live per-run counter state over a :class:`FaultPlan`.

    The parent consults it at dispatch time; counters advance under an
    internal lock so concurrent submitters see a consistent ordinal
    sequence per slot.  Each fault fires at most once.
    """

    _GUARDED_BY = {"_dispatched": "_lock", "_killed": "_lock"}

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._dispatched: dict[int, int] = {}
        self._killed: set[int] = set()

    def next_ordinal(self, slot: int) -> int:
        """Advance and return the slot's 1-based dispatch ordinal."""
        with self._lock:
            n = self._dispatched.get(slot, 0) + 1
            self._dispatched[slot] = n
            return n

    def send_action(self, slot: int, ordinal: int) -> tuple[float, bool]:
        """``(delay_seconds, drop)`` for this slot's ``ordinal``-th
        ``solve_block`` send."""
        delay = self.plan.delay_send.get((slot, ordinal), 0.0)
        drop = (slot, ordinal) in self.plan.drop_send
        return delay, drop

    def should_kill(self, slot: int, ordinal: int) -> bool:
        """True exactly once: when the slot reaches its planned kill
        ordinal (and has not been killed by the plan before)."""
        target = self.plan.kill_after.get(slot)
        if target is None or ordinal < target:
            return False
        with self._lock:
            if slot in self._killed:
                return False
            self._killed.add(slot)
            return True

    def worker_slow_schedule(self, slot: int) -> dict[int, float]:
        """The picklable slow-solve schedule shipped to the worker in
        this slot (``{block_ordinal: seconds}``)."""
        return dict(self.plan.slow_solves.get(slot, {}))

    @property
    def kills_fired(self) -> int:
        with self._lock:
            return len(self._killed)
