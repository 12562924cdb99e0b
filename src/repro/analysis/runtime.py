"""Runtime sanitizers: lock-order (deadlock) and guarded-state race checks.

Two dynamic complements to the static rules, both stdlib-only and both
**zero-overhead when disarmed**:

* :class:`LockOrderGraph` + :class:`TrackedLock` — a lockdep-style
  detector.  Locks are keyed by *class* (a name like
  ``"SolveService._solve_lock"``), and every acquisition while other
  locks are held records a directed edge ``held → acquired`` in a global
  graph.  The graph persists for the process lifetime, so two code
  paths that take the same pair of locks in opposite orders are caught
  even when they never overlap in time — the cycle check runs *before*
  blocking on the lock, raising :class:`LockOrderError` instead of
  deadlocking the test run.
* :func:`race_checked` — a class decorator that (only when
  ``REPRO_RACECHECK=1`` is set at import) wraps the class's declared
  locks in :class:`TrackedLock` and replaces every ``_GUARDED_BY``
  attribute with a descriptor asserting the guarding lock is held by
  the accessing thread.  Construction is exempt: instances arm after
  ``__init__`` returns, mirroring the static rule's ``__init__``
  exemption.

With the env var unset, :func:`race_checked` returns the class
untouched — production pays nothing.  Tests use :func:`instrument` to
force-instrument a subclass regardless of the environment.
"""

from __future__ import annotations

import functools
import os
import threading
from typing import Any, Callable, TypeVar

from repro.analysis.annotations import (
    GUARDED_BY_REGISTRY,
    TRACKED_LOCKS_REGISTRY,
)

_T = TypeVar("_T")

#: Read once at import: arming is a process-level decision, made before
#: any instrumentable class is defined.
_ACTIVE = os.environ.get("REPRO_RACECHECK", "") == "1"


class LockOrderError(RuntimeError):
    """Acquiring this lock would create a cycle in the lock-order graph."""


class RaceError(RuntimeError):
    """A guarded attribute was touched without holding its lock."""


class LockOrderGraph:
    """Global directed graph of observed lock-acquisition orders.

    Nodes are lock-class names; an edge ``A → B`` means some thread
    acquired ``B`` while holding ``A``.  A cycle means two orders
    coexist — a potential deadlock even if it has not yet struck.
    """

    def __init__(self) -> None:
        self._mu = threading.Lock()
        #: name -> {successor: example thread name that created the edge}
        self._edges: dict[str, dict[str, str]] = {}
        self._held = threading.local()

    # -- held stack (per thread) ---------------------------------------
    def _stack(self) -> list[str]:
        stack = getattr(self._held, "stack", None)
        if stack is None:
            stack = []
            self._held.stack = stack
        return stack

    # -- graph ---------------------------------------------------------
    def _path(self, start: str, goal: str) -> "list[str] | None":
        """A directed path ``start → ... → goal``, or ``None``.

        Caller holds ``self._mu``.
        """
        seen = {start}
        frontier: list[list[str]] = [[start]]
        while frontier:
            path = frontier.pop()
            for succ in self._edges.get(path[-1], ()):
                if succ == goal:
                    return path + [succ]
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(path + [succ])
        return None

    def check(self, name: str) -> None:
        """Validate acquiring ``name`` now; record the new edges.

        Raises :class:`LockOrderError` (before the caller blocks on the
        lock) if any currently-held lock is reachable *from* ``name`` —
        i.e. the new edge would close a cycle.
        """
        stack = self._stack()
        if not stack or name in stack:
            return  # nothing held, or a reentrant acquire
        with self._mu:
            for held in stack:
                cycle = self._path(name, held)
                if cycle is not None:
                    order = " -> ".join(cycle + [name])
                    raise LockOrderError(
                        f"lock-order cycle: acquiring {name!r} while "
                        f"holding {held!r}, but the graph already has "
                        f"{order} (some thread acquires these in the "
                        "opposite order)"
                    )
            thread = threading.current_thread().name
            for held in stack:
                self._edges.setdefault(held, {}).setdefault(name, thread)

    def acquired(self, name: str) -> None:
        self._stack().append(name)

    def released(self, name: str) -> None:
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == name:
                del stack[i]
                break

    def edges(self) -> dict[str, tuple[str, ...]]:
        """Snapshot of the recorded order graph (for tests/diagnostics)."""
        with self._mu:
            return {
                name: tuple(sorted(succ))
                for name, succ in self._edges.items()
            }

    def reset(self) -> None:
        """Forget all recorded edges (test isolation)."""
        with self._mu:
            self._edges.clear()


#: The process-wide graph every :class:`TrackedLock` reports to unless
#: constructed with an explicit one.
_DEFAULT_GRAPH = LockOrderGraph()


class TrackedLock:
    """A lock wrapper that knows its owner and reports acquisition order.

    Wraps an existing ``threading.Lock``/``RLock`` (or creates a Lock).
    Adds two capabilities the raw primitives lack: :meth:`owned`
    (is the *current thread* holding it?) for the race checker, and
    lock-order bookkeeping against a :class:`LockOrderGraph` for the
    deadlock detector.  Reentrant acquires (RLock) skip the graph.
    """

    def __init__(
        self,
        name: str,
        lock: "Any | None" = None,
        graph: "LockOrderGraph | None" = None,
    ) -> None:
        self.name = name
        self._lock = lock if lock is not None else threading.Lock()
        self._graph = graph if graph is not None else _DEFAULT_GRAPH
        self._owner: "int | None" = None
        self._count = 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        me = threading.get_ident()
        reentrant = self._owner == me
        if not reentrant:
            self._graph.check(self.name)
        ok = self._lock.acquire(blocking, timeout)
        if ok:
            self._owner = me
            self._count += 1
            if self._count == 1:
                self._graph.acquired(self.name)
        return ok

    def release(self) -> None:
        if self._owner != threading.get_ident():
            raise RuntimeError(
                f"release of {self.name} by a thread that does not "
                "hold it"
            )
        self._count -= 1
        if self._count == 0:
            self._owner = None
            self._graph.released(self.name)
        self._lock.release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def owned(self) -> bool:
        """Is the current thread holding this lock?"""
        return self._owner == threading.get_ident()

    # census: synchronisation: the Lock protocol the race checker keeps
    def locked(self) -> bool:
        return self._count > 0


class _GuardedAttribute:
    """Data descriptor asserting lock ownership on attribute access.

    Values live in the instance ``__dict__`` under the attribute's own
    name (the data descriptor shadows it), so ``vars(obj)`` stays
    readable and pickling round-trips.  Unarmed instances (still in
    ``__init__``) pass through unchecked.
    """

    def __init__(self, name: str, lock_name: str) -> None:
        self.name = name
        self.lock_name = lock_name

    def _check(self, instance: object, action: str) -> None:
        d = instance.__dict__
        if not d.get("_rc_armed", False):
            return
        lock = d.get(self.lock_name)
        if isinstance(lock, TrackedLock) and not lock.owned():
            raise RaceError(
                f"unguarded {action} of "
                f"{type(instance).__name__}.{self.name}: declared "
                f"guarded-by {self.lock_name}, which the current "
                "thread does not hold"
            )

    def __get__(self, instance: object, owner: "type | None" = None) -> Any:
        if instance is None:
            return self
        self._check(instance, "read")
        try:
            return instance.__dict__[self.name]
        except KeyError:
            raise AttributeError(self.name) from None

    def __set__(self, instance: object, value: Any) -> None:
        self._check(instance, "write")
        instance.__dict__[self.name] = value

    # census: synchronisation: the race check on deleting a guarded attribute
    def __delete__(self, instance: object) -> None:
        self._check(instance, "delete")
        del instance.__dict__[self.name]


def _collect_registry(cls: type, registry: str) -> dict[str, str]:
    merged: dict[str, str] = {}
    for klass in reversed(cls.__mro__):
        value = vars(klass).get(registry)
        if isinstance(value, dict):
            merged.update(value)
    return merged


def _collect_tracked(cls: type) -> tuple[str, ...]:
    names: list[str] = []
    for klass in reversed(cls.__mro__):
        for name in vars(klass).get(TRACKED_LOCKS_REGISTRY, ()):
            if name not in names:
                names.append(name)
    return tuple(names)


def _instrument_class(
    cls: "type[_T]", graph: "LockOrderGraph | None" = None
) -> "type[_T]":
    guarded = _collect_registry(cls, GUARDED_BY_REGISTRY)
    tracked = list(_collect_tracked(cls))
    for lock_name in guarded.values():
        if lock_name not in tracked:
            tracked.append(lock_name)
    orig_init = cls.__init__

    @functools.wraps(orig_init)
    def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
        orig_init(self, *args, **kwargs)
        for lock_name in tracked:
            lock = self.__dict__.get(lock_name)
            if lock is not None and not isinstance(lock, TrackedLock):
                self.__dict__[lock_name] = TrackedLock(
                    f"{cls.__name__}.{lock_name}", lock=lock, graph=graph
                )
        self.__dict__["_rc_armed"] = True

    cls.__init__ = __init__  # type: ignore[method-assign]
    for attr, lock_name in guarded.items():
        setattr(cls, attr, _GuardedAttribute(attr, lock_name))
    cls._rc_instrumented = True  # type: ignore[attr-defined]
    return cls


def race_checked(cls: "type[_T]") -> "type[_T]":
    """Class decorator: arm the race checker if ``REPRO_RACECHECK=1``.

    Reads the class's ``_GUARDED_BY`` registry (attr → lock name) and
    ``_TRACKED_LOCKS`` tuple (locks to wrap for lock-order tracking
    even when they guard no registered attribute).  With the env var
    unset this is the identity function — no descriptors, no wrapped
    locks, no per-access cost.
    """
    if not _ACTIVE:
        return cls
    return _instrument_class(cls)


def instrument(
    cls: "type[_T]", graph: "LockOrderGraph | None" = None
) -> "type[_T]":
    """Force-instrumented *subclass* of ``cls``, environment regardless.

    For tests: the original class is left untouched, and ``graph``
    (default: the process-wide one) receives the lock-order edges.
    """
    sub = type(cls.__name__, (cls,), {"__module__": cls.__module__})
    return _instrument_class(sub, graph)
