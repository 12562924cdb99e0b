"""The annotation vocabulary shared by the lint rules and the runtime.

Production modules import only this file (and
:mod:`repro.analysis.runtime`) from the analysis package — both are
stdlib-only and numpy-free, so the SEM/serving layers pay nothing for
being annotated.

Source-level annotations (consumed by the static rules)
-------------------------------------------------------
``# guarded-by: <lock>``
    Trailing comment on the line that *defines* an attribute (a
    ``self._x = ...`` assignment in ``__init__`` or a dataclass field
    line).  Declares that every read/write of the attribute in the
    class's methods must happen inside a ``with self.<lock>`` block.
``_GUARDED_BY = {"_attr": "_lock", ...}``
    Class-body registry form of the same declaration — the one the
    runtime race checker also consumes, so a class annotated this way
    gets both the static rule and (under ``REPRO_RACECHECK=1``) the
    runtime assertion from a single source of truth.
``# requires-lock: <lock>``
    Trailing comment on a ``def`` line: the method is a helper whose
    *callers* hold ``self.<lock>`` (e.g. ``TokenBucket._refill``).
    Guarded accesses inside it are treated as locked; the runtime
    checker still verifies the claim on every call.
``# lint: ignore[rule-id]`` / ``# lint: ignore[rule-id] -- reason``
    Suppress one rule on the annotated line (on a ``def``/``class``
    line: on the whole definition).  Prefer a reason; bare ignores
    read as debt.
``# lint: file-ignore[rule-id]``
    Suppress one rule for the whole file (first 5 lines only).

Runtime markers
---------------
:func:`hot_path`
    No-op decorator marking a function as allocation-free hot path;
    the ``hot-path-alloc`` rule checks every marked function (and any
    function listed in :class:`repro.analysis.config.AnalysisConfig.
    hot_path_functions`).
"""

from __future__ import annotations

from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable)

#: Class-body registry attribute both the static lock-discipline rule
#: and the runtime race checker read: ``{attr_name: lock_attr_name}``.
GUARDED_BY_REGISTRY = "_GUARDED_BY"

#: Optional class-body tuple naming extra lock attributes the runtime
#: sanitizer should wrap with order/ownership tracking even though no
#: guarded attribute maps to them (e.g. a lock held for a whole solve).
TRACKED_LOCKS_REGISTRY = "_TRACKED_LOCKS"


def hot_path(fn: F) -> F:
    """Mark ``fn`` as solver hot path: allocation-free by contract.

    Purely a marker — the function is returned unchanged (one attribute
    write at definition time, nothing per call).  The static
    ``hot-path-alloc`` rule flags allocating numpy constructor calls,
    ``out=``-less array-function calls, and ``@``-products inside any
    function carrying this decorator.

    Setup code that legitimately allocates (cold-start workspace
    builds) belongs *outside* the marked function; the rare justified
    exception takes a ``# lint: ignore[hot-path-alloc] -- reason``.
    """
    fn.__hot_path__ = True
    return fn
