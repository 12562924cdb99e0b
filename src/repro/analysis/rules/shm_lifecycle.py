"""Shared-memory lifecycle: every created segment has a reachable release.

``multiprocessing.shared_memory.SharedMemory(create=True)`` allocates a
kernel object that outlives the process on leak (``/dev/shm`` fills up
across fleet restarts — the failure mode PR 9's cancelled-but-staged
ring-slot leak rehearsed).  The rule demands that the *enclosing
function* of every ``create=True`` call contain a visible release path:

* a ``try`` whose ``finally`` or ``except`` handlers call ``.close()``
  / ``.unlink()`` or the project teardown helper
  (``unlink_shared_block``), or
* a ``weakref.finalize(...)`` registration (teardown tied to object
  lifetime rather than scope).

The check is deliberately shallow — it wants the release *visible in
the same function*, because a cleanup that lives three calls away is
exactly the kind that a refactor silently severs.  Ownership handoffs
(function creates, returns, caller releases) take a per-line
``# lint: ignore[shm-lifecycle] -- reason`` naming the owner.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.astutil import call_name, enclosing_symbol, name_matches
from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding, SourceFile

RULE_ID = "shm-lifecycle"
RULE_IDS = (RULE_ID,)

#: Method names that release a shared-memory segment.
_RELEASE_ATTRS = ("close", "unlink")
#: Project helpers that release a segment.
_RELEASE_HELPERS = ("unlink_shared_block",)


def _is_shm_create(node: ast.Call) -> bool:
    if not name_matches(call_name(node), "SharedMemory"):
        return False
    return any(
        kw.arg == "create"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for kw in node.keywords
    )


def _is_release_call(node: ast.Call) -> bool:
    if isinstance(node.func, ast.Attribute) and node.func.attr in _RELEASE_ATTRS:
        return True
    dotted = call_name(node)
    return any(name_matches(dotted, helper) for helper in _RELEASE_HELPERS)


def _has_release_path(
    func: "ast.FunctionDef | ast.AsyncFunctionDef",
) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Try):
            cleanup_nodes: list[ast.AST] = list(node.finalbody)
            for handler in node.handlers:
                cleanup_nodes.extend(handler.body)
            for stmt in cleanup_nodes:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Call) and _is_release_call(sub):
                        return True
        elif isinstance(node, ast.Call) and name_matches(
            call_name(node), "weakref.finalize"
        ):
            return True
        elif isinstance(node, ast.Call) and name_matches(
            call_name(node), "finalize"
        ):
            return True
    return False


def check(src: SourceFile, config: AnalysisConfig) -> Iterator[Finding]:
    """Yield ``SharedMemory(create=True)`` calls with no visible release."""
    # Map each create call to its innermost enclosing function (module
    # level creates are always flagged: there is no scope to clean up in).
    funcs = [
        node
        for node in ast.walk(src.tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for node in ast.walk(src.tree):
        if not (isinstance(node, ast.Call) and _is_shm_create(node)):
            continue
        enclosing = None
        for func in funcs:
            if func.lineno <= node.lineno <= (func.end_lineno or func.lineno):
                if enclosing is None or (
                    func.lineno >= enclosing.lineno
                    and (func.end_lineno or 0) <= (enclosing.end_lineno or 0)
                ):
                    enclosing = func
        if enclosing is not None and src.definition_ignored(RULE_ID, enclosing):
            continue
        if enclosing is not None and _has_release_path(enclosing):
            continue
        yield Finding(
            rule=RULE_ID,
            path=src.path,
            line=node.lineno,
            symbol=enclosing_symbol(src.tree, node),
            message=(
                "SharedMemory(create=True) without a visible release "
                "path (try/finally or except calling close/unlink, a "
                "teardown helper, or weakref.finalize) in the same "
                "function — leaked segments persist in /dev/shm"
            ),
        )
