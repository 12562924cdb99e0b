"""Lock discipline: guarded attributes are touched only under their lock.

The rule the ``WorkspacePool._leased`` bug paid for (PR 5: ``sizes``/
``nbytes`` iterated the lease registry without the lock, racing a
first-time lease into ``RuntimeError: dictionary changed size during
iteration``; the class was deleted in PR 19, the rule it left behind
guards every registry since): an attribute declared guarded — via a trailing
``# guarded-by: _lock`` comment on its defining line, or a class-body
``_GUARDED_BY = {"_attr": "_lock"}`` registry — may only be read or
written inside a ``with self._lock`` block in that class's methods.

Scope and escape hatches:

* ``__init__`` / ``__post_init__`` / ``__del__`` are exempt
  (single-threaded construction and teardown);
* a method whose ``def`` line carries ``# requires-lock: _lock`` is
  treated as holding that lock (its callers must hold it; the runtime
  race checker verifies the claim under ``REPRO_RACECHECK=1``);
* deliberate lock-free reads (an atomic snapshot of one word) take a
  per-line ``# lint: ignore[lock-discipline] -- reason``.

The check is lexical: an access inside a closure defined under the
``with`` counts as guarded even though the closure could escape — the
runtime checker covers that gap.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.annotations import GUARDED_BY_REGISTRY
from repro.analysis.config import AnalysisConfig
from repro.analysis.findings import Finding, SourceFile

RULE_ID = "lock-discipline"
RULE_IDS = (RULE_ID,)

#: Methods that run before/after any concurrent access can exist.
_EXEMPT_METHODS = ("__init__", "__post_init__", "__del__")


def _registry_entries(classdef: ast.ClassDef) -> dict[str, str]:
    """``_GUARDED_BY = {...}`` entries from the class body (if any)."""
    guarded: dict[str, str] = {}
    for stmt in classdef.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == GUARDED_BY_REGISTRY
            for t in stmt.targets
        ):
            continue
        if isinstance(stmt.value, ast.Dict):
            for key, value in zip(stmt.value.keys, stmt.value.values):
                if (
                    isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    guarded[key.value] = value.value
    return guarded


def _comment_entries(
    src: SourceFile, classdef: ast.ClassDef
) -> dict[str, str]:
    """``# guarded-by: _lock`` declarations inside the class body.

    The comment annotates the line(s) of an attribute's defining
    statement: a class-level (dataclass field) ``AnnAssign``/``Assign``
    or a ``self._attr = ...`` assignment in any method.
    """
    guarded: dict[str, str] = {}
    for node in ast.walk(classdef):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        lock = None
        for line in range(node.lineno, (node.end_lineno or node.lineno) + 1):
            lock = src.guarded_by_lines.get(line)
            if lock is not None:
                break
        if lock is None:
            continue
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for target in targets:
            if isinstance(target, ast.Name):  # dataclass field line
                guarded[target.id] = lock
            elif (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                guarded[target.attr] = lock
    return guarded


def _requires_lock(
    src: SourceFile, method: "ast.FunctionDef | ast.AsyncFunctionDef"
) -> str | None:
    """Lock named by a ``# requires-lock:`` comment on the signature."""
    body_start = method.body[0].lineno if method.body else method.lineno
    for line in range(method.lineno, body_start + 1):
        lock = src.requires_lock_lines.get(line)
        if lock is not None:
            return lock
    return None


class _MethodChecker(ast.NodeVisitor):
    """Walk one method tracking which ``self.<lock>`` locks are held."""

    def __init__(
        self,
        src: SourceFile,
        class_name: str,
        method_name: str,
        guarded: dict[str, str],
        held: set[str],
    ) -> None:
        self.src = src
        self.class_name = class_name
        self.method_name = method_name
        self.guarded = guarded
        self.held = held
        self.findings: list[Finding] = []
        self._reported: set[tuple[str, int]] = set()

    # -- lock scopes ---------------------------------------------------
    def _with_locks(self, node: "ast.With | ast.AsyncWith") -> set[str]:
        locks = set()
        for item in node.items:
            expr = item.context_expr
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
            ):
                locks.add(expr.attr)
        return locks

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: "ast.With | ast.AsyncWith") -> None:
        added = self._with_locks(node) - self.held
        self.held |= added
        self.generic_visit(node)
        self.held -= added

    # -- guarded accesses ----------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in self.guarded
            and self.guarded[node.attr] not in self.held
        ):
            key = (node.attr, node.lineno)
            if key not in self._reported:
                self._reported.add(key)
                self.findings.append(Finding(
                    rule=RULE_ID,
                    path=self.src.path,
                    line=node.lineno,
                    symbol=f"{self.class_name}.{self.method_name}",
                    message=(
                        f"self.{node.attr} is guarded by "
                        f"self.{self.guarded[node.attr]} but accessed "
                        f"outside a `with self."
                        f"{self.guarded[node.attr]}` block"
                    ),
                ))
        self.generic_visit(node)


def check(src: SourceFile, config: AnalysisConfig) -> Iterator[Finding]:
    """Yield every unguarded access of a declared-guarded attribute."""
    for classdef in ast.walk(src.tree):
        if not isinstance(classdef, ast.ClassDef):
            continue
        guarded = _registry_entries(classdef)
        guarded.update(_comment_entries(src, classdef))
        if not guarded:
            continue
        for method in classdef.body:
            if not isinstance(
                method, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if method.name in _EXEMPT_METHODS:
                continue
            if src.definition_ignored(RULE_ID, method):
                continue
            held = set()
            required = _requires_lock(src, method)
            if required is not None:
                held.add(required)
            checker = _MethodChecker(
                src, classdef.name, method.name, guarded, held
            )
            checker.visit(method)
            yield from checker.findings
