"""Small AST helpers shared by the lint rules (stdlib ``ast`` only)."""

from __future__ import annotations

import ast


def dotted_name(node: ast.AST) -> str | None:
    """Resolve a ``Name``/``Attribute`` chain to ``"a.b.c"``.

    Returns ``None`` for anything that is not a pure dotted chain
    (calls, subscripts, literals) — rules treat those as unresolvable
    rather than guessing.
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> str | None:
    """Dotted name of a call's callee (``None`` if unresolvable)."""
    return dotted_name(node.func)


def name_matches(dotted: str | None, suffix: str) -> bool:
    """Does ``dotted`` equal ``suffix`` or end with ``"." + suffix``?

    The standard way rules match qualified calls without resolving
    imports: ``time.time`` matches both ``time.time()`` and an aliased
    ``t.time()`` never, but does match ``datetime.datetime.now`` for
    suffix ``datetime.now``.
    """
    if dotted is None:
        return False
    return dotted == suffix or dotted.endswith("." + suffix)


def qualname_map(tree: ast.Module) -> dict[ast.AST, str]:
    """Map every class/function definition node to its dotted qualname.

    Nested definitions join with ``"."`` (no ``<locals>`` noise —
    findings should read like code, not like ``__qualname__``).
    """
    names: dict[ast.AST, str] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
            ):
                qual = f"{prefix}.{child.name}" if prefix else child.name
                names[child] = qual
                visit(child, qual)
            else:
                visit(child, prefix)

    visit(tree, "")
    return names


def enclosing_symbol(
    tree: ast.Module, node: ast.AST
) -> str:
    """Dotted qualname of the innermost definition containing ``node``
    (``"<module>"`` for top-level code)."""
    best: tuple[int, str] | None = None
    target_line = getattr(node, "lineno", 0)
    target_end = getattr(node, "end_lineno", target_line)
    for defn, qual in qualname_map(tree).items():
        if defn.lineno <= target_line and target_end <= (
            defn.end_lineno or defn.lineno
        ):
            span = (defn.end_lineno or defn.lineno) - defn.lineno
            if best is None or span < best[0]:
                best = (span, qual)
    return best[1] if best else "<module>"
