"""Configuration of the static analysis run.

One frozen dataclass carries every knob the rules read, so a test can
run any rule against a fixture tree with a purpose-built config while
CI runs the defaults committed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field


def _default_clock_paths() -> tuple[str, ...]:
    return ("src/repro/serve",)


def _default_contiguity_helpers() -> tuple[str, ...]:
    return ("ascontiguousarray",)


@dataclass(frozen=True)
class AnalysisConfig:
    """Knobs of one analysis run.

    Parameters
    ----------
    clock_paths:
        Path prefixes (POSIX-style, relative to the repo root) where
        the monotonic-clock rules apply — the serving timing paths.
        Wall-clock reads elsewhere (benchmark scripts stamping result
        files, the hardware cost model) are not timing-path bugs.
    hot_path_functions:
        Extra functions checked by the ``hot-path-alloc`` rule beyond
        those carrying the :func:`~repro.analysis.annotations.hot_path`
        decorator, as ``"path/to/file.py::qualname"`` entries (path
        relative to the repo root, qualname dotted for nesting, e.g.
        ``"src/repro/sem/cg.py::_bind_operator.apply_into"``).
    contiguity_helpers:
        Callable names (bare, matched against the call's last dotted
        component) accepted as a contiguity guard by the
        ``out-contiguity`` rule, alongside ``.flags`` inspection.
    allocating_constructors:
        Numpy-namespace callables the ``hot-path-alloc`` rule treats
        as fresh-array allocations.
    outful_functions:
        Numpy-namespace callables that accept ``out=``; calling one
        inside a hot path *without* ``out=`` allocates its result and
        is flagged.
    wall_clock_calls:
        Dotted call suffixes the ``wall-clock`` rule bans inside
        ``clock_paths`` (matched against the last two components of
        the resolved call name).
    """

    clock_paths: tuple[str, ...] = field(
        default_factory=_default_clock_paths
    )
    hot_path_functions: tuple[str, ...] = ()
    contiguity_helpers: tuple[str, ...] = field(
        default_factory=_default_contiguity_helpers
    )
    allocating_constructors: tuple[str, ...] = (
        "empty", "zeros", "ones", "full", "array", "copy", "arange",
        "linspace", "eye", "identity", "diag", "concatenate", "stack",
        "hstack", "vstack", "dstack", "column_stack", "tile", "repeat",
        "outer", "kron", "empty_like", "zeros_like", "ones_like",
        "full_like", "fromiter", "frombuffer", "meshgrid",
    )
    outful_functions: tuple[str, ...] = (
        "add", "subtract", "multiply", "divide", "true_divide",
        "floor_divide", "negative", "sqrt", "square", "abs", "absolute",
        "exp", "log", "maximum", "minimum", "power", "reciprocal",
        "matmul", "dot", "vecdot", "einsum", "tensordot", "take", "clip",
        "where",
    )
    wall_clock_calls: tuple[str, ...] = (
        "time.time", "time.ctime", "time.localtime", "time.gmtime",
        "datetime.now", "datetime.utcnow", "datetime.today",
        "date.today",
    )
