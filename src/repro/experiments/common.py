"""Shared experiment infrastructure: result containers and rendering.

Every driver returns a structured result object (rows of plain dicts plus
named series) that renders to the same kind of table the paper prints.
Keeping results structured lets the test-suite assert on values instead
of scraping text, and lets benchmarks re-run generation deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.util.tables import TextTable


@dataclass(frozen=True)
class Series:
    """A named 1-D series (one curve of a figure).

    ``x`` and ``y`` have equal length; ``meta`` carries labels such as the
    architecture name or polynomial degree.
    """

    name: str
    x: tuple[float, ...]
    y: tuple[float, ...]
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.x) != len(self.y):
            raise ValueError(
                f"series {self.name!r}: len(x)={len(self.x)} != len(y)={len(self.y)}"
            )

    @property
    def y_max(self) -> float:
        """Largest y value (peak of the curve)."""
        return max(self.y)


@dataclass
class ExperimentResult:
    """Output of one experiment driver.

    Attributes
    ----------
    exp_id:
        Experiment id printed in the header (``"E-T1"`` for Table I,
        ``"E-F1"`` for Fig. 1; each driver's module docstring names its own).
    title:
        Human-readable caption.
    headers:
        Column names for the tabular part.
    rows:
        Table rows (sequences aligned with ``headers``).
    series:
        Optional curves (for figure experiments).
    notes:
        Free-form provenance / deviation notes printed under the table.
    """

    exp_id: str
    title: str
    headers: Sequence[str] = ()
    rows: list[Sequence[Any]] = field(default_factory=list)
    series: list[Series] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, row: Iterable[Any]) -> None:
        """Append one table row."""
        self.rows.append(tuple(row))

    def add_series(self, series: Series) -> None:
        """Append one curve."""
        self.series.append(series)

    def render(self, floatfmt: str = ".4g") -> str:
        """Render to the text block the benchmark harness prints."""
        parts: list[str] = [f"== {self.exp_id}: {self.title} =="]
        if self.headers:
            table = TextTable(self.headers, floatfmt=floatfmt)
            for row in self.rows:
                table.add_row(row)
            parts.append(table.render())
        for s in self.series:
            label = ", ".join(f"{k}={v}" for k, v in s.meta.items())
            pts = "  ".join(f"({xi:g}, {yi:.4g})" for xi, yi in zip(s.x, s.y))
            parts.append(f"-- {s.name} [{label}]\n   {pts}")
        for note in self.notes:
            parts.append(f"note: {note}")
        return "\n".join(parts)

    def row_dict(self, key_col: int = 0) -> dict[Any, Sequence[Any]]:
        """Index rows by one column (for tests)."""
        return {row[key_col]: row for row in self.rows}
