"""Plain-text table rendering for the experiment harnesses.

Every benchmark and experiment driver prints the same rows the paper
reports; :class:`TextTable` keeps that output aligned and diff-friendly
(no external tabulate dependency).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence


class TextTable:
    """Accumulate rows and render them as an aligned monospace table.

    Parameters
    ----------
    headers:
        Column titles.
    title:
        Optional caption printed above the table.
    floatfmt:
        Default format spec applied to ``float`` cells (e.g. ``'.2f'``).
    """

    def __init__(
        self,
        headers: Sequence[str],
        title: str | None = None,
        floatfmt: str = ".3g",
    ) -> None:
        self.headers = [str(h) for h in headers]
        self.title = title
        self.floatfmt = floatfmt
        self._rows: list[list[str]] = []

    def add_row(self, cells: Iterable[Any]) -> None:
        """Append one row; cells are stringified using ``floatfmt``."""
        row = [self._fmt(c) for c in cells]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, table has {len(self.headers)} columns"
            )
        self._rows.append(row)

    def _fmt(self, cell: Any) -> str:
        if cell is None:
            return "-"
        if isinstance(cell, bool):
            return "yes" if cell else "no"
        if isinstance(cell, float):
            return format(cell, self.floatfmt)
        return str(cell)

    def render(self) -> str:
        """Return the formatted table as a single string."""
        widths = [len(h) for h in self.headers]
        for row in self._rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        sep = "-+-".join("-" * w for w in widths)
        lines: list[str] = []
        if self.title:
            lines.append(self.title)
        lines.append(" | ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        lines.append(sep)
        for row in self._rows:
            lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)
