"""Plain-text table formatting for experiment output.

The experiments CLI and the figure benchmarks print the same rows the paper
reports (Table 2, Figures 7-12).  No plotting dependencies are used; the
formatter produces aligned text tables that are easy to diff.
"""

from __future__ import annotations

import io
from typing import Mapping, Optional, Sequence


def _fmt(value: object, precision: int) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.{precision}e}"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
    precision: int = 4,
) -> str:
    """Format a list of row dictionaries as an aligned text table."""
    rows = list(rows)
    if columns is None:
        columns = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(key)
    header = [str(c) for c in columns]
    body = [[_fmt(row.get(c, ""), precision) for c in columns] for row in rows]
    widths = [len(h) for h in header]
    for line in body:
        for i, cell in enumerate(line):
            widths[i] = max(widths[i], len(cell))
    out = io.StringIO()
    if title:
        out.write(title + "\n")
    out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
    out.write("  ".join("-" * w for w in widths) + "\n")
    for line in body:
        out.write("  ".join(c.ljust(w) for c, w in zip(line, widths)).rstrip() + "\n")
    return out.getvalue()
