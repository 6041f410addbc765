"""Plain-text table rendering for the experiment harness.

The benchmark scripts and examples print their measurement rows through these
helpers so that the output format is consistent across experiments.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

__all__ = ["format_table", "format_row", "format_kv", "print_table"]


def _stringify(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}"
    return str(value)


def format_row(row: Mapping[str, Any], columns: Sequence[str]) -> list[str]:
    """Extract and stringify the requested columns of a measurement dict."""
    return [_stringify(row.get(column, "")) for column in columns]


def format_table(rows: Sequence[Mapping[str, Any]], columns: Sequence[str] | None = None) -> str:
    """Render measurement dicts as an aligned plain-text table."""
    if not rows:
        return "(no data)"
    if columns is None:
        columns = list(rows[0].keys())
    header = [str(column) for column in columns]
    body = [format_row(row, columns) for row in rows]
    widths = [
        max(len(header[i]), *(len(line[i]) for line in body)) if body else len(header[i])
        for i in range(len(columns))
    ]
    lines = [
        "  ".join(header[i].ljust(widths[i]) for i in range(len(columns))),
        "  ".join("-" * widths[i] for i in range(len(columns))),
    ]
    for line in body:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)


def format_kv(values: Mapping[str, Any], title: str | None = None) -> str:
    """Render a flat mapping as an aligned ``key  value`` block.

    Used by the serving layer's batch reports, where a single measurement dict
    (cache hit rate, rounds, wall clock) reads better as a column than as a
    one-row table.
    """
    if not values:
        return "(no data)"
    width = max(len(str(key)) for key in values)
    lines = [f"[{title}]"] if title else []
    lines.extend(f"{str(key).ljust(width)}  {_stringify(value)}" for key, value in values.items())
    return "\n".join(lines)


def print_table(rows: Sequence[Mapping[str, Any]], columns: Sequence[str] | None = None) -> None:
    """Print the table (convenience wrapper used by the examples)."""
    print(format_table(rows, columns))
