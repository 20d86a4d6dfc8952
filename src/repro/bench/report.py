"""Plain-text tables for benchmark output.

Each ``benchmarks/bench_fig*.py`` prints the same rows/series the
paper's figure reports; these helpers keep the formatting uniform.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "format_table",
    "format_seconds",
    "format_bytes",
]


def format_seconds(seconds: float) -> str:
    """Human scale: µs below 1 ms, ms below 1 s, else seconds."""
    if seconds < 1e-3:
        return f"{seconds * 1e6:.1f} µs"
    if seconds < 1.0:
        return f"{seconds * 1e3:.2f} ms"
    return f"{seconds:.3f} s"


def format_bytes(count: int | float) -> str:
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{value:.1f} GiB"  # pragma: no cover - unreachable


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned monospace table."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for column, value in enumerate(row):
            widths[column] = max(widths[column], len(value))
    lines = []
    if title:
        lines.append(title)
    header_line = " | ".join(
        header.ljust(widths[column]) for column, header in enumerate(headers)
    )
    lines.append(header_line)
    lines.append("-+-".join("-" * width for width in widths))
    for row in cells:
        lines.append(
            " | ".join(
                value.ljust(widths[column]) for column, value in enumerate(row)
            )
        )
    return "\n".join(lines)
