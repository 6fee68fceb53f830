"""Plain-text rendering of tables and daily series.

Benchmarks print the same rows and series the paper's tables and figures
report; these helpers keep that output consistent and readable in a
terminal.
"""

from __future__ import annotations

from typing import Sequence

from .timeseries import DailySeries

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width table with right-aligned numeric columns."""
    texts = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(row[i]) for row in texts)) if texts
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * width for width in widths))
    for row in texts:
        lines.append(
            "  ".join(
                cell.rjust(widths[i]) if _is_numeric(cell) else cell.ljust(widths[i])
                for i, cell in enumerate(row)
            )
        )
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.6f}" if abs(cell) < 1000 else f"{cell:,.2f}"
    return str(cell)


def _is_numeric(text: str) -> bool:
    try:
        float(text.replace(",", ""))
    except ValueError:
        return False
    return True


def sparkline(values: Sequence[float]) -> str:
    """Unicode sparkline of a series."""
    if not values:
        return ""
    low = min(values)
    high = max(values)
    span = high - low or 1.0
    return "".join(
        _SPARK_CHARS[
            min(len(_SPARK_CHARS) - 1, int((v - low) / span * len(_SPARK_CHARS)))
        ]
        for v in values
    )


def render_series(series: DailySeries, width: int = 60) -> str:
    """One-line summary of a daily series with a sparkline."""
    values = list(series.values)
    if len(values) > width:
        # Downsample evenly for display.
        step = len(values) / width
        values = [values[int(i * step)] for i in range(width)]
    head = f"{series.name}: "
    stats = (
        f" [first={series.values[0]:.4f} mean={series.mean():.4f} "
        f"last={series.values[-1]:.4f}]"
    )
    return head + sparkline(values) + stats


def render_split_series(pbs: DailySeries, non_pbs: DailySeries) -> str:
    """Two-line PBS vs non-PBS comparison."""
    return "\n".join((render_series(pbs), render_series(non_pbs)))
