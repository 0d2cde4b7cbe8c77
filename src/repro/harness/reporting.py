"""Plain-text rendering of experiment results.

The benchmark harness prints the same rows/series the paper's tables and
figures report; these helpers keep the formatting consistent.
"""

from __future__ import annotations

from collections.abc import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Fixed-width table with a header rule."""
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(
    x_label: str,
    y_label: str,
    points: Sequence[tuple[object, float]],
    title: str | None = None,
) -> str:
    """An ASCII bar series (one bar per x value, the peak 40 wide)."""
    values = [v for _, v in points]
    peak = max(values, default=0.0)
    lines: list[str] = []
    if title:
        lines.append(title)
    lines.append(f"{x_label} vs {y_label}")
    x_width = max((len(_fmt(x)) for x, _ in points), default=1)
    for x, v in points:
        filled = int(round(40 * (v / peak))) if peak > 0 else 0
        lines.append(f"{_fmt(x).rjust(x_width)} | {'#' * filled} {_fmt(v)}")
    return "\n".join(lines)


def format_costing_stats(stats, title: str | None = None) -> str:
    """Render a :class:`repro.costing.CostServiceStats` as a counter table."""
    return format_table(["Counter", "Value"], stats.rows(), title=title)


def format_metrics(registry, title: str | None = None) -> str:
    """Render a :class:`repro.obs.MetricsRegistry` as a name-sorted table."""
    rows = [[s.name, s.kind, s.value] for s in registry.samples()]
    if not rows:
        rows = [["(no metrics recorded)", "", ""]]
    return format_table(["Metric", "Kind", "Value"], rows, title=title)


def format_designer_effort(result, title: str | None = None) -> str:
    """Designer-effort table for a :class:`~repro.harness.replay.ReplayResult`:
    query-cost evaluations requested and raw cost-model calls paid, per
    designer."""
    rows = [
        [name, run.total_query_cost_calls, run.total_raw_cost_model_calls]
        for name, run in result.runs.items()
    ]
    return format_table(
        ["Designer", "Cost calls", "Raw model calls"],
        rows,
        title=title,
    )


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.5f}"
    return str(value)
