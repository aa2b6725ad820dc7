"""Accuracy-vs-missing-rate reports: fixed-width text and a small SVG.

Both renderers are deterministic down to the byte for a given metrics
table: values are averaged over heads and seeds, methods and rates are
sorted, and floats are printed with fixed precision.
"""

from __future__ import annotations

from collections import defaultdict

from .errors import DataError
from .protocol import MetricsTable

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def accuracy_curves(table: MetricsTable) -> tuple[list[str], list[float], dict]:
    """Mean accuracy per (method, r_test), averaged over heads and seeds.

    Returns (methods, rates, curves) with curves[method][rate] -> float.
    """
    if not table.rows:
        raise DataError("metrics table is empty")
    acc: dict = defaultdict(list)
    for m, r, _h, _s, a, _n in table.rows:
        acc[(m, float(r))].append(a)
    methods = sorted({m for m, _ in acc})
    rates = sorted({r for _, r in acc})
    curves = {
        m: {r: sum(acc[(m, r)]) / len(acc[(m, r)]) for r in rates if (m, r) in acc}
        for m in methods
    }
    return methods, rates, curves


def render_text(table: MetricsTable) -> str:
    """One row per test rate, one column per method, percent accuracy."""
    methods, rates, curves = accuracy_curves(table)
    width = max(8, max(len(m) for m in methods) + 2)
    lines = ["r_test".ljust(8) + "".join(m.rjust(width) for m in methods)]
    for r in rates:
        cells = []
        for m in methods:
            v = curves[m].get(r)
            cells.append(("-" if v is None else f"{100 * v:.2f}").rjust(width))
        lines.append(f"{r:g}%".ljust(8) + "".join(cells))
    return "\n".join(lines) + "\n"


def render_svg(table: MetricsTable) -> str:
    """Line chart of the same curves; no plotting dependency, pure markup."""
    methods, rates, curves = accuracy_curves(table)
    width, height = 640, 420
    left, right, top, bottom = 62.0, 20.0, 24.0, 46.0
    px = width - left - right
    py = height - top - bottom
    r_lo, r_hi = min(rates), max(rates)
    r_span = (r_hi - r_lo) or 1.0

    def x_at(r: float) -> float:
        return left + px * (r - r_lo) / r_span

    def y_at(acc: float) -> float:
        return top + py * (1.0 - acc)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # horizontal gridlines every 20 accuracy points
    for tick in range(0, 101, 20):
        y = y_at(tick / 100.0)
        parts.append(
            f'<line x1="{left:.1f}" y1="{y:.1f}" x2="{width - right:.1f}" y2="{y:.1f}" '
            f'stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{left - 8:.1f}" y="{y + 4:.1f}" text-anchor="end">{tick}%</text>'
        )
    for r in rates:
        x = x_at(r)
        parts.append(
            f'<text x="{x:.1f}" y="{height - bottom + 18:.1f}" text-anchor="middle">{r:g}%</text>'
        )
    parts.append(
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}" y2="{height - bottom:.1f}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{left:.1f}" y1="{height - bottom:.1f}" x2="{width - right:.1f}" '
        f'y2="{height - bottom:.1f}" stroke="black"/>'
    )
    parts.append(
        f'<text x="{(left + width - right) / 2:.1f}" y="{height - 8:.1f}" '
        f'text-anchor="middle">missing fraction of the test split</text>'
    )

    for i, m in enumerate(methods):
        color = _PALETTE[i % len(_PALETTE)]
        pts = [(x_at(r), y_at(v)) for r, v in sorted(curves[m].items())]
        path = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for x, y in pts:
            parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="{color}"/>')
        ly = top + 16 * i
        parts.append(
            f'<line x1="{width - right - 120:.1f}" y1="{ly:.1f}" '
            f'x2="{width - right - 100:.1f}" y2="{ly:.1f}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{width - right - 94:.1f}" y="{ly + 4:.1f}">{m}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
