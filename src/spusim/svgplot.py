"""Minimal static SVG line plots (axes plus series, no dependencies).

Quantitative artifacts are always CSV; these renderings exist for quick
visual inspection only.
"""

from __future__ import annotations

import math
from pathlib import Path

_COLORS = ("#c0392b", "#2c3e50", "#27ae60", "#8e44ad", "#d35400", "#16a085")


def _transform(value: float, lo: float, hi: float, out_lo: float, out_hi: float,
               log: bool) -> float:
    if log:
        value, lo, hi = math.log10(value), math.log10(lo), math.log10(hi)
    if hi == lo:
        return 0.5 * (out_lo + out_hi)
    return out_lo + (value - lo) / (hi - lo) * (out_hi - out_lo)


def line_plot(path: str | Path, series: list[tuple], title: str = "",
              xlabel: str = "", ylabel: str = "", log_x: bool = False,
              log_y: bool = False) -> Path:
    """Write a 640 x 440 px SVG with one polyline per (x, y, label) triple."""
    path = Path(path)
    width, height, margin = 640, 440, 60
    xs = [float(x) for x, _, _ in series for x in x]
    ys = [float(y) for _, y, _ in series for y in y]
    if log_x:
        xs = [x for x in xs if x > 0]
    if log_y:
        ys = [y for y in ys if y > 0]
    if not xs or not ys:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="#888"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {height / 2:.1f})">{ylabel}</text>',
    ]
    for idx, (x, y, label) in enumerate(series):
        pts = []
        for xv, yv in zip(x, y):
            xv, yv = float(xv), float(yv)
            if (log_x and xv <= 0) or (log_y and yv <= 0):
                continue
            px = _transform(xv, x_lo, x_hi, margin, width - margin, log_x)
            py = _transform(yv, y_lo, y_hi, height - margin, margin, log_y)
            pts.append(f"{px:.2f},{py:.2f}")
        color = _COLORS[idx % len(_COLORS)]
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                     f'stroke="{color}" stroke-width="1.6"/>')
        parts.append(f'<text x="{width - margin - 6}" y="{margin + 16 + 16 * idx}" '
                     f'text-anchor="end" font-family="sans-serif" font-size="12" '
                     f'fill="{color}">{label}</text>')
    for bound, anchor, px, py in (
        (x_lo, "middle", margin, height - margin + 16),
        (x_hi, "middle", width - margin, height - margin + 16),
        (y_lo, "end", margin - 6, height - margin),
        (y_hi, "end", margin - 6, margin + 4),
    ):
        parts.append(f'<text x="{px}" y="{py}" text-anchor="{anchor}" '
                     f'font-family="sans-serif" font-size="10">{bound:.3g}</text>')
    parts.append("</svg>")
    path.write_text("\n".join(parts))
    return path
