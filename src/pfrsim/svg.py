"""Hand-rolled SVG line charts: axes, polylines, legend.  No plotting deps."""

from __future__ import annotations

import math
from typing import Sequence

from .numerics import write_text

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")

_W, _H = 900, 560
_ML, _MR, _MT, _MB = 70, 180, 50, 60


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def _plotted(y: float | None) -> bool:
    return y is not None and math.isfinite(y)


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (1.0, 2.0, 2.5, 5.0, 10.0) if s * mag >= raw) * mag
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * abs(hi):
        out.append(t)
        t += step
    return out


def render_line_chart(
    title: str,
    x_label: str,
    y_label: str,
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
) -> str:
    """Render an SVG document; a None or non-finite y value splits its polyline.

    With no finite value at all, the axes and legend span [0, 1] and no
    line is drawn.
    """
    finite = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys) if _plotted(y)]
    xs_all, ys_all = zip(*finite) if finite else ((0.0, 1.0), (0.0, 1.0))
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y: float) -> float:
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
        f'<text x="{_W / 2:.1f}" y="28" text-anchor="middle" font-size="18" '
        f'font-family="sans-serif">{_escape(title)}</text>',
    ]
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        parts.append(
            f'<line x1="{_ML}" y1="{y:.2f}" x2="{_W - _MR}" y2="{y:.2f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" font-size="12" '
            f'font-family="sans-serif">{ty:.4g}</text>'
        )
    for tx in _ticks(x_lo, x_hi, 8):
        x = px(tx)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" y2="{_H - _MB + 5}" '
            'stroke="#000000" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_H - _MB + 20}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{tx:.4g}</text>'
        )
    parts.append(
        f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
        'stroke="#000000" stroke-width="1.5"/>'
    )
    parts.append(
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
        'stroke="#000000" stroke-width="1.5"/>'
    )

    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        segment: list[str] = []
        segments: list[list[str]] = []
        for x, y in zip(xs, ys):
            if _plotted(y):
                segment.append(f"{px(x):.2f},{py(y):.2f}")
            elif segment:
                segments.append(segment)
                segment = []
        if segment:
            segments.append(segment)
        for seg in segments:
            if len(seg) > 1:
                parts.append(
                    f'<polyline fill="none" stroke="{color}" stroke-width="2" '
                    f'points="{" ".join(seg)}"/>'
                )
        ly = _MT + 20 + i * 22
        lx = _W - _MR + 15
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 24}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 30}" y="{ly + 4}" font-size="13" '
            f'font-family="sans-serif">{_escape(label)}</text>'
        )

    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.1f}" y="{_H - 18}" text-anchor="middle" '
        f'font-size="14" font-family="sans-serif">{_escape(x_label)}</text>'
    )
    mid_y = (_MT + _H - _MB) / 2
    parts.append(
        f'<text x="20" y="{mid_y:.1f}" text-anchor="middle" font-size="14" '
        f'font-family="sans-serif" transform="rotate(-90 20 {mid_y:.1f})">'
        f"{_escape(y_label)}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_line_chart(path, title, x_label, y_label, series) -> None:
    """Write ``render_line_chart``'s document to a path or open file."""
    write_text(path, render_line_chart(title, x_label, y_label, series))
