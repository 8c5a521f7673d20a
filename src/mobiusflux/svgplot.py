"""Minimal standalone SVG line chart for sweep output; no plot library."""

from __future__ import annotations

from typing import Sequence

_WIDTH, _HEIGHT = 800, 500
_ML, _MR, _MT, _MB = 70, 25, 40, 55
_SERIES = (("e0_full", "#1f77b4"), ("e0_even", "#2ca02c"), ("e0_odd", "#d62728"))


def _ticks(lo: float, hi: float, n: int = 6) -> list:
    span = hi - lo
    return [lo + span * i / (n - 1) for i in range(n)]


def render_sweep_svg(records: Sequence) -> str:
    """Render the available energy columns of a sweep as one SVG document."""
    series = []
    for column, color in _SERIES:
        pts = [(rec.f, getattr(rec, column)) for rec in records if getattr(rec, column) is not None]
        if pts:
            series.append((column, color, pts))
    xs = [rec.f for rec in records]
    ys = [y for _, _, pts in series for _, y in pts]
    x_lo, x_hi = (min(xs), max(xs)) if xs else (0.0, 1.0)
    y_lo, y_hi = (min(ys), max(ys)) if ys else (0.0, 1.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - _ML - _MR)

    def py(y: float) -> float:
        return _HEIGHT - _MB - (y - y_lo) / (y_hi - y_lo) * (_HEIGHT - _MT - _MB)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        'font-family="sans-serif" font-size="16">ground energy vs flux</text>',
        f'<line x1="{_ML}" y1="{_HEIGHT - _MB}" x2="{_WIDTH - _MR}" y2="{_HEIGHT - _MB}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_HEIGHT - _MB}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_HEIGHT - _MB}" x2="{x:.2f}" y2="{_HEIGHT - _MB + 5}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_HEIGHT - _MB + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{t:.3g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{t:.4g}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _WIDTH - _MR) / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        'font-family="sans-serif" font-size="14">f = &#x3a6;/&#x3a6;&#x2080;</text>'
    )
    parts.append(
        f'<text x="18" y="{(_MT + _HEIGHT - _MB) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 18 {(_MT + _HEIGHT - _MB) / 2:.1f})">energy [tx]</text>'
    )
    for idx, (column, color, pts) in enumerate(series):
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        ly = _MT + 16 + 18 * idx
        lx = _WIDTH - _MR - 130
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{column}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
