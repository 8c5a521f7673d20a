"""Minimal standalone SVG line chart for sweep output; no plot library."""

from __future__ import annotations

from typing import Sequence

_WIDTH, _HEIGHT = 800, 500
_ML, _MR, _MT, _MB = 70, 25, 40, 55
_SERIES = (("e0_full", "#1f77b4"), ("e0_even", "#2ca02c"), ("e0_odd", "#d62728"))


def _ticks(lo: float, hi: float, n: int = 6) -> list:
    span = hi - lo
    return [lo + span * i / (n - 1) for i in range(n)]


def _limits(values: list) -> tuple:
    """(lo, hi) of values, (0, 1) for none; a constant column spans [v, v + 1]."""
    lo, hi = (min(values), max(values)) if values else (0.0, 1.0)
    return lo, hi if hi != lo else lo + 1.0


def _line(x1, y1, x2, y2, stroke="black", width=1) -> str:
    """One <line>; the coordinates come formatted as they are to be written."""
    return (f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _text(x, y, size, body, anchor="", extra="") -> str:
    """One sans-serif <text>; extra holds further attributes, each with its leading space."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{extra}>{body}</text>')


def render_sweep_svg(records: Sequence) -> str:
    """Render the available energy columns of a sweep as one SVG document."""
    series = []
    for column, color in _SERIES:
        pts = [(rec.f, getattr(rec, column)) for rec in records if getattr(rec, column) is not None]
        if pts:
            series.append((column, color, pts))
    x_lo, x_hi = _limits([rec.f for rec in records])
    y_lo, y_hi = _limits([y for _, _, pts in series for _, y in pts])
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_WIDTH - _ML - _MR)

    def py(y: float) -> float:
        return _HEIGHT - _MB - (y - y_lo) / (y_hi - y_lo) * (_HEIGHT - _MT - _MB)

    axis, mid = _HEIGHT - _MB, f"{(_MT + _HEIGHT - _MB) / 2:.1f}"
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        _text(f"{_WIDTH / 2:.1f}", 24, 16, "ground energy vs flux", "middle"),
        _line(_ML, axis, _WIDTH - _MR, axis),
        _line(_ML, _MT, _ML, axis),
    ]
    for t in _ticks(x_lo, x_hi):
        x = f"{px(t):.2f}"
        parts += [_line(x, axis, x, axis + 5), _text(x, axis + 20, 12, f"{t:.3g}", "middle")]
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts += [_line(_ML - 5, f"{y:.2f}", _ML, f"{y:.2f}"),
                  _text(_ML - 8, f"{y + 4:.2f}", 12, f"{t:.4g}", "end")]
    parts += [
        _text(f"{(_ML + _WIDTH - _MR) / 2:.1f}", _HEIGHT - 12, 14,
              "f = &#x3a6;/&#x3a6;&#x2080;", "middle"),
        _text(18, mid, 14, "energy [tx]", "middle", f' transform="rotate(-90 18 {mid})"'),
    ]
    for idx, (column, color, pts) in enumerate(series):
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        ly, lx = _MT + 16 + 18 * idx, _WIDTH - _MR - 130
        parts += [f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>',
                  _line(lx, ly - 4, lx + 24, ly - 4, color, 2), _text(lx + 30, ly, 12, column)]
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
