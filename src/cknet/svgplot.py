"""Minimal deterministic SVG plotting.

Hand-rolled string assembly rather than a plotting library so that
identical inputs produce byte-identical files. Axes and ticks are drawn
with ``<line>`` elements; data series are ``<polyline>`` (lines) and
``<circle>`` (markers) only.
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Series", "plot"]

_MARGIN_LEFT = 64.0
_MARGIN_RIGHT = 16.0
_MARGIN_TOP = 28.0
_MARGIN_BOTTOM = 46.0
_WIDTH, _HEIGHT = 640, 440
_MARKER_RADIUS = 2.5


def _fmt(value: float) -> str:
    return f"{value:.6g}"


@dataclass
class Series:
    """One plottable series: list of (x, y) pairs in data coordinates."""

    points: list
    color: str = "#1f77b4"
    line: bool = True
    markers: bool = False
    opacity: float = 1.0


@dataclass
class _Frame:
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def x(self, v: float) -> float:
        span = self.x_max - self.x_min or 1.0
        return _MARGIN_LEFT + (v - self.x_min) / span * (_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT)

    def y(self, v: float) -> float:
        span = self.y_max - self.y_min or 1.0
        return _HEIGHT - _MARGIN_BOTTOM - (v - self.y_min) / span * (_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM)


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if lo == hi:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def plot(
    series: list[Series],
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    comment: str = "",
) -> str:
    """Render series into a standalone 640x440 SVG string."""
    if not series or any(len(s.points) == 0 for s in series):
        raise ValueError("plot requires at least one non-empty series")
    xs = [p[0] for s in series for p in s.points]
    ys = [p[1] for s in series for p in s.points]
    pad = lambda lo, hi: ((hi - lo) or max(abs(lo), 1.0)) * 0.05
    frame = _Frame(
        min(xs) - pad(min(xs), max(xs)),
        max(xs) + pad(min(xs), max(xs)),
        min(ys) - pad(min(ys), max(ys)),
        max(ys) + pad(min(ys), max(ys)),
    )
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    ]
    if comment:
        parts.append(f"<!-- {comment} -->")
    parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')

    x_axis_y = frame.y(frame.y_min)
    y_axis_x = frame.x(frame.x_min)
    x_end = frame.x(frame.x_max)
    y_end = frame.y(frame.y_max)
    axis = 'stroke="black" stroke-width="1"'
    parts.append(f'<line x1="{_fmt(y_axis_x)}" y1="{_fmt(x_axis_y)}" x2="{_fmt(x_end)}" y2="{_fmt(x_axis_y)}" {axis}/>')
    parts.append(f'<line x1="{_fmt(y_axis_x)}" y1="{_fmt(x_axis_y)}" x2="{_fmt(y_axis_x)}" y2="{_fmt(y_end)}" {axis}/>')

    for tick in _ticks(frame.x_min, frame.x_max):
        px = frame.x(tick)
        parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(x_axis_y)}" x2="{_fmt(px)}" y2="{_fmt(x_axis_y + 5)}" {axis}/>')
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(x_axis_y + 18)}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{_fmt(tick)}</text>'
        )
    for tick in _ticks(frame.y_min, frame.y_max):
        py = frame.y(tick)
        parts.append(f'<line x1="{_fmt(y_axis_x - 5)}" y1="{_fmt(py)}" x2="{_fmt(y_axis_x)}" y2="{_fmt(py)}" {axis}/>')
        parts.append(
            f'<text x="{_fmt(y_axis_x - 8)}" y="{_fmt(py + 4)}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{_fmt(tick)}</text>'
        )

    if title:
        parts.append(
            f'<text x="{_fmt(_WIDTH / 2)}" y="18" font-size="14" text-anchor="middle" '
            f'font-family="sans-serif">{title}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_fmt(_WIDTH / 2)}" y="{_fmt(_HEIGHT - 10)}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{xlabel}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="14" y="{_fmt(_HEIGHT / 2)}" font-size="12" text-anchor="middle" '
            f'font-family="sans-serif" transform="rotate(-90 14 {_fmt(_HEIGHT / 2)})">{ylabel}</text>'
        )

    for s in series:
        if s.line and len(s.points) >= 2:
            coords = " ".join(f"{_fmt(frame.x(x))},{_fmt(frame.y(y))}" for x, y in s.points)
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{s.color}" '
                f'stroke-width="1.5" opacity="{_fmt(s.opacity)}"/>'
            )
        if s.markers or len(s.points) == 1:
            for x, y in s.points:
                parts.append(
                    f'<circle cx="{_fmt(frame.x(x))}" cy="{_fmt(frame.y(y))}" '
                    f'r="{_fmt(_MARKER_RADIUS)}" fill="{s.color}" opacity="{_fmt(s.opacity)}"/>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
