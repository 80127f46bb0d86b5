"""Deterministic SVG chart rendering: line charts, labeled scatter plots,
and box plots on a fixed 800x600 canvas. Output contains no timestamps or
random identifiers, so identical inputs yield byte-identical files.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ValidationError

WIDTH, HEIGHT = 800, 600
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 80, 40, 50, 70

SERIES_COLORS = ("#1f6fb4", "#d1495b", "#3a9b6e", "#8667a8")
LABEL_COLORS = {0: "#1f6fb4", 1: "#d1495b"}
# the characters XML text content may not hold literally
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})

_PLOT_W = WIDTH - MARGIN_L - MARGIN_R
_PLOT_H = HEIGHT - MARGIN_T - MARGIN_B


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _tick_values(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = np.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-9 * step:
        ticks.append(float(v))
        if v + step == v:  # step below the float spacing at this magnitude
            break
        v += step
    return ticks


class _Canvas:
    def __init__(self, title: str):
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        ]
        self.text(f'x="{WIDTH // 2}" y="28" text-anchor="middle" '
                  f'font-family="sans-serif" font-size="18"', title)

    def add(self, element: str) -> None:
        self.parts.append(element)

    def text(self, attrs: str, content: str) -> None:
        """A <text> element; its content is escaped, so any string is safe."""
        self.add(f"<text {attrs}>{content.translate(_XML_ESCAPES)}</text>")

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


class _Axes:
    """Maps data coordinates into the fixed plot rectangle."""

    def __init__(self, canvas: _Canvas, x_range, y_range, xlabel: str, ylabel: str):
        self.canvas = canvas
        x_lo, x_hi = x_range
        y_lo, y_hi = y_range
        if x_hi <= x_lo:
            x_hi = x_lo + 1.0
        if y_hi <= y_lo:
            y_hi = y_lo + 1.0
        pad_x = 0.04 * (x_hi - x_lo)
        pad_y = 0.06 * (y_hi - y_lo)
        self.x_lo, self.x_hi = x_lo - pad_x, x_hi + pad_x
        self.y_lo, self.y_hi = y_lo - pad_y, y_hi + pad_y
        # finite values can still span more than the largest float
        if not math.isfinite(self.x_hi - self.x_lo) or not math.isfinite(self.y_hi - self.y_lo):
            raise ValidationError("plot: data range too wide to draw")
        self._frame(xlabel, ylabel)

    def px(self, x: float) -> float:
        return MARGIN_L + (x - self.x_lo) / (self.x_hi - self.x_lo) * _PLOT_W

    def py(self, y: float) -> float:
        return MARGIN_T + _PLOT_H - (y - self.y_lo) / (self.y_hi - self.y_lo) * _PLOT_H

    def _frame(self, xlabel: str, ylabel: str) -> None:
        c = self.canvas
        c.add(
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{_PLOT_W}" '
            f'height="{_PLOT_H}" fill="none" stroke="#333333"/>'
        )
        for tx in _tick_values(self.x_lo, self.x_hi):
            px = self.px(tx)
            c.add(
                f'<line x1="{_fmt(px)}" y1="{MARGIN_T + _PLOT_H}" x2="{_fmt(px)}" '
                f'y2="{MARGIN_T + _PLOT_H + 6}" stroke="#333333"/>'
            )
            c.text(
                f'x="{_fmt(px)}" y="{MARGIN_T + _PLOT_H + 22}" '
                f'text-anchor="middle" font-family="sans-serif" font-size="12"',
                f"{tx:g}",
            )
        for ty in _tick_values(self.y_lo, self.y_hi):
            py = self.py(ty)
            c.add(
                f'<line x1="{MARGIN_L - 6}" y1="{_fmt(py)}" x2="{MARGIN_L}" '
                f'y2="{_fmt(py)}" stroke="#333333"/>'
            )
            c.text(
                f'x="{MARGIN_L - 10}" y="{_fmt(py + 4)}" text-anchor="end" '
                f'font-family="sans-serif" font-size="12"',
                f"{ty:g}",
            )
        c.text(
            f'x="{MARGIN_L + _PLOT_W // 2}" y="{HEIGHT - 20}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="14"',
            xlabel,
        )
        c.text(
            f'x="24" y="{MARGIN_T + _PLOT_H // 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14" '
            f'transform="rotate(-90 24 {MARGIN_T + _PLOT_H // 2})"',
            ylabel,
        )


def line_chart(
    series: list[tuple[str, list[float], list[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Multi-series line chart with circle markers and a legend."""
    canvas = _Canvas(title)
    all_x = [x for _, xs, _ in series for x in xs]
    all_y = [y for _, _, ys in series for y in ys]
    axes = _Axes(canvas, (min(all_x), max(all_x)), (min(all_y), max(all_y)), xlabel, ylabel)
    for k, (name, xs, ys) in enumerate(series):
        color = SERIES_COLORS[k % len(SERIES_COLORS)]
        pts = " ".join(f"{_fmt(axes.px(x))},{_fmt(axes.py(y))}" for x, y in zip(xs, ys))
        canvas.add(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for x, y in zip(xs, ys):
            canvas.add(
                f'<circle cx="{_fmt(axes.px(x))}" cy="{_fmt(axes.py(y))}" r="3.5" '
                f'fill="{color}"/>'
            )
        ly = MARGIN_T + 16 + 20 * k
        lx = MARGIN_L + _PLOT_W - 150
        canvas.add(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 26}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        canvas.text(f'x="{lx + 32}" y="{ly + 4}" font-family="sans-serif" '
                    f'font-size="12"', name)
    return canvas.render()


def scatter_chart(
    points: list[tuple[float, float, int]], title: str, xlabel: str, ylabel: str
) -> str:
    """Scatter with one marker per point, colored by binary label."""
    canvas = _Canvas(title)
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    axes = _Axes(canvas, (min(xs), max(xs)), (min(ys), max(ys)), xlabel, ylabel)
    for x, y, label in points:
        color = LABEL_COLORS.get(int(label), "#777777")
        canvas.add(
            f'<circle cx="{_fmt(axes.px(x))}" cy="{_fmt(axes.py(y))}" r="3" '
            f'fill="{color}" fill-opacity="0.75"/>'
        )
    for k, (label, color) in enumerate(sorted(LABEL_COLORS.items())):
        ly = MARGIN_T + 16 + 20 * k
        lx = MARGIN_L + _PLOT_W - 120
        canvas.add(f'<circle cx="{lx}" cy="{ly}" r="4" fill="{color}"/>')
        canvas.text(f'x="{lx + 10}" y="{ly + 4}" font-family="sans-serif" '
                    f'font-size="12"', f"label {label}")
    return canvas.render()


def box_plot(
    groups: list[tuple[str, dict[str, float]]], title: str, xlabel: str, ylabel: str
) -> str:
    """One box per group from precomputed quartiles and whiskers."""
    canvas = _Canvas(title)
    y_lo = min(g["whisker_lo"] for _, g in groups)
    y_hi = max(g["whisker_hi"] for _, g in groups)
    axes = _Axes(canvas, (0.0, float(len(groups))), (y_lo, y_hi), xlabel, ylabel)
    box_w = 0.3
    for k, (name, g) in enumerate(groups):
        cx = k + 0.5
        x0, x1 = axes.px(cx - box_w / 2), axes.px(cx + box_w / 2)
        xc = axes.px(cx)
        q1, med, q3 = axes.py(g["q1"]), axes.py(g["median"]), axes.py(g["q3"])
        wl, wh = axes.py(g["whisker_lo"]), axes.py(g["whisker_hi"])
        color = SERIES_COLORS[k % len(SERIES_COLORS)]
        canvas.add(
            f'<line x1="{_fmt(xc)}" y1="{_fmt(wl)}" x2="{_fmt(xc)}" y2="{_fmt(q1)}" '
            f'stroke="#333333"/>'
        )
        canvas.add(
            f'<line x1="{_fmt(xc)}" y1="{_fmt(q3)}" x2="{_fmt(xc)}" y2="{_fmt(wh)}" '
            f'stroke="#333333"/>'
        )
        for wy in (wl, wh):
            canvas.add(
                f'<line x1="{_fmt(axes.px(cx - box_w / 4))}" y1="{_fmt(wy)}" '
                f'x2="{_fmt(axes.px(cx + box_w / 4))}" y2="{_fmt(wy)}" '
                f'stroke="#333333"/>'
            )
        canvas.add(
            f'<rect x="{_fmt(x0)}" y="{_fmt(q3)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(q1 - q3)}" fill="{color}" fill-opacity="0.4" '
            f'stroke="#333333"/>'
        )
        canvas.add(
            f'<line x1="{_fmt(x0)}" y1="{_fmt(med)}" x2="{_fmt(x1)}" y2="{_fmt(med)}" '
            f'stroke="#333333" stroke-width="2"/>'
        )
        canvas.text(f'x="{_fmt(xc)}" y="{MARGIN_T + _PLOT_H + 40}" text-anchor="middle" '
                    f'font-family="sans-serif" font-size="13"', name)
    return canvas.render()
