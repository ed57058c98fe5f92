"""Tiny self-contained SVG line plotter.

Enough to render the toolkit's figures (probability and budget curves)
without pulling in a plotting stack.  The contract consumers rely on:
the document contains exactly one ``<polyline>`` element per data
series, in declaration order; axes, ticks, frame and legend are built
from ``<line>``, ``<rect>`` and ``<text>`` only.  Output text is fully
deterministic for identical input.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["line_plot"]

_PALETTE = (
    "#1f6fb2",
    "#d1495b",
    "#3a9d4e",
    "#8338ec",
    "#e36414",
    "#00707e",
    "#9a6324",
    "#5c5c5c",
)

_WIDTH = 640
_HEIGHT = 440
_MARGIN_LEFT = 62.0
_MARGIN_RIGHT = 18.0
_MARGIN_TOP = 42.0
_MARGIN_BOTTOM = 52.0


def _finite_points(
    label: str, x: Sequence[float], y: Sequence[float]
) -> Tuple[np.ndarray, np.ndarray]:
    """The curve's points with both coordinates finite."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"series {label!r} needs matching 1-D x and y")
    keep = np.isfinite(x) & np.isfinite(y)
    return x[keep], y[keep]


def _tick_values(lo: float, hi: float, target: int = 5) -> list[float]:
    """Round-numbered tick positions covering [lo, hi]."""
    if not hi > lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / target
    step = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= step * mult:
            step *= mult
            break
    first_idx = math.ceil(lo / step - 1e-9)
    last_idx = math.floor(hi / step + 1e-9)
    if last_idx - first_idx > 4 * target:
        # Step underflowed the float resolution of the interval; fall
        # back to the bare endpoints rather than spraying ticks.
        return [lo, hi]
    ticks = [idx * step for idx in range(first_idx, last_idx + 1)]
    return [0.0 if abs(v) < 1e-12 * span else v for v in ticks]


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _escape(text: str) -> str:
    """``text`` as SVG character data: ``&``, ``<`` and ``>`` escaped."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _fmt_tick(value: float) -> str:
    return f"{value:g}"


def line_plot(
    series: Sequence[Tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    x_label: str,
    y_label: str,
    y_range: Optional[Tuple[float, float]] = None,
) -> str:
    """Render labeled ``(label, x, y)`` curves to an SVG document string;
    non-finite points are dropped.

    ``y_range`` pins the vertical axis (e.g. (0, 1.05) for probability
    curves); by default both axes fit the data with a small pad.
    """
    if not series:
        raise ValueError("need at least one series")
    rendered = [_finite_points(*s) for s in series]

    xs = np.concatenate([p[0] for p in rendered])
    ys = np.concatenate([p[1] for p in rendered])
    if xs.size == 0:
        x_lo, x_hi = 0.0, 1.0
    else:
        x_lo, x_hi = float(xs.min()), float(xs.max())
        if x_hi - x_lo <= 1e-9 * max(1.0, abs(x_lo), abs(x_hi)):
            x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_range is not None:
        y_lo, y_hi = float(y_range[0]), float(y_range[1])
        if not y_hi > y_lo:
            raise ValueError("y_range must have positive extent")
    elif ys.size == 0:
        y_lo, y_hi = 0.0, 1.0
    else:
        y_lo, y_hi = float(ys.min()), float(ys.max())
        if y_hi - y_lo <= 1e-9 * max(1.0, abs(y_lo), abs(y_hi)):
            y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def to_px(x: float, y: float) -> Tuple[float, float]:
        px = _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w
        py = _MARGIN_TOP + (1.0 - (y - y_lo) / (y_hi - y_lo)) * plot_h
        return px, py

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        f'<text x="{_fmt(_WIDTH / 2)}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">'
        f"{_escape(title)}</text>",
    ]

    # Tick marks, grid lines and numeric labels.
    for tx in _tick_values(x_lo, x_hi):
        if not x_lo <= tx <= x_hi:
            continue
        px, _ = to_px(tx, y_lo)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{_fmt(_MARGIN_TOP)}" x2="{_fmt(px)}" '
            f'y2="{_fmt(_MARGIN_TOP + plot_h)}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{_fmt(_MARGIN_TOP + plot_h + 18)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f"{_fmt_tick(tx)}</text>"
        )
    for ty in _tick_values(y_lo, y_hi):
        if not y_lo <= ty <= y_hi:
            continue
        _, py = to_px(x_lo, ty)
        parts.append(
            f'<line x1="{_fmt(_MARGIN_LEFT)}" y1="{_fmt(py)}" '
            f'x2="{_fmt(_MARGIN_LEFT + plot_w)}" y2="{_fmt(py)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(_MARGIN_LEFT - 8)}" y="{_fmt(py + 4)}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11">'
            f"{_fmt_tick(ty)}</text>"
        )

    parts.append(
        f'<rect x="{_fmt(_MARGIN_LEFT)}" y="{_fmt(_MARGIN_TOP)}" '
        f'width="{_fmt(plot_w)}" height="{_fmt(plot_h)}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{_fmt(_MARGIN_LEFT + plot_w / 2)}" y="{_fmt(_HEIGHT - 14)}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="13">'
        f"{_escape(x_label)}</text>"
    )
    parts.append(
        f'<text x="18" y="{_fmt(_MARGIN_TOP + plot_h / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {_fmt(_MARGIN_TOP + plot_h / 2)})">'
        f"{_escape(y_label)}</text>"
    )

    # The data: exactly one polyline per series, even when a series has
    # no finite points (an empty points attribute keeps the count honest).
    for idx, (sx, sy) in enumerate(rendered):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(
            f"{_fmt(px)},{_fmt(py)}" for px, py in (to_px(a, b) for a, b in zip(sx, sy))
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.8" '
            f'points="{pts}"/>'
        )

    legend_x = _MARGIN_LEFT + 10
    legend_y = _MARGIN_TOP + 10
    for idx, (label, _, _) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        y0 = legend_y + 18 * idx
        parts.append(
            f'<rect x="{_fmt(legend_x)}" y="{_fmt(y0)}" width="16" height="4" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{_fmt(legend_x + 22)}" y="{_fmt(y0 + 5)}" '
            f'font-family="sans-serif" font-size="11">'
            f"{_escape(label)}</text>"
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
