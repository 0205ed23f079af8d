"""Minimal dependency-free SVG line plots (polylines plus labeled axes)."""

from __future__ import annotations

import itertools
import math

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 20, 50


def _ticks(lo, hi, n=5):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def line_plot(x, series, labels, xlabel, ylabel, title=""):
    """Render one polyline per series over a shared x grid; returns SVG text.

    ``series`` is a sequence of y-sequences; NaN entries break the polyline.
    """
    finite = [v for ys in series for v in ys if math.isfinite(v)]
    if not finite or not len(x):
        xmin, xmax, ymin, ymax = 0.0, 1.0, 0.0, 1.0
    else:
        xmin, xmax = min(x), max(x)
        ymin, ymax = min(finite), max(finite)
    if xmax == xmin:
        xmax = xmin + 1.0
    if ymax == ymin:
        ymax = ymin + 1.0
    pad = 0.05 * (ymax - ymin)
    ymin -= pad
    ymax += pad

    def px(v):
        return _ML + (v - xmin) / (xmax - xmin) * (_W - _ML - _MR)

    def py(v):
        return _H - _MB - (v - ymin) / (ymax - ymin) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="monospace" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_H-_MB}" x2="{_W-_MR}" y2="{_H-_MB}" stroke="black"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H-_MB}" stroke="black"/>',
    ]
    for t in _ticks(xmin, xmax):
        xpix = px(t)
        parts.append(f'<line x1="{xpix:.2f}" y1="{_H-_MB}" x2="{xpix:.2f}" y2="{_H-_MB+5}" stroke="black"/>')
        parts.append(f'<text x="{xpix:.2f}" y="{_H-_MB+18}" text-anchor="middle">{t:.3g}</text>')
    for t in _ticks(ymin, ymax):
        ypix = py(t)
        parts.append(f'<line x1="{_ML-5}" y1="{ypix:.2f}" x2="{_ML}" y2="{ypix:.2f}" stroke="black"/>')
        parts.append(f'<text x="{_ML-8}" y="{ypix+4:.2f}" text-anchor="end">{t:.3g}</text>')
    parts.append(
        f'<text x="{(_ML + _W - _MR)/2:.0f}" y="{_H-12}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{(_MT + _H - _MB)/2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {(_MT + _H - _MB)/2:.0f})">{ylabel}</text>'
    )
    if title:
        parts.append(f'<text x="{_W/2:.0f}" y="14" text-anchor="middle">{title}</text>')

    for k, (ys, label) in enumerate(zip(series, labels)):
        color = _COLORS[k % len(_COLORS)]
        # Each run of finite points of two or more is one polyline.
        for finite_run, run in itertools.groupby(zip(x, ys), key=lambda xy: math.isfinite(xy[1])):
            seg = [f"{px(xv):.2f},{py(yv):.2f}" for xv, yv in run] if finite_run else []
            if len(seg) > 1:
                parts.append(
                    f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                    f'points="{" ".join(seg)}"/>'
                )
        parts.append(
            f'<text x="{_W-_MR-8}" y="{_MT + 16 + 16*k}" text-anchor="end" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
