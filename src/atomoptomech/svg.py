"""Minimal dependency-free SVG line plots (polylines plus labeled axes)."""

from __future__ import annotations

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 20, 50


def _ticks(lo, hi, n=5):
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _fixed2(values):
    """The text of each value to 2 decimals, from one ``%`` over all of
    them."""
    return ("%.2f\n" * len(values) % tuple(values.tolist())).split("\n")[:-1]


def line_plot(x, series, labels, xlabel, ylabel, title=""):
    """Render one polyline per series over a shared x grid; returns SVG text.

    ``series`` is a sequence of y-sequences; NaN and inf entries break the
    polyline.
    """
    x = np.asarray(x, dtype=np.float64)
    series = [np.asarray(ys, dtype=np.float64) for ys in series]
    masks = [np.isfinite(ys) for ys in series]
    finite = np.concatenate([ys[m] for ys, m in zip(series, masks)] + [np.empty(0)])
    if not finite.size or not x.size:
        xmin, xmax, ymin, ymax = 0.0, 1.0, 0.0, 1.0
    else:
        xmin, xmax = x.min(), x.max()
        ymin, ymax = finite.min(), finite.max()
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

    xs = [t + "," for t in _fixed2(px(x))]
    for k, (ys, mask, label) in enumerate(zip(series, masks, labels)):
        color = _COLORS[k % len(_COLORS)]
        points = list(map(str.__add__, xs, _fixed2(py(ys))))
        # Each run of finite points of two or more is one polyline; the
        # edges of the padded mask alternate run starts and run ends.
        edges = np.flatnonzero(np.diff(np.concatenate(([False], mask, [False]))))
        for start, stop in zip(edges[::2].tolist(), edges[1::2].tolist()):
            if stop - start > 1:
                parts.append(
                    f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                    f'points="{" ".join(points[start:stop])}"/>'
                )
        parts.append(
            f'<text x="{_W-_MR-8}" y="{_MT + 16 + 16*k}" text-anchor="end" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
