"""Dependency-free SVG line charts for diagnostic time series.

Polyline plots with axes, tick labels and a legend; enough for E(t),
theta_min versus its floor, and the relative energy versus its envelope.
Output is deterministic for identical inputs.
"""

from __future__ import annotations

import math
from pathlib import Path

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 70, 20, 40, 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _fmt_tick(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.2e}"
    return f"{v:.4g}"


def _ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / 4 for i in range(5)]


def write_line_chart(path, series, title: str = "", xlabel: str = "", ylabel: str = "") -> None:
    """series: list of (label, xs, ys). NaNs break the polyline."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    if not xs_all or not ys_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 <= x0:
        x1 = x0 + 1.0
    if y1 <= y0:
        y0, y1 = y0 - 0.5, y0 + 0.5
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def px(x):
        return _ML + (x - x0) / (x1 - x0) * pw

    def py(y):
        return _MT + (y1 - y) / (y1 - y0) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W/2:.1f}" y="24" font-size="15" text-anchor="middle" font-family="sans-serif">{title}</text>',
    ]
    for tv in _ticks(x0, x1):
        X = px(tv)
        out.append(f'<line x1="{X:.1f}" y1="{_MT}" x2="{X:.1f}" y2="{_H-_MB}" stroke="#dddddd"/>')
        out.append(
            f'<text x="{X:.1f}" y="{_H-_MB+18}" font-size="11" text-anchor="middle" font-family="sans-serif">{_fmt_tick(tv)}</text>'
        )
    for tv in _ticks(y0, y1):
        Y = py(tv)
        out.append(f'<line x1="{_ML}" y1="{Y:.1f}" x2="{_W-_MR}" y2="{Y:.1f}" stroke="#dddddd"/>')
        out.append(
            f'<text x="{_ML-6}" y="{Y+4:.1f}" font-size="11" text-anchor="end" font-family="sans-serif">{_fmt_tick(tv)}</text>'
        )
    out.append(f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="black"/>')
    out.append(
        f'<text x="{_ML + pw/2:.1f}" y="{_H-12}" font-size="12" text-anchor="middle" font-family="sans-serif">{xlabel}</text>'
    )
    out.append(
        f'<text x="16" y="{_MT + ph/2:.1f}" font-size="12" text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 16 {_MT + ph/2:.1f})">{ylabel}</text>'
    )
    for i, (label, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        segs, cur = [], []
        for x, y in zip(xs, ys):
            if math.isfinite(y):
                cur.append(f"{px(x):.2f},{py(y):.2f}")
            elif cur:
                segs.append(cur)
                cur = []
        if cur:
            segs.append(cur)
        for seg in segs:
            out.append(f'<polyline points="{" ".join(seg)}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MT + 16 + 16 * i
        out.append(f'<line x1="{_W-_MR-150}" y1="{ly-4}" x2="{_W-_MR-120}" y2="{ly-4}" stroke="{color}" stroke-width="2"/>')
        out.append(
            f'<text x="{_W-_MR-114}" y="{ly}" font-size="11" font-family="sans-serif">{label}</text>'
        )
    out.append("</svg>")
    Path(path).write_text("\n".join(out) + "\n")
