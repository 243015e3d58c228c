"""Tiny native SVG line plots (axes, ticks, legend, one polyline per series).

Figures here are static artifacts for reports; keeping the writer local
avoids a plotting dependency and makes the output byte-deterministic.
"""
from __future__ import annotations

import math

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
_MARGIN = dict(left=64, right=16, top=34, bottom=44)
_WIDTH, _HEIGHT = 640, 420  # figure size in px
_N_TICKS = 5  # at most this many ticks per axis


def _escape(text: str) -> str:  # as xml.sax.saxutils.escape, which imports urllib
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _unit(lo: float, hi: float) -> float:
    """A power of two to divide one axis' data by: near either end of the
    float range it brings the largest magnitude into [1, 2), so that spans,
    padding and tick steps neither overflow nor underflow; else 1."""
    big = max(abs(lo), abs(hi))
    if big == 0.0 or 2.0 ** -900 < big < 2.0 ** 1000:
        return 1.0
    return 2.0 ** (math.frexp(big)[1] - 1)


def _ticks(lo: float, hi: float, unit: float):  # none where v * unit overflows
    span = hi - lo
    raw = span / (_N_TICKS - 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if span / step <= _N_TICKS:
            break
    first = np.ceil(lo / step) * step
    vals = np.arange(first, hi + step * 0.5, step)
    return [float(v) for v in vals if lo - 1e-12 <= v <= hi + 1e-12
            and math.isfinite(float(v) * unit)]


def line_plot(series, path, title="", xlabel="", ylabel=""):
    """Write an SVG plot of [(label, xs, ys), ...] line series."""
    if not series:
        raise ValueError("need at least one series")
    clean = []
    for label, xs, ys in series:
        xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
        if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
            raise ValueError(f"series {label!r} needs matching 1-D x/y, >= 2 points")
        keep = np.isfinite(xs) & np.isfinite(ys)
        if keep.sum() < 2:
            raise ValueError(f"series {label!r} has fewer than 2 finite points")
        clean.append((str(label), xs[keep], ys[keep]))

    x_lo = min(float(xs.min()) for _, xs, _ in clean)
    x_hi = max(float(xs.max()) for _, xs, _ in clean)
    y_lo = min(float(ys.min()) for _, _, ys in clean)
    y_hi = max(float(ys.max()) for _, _, ys in clean)
    ux, uy = _unit(x_lo, x_hi), _unit(y_lo, y_hi)
    clean = [(label, xs / ux, ys / uy) for label, xs, ys in clean]
    x_lo, x_hi, y_lo, y_hi = x_lo / ux, x_hi / ux, y_lo / uy, y_hi / uy
    # a flat range widens by a part in 1024 of its value where the unit
    # step would be lost to rounding
    if x_hi == x_lo:
        x_hi = x_lo + max(1.0, abs(x_lo) / 1024)
    if y_hi == y_lo:
        half = max(0.5, abs(y_lo) / 1024)
        y_lo, y_hi = y_lo - half, y_hi + half
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    px0, px1 = _MARGIN["left"], _WIDTH - _MARGIN["right"]
    py0, py1 = _HEIGHT - _MARGIN["bottom"], _MARGIN["top"]

    def to_px(xs, ys):
        return (px0 + (xs - x_lo) / (x_hi - x_lo) * (px1 - px0),
                py0 + (ys - y_lo) / (y_hi - y_lo) * (py1 - py0))

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(title)}</text>')

    # axes
    parts.append(f'<line x1="{px0}" y1="{py0}" x2="{px1}" y2="{py0}" '
                 'stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{px0}" y1="{py0}" x2="{px0}" y2="{py1}" '
                 'stroke="black" stroke-width="1"/>')
    for tx in _ticks(x_lo, x_hi, ux):
        fx, _ = to_px(np.array([tx]), np.array([y_lo]))
        parts.append(f'<line x1="{fx[0]:.1f}" y1="{py0}" x2="{fx[0]:.1f}" '
                     f'y2="{py0 + 5}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{fx[0]:.1f}" y="{py0 + 18}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{_fmt(tx * ux)}</text>')
    for ty in _ticks(y_lo, y_hi, uy):
        _, fy = to_px(np.array([x_lo]), np.array([ty]))
        parts.append(f'<line x1="{px0 - 5}" y1="{fy[0]:.1f}" x2="{px0}" '
                     f'y2="{fy[0]:.1f}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{px0 - 8}" y="{fy[0] + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{_fmt(ty * uy)}</text>')
    if xlabel:
        parts.append(f'<text x="{(px0 + px1) / 2:.1f}" y="{_HEIGHT - 8}" '
                     'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="12">{_escape(xlabel)}</text>')
    if ylabel:
        cy = (py0 + py1) / 2
        parts.append(f'<text x="16" y="{cy:.1f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12" '
                     f'transform="rotate(-90 16 {cy:.1f})">{_escape(ylabel)}</text>')

    # data series + legend
    for idx, (label, xs, ys) in enumerate(clean):
        color = _COLORS[idx % len(_COLORS)]
        fx, fy = to_px(xs, ys)
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(fx, fy))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.5"/>')
        ly = _MARGIN["top"] + 14 * idx
        parts.append(f'<line x1="{px1 - 110}" y1="{ly:.1f}" x2="{px1 - 88}" '
                     f'y2="{ly:.1f}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{px1 - 84}" y="{ly + 4:.1f}" '
                     f'font-family="sans-serif" font-size="11">{_escape(label)}</text>')

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
