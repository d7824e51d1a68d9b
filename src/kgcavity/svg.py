"""Tiny native SVG renderer for the CLI's --svg flag.

Line plots and heatmaps only, no external plotting dependency; the CSV
files are the contract and these renderings are a convenience view of them.
Each renderer returns the SVG text, its parts one per line, each ending in
'\\n'; it opens no file (``output.write_run`` writes it).
"""

from __future__ import annotations

import math

import numpy as np

from .config import DimensionError

__all__ = ["line_plot", "heatmap"]

_W, _H = 800, 520
_ML, _MR, _MT, _MB = 80, 24, 42, 62
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f"]


def _esc(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    """Tick values on [lo, hi]: the decades of a log axis, and both ends
    too where fewer than two decades fall inside it, so that a short log
    axis still has two labels; five even steps on a linear axis."""
    if log:
        lo_d, hi_d = math.floor(math.log10(lo)), math.ceil(math.log10(hi))
        step = max(1, (hi_d - lo_d) // 8)
        ticks = [10.0**d for d in range(lo_d, hi_d + 1, step) if lo <= 10.0**d <= hi]
        return ticks if len(ticks) >= 2 else sorted({lo, *ticks, hi})
    return [float(t) for t in np.linspace(lo, hi, 5)]


def _frame(title: str) -> list[str]:
    """The opening parts of every plot: the <svg> element, its white
    background and the title."""
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="24" text-anchor="middle" font-size="15">{_esc(title)}</text>',
    ]


def _axis_labels(xlabel: str, ylabel: str) -> list[str]:
    """The x label under the plot area and the y label rotated beside it."""
    return [
        f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 16}" text-anchor="middle">{_esc(xlabel)}</text>',
        f'<text x="20" y="{(_MT + _H - _MB) / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 20 {(_MT + _H - _MB) / 2:.0f})">{_esc(ylabel)}</text>',
    ]


def line_plot(
    series: list,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    logx: bool = False,
    logy: bool = False,
) -> str:
    """series: list of (x_array, y_array, label)."""
    def tx(v, log):
        return math.log10(v) if log else v

    clean = []
    for x, y, label in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        if logx:
            keep &= x > 0
        if logy:
            keep &= y > 0
        x, y = x[keep], y[keep]
        if len(x):
            clean.append((x, y, label))
    if not clean:
        return '<svg xmlns="http://www.w3.org/2000/svg"/>\n'
    x_lo = min(float(np.min(x)) for x, _, _ in clean)
    x_hi = max(float(np.max(x)) for x, _, _ in clean)
    y_lo = min(float(np.min(y)) for _, y, _ in clean)
    y_hi = max(float(np.max(y)) for _, y, _ in clean)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    def px(v):
        a, b = tx(x_lo, logx), tx(x_hi, logx)
        return _ML + (tx(v, logx) - a) / (b - a) * (_W - _ML - _MR)

    def py(v):
        a, b = tx(y_lo, logy), tx(y_hi, logy)
        return _H - _MB - (tx(v, logy) - a) / (b - a) * (_H - _MT - _MB)

    parts = _frame(title)
    parts.append(f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
                 f'fill="none" stroke="#333"/>')
    for t in _ticks(x_lo, x_hi, logx):
        parts.append(f'<line x1="{px(t):.2f}" y1="{_H - _MB}" x2="{px(t):.2f}" y2="{_H - _MB + 5}" stroke="#333"/>')
        parts.append(f'<text x="{px(t):.2f}" y="{_H - _MB + 18}" text-anchor="middle">{t:.4g}</text>')
    for t in _ticks(y_lo, y_hi, logy):
        parts.append(f'<line x1="{_ML - 5}" y1="{py(t):.2f}" x2="{_ML}" y2="{py(t):.2f}" stroke="#333"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py(t) + 4:.2f}" text-anchor="end">{t:.4g}</text>')
    parts += _axis_labels(xlabel, ylabel)
    for i, (x, y, label) in enumerate(clean):
        color = _COLORS[i % len(_COLORS)]
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        if label:
            ly = _MT + 16 + 16 * i
            parts.append(f'<line x1="{_W - _MR - 150}" y1="{ly - 4}" x2="{_W - _MR - 120}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
            parts.append(f'<text x="{_W - _MR - 114}" y="{ly}">{_esc(str(label))}</text>')
    return "\n".join(parts + ["</svg>"]) + "\n"


_STOPS = np.array([
    (0.267, 0.005, 0.329),
    (0.229, 0.322, 0.546),
    (0.128, 0.567, 0.551),
    (0.369, 0.789, 0.383),
    (0.993, 0.906, 0.144),
])
_HEX = np.array([f"{k:02x}" for k in range(256)], dtype=object)
_NONFINITE = "#999999"


def _colors(v: np.ndarray) -> np.ndarray:
    """'#rrggbb' of each value in v (an object array of v's shape), clipped
    to [0, 1] and linearly interpolated between the 5 stops."""
    pos = np.clip(v, 0.0, 1.0) * (len(_STOPS) - 1)
    i = np.minimum(pos.astype(int), len(_STOPS) - 2)
    f = (pos - i)[..., None]
    # rint rounds half to even as round() does; the codes are >= 0
    codes = np.rint(255 * (_STOPS[i] * (1 - f) + _STOPS[i + 1] * f)).astype(int)
    hexes = _HEX[codes]
    return "#" + hexes[..., 0] + hexes[..., 1] + hexes[..., 2]


def heatmap(matrix, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """Matrix cells colored on a 5-stop map; row 0 at the top. NaN and
    +-inf cells are drawn in grey and left out of the color range; a matrix
    with no finite cell is all grey, with 'nan' at both ends of the bar.
    A matrix that is not 2-D or has no rows or no columns is a
    DimensionError."""
    M = np.asarray(matrix, dtype=float)
    if M.ndim != 2 or 0 in M.shape:
        raise DimensionError(f"a heatmap needs a 2-D matrix with rows and columns, "
                             f"got shape {M.shape}")
    finite = np.isfinite(M)
    vals = M[finite]
    lo, hi = (float(vals.min()), float(vals.max())) if vals.size else (math.nan, math.nan)
    span = hi - lo if hi > lo else 1.0
    rows, cols = M.shape
    cw = (_W - _ML - _MR - 40) / cols
    ch = (_H - _MT - _MB) / rows
    fills = np.where(finite, _colors(np.where(finite, (M - lo) / span, 0.0)), _NONFINITE).tolist()
    xs = [f"{_ML + j * cw:.2f}" for j in range(cols)]
    size = f'width="{cw + 0.5:.2f}" height="{ch + 0.5:.2f}"'
    parts = _frame(title)
    for i, row in enumerate(fills):
        y = f"{_MT + i * ch:.2f}"
        parts += [f'<rect x="{x}" y="{y}" {size} fill="{fill}"/>' for x, fill in zip(xs, row)]
    step_i = max(1, rows // 8)
    for i in range(0, rows, step_i):
        parts.append(f'<text x="{_ML - 6}" y="{_MT + (i + 0.5) * ch + 4:.2f}" text-anchor="end">{i + 1}</text>')
    step_j = max(1, cols // 8)
    for j in range(0, cols, step_j):
        parts.append(f'<text x="{_ML + (j + 0.5) * cw:.2f}" y="{_H - _MB + 16}" text-anchor="middle">{j + 1}</text>')
    for k, fill in enumerate(_colors(np.arange(101) / 100)):
        y = _H - _MB - (k / 100) * (_H - _MT - _MB)
        parts.append(
            f'<rect x="{_W - _MR - 26}" y="{y - (_H - _MT - _MB) / 100:.2f}" width="14" '
            f'height="{(_H - _MT - _MB) / 100 + 0.5:.2f}" fill="{fill}"/>'
        )
    parts.append(f'<text x="{_W - _MR - 30}" y="{_H - _MB + 4}" text-anchor="end">{lo:.3g}</text>')
    parts.append(f'<text x="{_W - _MR - 30}" y="{_MT + 10}" text-anchor="end">{hi:.3g}</text>')
    return "\n".join(parts + _axis_labels(xlabel, ylabel) + ["</svg>"]) + "\n"
