"""Hand-rolled SVG charts: line plots, log-log scatters, density rasters.

No plotting dependency; output is deterministic text so identical runs
emit byte-identical files.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#17becf")
MARGIN = 56.0
WIDTH, HEIGHT = 640.0, 420.0
TICK_COUNT = 5  # ticks of a linear axis
LOG_MULTIPLES = ((1,), (1, 2, 5), tuple(range(1, 10)))
ASHBY_TITLE = "modulus vs density"
# the characters a text node cannot hold raw
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


def _transform(vals, lo, hi, out_lo, out_hi, log):
    if log:
        vals = np.log10(vals)
        lo, hi = math.log10(lo), math.log10(hi)
    return out_lo + (np.asarray(vals) - lo) / (hi - lo) * (out_hi - out_lo)


def _ticks(lo, hi, log):
    """The tick values inside [lo, hi]: ``TICK_COUNT`` evenly spaced ones on
    a linear axis; on a log axis the coarsest ``LOG_MULTIPLES`` of the powers
    of ten that put at least two inside, or the finest."""
    if not log:
        return list(np.linspace(lo, hi, TICK_COUNT))
    decades = range(math.floor(math.log10(lo)), math.ceil(math.log10(hi)) + 1)
    for ms in LOG_MULTIPLES:
        ticks = [t for t in (m * 10.0 ** k for k in decades for m in ms)
                 if lo * (1 - 1e-12) <= t <= hi * (1 + 1e-12)]
        if len(ticks) >= 2:
            break
    return ticks


def _span(values, log) -> tuple[float, float]:
    """The axis range of the data: its extremes, a flat one widened, on a log
    axis by a factor so that it stays positive."""
    lo, hi = float(values.min()), float(values.max())
    if hi > lo:
        return lo, hi
    return (lo / 2, hi * 2) if log else (lo - 0.5, hi + 0.5)


def _axes(parts, lo_x, hi_x, lo_y, hi_y, xlabel, ylabel, logx, logy):
    parts.append(f'<rect x="{MARGIN:.2f}" y="{MARGIN / 2:.2f}" '
                 f'width="{WIDTH - 1.5 * MARGIN:.2f}" height="{HEIGHT - 1.5 * MARGIN:.2f}" '
                 f'fill="none" stroke="#333" stroke-width="1"/>')
    for tv in _ticks(lo_x, hi_x, logx):
        px = float(_transform([tv], lo_x, hi_x, MARGIN, WIDTH - MARGIN / 2, logx)[0])
        parts.append(f'<line x1="{px:.2f}" y1="{HEIGHT - MARGIN:.2f}" '
                     f'x2="{px:.2f}" y2="{HEIGHT - MARGIN + 5:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{px:.2f}" y="{HEIGHT - MARGIN + 18:.2f}" '
                     f'font-size="11" text-anchor="middle">{tv:.6g}</text>')
    for tv in _ticks(lo_y, hi_y, logy):
        py = float(_transform([tv], lo_y, hi_y, HEIGHT - MARGIN, MARGIN / 2, logy)[0])
        parts.append(f'<line x1="{MARGIN - 5:.2f}" y1="{py:.2f}" '
                     f'x2="{MARGIN:.2f}" y2="{py:.2f}" stroke="#333"/>')
        parts.append(f'<text x="{MARGIN - 8:.2f}" y="{py + 4:.2f}" '
                     f'font-size="11" text-anchor="end">{tv:.6g}</text>')
    parts.append(f'<text x="{WIDTH / 2:.2f}" y="{HEIGHT - 12:.2f}" '
                 f'font-size="12" text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="14" y="{HEIGHT / 2:.2f}" font-size="12" '
                 f'text-anchor="middle" transform="rotate(-90 14 {HEIGHT / 2:.2f})">'
                 f'{ylabel}</text>')


def chart(series, xlabel="", ylabel="", title="", logx=False, logy=False,
          markers=False) -> str:
    """Render labeled (xs, ys) series as one SVG line/scatter chart."""
    if not series:
        raise InvalidArgumentError("chart needs at least one series")
    all_x = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    all_y = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    if logx and np.any(all_x <= 0) or logy and np.any(all_y <= 0):
        raise InvalidArgumentError("log axes need positive data")
    (lo_x, hi_x), (lo_y, hi_y) = _span(all_x, logx), _span(all_y, logy)
    title, xlabel, ylabel = (s.translate(_XML_ESCAPES) for s in (title, xlabel, ylabel))
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH:.0f}" '
             f'height="{HEIGHT:.0f}" viewBox="0 0 {WIDTH:.0f} {HEIGHT:.0f}">',
             f'<text x="{WIDTH / 2:.2f}" y="20" font-size="14" '
             f'text-anchor="middle">{title}</text>']
    _axes(parts, lo_x, hi_x, lo_y, hi_y, xlabel, ylabel, logx, logy)
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        px = _transform(np.asarray(xs, dtype=float), lo_x, hi_x, MARGIN,
                        WIDTH - MARGIN / 2, logx)
        py = _transform(np.asarray(ys, dtype=float), lo_y, hi_y,
                        HEIGHT - MARGIN, MARGIN / 2, logy)
        if markers or len(px) == 1:
            for x, y in zip(px, py):
                parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" '
                             f'fill="{color}"/>')
        else:
            pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
            parts.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        ly = MARGIN / 2 + 14 + 16 * i
        lx = WIDTH - MARGIN / 2 - 150
        parts.append(f'<line x1="{lx:.2f}" y1="{ly - 4:.2f}" x2="{lx + 22:.2f}" '
                     f'y2="{ly - 4:.2f}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28:.2f}" y="{ly:.2f}" font-size="11">'
                     f'{label.translate(_XML_ESCAPES)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def density_raster(img, cell: float = 8.0) -> str:
    """Grayscale raster of a ``DensityField.as_grid`` image (dark = solid)."""
    img = np.asarray(img, dtype=float)
    nely, nelx = img.shape
    w = nelx * cell
    h = nely * cell
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
             f'height="{h:.0f}" viewBox="0 0 {w:.0f} {h:.0f}">']
    parts.append(f'<rect x="0" y="0" width="{w:.0f}" height="{h:.0f}" fill="#fff"/>')
    for iy in range(nely):
        for ix in range(nelx):
            g = int(round(255 * (1.0 - img[iy, ix])))
            if g >= 255:
                continue
            parts.append(f'<rect x="{ix * cell:.1f}" y="{iy * cell:.1f}" '
                         f'width="{cell:.1f}" height="{cell:.1f}" '
                         f'fill="rgb({g},{g},{g})"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def ashby_chart(groups) -> str:
    """Log-log scatter of (rho, E) material groups, e.g. screening stages."""
    series = []
    for label, mats in groups:
        if not mats:
            continue
        series.append((label, [m.rho for m in mats], [m.e for m in mats]))
    return chart(series, xlabel="density rho (kg/m^3)", ylabel="Young's modulus E (Pa)",
                 title=ASHBY_TITLE, logx=True, logy=True, markers=True)
