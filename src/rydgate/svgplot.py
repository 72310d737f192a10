"""Small deterministic SVG line plots.

Hand-rolled so that sweep artifacts are self-contained and byte-stable:
fixed element order, fixed coordinate formatting, no timestamps, no
external plotting stack.  Supports linear/log axes, multiple series,
and gaps at non-finite points.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = ["Series", "render_plot", "PALETTE"]

PALETTE = ("#c0392b", "#2471a3", "#1e8449", "#7d3c98", "#b7950b", "#566573")

_WIDTH = 660
_HEIGHT = 450
_MARGIN_L = 74
_MARGIN_R = 18
_MARGIN_T = 42
_MARGIN_B = 54
_BIG = sys.float_info.max


@dataclass(frozen=True)
class Series:
    x: tuple
    y: tuple
    label: str
    dashed: bool = False


def _finite_pairs(series, xlog, ylog):
    pts = []
    for x, y in zip(series.x, series.y):
        x = float(x)
        y = float(y)
        if not (math.isfinite(x) and math.isfinite(y)):
            pts.append(None)
            continue
        if (xlog and x <= 0.0) or (ylog and y <= 0.0):
            pts.append(None)
            continue
        pts.append((x, y))
    return pts


def _half_width(lo: float, hi: float) -> float:
    """(hi - lo) / 2, finite for any finite lo and hi; halving is exact
    for normal floats, so (hi - lo) * c equals _half_width * 2c bitwise."""
    return hi / 2.0 - lo / 2.0


def _clip(v: float) -> float:
    """v held inside the finite floats."""
    return min(max(v, -_BIG), _BIG)


def _pow10(e: float) -> float:
    """10**e held inside the positive finite floats."""
    try:
        return max(10.0**e, math.ulp(0.0))
    except OverflowError:
        return _BIG


def _linear_ticks(lo: float, hi: float, target: int = 6):
    raw = _half_width(lo, hi) / (max(target, 2) / 2.0)
    mag = 10.0 ** math.floor(math.log10(raw))
    step = 10.0 * mag
    for mult in (1.0, 2.0, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    first = math.ceil(lo / step - 1e-9) * step
    ticks = []
    t = first
    end = min(hi + 1e-9 * step, _BIG)  # past the largest float, t is inf
    while t <= end:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float):
    klo = math.ceil(math.log10(lo) - 1e-9)
    khi = math.floor(math.log10(hi) + 1e-9)
    ticks = [10.0**k for k in range(klo, khi + 1)]
    if len(ticks) < 2:
        # under one decade: fall back to linear ticks within the span
        return _linear_ticks(lo, hi)
    return ticks


def _fmt_tick(v: float, digits: int) -> str:
    if v != 0.0 and (abs(v) >= 1e4 or abs(v) < 1e-3):
        mant, exp = f"{v:.{digits - 1}e}".split("e")
        return f"{mant.rstrip('0').rstrip('.')}e{int(exp)}"
    return f"{v:.{digits}g}"


def _fmt_ticks(ticks) -> list[str]:
    """Labels of one axis: six significant digits, or the fewest more
    that tell its ticks apart (17 tell any two floats apart)."""
    for digits in range(6, 18):
        labels = [_fmt_tick(v, digits) for v in ticks]
        if len(set(labels)) == len(labels):
            break
    return labels


def render_plot(
    path,
    series_list,
    *,
    title: str,
    xlabel: str,
    ylabel: str,
    xlog: bool = False,
    ylog: bool = False,
) -> None:
    """Write a line plot of the given series to ``path`` as SVG."""
    plotted = [(s, _finite_pairs(s, xlog, ylog)) for s in series_list]
    xs = [p[0] for _, pts in plotted for p in pts if p]
    ys = [p[1] for _, pts in plotted for p in pts if p]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
        if xlog or ylog:
            xs, ys = [0.1, 1.0], [0.1, 1.0]

    def span(vals, log):
        lo, hi = min(vals), max(vals)
        if log:
            if hi / lo < 1.0001:
                lo, hi = max(lo / 2.0, math.ulp(0.0)), _clip(hi * 2.0)
            pad = (math.log10(hi) - math.log10(lo)) * 0.04
            return _pow10(math.log10(lo) - pad), _pow10(math.log10(hi) + pad)
        # one point, or points closer than 1e-9 of their size: pad by +-0.5,
        # or by 1e-9 of the size where that is more (+-0.5 rounds away
        # above about 1e16, and so would any tick step); near the largest
        # float the padded ends stop at it
        tiny = 1e-9 * max(abs(lo), abs(hi))
        if hi - lo < max(tiny, 1e-300):
            lo, hi = _clip(lo - max(tiny, 0.5)), _clip(hi + max(tiny, 0.5))
        pad = _half_width(lo, hi) * 0.1
        return _clip(lo - pad), _clip(hi + pad)

    x_lo, x_hi = span(xs, xlog)
    y_lo, y_hi = span(ys, ylog)

    pw = _WIDTH - _MARGIN_L - _MARGIN_R
    ph = _HEIGHT - _MARGIN_T - _MARGIN_B

    def tx(x):
        u = (math.log10(x) - math.log10(x_lo)) / (math.log10(x_hi) - math.log10(x_lo)) if xlog else (x / 2.0 - x_lo / 2.0) / _half_width(x_lo, x_hi)
        return _MARGIN_L + u * pw

    def ty(y):
        u = (math.log10(y) - math.log10(y_lo)) / (math.log10(y_hi) - math.log10(y_lo)) if ylog else (y / 2.0 - y_lo / 2.0) / _half_width(y_lo, y_hi)
        return _MARGIN_T + (1.0 - u) * ph

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
    )
    out.append(f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>')
    out.append(
        f'<text x="{_WIDTH / 2:.2f}" y="24" font-family="sans-serif" font-size="15" '
        f'text-anchor="middle">{_esc(title)}</text>'
    )

    x_ticks = _log_ticks(x_lo, x_hi) if xlog else _linear_ticks(x_lo, x_hi)
    y_ticks = _log_ticks(y_lo, y_hi) if ylog else _linear_ticks(y_lo, y_hi)

    for t in x_ticks:
        px = tx(t)
        out.append(
            f'<line x1="{px:.2f}" y1="{_MARGIN_T}" x2="{px:.2f}" '
            f'y2="{_MARGIN_T + ph}" stroke="#dddddd" stroke-width="1"/>'
        )
    for t in y_ticks:
        py = ty(t)
        out.append(
            f'<line x1="{_MARGIN_L}" y1="{py:.2f}" x2="{_MARGIN_L + pw}" '
            f'y2="{py:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )

    out.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )

    for t, label in zip(x_ticks, _fmt_ticks(x_ticks)):
        px = tx(t)
        y0 = _MARGIN_T + ph
        out.append(
            f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px:.2f}" y="{y0 + 19}" font-family="monospace" '
            f'font-size="11" text-anchor="middle">{_esc(label)}</text>'
        )
    for t, label in zip(y_ticks, _fmt_ticks(y_ticks)):
        py = ty(t)
        out.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{py:.2f}" x2="{_MARGIN_L}" y2="{py:.2f}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_MARGIN_L - 8}" y="{py + 4:.2f}" font-family="monospace" '
            f'font-size="11" text-anchor="end">{_esc(label)}</text>'
        )

    out.append(
        f'<text x="{_MARGIN_L + pw / 2:.2f}" y="{_HEIGHT - 14}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle">{_esc(xlabel)}</text>'
    )
    out.append(
        f'<text x="20" y="{_MARGIN_T + ph / 2:.2f}" font-family="sans-serif" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 20 {_MARGIN_T + ph / 2:.2f})">'
        f"{_esc(ylabel)}</text>"
    )

    for i, (s, pts) in enumerate(plotted):
        color = PALETTE[i % len(PALETTE)]
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        # break the polyline at gaps
        run: list[str] = []
        segments = []
        for p in pts:
            if p is None:
                if len(run) >= 2:
                    segments.append(run)
                run = []
                continue
            run.append(f"{tx(p[0]):.2f},{ty(p[1]):.2f}")
        if len(run) >= 2:
            segments.append(run)
        for seg in segments:
            out.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.8"{dash} '
                f'points="{" ".join(seg)}"/>'
            )
        singles = [p for p in pts if p is not None]
        if len(singles) == 1:
            p = singles[0]
            out.append(
                f'<circle cx="{tx(p[0]):.2f}" cy="{ty(p[1]):.2f}" r="3" fill="{color}"/>'
            )

    # legend, top-right inside the frame
    ly = _MARGIN_T + 16
    for i, (s, _) in enumerate(plotted):
        color = PALETTE[i % len(PALETTE)]
        x1 = _MARGIN_L + pw - 150
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        out.append(
            f'<line x1="{x1}" y1="{ly - 4}" x2="{x1 + 26}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.8"{dash}/>'
        )
        out.append(
            f'<text x="{x1 + 32}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{_esc(s.label)}</text>'
        )
        ly += 17

    out.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def _esc(text: str) -> str:
    return (
        str(text)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )
