"""Minimal deterministic SVG renderer for sweep results.

Plots are written as plain SVG markup with no rendering dependency, so
identical results produce identical bytes and tests can inspect the
output with any XML parser. The computed curve, the Heisenberg reference
line and (when present) the ideal-interferometer baseline each carry a
stable element id.
"""

from __future__ import annotations

import math
import sys

__all__ = ["render_svg"]

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 30, 50
_LOG_FLOOR = 1e-12
_LOG_CEIL = math.nextafter(math.log10(sys.float_info.max), 0.0)  # log10 rounds up: 10 ** it overflows


def _fmt(v: float) -> str:
    return f"{v:.2f}"


class _Axis:
    def __init__(self, lo, hi, pixel_lo, pixel_hi, log=False):
        self.log = log
        if log:
            lo, hi = math.log10(max(lo, _LOG_FLOOR)), math.log10(max(hi, _LOG_FLOOR))
        # in halves, exact in binary, so a span beyond the largest float stays finite
        self.half_lo, self.half_span = lo / 2, (hi / 2 - lo / 2) or 0.5  # one value: a unit span from it
        self.pixel_lo, self.pixel_hi = pixel_lo, pixel_hi

    def pos(self, v: float) -> float:
        if self.log:
            v = math.log10(max(v, _LOG_FLOOR))
        frac = (v / 2 - self.half_lo) / self.half_span
        return self.pixel_lo + frac * (self.pixel_hi - self.pixel_lo)

    def tick_values(self):
        raw = (2 * (self.half_lo + self.half_span * (i / 4)) for i in range(5))  # not span * i: may overflow
        return [(10.0 ** min(r, _LOG_CEIL) if self.log else r) for r in raw]


def _polyline(xs, ys, xaxis, yaxis, elem_id, style):
    pts = " ".join(f"{_fmt(xaxis.pos(x))},{_fmt(yaxis.pos(y))}" for x, y in zip(xs, ys))
    return f'<polyline id="{elem_id}" fill="none" {style} points="{pts}"/>'


def render_svg(
    xs,
    series: dict[str, list[float]],
    x_label: str,
    y_label: str,
    log_scale: bool = False,
    title: str = "",
) -> str:
    """Render curves over a shared x grid to an SVG document string.

    ``series`` maps a sweep's curves ``value``, ``bound`` and (optional)
    ``ideal`` to y values; they get the ids ``curve``, ``bound`` and ``ideal``.
    """
    xs = list(xs)
    x_label, y_label, title = (str(text).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
                               for text in (x_label, y_label, title))  # escaped as XML text
    all_y = [y for ys in series.values() for y in ys]
    y_hi = max(all_y)
    if log_scale:
        positive = [y for y in all_y if y > 0]
        y_lo = min(positive) if positive else _LOG_FLOOR
        y_lo, y_hi = y_lo / 2.0, y_hi * 2.0
    else:
        y_lo = min(0.0, min(all_y))
        y_hi = y_hi * 1.05 if y_hi > 0 else 1.0
    y_hi = min(y_hi, sys.float_info.max)  # headroom short of inf
    xaxis = _Axis(min(xs), max(xs), MARGIN_L, WIDTH - MARGIN_R)
    yaxis = _Axis(y_lo, y_hi, HEIGHT - MARGIN_B, MARGIN_T, log=log_scale)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" data-y-scale="{"log" if log_scale else "linear"}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" fill="none" stroke="black"/>',
    ]
    for tick in xaxis.tick_values():
        px = xaxis.pos(tick)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{HEIGHT - MARGIN_B}" x2="{_fmt(px)}" '
            f'y2="{HEIGHT - MARGIN_B + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{HEIGHT - MARGIN_B + 18}" font-size="11" '
            f'text-anchor="middle">{tick:.6g}</text>'
        )
    for tick in yaxis.tick_values():
        py = yaxis.pos(tick)
        parts.append(
            f'<line x1="{MARGIN_L - 5}" y1="{_fmt(py)}" x2="{MARGIN_L}" '
            f'y2="{_fmt(py)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{MARGIN_L - 8}" y="{_fmt(py)}" font-size="11" '
            f'text-anchor="end" dominant-baseline="middle">{tick:.6g}</text>'
        )

    styles = {
        "value": ('curve', 'stroke="#1f5fbf" stroke-width="1.5"'),
        "bound": ('bound', 'stroke="#bf1fbf" stroke-width="1.2" stroke-dasharray="6,4"'),
        "ideal": ('ideal', 'stroke="#bf7f1f" stroke-width="1.2" stroke-dasharray="2,3"'),
    }
    for name, ys in series.items():
        parts.append(_polyline(xs, ys, xaxis, yaxis, *styles[name]))

    parts.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) // 2}" y="{HEIGHT - 12}" '
        f'font-size="13" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{(MARGIN_T + HEIGHT - MARGIN_B) // 2}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 {(MARGIN_T + HEIGHT - MARGIN_B) // 2})">'
        f"{y_label}</text>"
    )
    if title:
        parts.append(
            f'<text x="{WIDTH // 2}" y="20" font-size="13" text-anchor="middle">{title}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
