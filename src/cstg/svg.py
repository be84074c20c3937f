"""Deterministic SVG 1.1 rendering for the geometric families.

Output is byte-stable: fixed canvas, fixed decimal formatting, edges drawn
in rank order.  Vertices are labeled dots; an optional certificate overlay
re-strokes the pattern edges on top.
"""

from __future__ import annotations

from typing import Optional

from .drawing import MODELS, Certificate, Drawing, _check_certificate_range, sorted_pair

CANVAS = 640.0
MARGIN = 40.0


def _transform(all_points):
    xs = [p[0] for p in all_points]
    ys = [p[1] for p in all_points]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    scale = (CANVAS - 2 * MARGIN) / span
    x0, y0 = min(xs), max(ys)

    def to_svg(p):
        # y flips: document coordinates grow downward
        return (MARGIN + (p[0] - x0) * scale, MARGIN + (y0 - p[1]) * scale)

    return to_svg


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def render_svg(d: Drawing, overlay: Optional[Certificate] = None) -> str:
    """Render the drawing (and optional certificate overlay) as SVG text."""
    if overlay is not None:
        _check_certificate_range(d, overlay)
    model = MODELS[d.model]
    pos = model.positions(d)
    turn = model.turn
    polylines = {
        (i, j): [pos[i], pos[j]] if turn is None else model.arc(d, pos, i, j, turn)
        for i in range(d.n)
        for j in range(i + 1, d.n)
    }
    everything = [p for line in polylines.values() for p in line]
    to_svg = _transform(everything)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{CANVAS:.0f}" height="{CANVAS:.0f}" '
        f'viewBox="0 0 {CANVAS:.0f} {CANVAS:.0f}">\n',
        f'<rect width="{CANVAS:.0f}" height="{CANVAS:.0f}" fill="white"/>\n',
    ]
    # each edge's points formatted once, in rank order
    points = {
        e: " ".join(["%.3f,%.3f" % to_svg(p) for p in line])
        for e, line in polylines.items()
    }
    for pts in points.values():
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#888888" stroke-width="1"/>\n'
        )
    if overlay is not None:
        for (u, v) in overlay.edges():
            parts.append(
                f'<polyline points="{points[sorted_pair(u, v)]}" fill="none" '
                f'stroke="#cc2222" stroke-width="2.5"/>\n'
            )
    for v in range(d.n):
        x, y = to_svg(pos[v])
        parts.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" fill="#222222"/>\n')
        parts.append(
            f'<text x="{_fmt(x + 6)}" y="{_fmt(y - 6)}" '
            f'font-family="monospace" font-size="12">{v}</text>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)
