"""Deterministic SVG 1.1 rendering for the geometric families.

Output is byte-stable: fixed canvas, fixed decimal formatting, edges drawn
in rank order.  Vertices are labeled dots; an optional certificate overlay
re-strokes the pattern edges on top.

Each edge comes from its model's ``arc`` as a column of xs and one of ys.
Each distinct y column is formatted once, into a template ``"%.3f,<y0>
%.3f,<y1> ..."`` that every edge with that column fills with one ``%`` over
its transformed xs; the arcs of one span and side of a half-circle drawing
share a column, so 2(n-1) templates serve its C(n,2) arcs.  The text is
that of formatting each point on its own: each coordinate is the same
double from the same operations (a model's trig table holds what fresh
``math.cos`` and ``math.sin`` calls give), and equal columns give equal
text, as 0.0 and -0.0 give different y0 - y only when y0 is a zero, and
MARGIN plus either zero is MARGIN.
"""

from __future__ import annotations

from typing import Optional

from .drawing import MODELS, Certificate, Drawing, _check_certificate_range, _rank_offsets

CANVAS = 640.0
MARGIN = 40.0


def render_svg(d: Drawing, overlay: Optional[Certificate] = None) -> str:
    """Render the drawing (and optional certificate overlay) as SVG text."""
    if overlay is not None:
        _check_certificate_range(d, overlay)
    model = MODELS[d.model]
    pos = model.positions(d)
    columns = [model.arc(d, pos, i, j, model.turn) for i in range(d.n) for j in range(i + 1, d.n)]
    distinct = {}  # each distinct y column: the index of its template
    template_of = [distinct.setdefault(ys, len(distinct)) for _, ys in columns]
    x0, y0 = min([min(xs) for xs, _ in columns]), max(map(max, distinct))
    span = max(max([max(xs) for xs, _ in columns]) - x0, y0 - min(map(min, distinct)), 1e-9)
    scale = (CANVAS - 2 * MARGIN) / span
    # x becomes MARGIN + (x - x0) * scale, and y flips (document coordinates
    # grow downward) to MARGIN + (y0 - y) * scale; every arc has as many
    # samples as the model's turn
    fill_y = " ".join(["%%.3f,%.3f"] * len(columns[0][1]))
    templates = [fill_y % tuple([MARGIN + (y0 - y) * scale for y in ys]) for ys in distinct]
    # each edge's points, in rank order, as one fill of its column's template
    points = [
        templates[k] % tuple([MARGIN + (x - x0) * scale for x in xs])
        for (xs, _), k in zip(columns, template_of)
    ]

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{CANVAS:.0f}" height="{CANVAS:.0f}" '
        f'viewBox="0 0 {CANVAS:.0f} {CANVAS:.0f}">\n',
        f'<rect width="{CANVAS:.0f}" height="{CANVAS:.0f}" fill="white"/>\n',
    ]
    for pts in points:
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#888888" stroke-width="1"/>\n'
        )
    if overlay is not None:
        off = _rank_offsets(d.n)
        for (u, v) in overlay.edges():
            parts.append(
                f'<polyline points="{points[off[min(u, v)] + max(u, v)]}" fill="none" '
                f'stroke="#cc2222" stroke-width="2.5"/>\n'
            )
    for v in range(d.n):
        x, y = MARGIN + (pos[v][0] - x0) * scale, MARGIN + (y0 - pos[v][1]) * scale
        parts.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="4" fill="#222222"/>\n')
        parts.append(
            f'<text x="{x + 6:.3f}" y="{y - 6:.3f}" '
            f'font-family="monospace" font-size="12">{v}</text>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)
