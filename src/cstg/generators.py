"""Exact constructors for the drawing families, with analytic rotations.

Each family comes with an O(1) crossing rule, a rotation system derived from
a concrete realization, and a canonical anchor vertex that provably lies on
the unbounded cell:

* convex      -- regular n-gon; any vertex anchors.
* twisted     -- spiral realization: vertex i at radius i+1 on the positive
                 x-axis, edge {i,j} (i<j) sweeps counterclockwise from radius
                 i+1 at angle 0 to j+1 at angle 2*pi, linear in angle.
                 Radius differences of two arcs are linear in angle, so
                 nested index pairs cross exactly once and interleaved pairs
                 never, matching the index rule.  Anchor: outermost vertex.
* halfcircle  -- vertices on the x-axis, each edge a semicircle above (U) or
                 below (L); same-side strictly interleaving edges cross.
                 All germs leave a vertex vertically; the order around the
                 vertex is resolved by curvature 2/|x_j - x_i| (sharper arcs
                 deviate further).  Anchor: leftmost vertex.
* points      -- straight-line segments on an integer point set in general
                 position; everything by exact orientation predicates.
                 Anchor: any hull vertex.

An anchored order is the drawn rotation at the anchor cut at the gap facing
the unbounded cell and read backwards (clockwise).  The gap comes before the
first germ on convex and twisted drawings, after the upper germs at the
leftmost half-circle vertex, and at the one pair of consecutive germs that
turns by at least pi at a point, which only a hull vertex has.

The curved arcs have one parametrisation, ``arc_points``: a half-circle arc
is swept by the angle from its right end, a twisted arc by the fraction of
its turn from its smaller end.  The SVG renderer samples whole arcs through
it and the numeric oracle one germ point near an end.

The derived rotation rules are validated against the numeric germ-sampling
oracle, never trusted (see cstg.oracles.numeric_rotation_oracle and the test
suite).
"""

from __future__ import annotations

import math
import random
from functools import cmp_to_key
from typing import List, Optional, Sequence, Tuple

from .drawing import (
    AnchoredDrawing,
    Drawing,
    cyclic_equal,
    orient,
    sorted_pair,
)
from .errors import (
    AnchorUnavailable,
    GeometryMissing,
    InvalidSelection,
    RotationMissing,
    SizeLimit,
)


def gen_convex(n: int) -> Drawing:
    """Complete convex geometric graph on a regular n-gon."""
    return Drawing(n=n, model="convex")


def gen_twisted(m: int) -> Drawing:
    """Complete twisted graph; crossing iff index intervals are nested."""
    return Drawing(n=m, model="twisted")


def gen_halfcircle(n: int, seed=None) -> Drawing:
    """Random half-circle drawing; seeded generation is bit-reproducible.

    A given sign string is ``Drawing(n=n, model="halfcircle", signs=s)``."""
    rng = random.Random(seed)
    signs = "".join("U" if rng.getrandbits(1) else "L" for _ in range(n * (n - 1) // 2))
    return Drawing(n=n, model="halfcircle", signs=signs)


def gen_straightline(points: Sequence[Tuple[int, int]]) -> Drawing:
    """Complete geometric graph on integer points in general position
    (``Drawing`` names a duplicate point or a collinear triple)."""
    pts = tuple((int(x), int(y)) for x, y in points)
    return Drawing(n=len(pts), model="points", points=pts)


HORTON_K_CAP = 12  # 2^12 = 4096 points


def gen_horton(k: int) -> List[Tuple[int, int]]:
    """2^k integer points in general position, Horton's construction.

    A Horton set has no empty convex 7-gon (Horton 1983), but it does have
    large subsets in convex position: the exact oracle finds 6, 10 and 14
    of them for k = 3, 4, 5.

    Recursive doubling: the even-x half is a stretched copy of the previous
    set, the odd-x half is another copy lifted high enough that any line
    through two points of one half misses the other half entirely (which also
    rules out mixed collinear triples).
    """
    if k < 0:
        raise InvalidSelection("k must be non-negative")
    if k > HORTON_K_CAP:
        raise SizeLimit(f"gen_horton capped at k={HORTON_K_CAP}")
    pts = [(0, 0)]
    for _ in range(k):
        lower = [(2 * x, y) for x, y in pts]
        upper = [(2 * x + 1, y) for x, y in pts]
        ys = [y for _, y in lower]
        spread = max(ys) - min(ys)
        width = 2 * len(pts)
        # lift strictly above every line through two lower points (slope
        # bounded by spread over min x-gap 1, evaluated across the window)
        delta = (2 * spread + 1) * (width + 1) + 1
        pts = lower + [(x, y + delta) for x, y in upper]
    return pts


# -- geometry ---------------------------------------------------------------


def vertex_positions(d: Drawing) -> List[Tuple[float, float]]:
    """Vertex coordinates of the family's realization; half-circle and
    twisted vertex v sits at (v+1, 0)."""
    if d.model == "convex":
        return [
            (math.cos(2 * math.pi * v / d.n), math.sin(2 * math.pi * v / d.n))
            for v in range(d.n)
        ]
    if d.model == "points":
        return [(float(x), float(y)) for x, y in d.points]
    if d.model in ("halfcircle", "twisted"):
        return [(v + 1.0, 0.0) for v in range(d.n)]
    raise GeometryMissing(f"model {d.model!r} carries no geometry")


def arc_points(
    d: Drawing, pos, u: int, w: int, sweeps: Sequence[float]
) -> List[Tuple[float, float]]:
    """Points of the half-circle or twisted arc of edge (u, w), one per sweep.

    ``pos`` is ``vertex_positions(d)``.  On a half-circle arc a sweep is the
    angle from the right end, 0 to pi; on a twisted arc it is the fraction of
    the turn from the smaller end, 0 to 1.  The arc's constants are computed
    once per call.
    """
    if d.model == "halfcircle":
        xu, xw = pos[u][0], pos[w][0]
        c = (xu + xw) / 2.0
        r = abs(xw - xu) / 2.0
        h = r if d.signs[d.rank(u, w)] == "U" else -r  # (-r) * y is -(r * y) exactly
        return [(c + r * math.cos(th), h * math.sin(th)) for th in sweeps]
    a, b = sorted_pair(u, w)
    ra, rb = float(a + 1), float(b + 1)
    pts = []
    for s in sweeps:
        rho, th = ra + (rb - ra) * s, 2 * math.pi * s
        pts.append((rho * math.cos(th), rho * math.sin(th)))
    return pts


# -- rotation systems -------------------------------------------------------


def rotations_of(d: Drawing) -> Tuple[Tuple[int, ...], ...]:
    """Counterclockwise rotation at every vertex (stored or analytic)."""
    return tuple(rotation_at(d, v) for v in range(d.n))


def rotation_at(d: Drawing, v: int) -> Tuple[int, ...]:
    """Counterclockwise cyclic order of the other vertices around v.

    Returned as a tuple with a family-specific (documented) starting germ;
    callers comparing rotations should use cyclic_equal.  Stored rotations
    come first; an explicit drawing without them has none.
    """
    if d.rotations is not None:
        return d.rotations[v]
    return _drawn_rotation(d, v)


def _drawn_rotation(d: Drawing, v: int) -> Tuple[int, ...]:
    """The family's rotation at v, read from its realization."""
    n = d.n
    if d.model == "convex":
        # all germs point into the polygon; ccw order is increasing label
        return tuple((v + t) % n for t in range(1, n))
    if d.model == "twisted":
        # arcs to larger indices start here going up-right (angles in
        # (0, 90): sharper slope = closer to the axis), arcs from smaller
        # indices arrive from below-left (angles in (180, 270))
        return tuple(range(n - 1, v, -1)) + tuple(range(v))
    if d.model == "halfcircle":
        # all upper germs point straight up, lower germs straight down;
        # sharper arcs (closer endpoints) deviate further toward their side
        row = d._sign_row(v)
        ccw = [*range(v + 1, n), *range(v)]
        return tuple(j for j in ccw if row[j] == "U") + tuple(
            j for j in reversed(ccw) if row[j] == "L"
        )
    if d.model == "points":
        pts = d.points
        origin = pts[v]
        others = [u for u in range(n) if u != v]

        def half(u):
            dx = pts[u][0] - origin[0]
            dy = pts[u][1] - origin[1]
            return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

        def cmp(u, w):
            hu, hw = half(u), half(w)
            if hu != hw:
                return -1 if hu < hw else 1
            s = orient(origin, pts[u], pts[w])
            return -s  # u before w iff w is ccw of u

        others.sort(key=cmp_to_key(cmp))
        return tuple(others)
    raise RotationMissing("explicit drawing carries no rotation data")


# -- anchors ----------------------------------------------------------------


def canonical_anchor(d: Drawing) -> int:
    """Family's default vertex certified on the unbounded cell."""
    if d.model == "convex":
        return 0
    if d.model == "twisted":
        return d.n - 1  # outermost spiral vertex
    if d.model == "halfcircle":
        return 0  # leftmost vertex; nothing of the drawing lies left of it
    if d.model == "points":
        return min(range(d.n), key=lambda i: d.points[i])  # lexicographic min is on the hull
    if d.anchor is not None:
        return d.anchor[0]
    raise AnchorUnavailable("explicit drawing without a declared anchor")


def anchored_order(d: Drawing, v0: int) -> Tuple[int, ...]:
    """Clockwise order of the remaining vertices around v0: the drawn
    rotation at v0 cut at the unbounded-cell gap and read backwards."""
    if d.anchor is not None and d.anchor[0] == v0:
        return tuple(d.anchor[1])
    if d.model == "explicit":
        rotation_at(d, v0)  # raises RotationMissing when there is no rotation data
        raise AnchorUnavailable(f"vertex {v0} is not certified on the unbounded cell")
    if d.model == "twisted" and v0 != d.n - 1:
        raise AnchorUnavailable(
            "only the outermost spiral vertex is certified on the unbounded cell"
        )
    if d.model == "halfcircle" and v0 != 0:
        raise AnchorUnavailable(
            "only the leftmost vertex is certified on the unbounded cell"
        )
    # the realization's rotation, not a stored copy: anchored_view checks
    # the stored one against this order
    ccw = _drawn_rotation(d, v0)
    cut = 0  # convex and twisted: the gap comes right before ccw[0]
    if d.model == "halfcircle":
        cut = d._sign_row(0).count("U")  # after the upper germs
    elif d.model == "points":
        # the gap is the consecutive ccw pair turning by at least pi; only a
        # hull vertex has one (with two points the pair is (u, u), turn 0)
        p, turns = d.points, enumerate(zip(ccw, ccw[1:] + ccw[:1]), 1)
        cut = next((t for t, (u, w) in turns if orient(p[v0], p[u], p[w]) <= 0), None)
        if cut is None:
            raise AnchorUnavailable(f"point {v0} is not a hull vertex")
    return tuple(reversed(ccw[cut:] + ccw[:cut]))


def anchored_view(d: Drawing, v0: Optional[int] = None) -> AnchoredDrawing:
    """Anchored drawing at v0 (family canonical anchor when omitted).

    On the geometric families the order must be a clockwise reading of the
    rotation at v0, stored or drawn (a drawn order reads the drawn rotation,
    so only stored rotations or a stored anchor are checked); an explicit
    drawing's stored anchor was checked against its stored rotations, if
    any, when it was built.
    """
    if v0 is None:
        v0 = canonical_anchor(d)
    order = anchored_order(d, v0)
    stored = d.rotations is not None or d.anchor is not None
    if stored and d.model != "explicit" and not cyclic_equal(order[::-1], rotation_at(d, v0)):
        raise AnchorUnavailable(
            "anchored order is not a clockwise reading of the rotation at v0"
        )
    return AnchoredDrawing(base=d, v0=v0, order=order)
