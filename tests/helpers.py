"""Checks and views that only the tests read.

They wrap library internals: the transitivity check behind acceptance
criterion 02, the region test and the subsequence search of the plane path
pipeline, the rotation order that the colors of an anchored drawing
decide, and the inverse of ``edge_index``.  ``full_order_max_pattern`` is
a second pattern search that breaks no symmetry but rotation, the size
oracle the tests hold ``max_pattern_exact`` to.  ``numeric_rotation_oracle``
recomputes a drawing's rotation system from the float geometry its model
renders, the oracle that acceptance criterion 12 holds the models' rotation
rules to; it reads the sweep of an arc near one end from the model's entry
in ``models.REGISTRY``.  ``reference_render_svg`` is the per-point SVG
renderer that ``svg.render_svg`` is held to byte for byte, and
``reference_halfcircle_signs`` the one-bit-per-call sign draw that
``gen_halfcircle`` is held to.  No CLI path
reaches them.  The rest are checks and
data that several test modules share.
"""

import math
import random
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Optional, Sequence, Tuple

from models import REGISTRY

from cstg.chromatics import ChiCache, _members
from cstg.cli import dispatch
from cstg.codec import decode_certificate, decode_drawing
from cstg.drawing import (
    CONVEX,
    MODELS,
    AnchoredDrawing,
    Certificate,
    Drawing,
    _check_certificate_range,
    _quadruples_up_to,
    crossing_masks,
    pattern_fit,
)
from cstg.errors import DegenerateInput, InvalidEdge, InvalidTriple
from cstg.generators import rotation_at
from cstg.oracles import OracleResult
from cstg.planepath import _inside, _lis
from cstg.svg import CANVAS, MARGIN


def reference_halfcircle_signs(n: int, seed: int) -> str:
    """The signs of gen_halfcircle(n, seed), one getrandbits(1) per edge in
    rank order: the top bit of each 32-bit output of random.Random(seed)."""
    rng = random.Random(seed)
    return "".join("U" if rng.getrandbits(1) else "L" for _ in range(comb(n, 2)))


@dataclass(frozen=True)
class TransitivityReport:
    ok: bool
    quadruples_checked: int
    counterexample: Optional[Tuple[int, int, int, int]] = None
    completion_checked: bool = False

    def __bool__(self):
        return self.ok


def check_transitive_completion(
    n: int, cls: Callable[[int, int], int], window: Sequence[int]
) -> TransitivityReport:
    """Transitivity of a triple class on a window, plus completion.

    ``cls(p, q)`` is the class as a mask C(p,q): bit r > q is set iff (p,q,r)
    is in the class, other bits are ignored.  On a drawing's pair masks
    (``ChiCache._pair``) the 100 class is R(p,q) without R(q,p) and X(p,q), the
    001 class X(p,q) without the two R masks.  For every 4-tuple p<q<r<s of
    the window, (p,q,r) and (q,r,s) must force (p,q,s) and (p,r,s): C(q,r)
    lies in C(p,q) & C(p,r) for each r in C(p,q).  The report names the
    first failing 4-tuple in lexicographic order and counts the 4-tuples up
    to it.  ``completion_checked``: the class is transitive and holds the
    window's consecutive triples, so it is complete on the window with no
    scan: by induction on r - p it holds each (p,q,r) through (p,p+1,q) and
    (p+1,q,r), or (p,p+1,r-1) and (p+1,r-1,r), with p+1 p's window successor.
    """
    w = list(window)
    if any(a >= b for a, b in zip(w, w[1:])):
        raise InvalidTriple("window must be strictly increasing")
    if any(not (0 <= v < n) for v in w):
        raise InvalidTriple("window out of range")
    inside = sum(1 << v for v in w)
    above = {v: inside & (-1 << (v + 1)) for v in w}  # the window above v
    C = {(p, q): cls(p, q) & above[q] for p, q in combinations(w, 2)}
    for (p, q), pq in C.items():  # pairs in window order
        for r in _members(pq):
            bad = C[q, r] & ~(pq & C[p, r])
            if bad:
                s = next(_members(bad))
                checked = _quadruples_up_to(len(w), *map(w.index, (p, q, r, s)))
                return TransitivityReport(False, checked, counterexample=(p, q, r, s))
    spanning = len(w) >= 3 and all(C[p, q] >> r & 1 for p, q, r in zip(w, w[1:], w[2:]))
    return TransitivityReport(True, comb(len(w), 4), completion_checked=spanning)


@dataclass(frozen=True)
class LisLds:
    lis_length: int
    lis_witness: Tuple[int, ...]
    lds_length: int
    lds_witness: Tuple[int, ...]


def lis_lds(seq) -> LisLds:
    """Longest strictly increasing and decreasing subsequences, with witnesses."""
    seq = list(seq)
    inc_len, inc_wit = _lis(seq)
    dec_len, dec_wit = _lis([-x for x in seq])
    return LisLds(
        lis_length=inc_len,
        lis_witness=tuple(inc_wit),
        lds_length=dec_len,
        lds_witness=tuple(-x for x in dec_wit),
    )


def inside_delta(
    ad: AnchoredDrawing, a: int, b: int, v: int, chi_cache: Optional[ChiCache] = None
) -> bool:
    """Is v inside the region bounded by the arcs anchor-a, a-b, b-anchor?

    Decided combinatorially: v is inside exactly when the anchor edge to v
    must cross a-b, i.e. when the triple colors 001.
    """
    if not (1 <= a < b < v <= ad.n - 1):
        raise InvalidTriple(f"need a < b < v in anchored positions, got ({a},{b},{v})")
    chi = chi_cache if chi_cache is not None else ChiCache(ad)
    return bool(_inside(chi, a, b, 1 << v))


def rotation_puts_first(chi: ChiCache, p: int, q: int, r: int) -> bool:
    """Does the rotation at anchored position p, read counterclockwise from
    just after the anchor edge, put q before r?  For q < r, exactly when
    (edge pr crosses the anchor edge to q, or pq the one to r) == (p lies
    between q and r).  Both crossings are bits of the color of the sorted
    triple (``ChiCache.get``): the bits other than p's slot, since bit s of
    the color says that the edge of the other two crosses the anchor edge
    to the s-th.  No float and no stored rotation is read."""
    if q > r:
        return not rotation_puts_first(chi, p, r, q)
    triple = sorted((p, q, r))
    color = chi.get(*triple)
    slot = triple.index(p)
    return ("1" in color[:slot] + color[slot + 1:]) == (slot == 1)


def independent_pairs(n):
    """The pairs of edges of K_n that share no vertex."""
    edges = list(combinations(range(n), 2))
    for e1, e2 in combinations(edges, 2):
        if not set(e1) & set(e2):
            yield e1, e2


def edge_at(rank: int, n: int) -> Tuple[int, int]:
    """Inverse of edge_index."""
    if rank < 0 or rank >= n * (n - 1) // 2:
        raise InvalidEdge(f"rank {rank} out of range for n={n}")
    i = 0
    # row i holds n-1-i pairs; walking the rows is O(n) per call, so bulk
    # decoding builds a rank table instead
    offset = rank
    while offset >= n - 1 - i:
        offset -= n - 1 - i
        i += 1
    return i, i + 1 + offset


def full_order_max_pattern(d, kind: str) -> OracleResult:
    """Maximum pattern of the kind by a search over every vertex order.

    Extends sequences in ascending order of the vertices that complete no
    inconsistent 4-tuple, the convex kind above its first vertex only, and
    stops a node once its length plus its consistent extensions cannot beat
    the best; one node per extension, no budget.  Twisted sequences are met
    both ways round and convex ones both ways from their smallest vertex.
    """
    n = d.n
    shape = pattern_fit(crossing_masks(d), kind)
    rows = {}
    best, nodes = [], 0

    def row(a, b):
        if (a, b) not in rows:
            rows[a, b] = [0 if w in (a, b) else shape(a, b, w) for w in range(n)]
        return rows[a, b]

    def dfs(seq, cand, fits):
        nonlocal best, nodes
        if len(seq) > len(best):
            best = seq
        first = kind == CONVEX and not seq
        bound = len(seq) + cand.bit_count()
        rest = cand
        while rest and bound > len(best):
            low = rest & -rest
            rest ^= low
            nodes += 1
            v = low.bit_length() - 1
            child = cand & -(low << 1) if first else cand ^ low
            for r in fits:
                child &= r[v]
            dfs(seq + [v], child, fits + [row(u, v) for u in seq])

    dfs([], (1 << n) - 1, [])
    return OracleResult(len(best), tuple(best), nodes, True)


# -- numeric rotation oracle --------------------------------------------------


def _germ_point(model, d, pos, v: int, u: int, eps: float) -> Tuple[float, float]:
    """A point on the drawn arc v-u of d's model at distance about eps from v."""
    sweep = REGISTRY[d.model].germ_sweep
    if sweep is None:  # a straight edge
        px, py = pos[v]
        qx, qy = pos[u]
        norm = math.hypot(qx - px, qy - py)
        return (px + eps * (qx - px) / norm, py + eps * (qy - py) / norm)
    xs, ys = model.arc(d, pos, v, u, model.samples([sweep(pos, v, u, eps)]))
    return xs[0], ys[0]


_GERM_RETRIES = 40


def numeric_rotation_oracle(d: Drawing) -> Tuple[Tuple[int, ...], ...]:
    """Rotation system recovered by sampling each arc near its endpoints.

    Germs are sorted by angle at a quarter of the closest vertex gap; when
    two germs are numerically indistinguishable the distance is halved, up
    to a retry cap, then the input is reported as degenerate.
    """
    model = MODELS[d.model]
    pos = model.positions(d)
    if len(set(pos)) != len(pos):
        raise DegenerateInput("duplicate vertex positions")
    eps = 0.25 * min(
        math.hypot(ax - bx, ay - by)
        for idx, (ax, ay) in enumerate(pos)
        for bx, by in pos[idx + 1 :]
    )
    rotations = []
    for v in range(d.n):
        scale = eps
        for _ in range(_GERM_RETRIES):
            germs = []
            for u in range(d.n):
                if u == v:
                    continue
                gx, gy = _germ_point(model, d, pos, v, u, scale)
                ang = math.atan2(gy - pos[v][1], gx - pos[v][0]) % (2 * math.pi)
                germs.append((ang, u))
            germs.sort()
            angles = [a for a, _ in germs]
            distinct = all(
                (angles[(idx + 1) % len(angles)] - angles[idx]) % (2 * math.pi) > 1e-9
                for idx in range(len(angles))
            )
            if distinct or len(germs) <= 1:
                rotations.append(tuple(u for _, u in germs))
                break
            scale /= 2.0
        else:
            raise DegenerateInput(
                f"germs at vertex {v} remain indistinguishable after {_GERM_RETRIES} retries"
            )
    return tuple(rotations)


# -- per-point SVG reference -----------------------------------------------------


def reference_render_svg(d: Drawing, overlay: Optional[Certificate] = None) -> str:
    """The SVG text of ``svg.render_svg``, one point at a time: each sample
    of each edge through a transform closure and one two-number format, the
    renderer before edges were filled from shared y-sequences."""
    if overlay is not None:
        _check_certificate_range(d, overlay)
    model = MODELS[d.model]
    pos = model.positions(d)
    polylines = {
        (i, j): list(zip(*model.arc(d, pos, i, j, model.turn)))
        for i in range(d.n)
        for j in range(i + 1, d.n)
    }
    xs = [p[0] for line in polylines.values() for p in line]
    ys = [p[1] for line in polylines.values() for p in line]
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1e-9)
    scale = (CANVAS - 2 * MARGIN) / span
    x0, y0 = min(xs), max(ys)

    def to_svg(p):
        return (MARGIN + (p[0] - x0) * scale, MARGIN + (y0 - p[1]) * scale)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{CANVAS:.0f}" height="{CANVAS:.0f}" '
        f'viewBox="0 0 {CANVAS:.0f} {CANVAS:.0f}">\n',
        f'<rect width="{CANVAS:.0f}" height="{CANVAS:.0f}" fill="white"/>\n',
    ]
    points = {
        e: " ".join(["%.3f,%.3f" % to_svg(p) for p in line]) for e, line in polylines.items()
    }
    for pts in points.values():
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#888888" stroke-width="1"/>\n'
        )
    if overlay is not None:
        for (u, v) in overlay.edges():
            parts.append(
                f'<polyline points="{points[(min(u, v), max(u, v))]}" fill="none" '
                f'stroke="#cc2222" stroke-width="2.5"/>\n'
            )
    for v in range(d.n):
        x, y = to_svg(pos[v])
        parts.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="4" fill="#222222"/>\n')
        parts.append(
            f'<text x="{x + 6:.3f}" y="{y - 6:.3f}" '
            f'font-family="monospace" font-size="12">{v}</text>\n'
        )
    parts.append("</svg>\n")
    return "".join(parts)


# -- shared by several test modules ---------------------------------------------


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# a pair's 100 and 001 classes from its masks (R(p,q), R(q,p), X(p,q))
CLASS_OF_MASKS = {
    "100": lambda rp, rq, x: rp & ~(rq | x),
    "001": lambda rp, rq, x: x & ~(rp | rq),
}


def class_masks(ad: AnchoredDrawing, color: str) -> Callable[[int, int], int]:
    """cls(p, q) for check_transitive_completion: the color class of the
    anchored drawing, read from the pair masks."""
    pair = ChiCache(ad)._pair
    pick = CLASS_OF_MASKS[color]
    return lambda p, q: pick(*pair(p, q))


def assert_rotations_follow_the_colors(ad):
    """rotation_at at every vertex of ad reads each pair in the order that
    the colors give (``rotation_puts_first``)."""
    chi = ChiCache(ad)
    pos = {u: p for p, u in enumerate((ad.v0,) + ad.order)}
    for p in range(1, ad.n):
        rot = rotation_at(ad.base, ad.vertex_at(p))
        cut = rot.index(ad.v0)
        read = [pos[u] for u in rot[cut + 1:] + rot[:cut]]
        for q, r in combinations(read, 2):
            assert rotation_puts_first(chi, p, q, r), (p, q, r)


def assert_star_reads_the_pairs(ad, seed):
    """star(f, gs) holds the masks of (g, f) for g < f, and those of (f, g)
    with the two R masks swapped for g > f, in the order of gs: the pair
    reader's three kernel reads."""
    cache = ChiCache(ad)
    pair, star = cache._pair, cache._star
    for f in range(1, ad.n):
        gs = [g for g in range(1, ad.n) if g != f]
        random.Random(seed + f).shuffle(gs)
        masks = star(f, gs)
        assert len(masks) == len(gs)
        for g, got in zip(gs, masks):
            r_lo, r_hi, x = pair(min(f, g), max(f, g))  # R(lo,hi), R(hi,lo), X
            assert got == ((r_lo, r_hi, x) if g < f else (r_hi, r_lo, x)), (f, g)
        assert star(f, []) == []


def path_positions(ad, out):
    """The anchored positions of the path's vertices, in path order."""
    return [ad.order.index(v) + 1 for v in out.path.vertices]


def assert_step_shares(stats):
    """Each decreasing step keeps at least half its run less the run's end,
    and, while |S| > m^2, at least |S|/(2m)^2 candidates; the last step keeps
    none."""
    m_sq = stats.m * stats.m
    sizes = stats.candidate_sizes
    for size, lds, kept in zip(sizes, stats.lds_lengths, sizes[1:] + [0]):
        assert 2 * kept >= lds - 1
        assert size <= m_sq or 4 * m_sq * kept >= size


def assert_wedges_uniform(ad, out):
    """Every later path vertex sits on one side of each consecutive wedge."""
    chi = ChiCache(ad)
    path = path_positions(ad, out)
    for t in range(len(path) - 2):
        later = sum(1 << p for p in path[t + 2:])
        assert _inside(chi, path[t], path[t + 1], later) in (0, later)


def spiral_cross(radii, e1, e2):
    """Crossing of two spiral arcs, decided from the realization itself.

    Arc {i,j} (i<j) has radius rho(s) = r_i + (r_j - r_i) * s over sweep
    parameter s in [0,1].  Two arcs meet where their radius difference
    vanishes; with linear radii that happens at s* = u / (u - v) for
    u = rho1(0)-rho2(0), v = rho1(1)-rho2(1), and the crossing is interior
    (0 < s* < 1) exactly when u and v have strictly opposite signs.
    """
    i, j = min(e1), max(e1)
    k, l = min(e2), max(e2)
    u = radii[i] - radii[k]
    v = radii[j] - radii[l]
    return u * v < 0



def random_tree_adjacency(rng, k):
    adj = [[] for _ in range(k)]
    for v in range(1, k):
        p = rng.randrange(v)
        adj[v].append(p)
        adj[p].append(v)
    return adj


# documents that json.loads cannot read as they stand, or that it would read
# last-wins: each is a ParseError naming what is wrong
LONG_INT = "1" * 5001  # past Python's 4,300-digit limit for int("...")
DEEP = "[" * 200_000 + "]" * 200_000

BOUNDARY = [
    ("drawing-long-n", decode_drawing,
     '{"format":"cstg-1","model":"convex","n":%s}' % LONG_INT,
     "an integer literal has too many digits"),
    ("drawing-deep-rotations", decode_drawing,
     '{"format":"cstg-1","model":"convex","n":3,"rotations":%s}' % DEEP,
     "document nested too deeply"),
    ("drawing-repeated-n", decode_drawing,
     '{"format":"cstg-1","model":"convex","n":4,"n":5}',
     "field 'n' is repeated"),
    ("drawing-repeated-v0", decode_drawing,
     '{"anchor":{"order":[3,2,1],"v0":0,"v0":1},"format":"cstg-1","model":"convex","n":4}',
     "field 'v0' is repeated"),
    ("certificate-long-vertex", decode_certificate,
     '{"kind":"convex","vertices":[0,%s]}' % LONG_INT,
     "an integer literal has too many digits"),
    ("certificate-deep-vertices", decode_certificate,
     '{"kind":"convex","vertices":%s}' % DEEP,
     "document nested too deeply"),
    ("certificate-repeated-kind", decode_certificate,
     '{"kind":"convex","kind":"twisted","vertices":[0,1,2,3]}',
     "field 'kind' is repeated"),
    ("certificate-unknown-key", decode_certificate,
     '{"kind":"convex","vertices":[0,1,2,3],"weight":1}',
     "unknown fields ['weight']"),
]
