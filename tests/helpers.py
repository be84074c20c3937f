"""Checks and views that only the tests read.

They wrap library internals: the transitivity check behind acceptance
criterion 02, the region test and the subsequence search of the plane path
pipeline, the rotation order that the colors of an anchored drawing
decide, and the inverse of ``edge_index``.  ``full_order_max_pattern`` is
a second pattern search that breaks no symmetry but rotation, the size
oracle the tests hold ``max_pattern_exact`` to.  ``numeric_rotation_oracle``
recomputes a drawing's rotation system from the float geometry its model
renders, the oracle that acceptance criterion 12 holds the models' rotation
rules to; ``GERM_SWEEPS`` gives it, per model with positions, the sweep of
an arc near one end.  No CLI path reaches them.
"""

import math
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Callable, Optional, Sequence, Tuple

from cstg.chromatics import ChiCache, _members
from cstg.drawing import (
    CONVEX,
    MODELS,
    AnchoredDrawing,
    Drawing,
    _quadruples_up_to,
    crossing_masks,
    pattern_fit,
    sorted_pair,
)
from cstg.errors import DegenerateInput, InvalidEdge, InvalidTriple
from cstg.oracles import OracleResult
from cstg.planepath import _inside, _lis


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


def _twisted_sweep(pos, v, u, eps):
    # eps over about the length of the arc, from the end at v
    i, j = sorted_pair(v, u)
    ri, rj = float(i + 1), float(j + 1)
    span = abs(rj - ri) + 2 * math.pi * max(ri, rj)
    return eps / span if v == i else 1.0 - eps / span


def _halfcircle_sweep(pos, v, u, eps):
    # the chord of length eps from v subtends the sweep delta
    xv, xu = pos[v][0], pos[u][0]
    r = abs(xu - xv) / 2.0
    delta = 2.0 * math.asin(min(1.0, eps / (2.0 * r)))
    return (0.0 + delta) if xv > xu else (math.pi - delta)


# Per model with positions, sweep(pos, v, u, eps): the sweep that the model's
# ``arc`` reads as the point of arc v-u at distance about eps from v; None for
# a model with straight edges.
GERM_SWEEPS = {
    "convex": None,
    "twisted": _twisted_sweep,
    "halfcircle": _halfcircle_sweep,
    "points": None,
}

# The models whose ``positions`` raise GeometryMissing.
WITHOUT_GEOMETRY = {"explicit"}


def models_without_germ_sweep():
    """The models of ``MODELS`` that have positions but no ``GERM_SWEEPS``
    entry, or whose entry does not say what their ``turn`` says: straight
    edges (None) or arcs."""
    return sorted(
        name for name, model in MODELS.items()
        if name not in WITHOUT_GEOMETRY and hasattr(model, "positions")
        and (name not in GERM_SWEEPS or (GERM_SWEEPS[name] is None) != (model.turn is None))
    )


def _germ_point(model, d, pos, v: int, u: int, eps: float) -> Tuple[float, float]:
    """A point on the drawn arc v-u of d's model at distance about eps from v."""
    sweep = GERM_SWEEPS[d.model]
    if sweep is None:  # a straight edge
        px, py = pos[v]
        qx, qy = pos[u]
        norm = math.hypot(qx - px, qy - py)
        return (px + eps * (qx - px) / norm, py + eps * (qy - py) / norm)
    return model.arc(d, pos, v, u, [sweep(pos, v, u, eps)])[0]


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
