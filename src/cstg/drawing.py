"""Data model for complete simple topological graphs at the weak-isomorphism level.

A drawing is fully described by its crossing relation on independent edge
pairs.  The relation is either stored explicitly (set of crossing edge-rank
pairs) or given implicitly by a family rule.  What a model is (its payload,
crossing kernel, drawn rotation, unbounded-cell anchor and geometry) is
decided in one class per model, found by name in ``MODELS``; every reader
of a rotation or an anchored order asks the model.  Optional payloads: a
rotation system (counterclockwise cyclic order of neighbors around each
vertex) and an anchor (a vertex certified on the unbounded cell together
with the clockwise order of the remaining vertices around it), on an
explicit drawing the stored ones and on any other the model's own.

Every crossing question reads one kernel, ``crossing_masks``: N(a, b, c) =
{w : edge ab crosses edge cw} as a Python int whose bit p stands for the
p-th vertex of a given order.  Certificate checks (in certificate order),
restrictions (in selection order), the searches of :mod:`cstg.oracles`
and the anchored colorings of :mod:`cstg.chromatics` (in anchored order)
all read it; a single :func:`cross` query tests one bit of an explicit
table, or builds a kernel over its four vertices and pays O(n) array
set-up.  Convex or twisted certificates of m vertices cost C(m,3) mask
tests, not 3*C(m,4) single-pair tests.  Each kernel row is built by a few
whole-row operations, not a loop over its vertices.  An explicit table is
held once, as one int per edge that stacks the edge's kernel rows (row c
is bits c*n to c*n + n - 1, one window), and every kernel on the drawing
shares them; ``crossings`` holds only the ints, and ranks (``_rank_grid``)
serve ``crossing_pairs`` to list the pairs in rank order.

Every invariant is checked when a ``Drawing`` is built: n, the model and
its one payload, the size cap, the signs, the point set (distinct int
pairs, no collinear triple, found in O(n^2) gcds), rotations and anchor as
permutations that are the model's (the anchor also a clockwise reading of
a stored rotation at v0), then an explicit table's entries (tuples or
lists of two ints, folded in one pass in the given order, or the rows the
codec folded as it parsed the text); an entry that names no independent
pair in rank order raises ValidationError.  Last, an explicit drawing that
stores both rotations and an anchor has each rotation checked against its
crossings with the anchor edges (``_check_anchored_rotations``).

Vertices are 0-based everywhere.
"""

from __future__ import annotations

import math
from collections.abc import Collection
from dataclasses import dataclass
from functools import cached_property, cmp_to_key, lru_cache
from itertools import accumulate, chain, combinations, compress, repeat
from math import comb, gcd
from operator import itemgetter, or_
from typing import Iterable, Optional, Sequence, Tuple

from .errors import (
    AnchorUnavailable,
    DegenerateInput,
    GeometryMissing,
    InternalInvariantBroken,
    InvalidCertificate,
    InvalidEdge,
    InvalidSelection,
    InvalidSigns,
    NotIndependent,
    RotationMissing,
    SizeLimit,
    ValidationError,
)

# Explicit crossing tables are quartic in n; past this they do not fit in
# memory and only implicit families are allowed.
EXPLICIT_N_CAP = 256

SAMPLES_PER_TURN = 96  # points per rendered arc
_SIGN_PIECE = 1 << 16  # half-circle signs drawn, and checked, a piece at a time
_BITS = str.maketrans("UL", "10")  # half-circle signs as upper-arc bits
_TOP = bytes.maketrans(bytes(range(256)), b"0" * 128 + b"1" * 128)  # a byte's top bit

CONVEX = "convex"
TWISTED = "twisted"
PLANE_PATH = "plane_path"
PLANE_BIPARTITE = "plane_bipartite"
CERTIFICATE_KINDS = (CONVEX, TWISTED, PLANE_PATH, PLANE_BIPARTITE)


def edge_index(i: int, j: int, n: int) -> int:
    """Lexicographic rank of the pair (i, j) of Python ints, 0 <= i < j < n."""
    _count(n, "n", 2)
    if not (type(i) is type(j) is int and 0 <= i < j < n):
        raise InvalidEdge(f"edge ({i},{j}) invalid for n={n}")
    return i * n - i * (i + 1) // 2 + (j - i - 1)


def sorted_pair(a, b):
    """The unordered pair {a, b} as (min, max)."""
    return (a, b) if a < b else (b, a)


def _check_explicit_n(n: int) -> None:
    """Refuse an explicit drawing with more than EXPLICIT_N_CAP vertices."""
    if n > EXPLICIT_N_CAP:
        raise SizeLimit(f"explicit backend capped at n={EXPLICIT_N_CAP}, got {n}")


def _count(value, name: str, least: int) -> int:
    """value, a count (a size, a target or a budget), when it is a Python int
    of at least ``least``, a bool not being one; else InvalidSelection."""
    if type(value) is not int:
        raise InvalidSelection(f"{name} {value!r} is not an integer")
    if value < least:
        raise InvalidSelection(f"{name} must be at least {least}, got {value}")
    return value


def _vertices(vs, n: int) -> list:
    """A vertex selection as a list of distinct Python ints in range(n); else
    InvalidSelection naming the first member that is not one."""
    vs, seen = list(vs), set()
    for v in vs:
        if type(v) is not int:
            raise InvalidSelection(f"selection member {v!r} is not an integer")
        if not 0 <= v < n:
            raise InvalidSelection(f"selection member {v} out of range for n={n}")
        if v in seen:
            raise InvalidSelection(f"selection member {v} is repeated")
        seen.add(v)
    return vs


def _is_order(seq, n: int, v: int) -> bool:
    """seq is a tuple of Python ints listing every vertex but v once."""
    return (
        type(seq) is tuple and len(seq) == n - 1 and set(map(type, seq)) == {int}
        and sorted(seq) == [u for u in range(n) if u != v]
    )


def cyclic_equal(a: Sequence, b: Sequence) -> bool:
    """Equality of cyclic sequences (same length, some rotation matches)."""
    la, lb = list(a), list(b)
    if not la or len(la) != len(lb) or la[0] not in lb:
        return la == lb
    start = lb.index(la[0])
    return la == lb[start:] + lb[:start]


def _norm_edge(e, n: int) -> Tuple[int, int]:
    try:
        a, b = e
    except (TypeError, ValueError):
        raise InvalidEdge(f"edge {e!r} is not a vertex pair")
    for v in (a, b):
        if type(v) is not int:
            raise InvalidEdge(f"edge vertex {v!r} is not an integer")
    if a == b or not (0 <= a < n) or not (0 <= b < n):
        raise InvalidEdge(f"edge ({a},{b}) invalid for n={n}")
    return sorted_pair(a, b)


def orient(p, q, r) -> int:
    """Sign of the cross product (q-p) x (r-p); exact on integer input."""
    v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (v > 0) - (v < 0)


@dataclass(frozen=True)
class Drawing:
    """Complete simple topological graph on n vertices.

    ``model`` names an entry of ``MODELS``; of ``crossings``, ``signs`` and
    ``points``, only the field that model takes (its ``payload``) is set.
    ``crossings`` takes any collection of rank pairs (tuples or lists of two
    ints) and holds their stacked rows as a ``_Crossings``, not a set;
    ``crossing_pairs(d)`` lists the pairs.  Stored ``rotations`` and
    ``anchor`` (decoded documents, induced drawings) must be the model's,
    or on an explicit drawing that stores both, agree with its crossings.
    """

    n: int
    model: str
    crossings: Optional[Collection] = None
    signs: Optional[str] = None
    points: Optional[Tuple[Tuple[int, int], ...]] = None
    rotations: Optional[Tuple[Tuple[int, ...], ...]] = None
    anchor: Optional[Tuple[int, Tuple[int, ...]]] = None

    def __post_init__(self):
        n = _count(self.n, "drawing n", 2)
        if not isinstance(self.model, str) or self.model not in MODELS:
            raise InvalidSelection(f"unknown model {self.model!r}")
        model = MODELS[self.model]
        for field in ("crossings", "signs", "points"):
            if getattr(self, field) is not None and field != model.payload:
                raise InvalidSelection(f"a {self.model} drawing takes no {field}")
        model.check(self)
        # stored rotations and anchor must be the model's (an explicit model's are the stored)
        rotations = self.rotations
        if rotations is not None:
            if not (type(rotations) is tuple and len(rotations) == n):
                raise InvalidSelection("rotations must hold one tuple per vertex")
            for v, rot in enumerate(rotations):
                if not _is_order(rot, n, v):
                    raise InvalidSelection(
                        f"rotation at vertex {v} is not a permutation of the others"
                    )
                drawn = model.rotation(self, v)
                if rot is not drawn and not cyclic_equal(rot, drawn):
                    raise InvalidSelection(f"rotation at vertex {v} is not the drawn one")
        if self.anchor is not None:
            if not (type(self.anchor) is tuple and len(self.anchor) == 2):
                raise InvalidSelection("anchor must be a pair (v0, order)")
            v0, order = self.anchor
            if type(v0) is not int or not 0 <= v0 < n:
                raise InvalidSelection(f"anchor v0 {v0!r} out of range")
            if not _is_order(order, n, v0):
                raise InvalidSelection("anchor order is not a permutation of V \\ {v0}")
            try:
                drawn = model.order(self, v0)
            except AnchorUnavailable as exc:
                raise AnchorUnavailable(f"stored anchor at v0 {v0}: {exc}") from None
            rotation = drawn[::-1] if rotations is None else rotations[v0]
            if not cyclic_equal(order[::-1], rotation):
                raise InvalidSelection(
                    "anchor order is not a clockwise reading of the rotation at v0"
                )
            if order != drawn:
                raise InvalidSelection(f"anchor order at v0 {v0} is cut at another gap")
        # rows of the same n (a restriction's, or a copy's) are valid as they are
        table = self.crossings
        trusted = type(table) is _Crossings and len(table.bits) == comb(n, 2)
        if model.payload == "crossings" and not trusted:
            if type(table) is not _Ranks:
                table = _Ranks.listed(n, _flat_ranks(table, ValidationError))
            object.__setattr__(self, "crossings", _Crossings(_crossing_bits(n, table)))
        if model.payload == "crossings" and rotations is not None and self.anchor is not None:
            _check_anchored_rotations(self)

    @cached_property
    def _sign_square(self) -> str:
        """Half-circle model, built on first use and kept with the drawing: n
        rows of n characters, row v holding L up to column v and then the
        signs of (v, w) for w > v, so ``_sign_row`` is two slices."""
        n, signs = self.n, self.signs
        off = _rank_offsets(n)
        return "".join("L" * (v + 1) + signs[off[v] + v + 1:off[v] + n] for v in range(n))

    def _sign_row(self, v: int) -> str:
        """Half-circle model: character w is the sign of edge (v, w), L at v."""
        n, square = self.n, self._sign_square
        # the signs of (w, v) for w < v are column v of the square, those of
        # (v, w) for w > v the tail of its row v
        return square[v::n][:v] + "L" + square[v * n + v + 1:(v + 1) * n]


def _check_anchored_rotations(d: Drawing) -> None:
    """InvalidSelection unless every stored rotation of the anchored explicit
    drawing d agrees with its crossings with the anchor edges, naming the
    vertex and the pair of the first disagreement in reading order.  Read
    from just after the anchor edge, the rotation at position p puts q < r
    in the order q, r exactly when (edge pr crosses the anchor edge to q,
    or pq the one to r) == (p lies between q and r).  The first test is
    symmetric in q and r, and its r are N(vp, vq, v0) | N(v0, vq, vp), so
    the check is O(n^2) kernel reads."""
    v0, order = d.anchor
    at = (v0,) + order
    N, pos = crossing_masks(d, at), {v: p for p, v in enumerate(at)}
    for p, vp in enumerate(order, 1):
        rot = d.rotations[vp]
        cut = rot.index(v0)
        read = [pos[u] for u in rot[cut + 1:] + rot[:cut]]
        left = sum(1 << q for q in read)  # the positions not read yet
        for i, q in enumerate(read):
            left ^= 1 << q
            vq, between = at[q], -2 << p if q < p else (1 << p) - 2  # p between q, r
            # the r read after q that belong before it: the rule for r > q, and
            # its negation for r < q
            bad = left & ((N(vp, vq, v0) | N(v0, vq, vp)) ^ between ^ (1 << q) - 1)
            if bad:
                r = next(r for r in read[i + 1:] if bad >> r & 1)
                raise InvalidSelection(f"rotation at vertex {vp} puts {vq} before {at[r]}, "
                                       "against its crossings with the anchor edges")


def cross(d: Drawing, e1, e2) -> bool:
    """True iff the two independent edges cross in the drawing."""
    a, b = _norm_edge(e1, d.n)
    c, e = _norm_edge(e2, d.n)
    if a in (c, e) or b in (c, e):
        raise NotIndependent(f"edges ({a},{b}) and ({c},{e}) share an endpoint")
    if d.model == "explicit":
        # one bit of edge ab's stacked rows, no kernel
        return bool(d.crossings.bits[_rank_offsets(d.n)[a] + b] >> c * d.n + e & 1)
    # bit 3 stands for e
    return bool(crossing_masks(d, (a, b, c, e))(a, b, c) >> 3 & 1)


@lru_cache(maxsize=16)  # cross() builds a half-circle kernel per query
def _rank_offsets(n: int) -> Tuple[int, ...]:
    """off[i] with edge_index(i, j, n) == off[i] + j for i < j, unchecked."""
    # off[0] = -1 and off[i+1] - off[i] = n - 2 - i
    return tuple(accumulate(range(n - 2, -1, -1), initial=-1))


@lru_cache(maxsize=16)
def _rank_grid(n: int):
    """(edges, rank, upper) for an explicit table over n vertices: the edges
    in rank order, rank[c * n + w] the rank of edge cw (either order), and
    the mask of the positions c * n + w, c < w, which in position order list
    the edges in rank order."""
    edges = list(combinations(range(n), 2))
    rank = [0] * (n * n)
    for r, (c, w) in enumerate(edges):
        rank[c * n + w] = rank[w * n + c] = r
    upper = sum((1 << n) - (2 << c) << c * n for c in range(n))
    return tuple(edges), tuple(rank), upper


class _Ranks:
    """An explicit table as it is read: ``bits``, its stacked rows over n
    vertices, into which ``fold`` ors each run of ranks r1, r2, r1, r2, ...
    (Python ints) as soon as the run is parsed; ``in_order``, whether every
    entry folded was a pair of ranks r1 < r2 in range; ``count``, the
    entries folded; and ``runs()``, which reads the same runs again, so
    that ``entries()`` lists the entries in table order for the error
    paths.  ``Drawing`` checks the rows as they are."""

    __slots__ = ("bits", "in_order", "count", "runs", "_bit")

    def __init__(self, n, runs):
        if not (type(n) is int and 2 <= n <= EXPLICIT_N_CAP):
            n = 0  # no rows: a drawing refuses this n before it reads them
        edges = _rank_grid(n)[0]
        self._bit = [1 << c * n + w | 1 << w * n + c for c, w in edges]  # an edge's two bits
        self.bits = [0] * len(edges)
        self.in_order, self.count, self.runs = True, 0, runs

    @classmethod
    def listed(cls, n: int, ranks: list) -> "_Ranks":
        """A hand-built or generally parsed table, its ranks one flat run."""
        table = cls(n, lambda: (ranks,))
        table.fold(ranks)
        return table

    def fold(self, ranks: list) -> None:
        X, bit = self.bits, self._bit
        m = len(X)
        in_order = True
        it = iter(ranks)
        for r1, r2 in zip(it, it):
            if 0 <= r1 < r2 < m:
                X[r1] |= bit[r2]
                X[r2] |= bit[r1]
            else:
                in_order = False
        self.in_order &= in_order
        self.count += len(ranks) // 2

    def entries(self):
        return chain.from_iterable(zip(it, it) for it in map(iter, self.runs()))


def _flat_pairs(entries) -> Optional[list]:
    """The ranks of the entries in one flat list if each entry is a tuple or
    list, two long, holding two ints (a bool is not one), else None: one
    C-level pass per check over a quartic table."""
    if set(map(type, entries)) <= {tuple, list} and set(map(len, entries)) <= {2}:
        ranks = list(chain.from_iterable(entries))
        if set(map(type, ranks)) <= {int}:
            return ranks
    return None


def _flat_ranks(entries, error) -> list:
    """The ranks of a table's entries, one flat run; ``error`` (ParseError
    for a document, ValidationError for a hand-built table) naming a table
    that is no collection by its type, or its first entry that is not a
    tuple or list of two integers."""
    if not isinstance(entries, Collection):
        raise error(f"field 'crossings' of type {type(entries).__name__} is not a "
                    "collection of rank pairs")
    ranks = _flat_pairs(entries)
    if ranks is None:
        entry = next(e for e in entries if _flat_pairs((e,)) is None)
        raise error(f"field 'crossings': entry {entry!r} is not a pair of integers")
    return ranks


def _crossing_bits(n: int, table: _Ranks) -> list:
    """The stacked rows of ``table``, an explicit table over n vertices, one
    int per edge in rank order: bits c*n + w and w*n + c of edge ab's int
    are set when ab crosses edge cw, so row c of its kernel is ``x >> c*n &
    full``.  An entry that names no independent pair in rank order raises
    ValidationError, which names the smallest such entry."""
    edges = _rank_grid(n)[0]
    m, X = len(edges), table.bits
    # an entry joining edges that share a vertex v is a bit of row v of
    # either edge's int
    full = (1 << n) - 1
    if not table.in_order or any(x >> a * n & full or x >> b * n & full
                                 for x, (a, b) in zip(X, edges) if x):
        r1, r2 = entry = min(e for e in table.entries()
                             if not 0 <= e[0] < e[1] < m or {*edges[e[0]]} & {*edges[e[1]]})
        if not (0 <= r1 < m and 0 <= r2 < m) or r1 == r2:
            raise ValidationError(f"crossing ranks {list(entry)} out of range for n={n}")
        (i, j), (k, l) = edges[r1], edges[r2]
        why = "which share a vertex" if {i, j} & {k, l} else "out of rank order"
        raise ValidationError(
            f"crossing pair {list(entry)} joins edges ({i},{j}) and ({k},{l}) {why}"
        )
    return X


_SELECT = bytes.maketrans(b"01", b"\0\1")


def _later_partners(n: int, X: list, labels: Sequence):
    """Per edge rank r1 of the stacked rows X over n vertices, in rank order,
    the edges r2 > r1 that cross it, in rank order, each as its label: (r1,
    iterator of labels).  ``labels[c * n + w]`` stands for the edge cw, c < w:
    its rank (``_rank_grid(n)[1]``), or anything the caller reads in its place."""
    upper = _rank_grid(n)[2]
    end = 0
    for a in range(n - 1):
        # the partners of higher rank of an edge (a, b) sit above the
        # diagonal in the rows past a (its row a is 0)
        s = (a + 1) * n
        past, tail = upper >> s, labels[s:]
        start, end = end, end + n - 1 - a
        for r1 in range(start, end):
            later = X[r1] >> s & past
            if later:
                picks = format(later, "b").encode()[::-1].translate(_SELECT)
                yield r1, compress(tail, picks)


class _Crossings:
    """An explicit table as its stacked rows ``bits``, held and trusted; not a
    set: ``crossing_pairs`` lists its pairs.  Equal when the rows are."""

    __slots__ = ("bits",)

    def __init__(self, bits: list):
        self.bits = bits

    def __eq__(self, other):
        return self.bits == other.bits if type(other) is _Crossings else NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.bits))


def crossing_pairs(d: Drawing):
    """The crossing rank pairs (r1, r2), r1 < r2, of an explicit drawing, in
    rank order."""
    rows = _later_partners(d.n, d.crossings.bits, _rank_grid(d.n)[1])
    return chain.from_iterable(zip(repeat(r1), later) for r1, later in rows)


def crossing_masks(d: Drawing, order: Optional[Iterable[int]] = None):
    """Crossing masks N(a, b, c) = {w : edge ab crosses edge cw} as Python ints.

    Bit p of every result stands for vertex ``order[p]`` (default: bit v for
    vertex v).  a, b, c are distinct members of ``order``, and bit p is set
    iff ``order[p]`` is another member whose edge to c crosses edge ab.
    """
    return _kernels(d, order)[0]


def _kernels(d: Drawing, order: Optional[Iterable[int]] = None):
    """(N, star): the kernel of ``crossing_masks`` and star(f, gs): for each
    position g in gs the masks (N(h, vg, vf), N(h, vf, vg), N(vg, vf, h)),
    h = order[0], vp = order[p].  A model's own star reads what depends on h
    and vf once per call; the default calls N three times per g."""
    n = d.n
    order = range(n) if order is None else tuple(order)
    bits = [0] * n  # bits[v]: the bit standing for vertex v, 0 for non-members
    for p, v in enumerate(order):
        bits[v] = 1 << p

    # the members strictly between a and b are below[b] ^ below[a + 1]
    below = tuple(accumulate(bits, or_, initial=0))
    N, star = MODELS[d.model].kernel(d, order, bits, below, below[n])
    if star is None:

        def star(f, gs):
            hub, vf = order[0], order[f]
            return [(N(hub, order[g], vf), N(hub, vf, order[g]), N(order[g], vf, hub))
                    for g in gs]

    return N, star


class _Model:
    """What one drawing model decides.  ``payload`` is the ``Drawing`` field it
    takes, and ``check(d)`` checks it; ``kernel`` gives ``_kernels`` its (N,
    star or None); ``rotation(d, v)`` is the drawn ccw rotation at v,
    ``anchor(d)`` the default vertex on the unbounded cell, ``cut(d, v0,
    ccw)`` the position in ccw of the germ after that cell's gap at v0 (else
    AnchorUnavailable), and ``order(d, v0)`` the rotation at v0 cut there and
    read backwards; ``positions(d)`` places the vertices for rendering,
    ``turn`` is the table the model's ``samples`` makes of the sweeps of a
    whole arc (None for straight edges), and ``arc(d, pos, u, w, turn)``
    gives the edge's points at those samples as a column of xs and a tuple
    of ys; ``pattern`` is CONVEX or TWISTED when the whole drawing is that
    pattern.
    """

    payload = None
    pattern = None
    turn = None

    def check(self, d: Drawing) -> None:
        pass

    def arc(self, d, pos, u, w, turn):
        # a straight edge: its two ends
        return (pos[u][0], pos[w][0]), (pos[u][1], pos[w][1])

    def cut(self, d: Drawing, v0: int, ccw: Tuple[int, ...]) -> int:
        return 0

    def order(self, d: Drawing, v0: int) -> Tuple[int, ...]:
        if type(v0) is not int or not 0 <= v0 < d.n:
            raise InvalidSelection(f"anchor {v0!r} out of range")
        ccw = self.rotation(d, v0)
        cut = self.cut(d, v0, ccw)
        return tuple(reversed(ccw[cut:] + ccw[:cut]))


class _Convex(_Model):
    """Regular n-gon.  Edges ab and cw cross iff exactly one of c, w lies
    strictly between a and b.  Any vertex anchors, its gap right before the
    first germ."""

    pattern = CONVEX

    def kernel(self, d, order, bits, below, dom):
        def interleaved(a, b, c):
            # exactly one of c, w strictly between a and b
            if a > b:
                a, b = b, a
            if a < c < b:
                return dom ^ below[b + 1] ^ below[a]
            return below[b] ^ below[a + 1]

        return interleaved, None

    def rotation(self, d, v):
        # all germs point into the polygon; ccw order is increasing label
        return tuple((v + t) % d.n for t in range(1, d.n))

    def anchor(self, d):
        return 0

    def positions(self, d):
        angles = [2 * math.pi * v / d.n for v in range(d.n)]
        return [(math.cos(t), math.sin(t)) for t in angles]


class _Twisted(_Model):
    """Spiral realization: vertex i at radius i+1 on the positive x-axis, edge
    {i,j} (i<j) sweeps counterclockwise from radius i+1 at angle 0 to j+1 at
    angle 2*pi, linear in angle, so nested index pairs cross exactly once
    and interleaved pairs never.  Only the outermost vertex anchors, its gap
    right before the first germ.  An arc is swept by the fraction of its
    turn from its smaller end."""

    pattern = TWISTED

    @staticmethod
    def samples(sweeps):
        """The sweeps and the cos and sin of their angles, columns that every
        ``arc`` reads, so each sample's trig is computed once per table."""
        angles = [2 * math.pi * s for s in sweeps]
        return tuple(sweeps), tuple(map(math.cos, angles)), tuple(map(math.sin, angles))

    turn = samples([t / SAMPLES_PER_TURN for t in range(SAMPLES_PER_TURN + 1)])

    def kernel(self, d, order, bits, below, dom):
        def nested(a, b, c):
            if a > b:
                a, b = b, a
            if a < c < b:  # cw inside ab
                return below[b] ^ below[a + 1] ^ bits[c]
            if c < a:  # ab inside cw
                return dom ^ below[b + 1]
            return below[a]

        return nested, None

    def rotation(self, d, v):
        # arcs to larger indices start here going up-right (angles in
        # (0, 90): sharper slope = closer to the axis), arcs from smaller
        # indices arrive from below-left (angles in (180, 270))
        return tuple(range(d.n - 1, v, -1)) + tuple(range(v))

    def anchor(self, d):
        return d.n - 1  # outermost spiral vertex

    def cut(self, d, v0, ccw):
        if v0 != d.n - 1:
            raise AnchorUnavailable(
                "only the outermost spiral vertex is certified on the unbounded cell"
            )
        return 0

    def positions(self, d):
        return [(v + 1.0, 0.0) for v in range(d.n)]

    def arc(self, d, pos, u, w, turn):
        a, b = sorted_pair(u, w)
        ra, rb = float(a + 1), float(b + 1)
        sweeps, cos, sin = turn
        rho = [ra + (rb - ra) * s for s in sweeps]
        return [r * x for r, x in zip(rho, cos)], tuple([r * y for r, y in zip(rho, sin)])


class _HalfCircle(_Twisted):
    """Vertex v at (v+1, 0), edge e a semicircle above (U) or below (L) by
    ``signs[e]``; same-side strictly interleaving edges cross.  Germs leave
    vertically, ordered by curvature 2/|x_j - x_i| (sharper arcs deviate
    further).  Only the leftmost vertex anchors, its gap after its upper
    germs.  An arc is swept by the angle from its right end.  A kernel row is
    two slices of the sign square and one gather into the order."""

    payload = "signs"
    pattern = None

    @staticmethod
    def samples(sweeps):
        """As the spiral's, with each sweep its own angle."""
        return tuple(sweeps), tuple(map(math.cos, sweeps)), tuple(map(math.sin, sweeps))

    turn = samples([math.pi * t / SAMPLES_PER_TURN for t in range(SAMPLES_PER_TURN + 1)])

    def check(self, d):
        n, signs = d.n, d.signs
        want = n * (n - 1) // 2
        if not isinstance(signs, str):
            raise InvalidSigns(f"sign vector missing, expected C({n},2)={want} symbols")
        if len(signs) != want:
            raise InvalidSigns(f"sign vector length {len(signs)}, expected C({n},2)={want}")
        # a table-driven pass over each piece's bytes, never a copy of the whole string
        for i in range(0, want, _SIGN_PIECE):
            piece = signs[i:i + _SIGN_PIECE]
            if not piece.isascii() or piece.encode().translate(None, b"UL"):
                k = next(k for k, s in enumerate(piece) if s not in "UL")
                raise InvalidSigns(
                    f"sign vector must use only U and L, got {piece[k]!r} at rank {i + k}")

    def kernel(self, d, order, bits, below, dom):
        # interleaved as in the convex model, with arc cw on the side of arc
        # ab: N(a, b, c) is c's row of upper arcs (lower if ab is lower) within
        # the members strictly outside a..b if c is strictly inside, else inside
        n, signs = d.n, d.signs
        off = _rank_offsets(n)
        gt = [dom ^ m for m in below[1:]]  # per vertex v, the members above v
        rows = [None] * n  # per vertex c, the w whose arc cw is upper, lower
        # the characters of a row in reversed order, so bit p is order[p]
        gather = itemgetter(*order[::-1]) if order else None

        def row(c):
            r = int("".join(gather(d._sign_row(c))).translate(_BITS), 2)
            rows[c] = r, r ^ dom
            return rows[c]

        def halfcircle(a, b, c):
            if a > b:
                a, b = b, a
            r = (rows[c] or row(c))[signs[off[a] + b] == "L"]
            return r & (gt[b] | below[a] if a < c < b else below[b] & gt[a])

        spokes = []  # per vertex v, arc hub-v as the kernel reads it: (lower, inside, outside)

        def star(f, gs):
            # Of h, vf, vg one lies between the others; arc h-vg spans its outside
            # if vf does, arc h-vf if vg does, arc vg-vf (signed in vf's row) the
            # outside of both spokes if h does, else the longer minus the shorter
            hub, vf = order[0], order[f]
            if not spokes:  # the hub's own entry is never read
                for a, b in (sorted_pair(hub, v) for v in range(n)):
                    spokes.append((signs[off[a] + b] == "L", below[b] & gt[a], gt[b] | below[a]))
            lower_f, in_f, out_f = spokes[vf]
            lo, hi = sorted_pair(hub, vf)
            vf_low = vf < hub
            rows_f, rows_h, signs_f = rows[vf] or row(vf), rows[hub] or row(hub), d._sign_row(vf)
            out = []
            for g in gs:
                vg = order[g]
                lower_g, in_g, out_g = spokes[vg]
                r_f, r_h = rows_f[lower_g], rows_h[signs_f[vg] == "L"]
                r_g = (rows[vg] or row(vg))[lower_f]
                if lo < vg < hi:  # vg in the middle
                    out.append((r_f & in_g, r_g & out_f, r_h & in_f & out_g))
                elif (vg < lo) == vf_low:  # vf in the middle
                    out.append((r_f & out_g, r_g & in_f, r_h & in_g & out_f))
                else:  # the hub in the middle
                    out.append((r_f & in_g, r_g & in_f, r_h & out_g & out_f))
            return out

        return halfcircle, star

    def rotation(self, d, v):
        # all upper germs point straight up, lower germs straight down;
        # sharper arcs (closer endpoints) deviate further toward their side
        row = d._sign_row(v)
        ccw = [*range(v + 1, d.n), *range(v)]
        return tuple(j for j in ccw if row[j] == "U") + tuple(
            j for j in reversed(ccw) if row[j] == "L"
        )

    def anchor(self, d):
        return 0  # leftmost vertex; nothing of the drawing lies left of it

    def cut(self, d, v0, ccw):
        if v0 != 0:
            raise AnchorUnavailable("only the leftmost vertex is certified on the unbounded cell")
        return d._sign_row(0).count("U")  # after the upper germs

    def arc(self, d, pos, u, w, turn):
        xu, xw = pos[u][0], pos[w][0]
        c = (xu + xw) / 2.0
        r = abs(xw - xu) / 2.0
        a, b = sorted_pair(u, w)
        h = r if d.signs[_rank_offsets(d.n)[a] + b] == "U" else -r  # (-r) * y is -(r * y) exactly
        _, cos, sin = turn
        return [c + r * x for x in cos], tuple([h * y for y in sin])


class _Points(_Model):
    """Straight-line segments on ``points``, n distinct integer pairs with no
    three on a line, decided by exact orientations.  A hull vertex anchors,
    its gap at the one pair of consecutive germs turning by at least pi.  A
    half-plane mask per vertex pair is one big-int expression over the
    members' packed coordinates, the other side its complement."""

    payload = "points"

    def check(self, d):
        n, points = d.n, d.points
        if not (type(points) is tuple and len(points) == n):
            raise InvalidSelection(f"points must be a tuple of n={n} integer pairs")
        seen = {}
        for idx, p in enumerate(points):
            if not (type(p) is tuple and len(p) == 2 and type(p[0]) is type(p[1]) is int):
                raise InvalidSelection(f"point {idx} {p!r} is not a pair of integers")
            if p in seen:
                raise DegenerateInput(f"duplicate point {p} at indices {seen[p]} and {idx}")
            seen[p] = idx
        # a, b, c are collinear iff the directions a->b and a->c reduce to the
        # same primitive vector up to sign: O(n^2) gcds instead of O(n^3)
        # orientations.  The first a with a repeated direction, then the class
        # with the smallest first member, name the lexicographically first triple.
        for a, (ax, ay) in enumerate(points):
            first = {}
            found = None
            for b, (bx, by) in enumerate(points[a + 1:], a + 1):
                dx, dy = bx - ax, by - ay
                g = gcd(dx, dy)
                if dx < 0 or not dx and dy < 0:
                    g = -g
                b0 = first.setdefault((dx // g, dy // g), b)
                if b0 != b and (found is None or b0 < found[0]):
                    found = b0, b
            if found:
                raise DegenerateInput(f"collinear triple ({a},{found[0]},{found[1]})")

    def kernel(self, d, order, bits, below, dom):
        pts = d.points
        sides = {}
        rel = {}  # per vertex p, the packings X - px*ones and Y - py*ones
        # The members' coordinates packed into X and Y, one field of
        # F = shift bits per position.  orient(p, q, w) = dx*(wy - py) -
        # dy*(wx - px) is at most 2*W*H in magnitude for members spanning a
        # W x H box, so each field of dx*(Y - py*ones) - dy*(X - px*ones) +
        # (2**(F-1) - 1) * ones lies in [0, 2**F) and has its top bit set
        # iff the orientation is positive.
        xs, ys = [pts[v][0] for v in order], [pts[v][1] for v in order]
        span = 2 * (max(xs) - min(xs)) * (max(ys) - min(ys)) if order else 0
        width = (span.bit_length() + 8) // 8  # bytes per field
        shift = 8 * width
        X = Y = 0
        for x, y in zip(reversed(xs), reversed(ys)):
            X = (X << shift) + x
            Y = (Y << shift) + y
        ones = int.from_bytes(b"\1".rjust(width, b"\0") * len(order), "big")
        bias = ((1 << (shift - 1)) - 1) * ones
        size = width * len(order)

        def left(p, q):
            # the w with p, q, w counterclockwise; no three points are
            # collinear, so every other member lies right of pq and one
            # build fills both directions of the pair
            mask = sides.get((p, q))
            if mask is None:
                (px, py), (qx, qy) = pts[p], pts[q]
                Xp, Yp = rel.get(p) or rel.setdefault(p, (X - px * ones, Y - py * ones))
                t = (qx - px) * Yp - (qy - py) * Xp + bias
                # the first byte of every field, highest position first
                tops = t.to_bytes(size, "big")[::width].translate(_TOP)
                mask = sides[p, q] = int(tops, 2)
                sides[q, p] = dom & ~(mask | bits[p] | bits[q])
            return mask

        def straight(a, b, c):
            # w across line ab from c, and line cw between a and b
            # a, b, c are distinct and no three points are collinear
            across = left(b, a) if orient(pts[a], pts[b], pts[c]) > 0 else left(a, b)
            return across & (left(a, c) & left(c, b) | left(c, a) & left(b, c))

        def star(f, gs):
            # straight's three calls with no orient: N(a, b, c) is the side of
            # ab away from c met with at_c, the w whose line cw passes between
            # a and b, and bit f of hg, orient(h, vg, vf) > 0, tells each
            # edge of the triangle which side its third vertex is on
            hub, vf = order[0], order[f]
            hf, fh = left(hub, vf), sides[vf, hub]
            out = []
            for g in gs:
                vg = order[g]
                hg, fg = left(hub, vg), left(vf, vg)
                gh, gf = sides[vg, hub], sides[vg, vf]
                at_vf, at_vg, at_h = hf & fg | fh & gf, hg & gf | gh & fg, gh & hf | hg & fh
                if hg >> f & 1:
                    out.append((gh & at_vf, hf & at_vg, fg & at_h))
                else:
                    out.append((hg & at_vf, fh & at_vg, gf & at_h))
            return out

        return straight, star

    def rotation(self, d, v):
        pts = d.points
        origin = pts[v]
        others = [u for u in range(d.n) if u != v]

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

    def anchor(self, d):
        return min(range(d.n), key=lambda i: d.points[i])  # lexicographic min is on the hull

    def cut(self, d, v0, ccw):
        # the gap is the consecutive ccw pair turning by at least pi; only a
        # hull vertex has one (with two points the pair is (u, u), turn 0)
        p, turns = d.points, enumerate(zip(ccw, ccw[1:] + ccw[:1]), 1)
        cut = next((t for t, (u, w) in turns if orient(p[v0], p[u], p[w]) <= 0), None)
        if cut is None:
            raise AnchorUnavailable(f"point {v0} is not a hull vertex")
        return cut

    def positions(self, d):
        pos = []
        for v, (x, y) in enumerate(d.points):
            try:
                pos.append((float(x), float(y)))
            except OverflowError:
                raise SizeLimit(f"point {v} has a coordinate past the float range") from None
        return pos


class _Explicit(_Model):
    """The crossing edge-rank pairs, no geometry, and a rotation or anchor
    only where stored.  The kernel reads row c of edge ab as one window,
    bits c*n to c*n + n - 1, of ab's stacked rows; any order but the
    identity moves each row it reads to positions through byte tables built
    once per kernel."""

    payload = "crossings"

    def check(self, d):
        _check_explicit_n(d.n)
        if d.crossings is None:
            raise InvalidSelection("an explicit drawing needs a crossings table")

    def kernel(self, d, order, bits, below, dom):
        n, X = d.n, d.crossings.bits
        rank, full = _rank_grid(n)[1], (1 << n) - 1

        def by_vertex(a, b, c):
            return X[rank[a * n + b]] >> c * n & full

        if list(order) == list(range(n)):
            return by_vertex, None
        # any other order moves a row from vertex bits to position bits a
        # byte at a time: tables[k // 8][v] holds the position bits of the
        # members among the vertices k + j, j a set bit of v
        padded, tables = bits + [0] * 7, []
        for k in range(0, n, 8):
            table = [0] * 256
            for v in range(1, 256):
                low = v & -v
                table[v] = table[v ^ low] | padded[k + low.bit_length() - 1]
            tables.append(table)
        width = len(tables)

        def explicit(a, b, c):
            row = by_vertex(a, b, c).to_bytes(width, "little")
            return sum(map(list.__getitem__, tables, row))

        return explicit, None

    def rotation(self, d, v):
        if d.rotations is None:
            raise RotationMissing("explicit drawing carries no rotation data")
        return d.rotations[v]

    def anchor(self, d):
        if d.anchor is None:
            raise AnchorUnavailable("explicit drawing without a declared anchor")
        return d.anchor[0]

    def cut(self, d, v0, ccw):
        raise AnchorUnavailable(f"vertex {v0} is not certified on the unbounded cell")

    def order(self, d, v0):
        if d.anchor is not None and d.anchor[0] == v0:
            return d.anchor[1]
        return super().order(d, v0)

    def positions(self, d):
        raise GeometryMissing(f"model {d.model!r} carries no geometry")


MODELS = {
    "explicit": _Explicit(),
    "convex": _Convex(),
    "twisted": _Twisted(),
    "halfcircle": _HalfCircle(),
    "points": _Points(),
}


def pattern_fit(crossing_mask, kind: str):
    """fit(x, y, v): the w for which (x, y, v, w) shows the kind's pattern.

    Convex: the middle pairing {x,v}x{y,w} crosses and the inner {x,y}x{v,w}
    and outer {x,w}x{y,v} do not.  Twisted: the outer pairing crosses and the
    other two do not.  ``crossing_mask`` is a :func:`crossing_masks` kernel.
    """
    N = crossing_mask
    if kind == CONVEX:
        return lambda x, y, v: N(x, v, y) & ~N(x, y, v) & ~N(y, v, x)
    return lambda x, y, v: N(y, v, x) & ~N(x, v, y) & ~N(x, y, v)


def _stacked_rows(N, vs: Sequence[int], a: int, b: int) -> int:
    """The rows N(vs[a], vs[b], vs[c]) of the kernel N over the order vs of
    k vertices, row c at bit c*k: bits c*k + w and w*k + c are set when edge
    (vs[a], vs[b]) crosses edge (vs[c], vs[w]).  Rows a and b are 0."""
    k, va, vb = len(vs), vs[a], vs[b]
    x = 0
    for c, vc in enumerate(vs):
        if c != a and c != b:
            x |= N(va, vb, vc) << c * k
    return x


def induced_subdrawing(d: Drawing, vs: Sequence[int]) -> Drawing:
    """Restriction of d to the ordered vertex selection vs.

    The result is an explicit drawing whose crossing relation is the
    restriction of d's under the index mapping, with the model's rotations
    (none for an explicit d without them) and d's stored anchor restricted
    (erasing vertices preserves the cyclic order of the surviving edge
    germs, and the unbounded cell only grows).
    """
    vs = _vertices(vs, d.n)
    if len(vs) < 2:
        raise InvalidSelection("selection needs at least 2 vertices")
    _check_explicit_n(len(vs))
    back = {v: idx for idx, v in enumerate(vs)}
    m = len(vs)
    # row c of edge (ia, ib) is N(vs[ia], vs[ib], vs[c]): m^3/2 mask reads
    N = crossing_masks(d, vs)
    X = [_stacked_rows(N, vs, ia, ib) for ia, ib in combinations(range(m), 2)]

    rotations = None
    if d.rotations is not None or d.model != "explicit":
        drawn = MODELS[d.model].rotation
        rotations = tuple(tuple(back[u] for u in drawn(d, v) if u in back) for v in vs)

    anchor = None
    if d.anchor is not None and d.anchor[0] in back:
        v0, order = d.anchor
        anchor = (back[v0], tuple(back[u] for u in order if u in back))

    return Drawing(n=m, model="explicit", crossings=_Crossings(X), rotations=rotations,
                   anchor=anchor)


@dataclass(frozen=True)
class AnchoredDrawing:
    """A drawing with a vertex v0 on the unbounded cell and the clockwise
    linear order of the remaining vertices around it.

    Anchored positions are 1-based (position 0 is v0 itself); ``order[p-1]``
    is the base vertex at position p.
    """

    base: Drawing
    v0: int
    order: Tuple[int, ...]

    def __post_init__(self):
        n = self.base.n
        if type(self.v0) is not int or not 0 <= self.v0 < n:
            raise InvalidSelection(f"anchor {self.v0!r} out of range")
        if not _is_order(self.order, n, self.v0):
            raise InvalidSelection("anchored order is not a permutation of V \\ {v0}")

    @property
    def n(self) -> int:
        return self.base.n

    def vertex_at(self, p: int) -> int:
        """Base vertex at anchored position p (p=0 is the anchor)."""
        return self.v0 if p == 0 else self.order[p - 1]


@dataclass(frozen=True)
class Certificate:
    """Pattern witness: ordered vertex list plus a kind.

    For PLANE_BIPARTITE the first two vertices are the star centers and the
    rest are the leaves.
    """

    kind: str
    vertices: Tuple[int, ...]

    def __post_init__(self):
        if self.kind not in CERTIFICATE_KINDS:
            raise InvalidCertificate(f"unknown certificate kind {self.kind!r}")
        if type(self.vertices) is not tuple:
            raise InvalidCertificate(f"certificate vertices {self.vertices!r} are not a tuple")
        for v in self.vertices:
            if type(v) is not int or v < 0:
                raise InvalidCertificate(f"certificate vertex {v!r} is not a non-negative integer")
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidCertificate("certificate vertices must be distinct")
        minimum = 3 if self.kind == PLANE_BIPARTITE else 1
        if len(self.vertices) < minimum:
            raise InvalidCertificate(
                f"{self.kind} certificate needs at least {minimum} vertices"
            )

    def edges(self) -> list:
        """Drawn edges the certificate asserts to be present/plane."""
        vs = self.vertices
        if self.kind in (CONVEX, TWISTED):
            return list(combinations(vs, 2))
        if self.kind == PLANE_PATH:
            return list(zip(vs, vs[1:]))
        return [(center, u) for center in vs[:2] for u in vs[2:]]


@dataclass(frozen=True)
class CertificateReport:
    ok: bool
    kind: str
    checked: int
    failure: Optional[str] = None
    failing_tuple: Optional[Tuple[int, ...]] = None

    def __bool__(self):
        return self.ok


def check_plane_edges(d: Drawing, edges: Iterable[Tuple[int, int]]):
    """First crossing pair among the given drawn edges, or None.

    Edge pairs sharing an endpoint are skipped (they cannot cross).
    """
    es = [_norm_edge(e, d.n) for e in edges]
    ends = sorted({v for e in es for v in e})
    N = crossing_masks(d, ends)
    bit = {v: 1 << p for p, v in enumerate(ends)}
    for (a, b), (c, e) in combinations(es, 2):
        if a not in (c, e) and b not in (c, e) and N(a, b, c) & bit[e]:
            return (a, b), (c, e)
    return None


def verify_certificate(d: Drawing, c: Certificate) -> CertificateReport:
    """Check a certificate against the drawing's actual crossing relation.

    Convex: every 4-tuple of certificate positions a<b<c<d must have the
    middle pairing {a,c}x{b,d} crossing and the other two pairings not.
    Twisted: the outer pairing {a,d}x{b,c} crosses, the other two do not.
    Both are read from crossing masks, one test per position triple; the
    report counts 4-tuples and names the first offending one in their
    lexicographic order.  Plane path / plane bipartite: the asserted edges
    are pairwise non-crossing.  Reports pass or the first offending tuple.
    """
    _check_certificate_range(d, c)
    vs = c.vertices
    if c.kind in (CONVEX, TWISTED):
        # for positions a < b < cc, the positions after cc must all lie in
        # fit(vs[a], vs[b], vs[cc]): C(m,3) mask tests for the C(m,4) tuples
        N = crossing_masks(d, vs)
        fit = pattern_fit(N, c.kind)
        m = len(vs)
        everyone = (1 << m) - 1
        for a in range(m - 3):
            x = vs[a]
            for b in range(a + 1, m - 2):
                y = vs[b]
                for cc in range(b + 1, m - 1):
                    v = vs[cc]
                    bad = (everyone ^ fit(x, y, v)) >> (cc + 1)
                    if bad:
                        dd = cc + (bad & -bad).bit_length()
                        seen = {"mid": N(x, v, y), "inner": N(x, y, v), "outer": N(y, v, x)}
                        got = [name for name, mask in seen.items() if mask >> dd & 1]
                        want = "mid" if c.kind == CONVEX else "outer"
                        return CertificateReport(
                            ok=False,
                            kind=c.kind,
                            checked=_quadruples_up_to(m, a, b, cc, dd),
                            failing_tuple=(a, b, cc, dd),
                            failure=f"vertices {(x, y, v, vs[dd])}: required crossing pattern "
                                    f"{want!r}, observed {got or ['none']}",
                        )
        return CertificateReport(ok=True, kind=c.kind, checked=comb(m, 4))

    edges = c.edges()
    bad = check_plane_edges(d, edges)
    pairs = len(edges) * (len(edges) - 1) // 2
    if bad is None:
        return CertificateReport(ok=True, kind=c.kind, checked=pairs)
    return CertificateReport(
        ok=False,
        kind=c.kind,
        checked=pairs,
        failing_tuple=bad[0] + bad[1],
        failure=f"edges {bad[0]} and {bad[1]} cross",
    )


def _certified(d: Drawing, kind: str, vertices: Sequence[int]) -> Certificate:
    """The certificate of ``kind`` on ``vertices``, once ``verify_certificate``
    passes it on d.

    Every certificate the library hands out leaves through here.  A failure
    is the library's own fault, not the input's, so it raises
    InternalInvariantBroken("<kind> certificate failed: <failure>").
    """
    cert = Certificate(kind, tuple(vertices))
    report = verify_certificate(d, cert)
    if not report.ok:
        raise InternalInvariantBroken(f"{kind} certificate failed: {report.failure}")
    return cert


def _check_certificate_range(d: Drawing, c: Certificate) -> None:
    """InvalidCertificate unless every certificate vertex is one of d's."""
    if max(c.vertices) >= d.n:
        raise InvalidCertificate("certificate vertex out of range for drawing")


def _quadruples_up_to(m: int, a: int, b: int, c: int, e: int) -> int:
    """The number of 4-tuples of range(m) up to (a, b, c, e) in lexicographic
    order, that one included."""
    return (comb(m, 4) - comb(m - a, 4) + comb(m - a - 1, 3) - comb(m - b, 3)
            + comb(m - b - 1, 2) - comb(m - c, 2) + e - c)

