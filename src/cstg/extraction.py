"""Pattern extraction: stage construction driving the class games.

Each stage takes the least remaining candidate w, reads phi(w,u) for all
later u as the level masks of column w, and either (a) finds a candidate at
the twisted threshold and returns the recovered monotone 3-path as a twisted
certificate, or (b) files w into the largest phi-class of the candidate mask,
plays one online-game round there (naive builder; each edge keeps the larger
triple-color class of the candidates, read from one pair's masks), and checks
every class for a monochromatic monotone 2-path of m1 vertices, a convex
pattern.  Each phi class is a ``GameState`` on its members, in stage order.

The candidate set keeps at least a 1/(m2^2 * 2^edges) share per stage.
Its pigeonhole floor, the edge colors' restriction, and the convex witness's
triple colors are asserted, never trusted; the halving (each edge keeps the
larger half) and the (m2-2)^2 bound on zero-edge stages (each opens a class)
hold by construction and are checked in tests.  Every run ends in one tail:
a convex or twisted witness leaves through ``drawing._certified``, which
verifies it or raises InternalInvariantBroken, and running out of
candidates, a legitimate desk-scale outcome, is reported with statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .chromatics import ChiCache, PhiTable, _color
from .drawing import (
    CONVEX,
    TWISTED,
    AnchoredDrawing,
    Certificate,
    _certified,
    _count,
)
from .errors import InternalInvariantBroken, InvalidSelection, NotATree, SizeLimit
from .ramsey import GameState


@dataclass
class ExtractionStats:
    stages: int = 0
    edge_counts: List[int] = field(default_factory=list)
    outcome: str = "exhausted"
    # final state snapshots (anchored positions), for audits and reports
    class_members: Dict[Tuple[int, int], List[int]] = field(default_factory=dict)
    class_edges: Dict[Tuple[int, int], List[Tuple[int, int, str]]] = field(
        default_factory=dict
    )
    final_candidates: List[int] = field(default_factory=list)

    @property
    def total_edges(self) -> int:
        return sum(self.edge_counts)

    @property
    def zero_edge_stages(self) -> int:
        return self.edge_counts.count(0)

    @property
    def class_histogram(self) -> Dict[Tuple[int, int], int]:
        return {k: len(members) for k, members in self.class_members.items()}

    @property
    def candidates_remaining(self) -> int:
        return len(self.final_candidates)


@dataclass
class ExtractionOutcome:
    certificate: Optional[Certificate]
    stats: ExtractionStats

    @property
    def exhausted(self) -> bool:
        return self.certificate is None

    def report_lines(self) -> List[str]:
        s = self.stats
        lines = [
            f"outcome: {s.outcome}",
            f"stages: {s.stages}",
            f"edges built: {s.total_edges}",
            f"zero-edge stages: {s.zero_edge_stages}",
            f"candidates remaining: {s.candidates_remaining}",
            "class histogram: "
            + (
                " ".join(
                    f"({a},{b})={size}"
                    for (a, b), size in sorted(s.class_histogram.items())
                )
                or "(empty)"
            ),
        ]
        if self.certificate is not None:
            lines.append(
                f"certificate: {self.certificate.kind} "
                f"size={len(self.certificate.vertices)}"
            )
        return lines


def extract_pattern(
    ad: AnchoredDrawing,
    m1: int,
    m2: int,
    chi_cache: Optional[ChiCache] = None,
) -> ExtractionOutcome:
    """Extract a convex pattern of m1 vertices or a twisted pattern of m2.

    Returns an outcome carrying a verified certificate, or an exhausted
    report when the candidate pool empties first (expected at desk scale).
    """
    _count(m1, "pattern target m1", 2)
    _count(m2, "pattern target m2", 2)
    chi = chi_cache if chi_cache is not None else ChiCache(ad)
    phi = PhiTable(ad, chi)
    stats = ExtractionStats()
    classes: Dict[Tuple[int, int], GameState] = {}
    candidates = (1 << ad.n) - 2  # positions 1..n-1

    while candidates:
        stats.stages += 1
        w = (candidates & -candidates).bit_length() - 1
        rest = candidates ^ (1 << w)
        column = phi.column(w) if rest else ([0], [0])  # the last candidate reads no pairs
        twisted = _twisted_hit(column, rest, m2)
        if twisted is not None:
            witness = phi.witness(w, *twisted)[-m2:]
            return _finish(ad, stats, classes, rest, TWISTED, witness)

        chosen_key, pool = _largest_class(column, rest)
        if pool.bit_count() * m2 * m2 < rest.bit_count():
            raise InternalInvariantBroken("pigeonhole class smaller than (|S|-1)/m2^2")

        game = classes.setdefault(chosen_key, GameState())
        game.add_vertex(w)
        members = game.vertices[:-1]  # naive builder: all prior members, ascending
        for u in members:
            color, pool = _halve(chi, u, w, pool)
            game.add_edge(u, w, color)
        stats.edge_counts.append(len(members))

        # only this stage's class changed, and every earlier stage found
        # every class short of m1
        length, end, color = game.best()
        if color is not None and length >= m1:
            return _convex_success(ad, chi, stats, classes, game, end, color, m1, pool)

        candidates = pool

    return _finish(ad, stats, classes, 0)


def _twisted_hit(column, rest, m2):
    """The lowest u in the mask ``rest`` with phi(w,u) >= m2 in column w,
    and its component ("a" before "b"); None when there is none."""
    # levels are disjoint, so their sum is their union
    hits_a, hits_b = (rest & sum(levels[m2 - 2:]) for levels in column)
    hits = hits_a | hits_b
    if hits:
        u = (hits & -hits).bit_length() - 1
        return u, "a" if hits_a >> u & 1 else "b"


def _largest_class(column, rest):
    """The key (a, b) and the mask of the largest phi class in ``rest``, read
    from column w; ties, and an empty ``rest``, go to the smallest key."""
    return max(
        (((t + 2, s + 2), rest & level_a & level_b)
         for t, level_a in enumerate(column[0]) for s, level_b in enumerate(column[1])),
        key=lambda cls: cls[1].bit_count(),
    )


def _halve(chi: ChiCache, u: int, w: int, pool: int) -> Tuple[str, int]:
    """Color of the built edge (u, w) and the candidates it keeps.

    Of the candidate mask ``pool``, the 010 class is the part in R(w,u) and
    the 000 class the rest; the larger survives, ties going to 000.  A
    candidate in R(u,w) or X(u,w) colors 100 or 001 and breaks the
    invariant.  No triple (u, w, v) is invalid here: phi.column(w) has
    checked every (k, w, v) with k < w.
    """
    ri, rj, x = chi._pair(u, w)
    bad = pool & (ri | x)
    if bad:
        v = (bad & -bad).bit_length() - 1
        raise InternalInvariantBroken(
            f"candidate {v} colors chi({u},{w},{v})={_color(ri, rj, x, v)}, "
            "expected 000 or 010"
        )
    tens = pool & rj
    zeros = pool ^ tens
    if zeros.bit_count() >= tens.bit_count():
        return "000", zeros
    return "010", tens


def _convex_success(ad, chi, stats, classes, game, end, color, m1, survivors):
    wstar = game.path_witness(end, color)[-m1:]
    # every witness triple (p, q, v) has the path's color: v in R(q,p) alone
    # for 010, in none of the pair's masks for 000
    for s, q in enumerate(wstar[1:-1], 1):
        later = sum(1 << v for v in wstar[s + 1:])
        for p in wstar[:s]:
            ri, rj, x = chi._pair(p, q)
            bad = later & (ri | x | (rj if color == "000" else ~rj))
            if bad:
                v = (bad & -bad).bit_length() - 1
                raise InternalInvariantBroken(
                    f"convex witness triple {(p, q, v)} colored {_color(ri, rj, x, v)}"
                )
    return _finish(ad, stats, classes, survivors, CONVEX, wstar)


def _finish(ad, stats, classes, candidates, kind=None, witness=()):
    """The outcome of a run that ends here: with the certificate of ``kind``
    on the anchored positions ``witness``, verified, or exhausted when
    ``kind`` is None; the final classes and the candidate mask go to stats."""
    cert = _certified(ad.base, kind, map(ad.vertex_at, witness)) if kind else None
    stats.outcome = kind or "exhausted"
    stats.final_candidates = [v for v in range(candidates.bit_length()) if candidates >> v & 1]
    stats.class_members = {k: list(g.vertices) for k, g in classes.items()}
    stats.class_edges = {k: list(g.edges) for k, g in classes.items()}
    return ExtractionOutcome(certificate=cert, stats=stats)


# -- threshold arithmetic ----------------------------------------------------


def paper_r_bound(m: int) -> float:
    """Asymptotic builder cost bound 2 m^2 log2 m used by the proof chain."""
    return 2.0 * m * m * math.log2(m) if m > 1 else 1.0


def naive_r_bound(m: int) -> float:
    """All-edges builder: C((m-1)^2 + 1, 2) edges suffice."""
    vertices = (m - 1) ** 2 + 1
    return vertices * (vertices - 1) / 2.0


@dataclass(frozen=True)
class ThresholdReport:
    """Sufficient log2(n) thresholds for finding C_{m1} or T_{m2}.

    ``chain_exponent`` follows the stage bookkeeping with the supplied
    builder bound: E = m2^2 r(m1) edges, t = m2^2 + E stages, and a margin
    of 2 t log2(m2) + E + t on the candidate recurrence.
    ``formula_exponent`` is the closed form 9 (m1 m2)^2 log2(m1) log2(m2);
    with the default builder bound the chain never exceeds it.
    """

    m1: int
    m2: int
    chain_exponent: float
    formula_exponent: float


def required_n(
    m1: int, m2: int, r_bound: Callable[[int], float] = paper_r_bound
) -> ThresholdReport:
    """Exponent L such that n > 2^L suffices, plus the closed-form bound."""
    _count(m1, "pattern target m1", 2)
    _count(m2, "pattern target m2", 2)
    edge_budget = m2 * m2 * r_bound(m1)
    stage_budget = m2 * m2 + edge_budget
    chain = 2.0 * stage_budget * math.log2(m2) + edge_budget + stage_budget
    formula = 9.0 * (m1 * m2) ** 2 * math.log2(m1) * math.log2(m2)
    return ThresholdReport(
        m1=m1, m2=m2, chain_exponent=chain, formula_exponent=formula
    )


def guaranteed_m(n: int) -> int:
    """Largest m with 9 m^4 (log2 m)^2 < log2 n (both targets set to m)."""
    log_n = math.log2(_count(n, "n", 3))
    m = 1
    while 9.0 * (m + 1) ** 4 * math.log2(m + 1) ** 2 < log_n:
        m += 1
    return m


# -- tree embedding ----------------------------------------------------------


@dataclass(frozen=True)
class TreeEmbedding:
    kind: str
    pattern_size: int
    assignment: Dict[int, int]  # tree vertex -> pattern vertex
    edges: Tuple[Tuple[int, int], ...]  # mapped tree edges, pattern vertices


def embed_tree(kind: str, m: int, adjacency: Sequence[Sequence[int]]) -> TreeEmbedding:
    """Plane embedding of a tree into the convex or twisted pattern on m vertices.

    The tree is read from vertex 0 through one frontier.  Convex takes it
    as a stack, for depth-first preorder: any two tree edges are then nested
    or disjoint as index intervals, never interleaved, so no pair crosses.
    Twisted takes it as a queue, for breadth-first layers with children
    grouped under parents in parent order: intervals are then never
    strictly nested, the only crossing pattern the twisted rule has.
    """
    if kind not in (CONVEX, TWISTED):
        raise InvalidSelection(f"kind must be {CONVEX!r} or {TWISTED!r}")
    _count(m, "m", 1)
    k = len(adjacency)
    if k == 0:
        raise NotATree("empty adjacency")
    if k > m:
        raise SizeLimit(f"tree has {k} vertices, pattern only {m}")
    nbrs = [sorted(set(row)) for row in adjacency]
    for v, row in enumerate(nbrs):
        for u in row:
            if not (0 <= u < k) or u == v:
                raise NotATree(f"bad neighbor {u} at vertex {v}")
            if v not in nbrs[u]:
                raise NotATree(f"adjacency not symmetric at ({v},{u})")
    # symmetric, so each edge is counted from both ends
    edge_count = sum(len(row) for row in nbrs)
    if edge_count != 2 * (k - 1):
        raise NotATree(f"{edge_count // 2} edges, a tree on {k} vertices has {k - 1}")

    convex = kind == CONVEX
    parent = {0: None}
    order: List[int] = []
    frontier = [0]
    while frontier:
        v = frontier.pop(-1 if convex else 0)  # a stack, or a queue
        order.append(v)
        children = [u for u in nbrs[v] if u != parent[v]]
        for u in children:
            if u in parent:
                raise NotATree("cycle detected")
            parent[u] = v
        frontier.extend(children[::-1] if convex else children)
    if len(order) != k:
        raise NotATree("adjacency is not connected")

    assignment = {v: idx for idx, v in enumerate(order)}
    edges = tuple(
        (min(assignment[v], assignment[parent[v]]), max(assignment[v], assignment[parent[v]]))
        for v in order
        if parent[v] is not None
    )
    return TreeEmbedding(kind=kind, pattern_size=m, assignment=assignment, edges=edges)
