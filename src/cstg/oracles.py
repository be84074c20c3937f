"""Brute-force ground truth at desk scale.

Ordered branch-and-bound for maximum convex/twisted sub-patterns (weak
isomorphism permits relabeling, so the search runs over orderings, not just
subsets) and depth-first search for the longest plane path.  A budget caps
a search's nodes and time; without one the search runs to its end.  Every
result says whether the search completed, and one stopped by its budget
raises BudgetExhausted with the best sequence it held.  The float
germ-sampling check of the models' rotation systems is test code
(``tests/helpers.py``): weak isomorphism reads only which edges cross.

Two answers are known by proof.  C5 and T5 are the two classes of K5 with
five crossings.  In a half-circle drawing two edges cross only when their
endpoints interleave on the line, so every crossing of a 5-subset is one of
C5's in line order, and a 5-subset with five crossings is C5 in line order.
Five points in general position span 1, 3 or 5 crossings, and 5 exactly
when they are in convex position, which is C5 again.  So neither family
holds a T5, and the twisted maximum of such a drawing on n >= 4 vertices
is 4 when some K4 crosses and 3 otherwise.

The searches test consistency with Python-int masks, the representation
:mod:`cstg.chromatics` uses.  The pattern search picks the first vertex of a
sequence, then the last vertex L, then fills the middle, so it visits one
sequence per reversal (twisted) or rotation and reflection (convex).  It
carries, per depth, the mask of vertices that may go next in the middle,
narrowed for a child by one entry of each of its rows: the pair row of
each pair (a, b) before L lists, for every v, the w that fit (a, b, v, w),
and the end row of (a, L) the w that fit (a, v, w, L).  Each row is built
the first time a sequence needs it, from one table P[x][y][v] = N(x, v, y)
of the crossing masks N(ab, c) = {w : edge ab crosses edge cw}
(:func:`cstg.drawing.crossing_masks`, the kernel certificate checks and the
colorings use).  A pattern node is one choice of a vertex; a node stops
once the sequence plus a bound on the vertices that may still join cannot
beat the best sequence, and a child that this bound would stop at once is
counted in the node and not called.  The convex bound is their count, as
in Carraghan and Pardalos (1990) for maximum clique; the twisted bound is
the number of classes of a greedy colouring of them in the graph of the
end row of (v1, L), as in MCQ (Tomita and Seki, 2003).  Every two middle
vertices x, y of a twisted sequence fit (v1, x, y, L), and a twisted end
row is symmetric, since swapping x and y keeps the outer pairing and swaps
the middle and inner ones; so the middle is a clique of that graph, and
no clique has more vertices than a colouring has classes.  A convex end
row is directed, so the convex kind keeps the count.  The path search
keeps its used edges as a mask with bit p*k + q for the edge between
positions p and q of its k vertices; the conflict mask of an edge stacks
its kernel rows as an explicit table's int does, so it holds bits p*k + q
and q*k + p of every edge that crosses it.  Its candidate order, node
count and bounds are those of the plain scan over its edges, so its
results, witnesses and exhausted budgets do not depend on the masks; it
stops at a path through every vertex.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .drawing import (
    CONVEX,
    TWISTED,
    Drawing,
    _count,
    _stacked_rows,
    _vertices,
    crossing_masks,
)
from .errors import BudgetExhausted, InvalidSelection


@dataclass(frozen=True)
class OracleBudget:
    seconds: Optional[float] = None
    nodes: Optional[int] = None

    def __post_init__(self):
        seconds, nodes = self.seconds, self.nodes
        if seconds is not None:
            if isinstance(seconds, bool) or not isinstance(seconds, (int, float)):
                raise InvalidSelection(f"time budget must be a number, got {seconds!r}")
            if not seconds > 0:  # NaN too; inf is no limit
                raise InvalidSelection("time budget must be positive")
        if nodes is not None:
            _count(nodes, "node budget", 1)


@dataclass(frozen=True)
class OracleResult:
    size: int
    witness: Tuple[int, ...]
    nodes: int
    exact: bool

    def report_lines(self) -> List[str]:
        return [
            f"size: {self.size}",
            f"witness: {' '.join(str(v) for v in self.witness)}",
            f"nodes expanded: {self.nodes}",
            f"exact: {'yes' if self.exact else 'no (lower bound)'}",
        ]


class _Clock:
    def __init__(self, budget: Optional[OracleBudget]):
        if budget is not None and not isinstance(budget, OracleBudget):
            raise InvalidSelection(f"budget must be an OracleBudget, got {type(budget).__name__}")
        self.deadline = None
        self.node_cap = None
        if budget is not None:
            if budget.seconds is not None:
                self.deadline = time.monotonic() + budget.seconds
            self.node_cap = budget.nodes
        self.nodes = 0

    def tick(self) -> bool:
        """Counts a node; True while within budget."""
        self.nodes += 1
        if self.node_cap is not None and self.nodes > self.node_cap:
            return False
        if self.deadline is not None and self.nodes % 1024 == 0:
            return time.monotonic() <= self.deadline
        return True

    def finish(self, search: str, best: List[int], completed: bool,
               exact: bool = True) -> OracleResult:
        """The result of a search that ended with ``best``: exact when it
        completed and ``exact`` holds; BudgetExhausted, carrying it, when
        the budget stopped the search."""
        result = OracleResult(size=len(best), witness=tuple(best), nodes=self.nodes,
                              exact=completed and exact)
        if not completed:
            raise BudgetExhausted(f"{search} search budget exhausted after {self.nodes} nodes",
                                  payload=result)
        return result


def max_pattern_exact(
    d: Drawing, kind: str, budget: Optional[OracleBudget] = None
) -> OracleResult:
    """Maximum k and ordered witness whose certificate of the kind verifies.

    A twisted sequence read backwards is twisted, and a convex one stays convex
    under rotation and reflection, so the search visits one sequence per class:
    the first vertex v1 ascending, the last vertex L > v1 descending, then the
    middle in ascending order of the vertices that complete no inconsistent
    4-tuple; for the convex kind every vertex lies above v1 and the first middle
    vertex below L.  Each choice is one node of the count and of a node budget.
    A node stops once its length plus a bound on the vertices that may still
    join cannot beat the best length: their count (convex), or the classes of
    a greedy colouring of them in the symmetric graph of the end row of
    (v1, L), of which every twisted middle is a clique.  The bound counts no
    node and ``best`` changes only on a strict gain, so the witness is the
    first maximum sequence in that order.
    """
    if kind not in (CONVEX, TWISTED):
        raise InvalidSelection(f"kind must be {CONVEX!r} or {TWISTED!r}")
    n, full, convex = d.n, (1 << d.n) - 1, kind == CONVEX
    clock, N = _Clock(budget), crossing_masks(d)
    # P[x][y][v] = N(x, v, y) = P[v][y][x], one row per ordered pair; an entry
    # reads only rows already built, so a row costs at most n kernel calls
    P = [[None] * n for _ in range(n)]
    # pairs[a][b][v]: the w that fit (a, b, v, w); ends[a][b][v]: the w that
    # fit (a, v, w, b); each built the first time a sequence needs it
    pairs, ends = [[None] * n for _ in range(n)], [[None] * n for _ in range(n)]
    # fit's masks of (a, b, v) are N(a, v, b), N(b, v, a), N(a, b, v): the middle,
    # outer and inner pairing of (a, b, v, w) and the inner, middle and outer of
    # (a, v, w, b); the kind wants the middle (convex) or outer (twisted) alone
    at_pair, at_end = (0, 1) if convex else (1, 2)

    def fit(a: int, b: int, table: List[List[Optional[List[int]]]], i: int) -> List[int]:
        for x, y in (a, b), (b, a):
            P[x][y] = P[x][y] or [0 if v == x or v == y else P[v][y][x] if P[v][y] else N(x, v, y)
                                  for v in range(n)]
        s = (P[a][b], P[b][a],
             [0 if v == a or v == b else P[a][v][b] if P[a][v] else N(a, b, v) for v in range(n)])
        r = table[a][b] = [t & ~(u | w) for t, u, w in zip(s[i], s[i - 1], s[i - 2])]
        return r

    best: List[int] = []

    def reach(length: int, free: int, row: List[int]) -> int:
        # length plus a bound on how many of free may all join: convex counts free, twisted
        # colours it greedily in the graph of row, the end row of (v1, L)
        if convex:
            return length + free.bit_count()
        count = 0
        while free:
            count += 1
            rest = free  # one class: the lowest vertex left, then the lowest not in its row
            while rest:
                low = rest & -rest
                free ^= low
                rest &= ~(low | row[low.bit_length() - 1])
        return length + count

    def dfs(seq: List[int], cand: int, free: int, rows: List[List[int]], bound: int) -> bool:
        # seq: v1, the middle so far, L; cand: the next middle vertices to try; free: the
        # vertices that may still join; rows: the end row of (v1, L), the pair rows before
        # L and the other end rows of L; bound: reach(len(seq), free, rows[0])
        nonlocal best
        if len(seq) > len(best):
            best = seq
        grown = len(seq) + 1
        head, last, rest = seq[:-1], seq[-1], cand
        while rest and bound > len(best):
            low = rest & -rest
            rest ^= low
            if not clock.tick():
                return False
            v = low.bit_length() - 1
            child = free ^ low
            for r in rows:
                child &= r[v]
            # a child that cannot beat best would return at once: no call
            reached = reach(grown, child, rows[0])
            if reached > len(best):
                more = [pairs[u][v] or fit(u, v, pairs, at_pair) for u in head]
                more.append(ends[v][last] or fit(v, last, ends, at_end))
                if not dfs(head + [v, last], child, child, rows + more, reached):
                    return False
        return True

    def search() -> bool:
        nonlocal best
        for v1 in range(n):
            if len(best) == n:  # the root's bound
                break
            if not clock.tick():
                return False
            best = best or [v1]
            free = full & -(2 << v1) if convex else full ^ 1 << v1
            for last in range(n - 1, v1, -1):
                if len(best) > free.bit_count():  # the bound of [v1]
                    break
                if not clock.tick():
                    return False
                middle = free ^ 1 << last
                first = middle & (1 << last) - 1 if convex else middle
                row = ends[v1][last] or fit(v1, last, ends, at_end)
                reached = reach(2, middle, row)
                if reached > len(best) and not dfs([v1, last], first, middle, [row], reached):
                    return False
        return True

    completed = search()
    dfs = None  # dfs refers to itself: drop that cycle so the rows go now
    return clock.finish("pattern", best, completed)


def longest_plane_path_exact(
    d: Drawing,
    budget: Optional[OracleBudget] = None,
    vertices: Optional[Sequence[int]] = None,
    target: Optional[int] = None,
) -> OracleResult:
    """Longest simple path with pairwise non-crossing drawn edges.

    Optionally restricted to a vertex subset.  The search stops at the first
    path of its stop length: every vertex, which no path can beat, or
    ``target`` if that is fewer.  The result is exact when the search ran
    out of paths or found one through every vertex; one that stopped at
    ``target`` short of every vertex is flagged as a lower bound.
    """
    verts = sorted(_vertices(vertices, d.n)) if vertices is not None else list(range(d.n))
    k = len(verts)
    stop = k if target is None else min(k, _count(target, "target", 1))
    # conflict masks and used edges over positions p*k + q in verts
    N = crossing_masks(d, verts)
    conflicts = [None] * (k * k)

    def conflicts_of(p: int, q: int) -> int:
        cached = conflicts[p * k + q]
        if cached is None:
            cached = conflicts[p * k + q] = conflicts[q * k + p] = _stacked_rows(N, verts, p, q)
        return cached

    clock = _Clock(budget)
    best: List[int] = []

    def dfs(path: List[int], on: int, used_edges: int, p: int) -> bool:
        # p: the position of path[-1] in verts; on: the positions on the path
        nonlocal best
        if len(path) > len(best):
            best = list(path)
            if len(best) >= stop:
                return True
        for q, w in enumerate(verts):
            if on >> q & 1:
                continue
            if not clock.tick():
                return False
            if conflicts_of(p, q) & used_edges:
                continue
            path.append(w)
            ok = dfs(path, on | 1 << q, used_edges | 1 << p * k + q, q)
            path.pop()
            if not ok:
                return False
            if len(best) >= stop:
                return True
        return True

    completed = True
    for p, start in enumerate(verts):
        if not clock.tick() or not dfs([start], 1 << p, 0, p):
            completed = False
            break
        if len(best) >= stop:
            break
    dfs = None  # as in max_pattern_exact: free the conflict masks now
    return clock.finish("path", best, completed, len(best) == k or len(best) < stop)

