"""Brute-force ground truth at desk scale.

Ordered branch-and-bound for maximum convex/twisted sub-patterns (weak
isomorphism permits relabeling, so the search runs over orderings, not just
subsets), depth-first search for the longest plane path, and a numeric
germ-sampling oracle that recomputes rotation systems from raw geometry.
Budgets are mandatory in spirit: searches carry node and time caps and flag
whether they completed.

The searches test consistency with Python-int masks, the representation
:mod:`cstg.chromatics` uses.  The pattern search carries, per depth, the
mask of vertices that extend the current sequence consistently, and the
rows of the sequence's pairs: the row of a pair (a, b) lists, for every v,
the ``pattern_fit`` mask of (a, b, v), read from the drawing's crossing
masks N(ab, c) = {w : edge ab crosses edge cw}
(:func:`cstg.drawing.crossing_masks`, the kernel certificate checks and
the colorings use), and is built the first time a sequence holds that
pair.  A child's mask is the node's mask and one entry of each row.  The
path search keeps its used edges as a mask with bit p*k + q for the edge
between positions p and q of its k vertices; the conflict mask of an edge
stacks its kernel rows as an explicit table's int does, so it holds bits
p*k + q and q*k + p of every edge that crosses it.  A pattern node is one
consistent extension: the search walks the set bits of the candidate mask
in ascending order and stops a node once the sequence plus the popcount of
that mask cannot beat the best sequence, the colouring-free bound of
Carraghan and Pardalos (1990) for maximum clique.  A child that this bound
would stop at once is counted in the node and not called.
The path search's candidate order, node count and bounds are those of the
plain scan over its edges, so its results, witnesses and exhausted budgets
do not depend on the masks; it stops at a path through every vertex.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .drawing import (
    CONVEX,
    MODELS,
    TWISTED,
    Drawing,
    _stacked_rows,
    crossing_masks,
    pattern_fit,
)
from .errors import BudgetExhausted, DegenerateInput, InvalidSelection


@dataclass(frozen=True)
class OracleBudget:
    seconds: Optional[float] = None
    nodes: Optional[int] = None

    def __post_init__(self):
        if self.seconds is not None and not self.seconds > 0:  # NaN too; inf is no limit
            raise InvalidSelection("time budget must be positive")
        if self.nodes is not None and self.nodes <= 0:
            raise InvalidSelection("node budget must be positive")


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


def max_pattern_exact(
    d: Drawing, kind: str, budget: Optional[OracleBudget] = None
) -> OracleResult:
    """Maximum k and ordered witness whose certificate of the kind verifies.

    Extends ordered sequences one vertex at a time, in ascending order of
    the vertices that complete no inconsistent 4-tuple; each such extension
    is one node of the count and of a node budget.  For the convex kind any
    witness can be cycled so its smallest vertex comes first (interleaving
    is invariant under rotation of the order), so extensions stay above the
    first element.  A node stops once its length plus the number of its
    consistent extensions cannot exceed the best length found, and ``best``
    changes only on a strict gain, so the witness is the first maximum
    sequence in that order.
    """
    if kind not in (CONVEX, TWISTED):
        raise InvalidSelection(f"kind must be {CONVEX!r} or {TWISTED!r}")
    n = d.n
    want_mid = kind == CONVEX
    clock = _Clock(budget)
    best: List[int] = []
    shape = pattern_fit(crossing_masks(d), kind)
    # rows[a][b][w]: shape(a, b, w), the row of the pair (a, b), built the
    # first time a sequence holds a before b; w in {a, b} is never a candidate
    rows = [[None] * n for _ in range(n)]

    def row(a: int, b: int) -> List[int]:
        r = rows[a][b]
        if r is None:
            r = rows[a][b] = [0 if w == a or w == b else shape(a, b, w) for w in range(n)]
        return r

    def dfs(seq: List[int], cand: int, fits: List[List[int]]) -> bool:
        # cand: the unused w (for the convex kind above seq[0]) for which
        # seq + [w] is consistent; fits: the rows of the pairs of seq
        nonlocal best
        if len(seq) > len(best):
            best = seq
        first = want_mid and not seq  # convex: a sequence from v goes on above v
        # the whole of cand, not the bits left: a child may still use a
        # lower candidate that this loop has already visited
        bound = len(seq) + cand.bit_count()
        grown = len(seq) + 1  # a child's length
        rest = cand
        while rest:
            if bound <= len(best):
                return True
            low = rest & -rest
            rest ^= low
            if not clock.tick():
                return False
            v = low.bit_length() - 1
            child = cand & -(low << 1) if first else cand ^ low
            for r in fits:
                child &= r[v]
            # a child that cannot beat best would return at once: no call (a
            # longer child beats it, so best is recorded where it was)
            if grown + child.bit_count() > len(best):
                if not dfs(seq + [v], child, fits + [row(u, v) for u in seq]):
                    return False
        return True

    completed = dfs([], (1 << n) - 1, [])
    dfs = None  # dfs refers to itself: drop that cycle so the rows go now
    result = OracleResult(
        size=len(best), witness=tuple(best), nodes=clock.nodes, exact=completed
    )
    if not completed:
        raise BudgetExhausted(
            f"pattern search budget exhausted after {clock.nodes} nodes",
            payload=result,
        )
    return result


def longest_plane_path_exact(
    d: Drawing,
    budget: Optional[OracleBudget] = None,
    vertices: Optional[Sequence[int]] = None,
    target: Optional[int] = None,
) -> OracleResult:
    """Longest simple path with pairwise non-crossing drawn edges.

    Optionally restricted to a vertex subset; stops early once a path runs
    through every vertex, which no path can beat (exact, even when it also
    meets ``target``), and once ``target`` vertices are reached (the result
    is then flagged as a lower bound).
    """
    verts = sorted(vertices) if vertices is not None else list(range(d.n))
    if any(not (0 <= v < d.n) for v in verts) or len(set(verts)) != len(verts):
        raise InvalidSelection("bad vertex restriction")
    k = len(verts)
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
    hit_target = False

    def dfs(path: List[int], on: int, used_edges: int, p: int) -> bool:
        # p: the position of path[-1] in verts; on: the positions on the path
        nonlocal best, hit_target
        if len(path) > len(best):
            best = list(path)
            if len(best) == k:  # no path is longer than all k vertices
                return True
            if target is not None and len(best) >= target:
                hit_target = True
                return False
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
            if len(best) == k:
                return True
        return True

    completed = True
    for p, start in enumerate(verts):
        if not clock.tick() or not dfs([start], 1 << p, 0, p):
            completed = False
            break
        if len(best) == k:
            break
    dfs = None  # as in max_pattern_exact: free the conflict masks now
    result = OracleResult(
        size=len(best), witness=tuple(best), nodes=clock.nodes, exact=completed
    )
    if not completed and not hit_target:
        raise BudgetExhausted(
            f"path search budget exhausted after {clock.nodes} nodes",
            payload=result,
        )
    return result


# -- numeric rotation oracle --------------------------------------------------


def _germ_point(model, d, pos, v: int, u: int, eps: float) -> Tuple[float, float]:
    """A point on the drawn arc v-u of d's model at distance about eps from v."""
    if model.turn is None:  # a straight edge
        px, py = pos[v]
        qx, qy = pos[u]
        norm = math.hypot(qx - px, qy - py)
        return (px + eps * (qx - px) / norm, py + eps * (qy - py) / norm)
    return model.arc(d, pos, v, u, [model.germ_sweep(pos, v, u, eps)])[0]


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
