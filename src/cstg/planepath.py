"""Plane path extraction via successor sequences around each vertex.

theta(i) lists the successors of anchored position i in the counterclockwise
order their edges leave the vertex, starting just after the edge back to the
anchor.  A long increasing subsequence in some theta gives a plane bipartite
star (two centers, the subsequence as leaves); otherwise repeated decreasing
subsequences drive an inductive path construction whose step keeps at least
a 1/(2m)^2 fraction of the candidates.

Each step asserts that theta lists every candidate above the tip and that
the decreasing run reaches |S|/m^2, and the finished path that anchor edges
to earlier path vertices never cross later path edges.  By construction, and
checked in tests, a step keeps the larger side of its wedge (hence the
1/(2m)^2 share), so each consecutive wedge has every later path vertex on
one side.  The star, and the path of every
branch (trivial, increasing, decreasing) in one tail, leave through
``drawing._certified``, which verifies each pairwise non-crossing or raises
InternalInvariantBroken.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .chromatics import ChiCache
from .drawing import (
    PLANE_BIPARTITE,
    PLANE_PATH,
    AnchoredDrawing,
    Certificate,
    _certified,
    _count,
)
from .errors import (
    BudgetExhausted,
    InternalInvariantBroken,
    InvalidSelection,
)
from .generators import rotation_at
from .oracles import OracleBudget, longest_plane_path_exact


def theta(ad: AnchoredDrawing, i: int) -> List[int]:
    """Successors of position i in ccw edge order after the anchor edge."""
    if type(i) is not int or not 1 <= i <= ad.n - 1:
        raise InvalidSelection(f"position {i!r} out of range")
    v = ad.vertex_at(i)
    rot = list(rotation_at(ad.base, v))
    cut = rot.index(ad.v0)
    rot = rot[cut + 1 :] + rot[:cut]
    pos = {u: p for p, u in enumerate(ad.order, start=1)}
    return [pos[u] for u in rot if pos[u] > i]


def _lis(seq: List[int]) -> Tuple[int, List[int]]:
    """Patience longest strictly increasing subsequence with witness.

    Ties in pile choice go to the earliest element, making the recovered
    witness deterministic.
    """
    tails: List[int] = []  # tails[d] = smallest tail value of an inc. run of length d+1
    tail_idx: List[int] = []
    parent = [-1] * len(seq)
    first_at_depth: List[int] = []
    for idx, value in enumerate(seq):
        d = bisect_left(tails, value)
        if d == len(tails):
            tails.append(value)
            tail_idx.append(idx)
            first_at_depth.append(idx)
        else:
            tails[d] = value
            tail_idx[d] = idx
        parent[idx] = tail_idx[d - 1] if d > 0 else -1
    end = first_at_depth[-1]
    out = []
    while end != -1:
        out.append(seq[end])
        end = parent[end]
    out.reverse()
    return len(tails), out


def find_plane_k2m2(ad: AnchoredDrawing, m: int) -> Optional[Certificate]:
    """Plane star with centers (anchor, v_i) and m^2 leaves, if some theta
    has an increasing run that long; smallest qualifying i wins.

    Position i has n-1-i successors, so only positions with at least m^2
    of them are read.
    """
    need = _count(m, "m", 1) ** 2
    for i in range(1, ad.n - need):
        length, witness = _lis(theta(ad, i))
        if length >= need:
            leaves = [ad.vertex_at(p) for p in witness[:need]]
            return _certified(ad.base, PLANE_BIPARTITE, [ad.v0, ad.vertex_at(i)] + leaves)
    return None


def _inside(chi: ChiCache, a: int, b: int, vs: int) -> int:
    """The positions of mask ``vs`` (above b) inside Delta(a, b): those in
    X(a,b).  An invalid (a, b, v) raises ChiCache.get's error for the lowest v."""
    return chi._pair(a, b, vs)[2] & vs


@dataclass
class PlanePathStats:
    branch: str = ""
    m: int = 0
    candidate_sizes: List[int] = field(default_factory=list)
    lds_lengths: List[int] = field(default_factory=list)

    @property
    def steps(self) -> int:
        return len(self.candidate_sizes)


@dataclass
class PlanePathOutcome:
    path: Certificate
    bipartite: Optional[Certificate]
    stats: PlanePathStats

    @property
    def vertex_count(self) -> int:
        return len(self.path.vertices)

    @property
    def edge_count(self) -> int:
        return max(0, len(self.path.vertices) - 1)

    def report_lines(self) -> List[str]:
        lines = [
            f"branch: {self.stats.branch}",
            f"m: {self.stats.m}",
            f"path vertices: {self.vertex_count} (edges: {self.edge_count})",
        ]
        if self.bipartite is not None:
            lines.append(
                f"bipartite star: centers {self.bipartite.vertices[:2]}, "
                f"{len(self.bipartite.vertices) - 2} leaves"
            )
        if self.stats.candidate_sizes:
            lines.append(
                "candidate sizes: "
                + " ".join(str(s) for s in self.stats.candidate_sizes)
            )
            lines.append(
                "lds lengths: " + " ".join(str(s) for s in self.stats.lds_lengths)
            )
        return lines


def default_m(n: int) -> int:
    """floor(log n / (2 log log n)), floored at 1; yields 1 for n < 2^16."""
    if n < 3:
        return 1
    log_n = math.log2(n)
    return max(1, int(log_n / (2.0 * math.log2(log_n))))


def extract_plane_path(
    ad: AnchoredDrawing,
    m_override: Optional[int] = None,
    path_target: Optional[int] = None,
    budget=None,
    chi_cache: Optional[ChiCache] = None,
) -> PlanePathOutcome:
    """Plane path construction; see the module docstring.

    With the increasing branch, the returned path comes from a bounded exact
    search among the star leaves (target length configurable, default
    max(2, ceil(m/2))); the star certificate is returned alongside.  Only
    that branch reads ``path_target`` and ``budget``: given to the trivial
    or the decreasing branch they raise InvalidSelection, once the star
    search has found no star.
    """
    n = ad.n
    if n < 3:
        raise InvalidSelection("plane path extraction needs n >= 3")
    m = default_m(n) if m_override is None else _count(m_override, "m override", 1)
    if path_target is not None:
        _count(path_target, "path target", 2)
    chi = chi_cache if chi_cache is not None else ChiCache(ad)

    star = find_plane_k2m2(ad, m) if m > 1 else None
    branch = "trivial" if m <= 1 else "decreasing" if star is None else "increasing"
    given = [name for name, value in (("path target", path_target), ("budget", budget))
             if value is not None]
    if star is None and given:
        raise InvalidSelection(f"{given[0]} unused: m = {m} takes the {branch} branch")
    stats = PlanePathStats(branch=branch, m=m)
    if m <= 1:
        path = (ad.vertex_at(1), ad.vertex_at(2))
    elif star is not None:
        leaves = list(star.vertices[2:])
        target = path_target if path_target is not None else max(2, math.ceil(m / 2))
        if budget is None:
            budget = OracleBudget(nodes=500_000)
        try:
            result = longest_plane_path_exact(
                ad.base, budget=budget, vertices=leaves, target=target
            )
        except BudgetExhausted as exc:
            result = exc.payload
        path = result.witness
    else:
        path = [1]
        candidates = (1 << n) - 4  # the positions 2..n-1
        while candidates:
            size = candidates.bit_count()
            stats.candidate_sizes.append(size)
            # negated, so that an increasing run is a decreasing run of theta
            th = [-p for p in theta(ad, path[-1]) if candidates >> p & 1]
            if len(th) != size:
                raise InternalInvariantBroken("theta missed candidates above the tip")
            _, dec = _lis(th)
            stats.lds_lengths.append(len(dec))
            if len(dec) * m * m < size:
                raise InternalInvariantBroken(
                    "decreasing run shorter than |S|/m^2 despite no long increasing run"
                )
            u_next = -dec[-1]  # least element: the run decreases along theta order
            rest = sum(1 << -p for p in dec[:-1])  # distinct bits: dec less u_next
            inner = _inside(chi, path[-1], u_next, rest)
            outer = rest ^ inner
            path.append(u_next)
            candidates = inner if inner.bit_count() >= outer.bit_count() else outer

        _assert_anchor_edges_clear(ad, chi, path)
        path = [ad.vertex_at(p) for p in path]
    cert = _certified(ad.base, PLANE_PATH, path)
    return PlanePathOutcome(path=cert, bipartite=star, stats=stats)


def _assert_anchor_edges_clear(ad, chi, path) -> None:
    # anchor edge to an earlier path vertex never crosses a later path pair:
    # X(path[y], path[z]), symmetric in y and z, holds the anchor edges that
    # cross the pair; the first offending x is reported
    bad = None
    earlier = 1 << path[0]  # the positions path[0..y-1]
    for y in range(1, len(path) - 1):
        for z in range(y + 1, len(path)):
            hits = chi._pair(path[y], path[z])[2] & earlier
            if hits:
                x = next(x for x in range(y) if hits >> path[x] & 1)
                if bad is None or x < bad[0]:
                    bad = (x, y, z)
        earlier |= 1 << path[y]
    if bad is not None:
        x, y, z = (ad.vertex_at(path[t]) for t in bad)
        raise InternalInvariantBroken(f"anchor edge to {x} crosses path pair ({y},{z})")
