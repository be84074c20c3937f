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

Everything here reads one relation, the anchor crossings, held as Python-int
position masks: X(a,b) is the set of positions p whose anchor edge crosses
edge (a,b), and its transpose R(p,a) is the set of positions b with p in
X(a,b).  The pair (i,j), i < j, carries the three masks R(i,j), R(j,i) and
X(i,j); bit k > j of them is the color of (i,j,k), and bit k < i is the
color of (k,i,j) read as (X(i,j), R(i,j), R(j,i)).  They are the drawing's
crossing masks (:func:`cstg.drawing.crossing_masks`) in anchored order, bit
p for the vertex at position p, so a pair's masks cost what three kernel
reads cost: O(1) big-int operations for convex, twisted and half-circle
drawings in any anchored order, one packed big-int half-plane mask per new
ordered vertex pair for points, and one pass over the crossing table, on
first use, for explicit drawings.  A single color builds only its pair's
masks, and the scans are quadratic in mask operations.  Measured on seeded half-circle drawings
(Python 3.11.7, one process on a shared 2-core machine): validate_observation
takes 0.05-0.08 s at n = 256 and 1.1-1.5 s at n = 1024, a full phi_table
0.18 s and 2.7-2.8 s (62 MB peak RSS).  The ``tables chi`` export reads
each pair's masks once and turns them into one color-code byte per row
(``ChiCache._codes``): at n = 160 (seed 5) the whole command, 657,359 rows
with the document read and the file written, takes 0.18-0.21 s at a 27 MB
tracemalloc peak, against 0.25-0.29 s with one color string per row.

Only ``chi()`` and callers outside the package read ``ChiCache.get``.
``PhiTable``, extraction and plane paths read whole color classes from one
pair's masks (``ChiCache._pair``, ``_checked_pair``), and ``tables chi``
reads a pair's color codes (``ChiCache._codes``, which ``row`` reads too).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from .drawing import AnchoredDrawing, crossing_masks
from .errors import InvalidTriple, ObservationViolated

VALID_COLORS = ("000", "001", "010", "100")
_COLORS = ("000", "001", "010", "011", "100", "101", "110", "111")


@dataclass(frozen=True)
class PhiValue:
    a: int
    b: int


def _color(x: int, y: int, z: int, k: int) -> str:
    return _COLORS[(x >> k & 1) << 2 | (y >> k & 1) << 1 | (z >> k & 1)]


def _clash(ri: int, rj: int, x: int) -> int:
    """Positions held by at least two of a pair's masks: its invalid triples."""
    return (ri & rj) | ((ri | rj) & x)


def _pair_masks(ad: AnchoredDrawing) -> Callable[[int, int], Tuple[int, int, int]]:
    """pair(i, j) -> (R(i,j), R(j,i), X(i,j)) for positions 1 <= i < j <= n-1.

    The three masks are crossing masks whose bit p stands for the vertex at
    position p: R(i,j) = N(v0, vi, vj) and X(i,j) = N(vi, vj, v0).
    """
    at = (ad.v0,) + ad.order
    N = crossing_masks(ad.base, at)
    v0 = ad.v0

    def pair(i, j):
        vi, vj = at[i], at[j]
        return N(v0, vi, vj), N(v0, vj, vi), N(vi, vj, v0)

    return pair


def chi(ad: AnchoredDrawing, i: int, j: int, k: int) -> str:
    """Triple color at anchored positions 1 <= i < j < k <= n-1."""
    return ChiCache(ad).get(i, j, k)


class ChiCache:
    """Triple colors of one anchored drawing, read from anchor-crossing masks.

    ``get`` memoizes the three masks of each pair (i,j) it is asked about, so
    a color is three bit tests once its pair has been seen.  Single-writer
    cache: build one per run (or guard externally) and share the results
    freely once populated.
    """

    def __init__(self, ad: AnchoredDrawing):
        self.ad = ad
        self._n = ad.n
        self._pair = _pair_masks(ad)
        self._memo = {}  # (i, j) -> (R(i,j), R(j,i), X(i,j))

    def get(self, i: int, j: int, k: int) -> str:
        masks = self._memo.get((i, j))
        if masks is None or not j < k < self._n:
            if not (1 <= i < j < k <= self._n - 1):
                raise InvalidTriple(f"positions {(i, j, k)} invalid for n={self._n}")
            masks = self._memo[(i, j)] = self._pair(i, j)
        ri, rj, x = masks
        if _clash(ri, rj, x) >> k & 1:
            raise ObservationViolated(f"triple {(i, j, k)} colored {_color(ri, rj, x, k)}")
        return _color(ri, rj, x, k)

    def _checked_pair(self, i: int, j: int, ks: int) -> Tuple[int, int, int]:
        """The masks of pair (i, j); raises get's ObservationViolated for the
        lowest k in the mask ``ks`` (positions above j) with (i, j, k) invalid."""
        ri, rj, x = self._pair(i, j)
        bad = _clash(ri, rj, x) & ks
        if bad:
            k = (bad & -bad).bit_length() - 1
            raise ObservationViolated(f"triple {(i, j, k)} colored {_color(ri, rj, x, k)}")
        return ri, rj, x

    def row(self, i: int, j: int) -> List[str]:
        """Colors of (i, j, k) for k = j+1 .. n-1, from one read of the masks.

        Equals ``[self.get(i, j, k) for k in range(j + 1, n)]``, raising the
        same ObservationViolated for the lowest invalid k, and leaves the
        memo alone.
        """
        return list(map(_COLORS.__getitem__, self._codes(i, j)))

    def _codes(self, i: int, j: int) -> bytes:
        """Byte k - j - 1 is the color code of (i, j, k), for k = j+1 .. n-1,
        as an index into ``_COLORS``; invalid pairs and triples raise as
        ``row`` says.

        Each mask above j is spread into one byte per position: its binary
        string, highest k first, read as a big-endian int, less the ASCII
        zeros.  4*R(i,j) + 2*R(j,i) + X(i,j) then carries nothing between
        bytes, and written little-endian it lists k in increasing order.
        """
        n = self._n
        if not (1 <= i < j <= n - 1):
            raise InvalidTriple(f"pair ({i},{j}) invalid for n={n}")
        ri, rj, x = self._checked_pair(i, j, -1 << (j + 1))
        width = n - 1 - j
        if not width:
            return b""
        zeros = int.from_bytes(b"0" * width, "big")
        r, c, z = (
            int.from_bytes(f"{mask >> (j + 1):0{width}b}".encode(), "big") - zeros
            for mask in (ri, rj, x)
        )
        return (4 * r + 2 * c + z).to_bytes(width, "little")


@dataclass(frozen=True)
class ObservationReport:
    ok: bool
    triples_checked: int
    violation: Optional[Tuple[int, int, int, str]] = None

    def __bool__(self):
        return self.ok


def validate_observation(ad: AnchoredDrawing) -> ObservationReport:
    """Scan all C(n-1,3) triples; pass, or first triple outside the 4-color set.

    A triple (i,j,k) is valid iff at most one of the pair (i,j)'s three masks
    holds k, so each pair is one disjointness test above j.
    """
    pair = _pair_masks(ad)
    n = ad.n
    checked = 0
    for i in range(1, n - 2):
        for j in range(i + 1, n - 1):
            ri, rj, x = pair(i, j)
            bad = _clash(ri, rj, x) >> (j + 1)
            if bad:
                k = j + (bad & -bad).bit_length()
                checked += k - j
                return ObservationReport(False, checked, (i, j, k, _color(ri, rj, x, k)))
            checked += n - 1 - j
    return ObservationReport(True, checked)


class PhiTable:
    """Pair coloring phi with lazily materialized DP rows.

    Row s holds the values for pairs whose second position is s; a(i,j) only
    consults row i, so rows fill in position order.  Each row keeps, for each
    component, the mask of positions k at each level phi(k,s), set as each
    cell is computed (``value`` may compute cells of a row out of order), and
    a(i,j) is one more than the highest level of row i that meets X(i,j)
    below i (b(i,j) likewise with R(j,i)).  Ties in witness recovery go to the
    smallest predecessor, the lowest set bit of that intersection.  Invalid
    triples (k,i,j) met on the way raise ObservationViolated for the lowest k.
    """

    def __init__(self, ad: AnchoredDrawing, chi_cache: Optional[ChiCache] = None):
        self.ad = ad
        self._chi = chi_cache if chi_cache is not None else ChiCache(ad)
        # row j: (a, b, parent in a, parent in b) of the pair (i, j) at index i
        self._rows = [[None] * j for j in range(ad.n)]
        # row j: per component, levels[t] = the positions i with phi(i,j) = t+2
        self._levels = [([], []) for _ in range(ad.n)]
        self._finished = 1  # rows 1.._finished hold every cell

    def _compute(self, i: int, j: int) -> None:
        ri, rj, x = self._chi._pair(i, j)
        below = (1 << i) - 2
        bad = _clash(ri, rj, x) & below
        if bad:
            k = (bad & -bad).bit_length() - 1
            raise ObservationViolated(f"triple {(k, i, j)} colored {_color(x, ri, rj, k)}")
        level_a, level_b = self._levels[i]
        a, par_a = _extend(level_a, x & below)
        b, par_b = _extend(level_b, rj & below)
        self._rows[j][i] = (a, b, par_a, par_b)
        level_a, level_b = self._levels[j]
        bit = 1 << i
        _mark(level_a, a - 2, bit)
        _mark(level_b, b - 2, bit)

    def _ensure_rows(self, upto: int) -> None:
        for s in range(self._finished + 1, upto + 1):
            row = self._rows[s]
            for k in range(1, s):
                if row[k] is None:
                    self._compute(k, s)
            self._finished = s

    def value(self, i: int, j: int) -> PhiValue:
        if not (1 <= i < j <= self.ad.n - 1):
            raise InvalidTriple(f"pair ({i},{j}) invalid for n={self.ad.n}")
        row = self._rows[j]
        if row[i] is None:
            self._ensure_rows(i)
            if row[i] is None:
                self._compute(i, j)
        a, b, _, _ = row[i]
        return PhiValue(a, b)

    def witness(self, i: int, j: int, component: str) -> List[int]:
        """Monotone 3-path (as positions) realizing the a or b value at (i,j)."""
        self.value(i, j)
        slot = 2 if component == "a" else 3
        path = [j, i]
        while True:
            k = self._rows[path[-2]][path[-1]][slot]
            if k is None:
                break
            path.append(k)
        path.reverse()
        return path


def _mark(levels: List[int], t: int, bit: int) -> None:
    """Add ``bit`` to level t; an out-of-order cell can skip levels."""
    if t >= len(levels):
        levels.extend([0] * (t + 1 - len(levels)))
    levels[t] |= bit


def _extend(levels: List[int], preds: int) -> Tuple[int, Optional[int]]:
    """Longest extension through the predecessors in ``preds``, and its parent."""
    for t in range(len(levels) - 1, -1, -1):
        hits = levels[t] & preds
        if hits:
            return t + 3, (hits & -hits).bit_length() - 1
    return 2, None


def phi_table(ad: AnchoredDrawing, chi_cache: Optional[ChiCache] = None) -> PhiTable:
    """Fully materialized phi table (O(n^2) mask operations, O(n^2) space)."""
    table = PhiTable(ad, chi_cache)
    table._ensure_rows(ad.n - 1)
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