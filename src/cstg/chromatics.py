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
vertices, so a bare pair has a = b = 2.  ``PhiTable`` holds it by columns:
column i is the pairs (i,j), j > i, as one position mask per phi level and
one value code per position.

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
vertex pair for points (its complement is the other side), and one
window of an edge's stacked rows for explicit drawings (an anchored order
other than the identity maps each row to positions by byte tables).  A
single color builds only its pair's masks, and the scans are quadratic in
mask operations.  Measured on seeded half-circle drawings
(Python 3.11.7, one process on a shared 2-core machine):
validate_observation takes 0.032-0.037 s at n = 256 and 0.56-0.81 s at
n = 1024, a full phi_table 0.046-0.050 s and 0.90-1.41 s (22.5 MB peak RSS);
on twisted n = 512 it takes 0.23-0.32 s.  At n = 160 (seed 5) the whole
``tables phi`` command, 12,561 rows with the document read and the file
written, takes 0.022-0.028 s, and ``tables chi`` (657,359 rows, written one
anchor row at a time by ``_chi_blocks``) 0.074-0.080 s.  Both tables are
streamed to their file block by block (``_phi_blocks`` for phi), so
``tables chi`` there peaks at 2.2 MB under tracemalloc, below the 9.18 MB
CSV it writes (27.9 MB when its rows were joined into one text first).

Only callers outside the package read ``ChiCache.get``; the rest reads
its two mask readers, which raise ``get``'s error for an invalid
triple.  Extraction, plane paths and phi witnesses read whole color classes
from one pair's masks (``ChiCache._pair``).  The scans read the pairs of
one position with a run of others at once (``ChiCache._star``), and a
half-circle or points star reads what depends on that position once (a
points star reads half-planes and no orientation):
``validate_observation`` and ``tables chi`` read anchor row i as star(i,
range(i+1, n-1)), ``PhiTable`` column i as star(i, range(1, i)).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from .drawing import AnchoredDrawing, _kernels
from .errors import InvalidSelection, InvalidTriple, ObservationViolated

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


def _violated(i: int, j: int, ri: int, rj: int, x: int, ks: int) -> ObservationViolated:
    """The error for the lowest k in ``ks`` with (i, j, k) invalid under (i, j)'s masks."""
    bad = _clash(ri, rj, x) & ks
    k = (bad & -bad).bit_length() - 1
    return ObservationViolated(f"triple {(i, j, k)} colored {_color(ri, rj, x, k)}")


class ChiCache:
    """Triple colors of one anchored drawing, read from anchor-crossing masks.

    ``_pair(i, j, ks=0)`` -> (R(i,j), R(j,i), X(i,j)) for 1 <= i < j <= n-1,
    bit p for position p, R(i,j) = N(v0, vi, vj) and X(i,j) = N(vi, vj, v0),
    raises ``get``'s error for the lowest k in ``ks`` with (i, j, k) invalid.
    ``_star(f, gs)`` lists, unchecked, the masks of (g, f) for each g < f in
    gs and those of (f, g), with R(f,g) and R(g,f) swapped, for each g > f.

    ``get`` memoizes the three masks of each pair (i,j) it is asked about, so
    a color is three bit tests once its pair has been seen.  Single-writer
    cache: build one per run (or guard externally) and share the results
    freely once populated.
    """

    def __init__(self, ad: AnchoredDrawing):
        self.ad = ad
        self._n = ad.n
        at = (ad.v0,) + ad.order
        N, self._star = _kernels(ad.base, at)
        v0 = ad.v0

        def pair(i, j, ks=0):
            vi, vj = at[i], at[j]
            ri, rj, x = N(v0, vi, vj), N(v0, vj, vi), N(vi, vj, v0)
            if ks and _clash(ri, rj, x) & ks:
                raise _violated(i, j, ri, rj, x, ks)
            return ri, rj, x

        self._pair = pair
        self._memo = {}  # (i, j) -> (R(i,j), R(j,i), X(i,j))

    def get(self, i: int, j: int, k: int) -> str:
        # (1.0, 2) hashes as (1, 2): the types are tested before the memo
        ints = type(i) is type(j) is type(k) is int
        masks = self._memo.get((i, j)) if ints else None
        if masks is None or not j < k < self._n:
            if not (ints and 1 <= i < j < k <= self._n - 1):
                raise InvalidTriple(f"positions {(i, j, k)} invalid for n={self._n}")
            masks = self._memo[(i, j)] = self._pair(i, j)
        ri, rj, x = masks
        if _clash(ri, rj, x) >> k & 1:
            raise _violated(i, j, ri, rj, x, 1 << k)
        return _color(ri, rj, x, k)


def _chi_blocks(star: Callable[..., List[Tuple[int, int, int]]], n: int) -> Iterator[str]:
    """The rows "i,j,k,color" of every triple i < j < k <= n-1, one str per i.

    ``star`` is ``ChiCache._star``, read once per anchor row i; its pairs (i, j)
    are checked in order for every k > j, so the first invalid triple raises
    ``get``'s ObservationViolated before its block is made.

    Every block is cut from one template: the rows "j,k,000\n" of all pairs
    j < k, each right-aligned in a slot of one fixed width, with NUL bytes
    in front.  Block i is the template from j = i+1 on.  The masks of the
    pairs (i, j) are shifted down by j+1 and stacked at the block's running
    row offset into one int per mask, whose binary string, reversed, has
    character r = the color bit of row r; as the slots have one width, one
    strided slice assignment per color character fills a whole block, and
    one per character of "i," writes the rows' heads into their leading
    NULs.  Deleting the NULs that are left gives the rows.
    """
    width = len(f"{n - 3},{n - 2},{n - 1},000\n")  # the longest row, head included
    template = b"".join(
        f"{j},{k},000\n".encode().rjust(width, b"\0") for j, k in combinations(range(1, n), 2)
    )
    start = 0  # the first template row of block i: the pair (i+1, i+2)
    for i in range(1, n - 2):
        start += n - 1 - i
        r_ij = r_ji = x_ij = size = 0
        for j, (rj, ri, x) in enumerate(star(i, range(i + 1, n - 1)), i + 1):
            if _clash(ri, rj, x) >> (j + 1):
                raise _violated(i, j, ri, rj, x, -1 << (j + 1))
            r_ij |= ri >> (j + 1) << size
            r_ji |= rj >> (j + 1) << size
            x_ij |= x >> (j + 1) << size
            size += n - 1 - j
        block = bytearray(memoryview(template)[start * width:])
        for c, bits in enumerate((r_ij, r_ji, x_ij)):
            block[width - 4 + c::width] = f"{bits:0{size}b}"[::-1].encode()
        head = f"{i},".encode()
        for c in range(len(head)):
            block[c::width] = head[c:c + 1] * size
        yield block.translate(None, b"\0").decode()


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
    star = ChiCache(ad)._star
    n = ad.n
    checked = 0
    for i in range(1, n - 2):
        for j, (rj, ri, x) in enumerate(star(i, range(i + 1, n - 1)), i + 1):
            bad = _clash(ri, rj, x) >> (j + 1)
            if bad:
                k = j + (bad & -bad).bit_length()
                checked += k - j
                return ObservationReport(False, checked, (i, j, k, _color(ri, rj, x, k)))
            checked += n - 1 - j
    return ObservationReport(True, checked)


class PhiTable:
    """Pair coloring phi, built one column at a time.

    Column i holds, per component, ``levels[t]`` = the positions j > i with
    phi(i,j) = t+2 in that component; the levels are disjoint and cover
    every j > i.  For k < i < j the triple (k,i,j) colors 100 iff j is in
    R(k,i) and 001 iff j is in X(k,i), so a(i,j) is one more than the
    highest a(k,i) over the k < i with j in R(k,i), or 2 when there is none
    (b likewise with X(k,i)).  Column i thus reads the pairs (k,i) and the
    value of each earlier column at i; columns fill in position order,
    lazily, up to the highest one asked for.  Invalid triples (k,i,j) met by
    column i raise ObservationViolated for the lowest k, then the lowest j.

    Next to its levels, column i keeps per component one value code per
    position, ``codes[j]`` = phi(i,j) - 2 (0 at j <= i), spread from the
    levels once when the column is built, so reading a value is one index.
    The codes are ``n`` bytes while every level fits a byte (t <= 255, so
    always for i <= 255) and a list of ``n`` ints beyond that, as in the b
    columns of twisted drawings, where b(i,j) = i+1.
    """

    def __init__(self, ad: AnchoredDrawing, chi_cache: Optional[ChiCache] = None):
        self.ad = ad
        self._chi = chi_cache if chi_cache is not None else ChiCache(ad)
        self._columns: List[Tuple[List[int], List[int]]] = []  # column i at i-1
        self._column_codes: List[Tuple[Sequence[int], Sequence[int]]] = []  # likewise
        self._height = (0, 0)  # the most levels a built column has, per component

    def column(self, i: int) -> Tuple[List[int], List[int]]:
        """(levels_a, levels_b) of column i; builds the columns up to i."""
        self._fill(i)
        return self._columns[i - 1]

    def _codes(self, i: int) -> Tuple[Sequence[int], Sequence[int]]:
        """(codes_a, codes_b) of column i; builds the columns up to i."""
        self._fill(i)
        return self._column_codes[i - 1]

    def _fill(self, i: int) -> None:
        if type(i) is not int or not 1 <= i <= self.ad.n - 1:
            raise InvalidTriple(f"column {i!r} invalid for n={self.ad.n}")
        while len(self._columns) < i:
            self._build(len(self._columns) + 1)

    def _build(self, i: int) -> None:
        n = self.ad.n
        above = (1 << n) - (2 << i)
        # lifts[t]: the positions j > i that some k < i raises to level t;
        # no column k < i has more levels than the height, so no lift passes it
        height_a, height_b = self._height
        lifts_a, lifts_b = [above] + [0] * height_a, [above] + [0] * height_b
        for k, (r_ki, r_ik, x) in enumerate(self._chi._star(i, range(1, i)), 1):
            if _clash(r_ki, r_ik, x) & above:
                raise _violated(k, i, r_ki, r_ik, x, above)
            codes_a, codes_b = self._column_codes[k - 1]
            lifts_a[codes_a[i] + 1] |= r_ki & above
            lifts_b[codes_b[i] + 1] |= x & above
        # each j sits at the highest lift holding it; empty top lifts go
        for lifts in (lifts_a, lifts_b):
            while not lifts[-1] and len(lifts) > 1:
                lifts.pop()
            seen = 0
            for t in range(len(lifts) - 1, -1, -1):
                lifts[t], seen = lifts[t] & ~seen, seen | lifts[t]
        self._columns.append((lifts_a, lifts_b))
        self._height = (max(height_a, len(lifts_a)), max(height_b, len(lifts_b)))
        self._column_codes.append((_value_codes(lifts_a, n), _value_codes(lifts_b, n)))

    def value(self, i: int, j: int) -> PhiValue:
        if not (type(i) is type(j) is int and 1 <= i < j <= self.ad.n - 1):
            raise InvalidTriple(f"pair ({i},{j}) invalid for n={self.ad.n}")
        codes_a, codes_b = self._codes(i)
        return PhiValue(codes_a[j] + 2, codes_b[j] + 2)

    def witness(self, i: int, j: int, component: str) -> List[int]:
        """Monotone 3-path (as positions) realizing the a or b value at (i,j);
        each step back takes the smallest k < i with (k,i,j) in the class and
        phi(k,i) one level lower."""
        if component not in ("a", "b"):
            raise InvalidSelection(f"component must be 'a' or 'b', not {component!r}")
        slot = "ab".index(component)
        codes = self._column_codes
        path = [j, i]
        for t in range(getattr(self.value(i, j), component) - 3, -1, -1):
            preds = self._chi._pair(i, j)[2 - slot]  # X(i,j) or R(j,i)
            k = next(k for k in range(1, i) if preds >> k & 1 and codes[k - 1][slot][i] == t)
            path.append(k)
            i, j = k, i
        path.reverse()
        return path


def _value_codes(levels: List[int], n: int) -> Sequence[int]:
    """codes[j] = t for every j in levels[t], 0 elsewhere, for j < n.

    While t fits a byte, each level t >= 1 is spread into one byte per
    position (its binary string read as a big-endian int, less the ASCII
    zeros); the levels are disjoint, so the sum of t times the spreads
    carries nothing between bytes, and written little-endian it lists j in
    increasing order.  Wider codes walk the bits of each level into a list.
    """
    if len(levels) <= 256:
        zeros = int.from_bytes(b"0" * n, "big")
        total = 0
        for t in range(1, len(levels)):
            if levels[t]:
                total += t * (int.from_bytes(f"{levels[t]:0{n}b}".encode(), "big") - zeros)
        return total.to_bytes(n, "little")
    codes = [0] * n
    for t in range(1, len(levels)):
        for j in _members(levels[t]):
            codes[j] = t
    return codes


def phi_table(ad: AnchoredDrawing, chi_cache: Optional[ChiCache] = None) -> PhiTable:
    """Fully built phi table (O(n^2) mask operations, every column)."""
    table = PhiTable(ad, chi_cache)
    table.column(ad.n - 1)
    return table


def _phi_blocks(table: PhiTable) -> Iterator[str]:
    """The rows "i,j,a,b" of every pair i < j <= n-1, one str per column i.

    A column not yet built is built when its block is asked for.  Written
    block by block, a table holds its columns but never its text.  Each
    block reads the column's value codes at once: a row is "i," and the
    pieces "j,", "a," and "b\\n", the last two looked up by value code.
    """
    n = table.ad.n
    js = [f"{j}," for j in range(n)]
    a_of = [f"{t + 2}," for t in range(n)]
    b_of = [f"{t + 2}\n" for t in range(n)]
    for i in range(1, n - 1):
        head = f"{i},"
        codes_a, codes_b = table._codes(i)
        rows = zip(js[i + 1:], map(a_of.__getitem__, codes_a[i + 1:]),
                   map(b_of.__getitem__, codes_b[i + 1:]))
        yield head + head.join(map("".join, rows))


def _members(mask: int):
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
