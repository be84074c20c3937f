"""Exact constructors for the drawing families, and their rotations and anchors.

Each family is a model of :mod:`cstg.drawing`, whose class holds its O(1)
crossing rule, its rotation system read from a concrete realization, a
canonical anchor vertex that provably lies on the unbounded cell, and its
anchored order (the drawn rotation at the anchor cut at the gap facing the
unbounded cell, read backwards).  The two readers here, ``rotation_at``
and ``anchored_view``, only ask the model.

The derived rotation rules are not trusted: the tests hold them to a
numeric oracle that samples each drawn arc near its ends
(``tests/helpers.py``).
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from .drawing import MODELS, _SIGN_PIECE, AnchoredDrawing, Drawing, _count
from .errors import SizeLimit


def gen_convex(n: int) -> Drawing:
    """Complete convex geometric graph on a regular n-gon."""
    return Drawing(n=n, model="convex")


def gen_twisted(m: int) -> Drawing:
    """Complete twisted graph; crossing iff index intervals are nested."""
    return Drawing(n=m, model="twisted")


# a 32-bit output's top byte, 0x80-0xFF when its top bit is set, as a sign
_SIGN = bytes.maketrans(bytes(range(256)), b"L" * 128 + b"U" * 128)


def gen_halfcircle(n: int, seed: int = 0) -> Drawing:
    """Random half-circle drawing, bit-reproducible per seed, an int of at
    least 0 (seed -s would repeat seed s).

    The sign of the i-th edge in rank order is ``U`` exactly when the top bit
    of the i-th 32-bit output of ``random.Random(seed)`` is set, the bit
    ``getrandbits(1)`` returns.  ``getrandbits(32 * k)`` holds the next k
    outputs, output i in bits 32i to 32i + 31, so the signs are byte 3 of
    its little-endian words; pieces keep the peak near two sign strings.
    A given sign string is ``Drawing(n=n, model="halfcircle", signs=s)``."""
    _count(n, "drawing n", 2)
    rng = random.Random(_count(seed, "seed", 0))
    left, signs = n * (n - 1) // 2, bytearray()
    while left:
        k = min(left, _SIGN_PIECE)
        signs += rng.getrandbits(32 * k).to_bytes(4 * k, "little")[3::4].translate(_SIGN)
        left -= k
    signs = signs.decode()  # frees the bytearray before Drawing checks the string
    return Drawing(n=n, model="halfcircle", signs=signs)


def gen_straightline(points: Sequence[Tuple[int, int]]) -> Drawing:
    """Complete geometric graph on integer points in general position, each
    a tuple of two ints, taken as given (``Drawing`` names a point that is
    not one, a duplicate point or a collinear triple)."""
    pts = tuple(points)
    return Drawing(n=len(pts), model="points", points=pts)


HORTON_K_CAP = 12  # 2^12 = 4096 points


def gen_horton(k: int) -> List[Tuple[int, int]]:
    """2^k integer points in general position, Horton's construction.

    A Horton set has no empty convex 7-gon (Horton 1983), but it does have
    large subsets in convex position: the exact oracle finds 6, 10 and 14
    of them for k = 3, 4, 5.

    Recursive doubling: the even-x half is a stretched copy of the previous
    set, the odd-x half is another copy lifted high enough that any line
    through two points of one half misses the other half entirely (which also
    rules out mixed collinear triples).
    """
    if _count(k, "k", 0) > HORTON_K_CAP:
        raise SizeLimit(f"gen_horton capped at k={HORTON_K_CAP}")
    pts = [(0, 0)]
    for _ in range(k):
        lower = [(2 * x, y) for x, y in pts]
        upper = [(2 * x + 1, y) for x, y in pts]
        ys = [y for _, y in lower]
        spread = max(ys) - min(ys)
        width = 2 * len(pts)
        # lift strictly above every line through two lower points (slope
        # bounded by spread over min x-gap 1, evaluated across the window)
        delta = (2 * spread + 1) * (width + 1) + 1
        pts = lower + [(x, y + delta) for x, y in upper]
    return pts


# -- rotation systems and anchors ------------------------------------------


def rotation_at(d: Drawing, v: int) -> Tuple[int, ...]:
    """Counterclockwise cyclic order of the other vertices around v, the
    model's from its family-specific (documented) starting germ; compare
    rotations with drawing.cyclic_equal.  An explicit drawing has only stored ones."""
    return MODELS[d.model].rotation(d, v)


def anchored_view(d: Drawing, v0: Optional[int] = None) -> AnchoredDrawing:
    """Anchored drawing at v0, by default the family's canonical anchor on the
    unbounded cell; its order is the model's clockwise order around v0 (the
    drawn rotation cut at the unbounded-cell gap and read backwards, or an
    explicit drawing's stored anchor order)."""
    model = MODELS[d.model]
    if v0 is None:
        v0 = model.anchor(d)
    return AnchoredDrawing(base=d, v0=v0, order=model.order(d, v0))
