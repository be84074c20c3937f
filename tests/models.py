"""The drawing models as the tests know them: one ``Entry`` per name in
``cstg.drawing.MODELS``, which ``test_models.py`` holds to one battery, so
that a new model is one class there and one entry here.  The shared
builders of drawings and anchored views live here too, so that no test
module imports another.
"""

import dataclasses
import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from cstg.chromatics import validate_observation
from cstg.drawing import (
    MODELS,
    AnchoredDrawing,
    Drawing,
    _rank_offsets,
    cross,
    edge_index,
    induced_subdrawing,
    orient,
    sorted_pair,
)
from cstg.generators import (
    anchored_view,
    gen_convex,
    gen_halfcircle,
    gen_horton,
    gen_straightline,
    gen_twisted,
    rotation_at,
)

# -- builders -------------------------------------------------------------------


def rotations_of(d):
    """Counterclockwise rotation at every vertex, as ``rotation_at`` gives it."""
    return tuple(rotation_at(d, v) for v in range(d.n))


def random_explicit(rng, n, density=0.3):
    edges = list(itertools.combinations(range(n), 2))
    pairs = set()
    for r1, r2 in itertools.combinations(range(len(edges)), 2):
        if set(edges[r1]) & set(edges[r2]):
            continue
        if rng.random() < density:
            pairs.add((r1, r2))
    return Drawing(n=n, model="explicit", crossings=frozenset(pairs))


@functools.cache
def sparse_pairs(n, count):
    """``count`` seeded random pairs of independent edges ((a, b), (c, w)) on
    n vertices: a table at an n where listing each independent pair, as
    ``random_explicit`` does, takes too long."""
    rng, pairs = random.Random(n), set()
    while len(pairs) < count:
        a, b, c, w = rng.sample(range(n), 4)
        pairs.add(sorted_pair(sorted_pair(a, b), sorted_pair(c, w)))
    return sorted(pairs)


def explicit_of(n, pairs):
    """The explicit drawing on n vertices in which exactly the pairs of edges cross."""
    return Drawing(n=n, model="explicit", crossings=[
        sorted_pair(edge_index(*e1, n), edge_index(*e2, n)) for e1, e2 in pairs
    ])


def reference_collinear(points):
    """The cubic orientation scan Drawing used to run: the message for the
    first collinear triple in lexicographic order, or None."""
    for a, b, c in itertools.combinations(range(len(points)), 3):
        if orient(points[a], points[b], points[c]) == 0:
            return f"collinear triple ({a},{b},{c})"
    return None


def random_points(rng, n, bound):
    """n distinct random points in general position, coordinates in [-bound, bound]."""
    while True:
        pts = {(rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(n)}
        if len(pts) == n and reference_collinear(sorted(pts)) is None:
            return gen_straightline(sorted(pts))


def anchored_restriction(d, v0=None):
    """The explicit restriction of d to its anchored order at v0 (the
    canonical anchor when omitted), anchor declared."""
    ad = anchored_view(d, v0)
    x = induced_subdrawing(d, (ad.v0,) + ad.order)
    return dataclasses.replace(x, anchor=(0, tuple(range(1, d.n))))


def mirrored_twisted_view(m):
    """The twisted drawing on m vertices in a mirror: the same crossings,
    every rotation and the anchored order reversed, so that the 100 and
    001 classes swap roles."""
    twisted = gen_twisted(m)
    d = Drawing(n=m, model="explicit", crossings=induced_subdrawing(twisted, range(m)).crossings,
                rotations=tuple(rot[::-1] for rot in rotations_of(twisted)),
                anchor=(m - 1, tuple(range(m - 1))))
    return anchored_view(d)


def shuffled_view(d, seed):
    """A random anchor and a random order of the others: rarely a valid
    anchored view, so the observation may fail anywhere."""
    rng = random.Random(seed)
    v0 = rng.randrange(d.n)
    order = [v for v in range(d.n) if v != v0]
    rng.shuffle(order)
    return AnchoredDrawing(base=d, v0=v0, order=tuple(order))


def random_anchored_views(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(4, 11)
        d = random_explicit(rng, n, density=rng.choice([0.05, 0.2, 0.5]))
        order = list(range(1, n))
        rng.shuffle(order)
        yield AnchoredDrawing(base=d, v0=0, order=tuple(order))


def random_rotation_views(rng, count):
    """Random crossing data on 4 to 9 vertices with random rotations,
    anchored at 0 in a clockwise reading of the rotation there.  A
    ``Drawing`` refuses rotations that disagree with its crossings with the
    anchor edges, so each is built with its anchor only and given its
    rotations afterwards, as data that no constructor accepts."""
    for _ in range(count):
        n = rng.randint(4, 9)
        d = random_explicit(rng, n, density=0.25)
        rots = []
        for v in range(n):
            others = [u for u in range(n) if u != v]
            rng.shuffle(others)
            rots.append(tuple(others))
        order = tuple(reversed(rots[0]))
        d = Drawing(n=n, model="explicit", crossings=d.crossings, anchor=(0, order))
        object.__setattr__(d, "rotations", tuple(rots))
        yield AnchoredDrawing(base=d, v0=0, order=order)


def violating_documents():
    # an n=4 table whose triple (1,2,3) colors 011
    n = 4
    crossings = frozenset({
        sorted_pair(edge_index(1, 3, n), edge_index(0, 2, n)),
        sorted_pair(edge_index(1, 2, n), edge_index(0, 3, n)),
    })
    yield "n=4", Drawing(n=n, model="explicit", crossings=crossings, anchor=(0, (1, 2, 3)))
    # a random table that violates only after some valid pairs
    rng = random.Random(7)
    while True:
        d = random_explicit(rng, 10, density=0.05)
        d = dataclasses.replace(d, anchor=(0, tuple(range(1, 10))))
        report = validate_observation(anchored_view(d))
        if not report.ok and report.violation[:2] != (1, 2):
            yield "n=10", d
            return


def halfcircle_seeds():
    """Half-circle drawings on 4 to 14 vertices, one per seed 0..29."""
    for seed in range(30):
        n = 4 + seed % 11
        yield f"halfcircle {n} seed {seed}", gen_halfcircle(n, seed=seed)


def hull_vertices(points):
    """The vertices of the convex hull of points in general position, by
    Andrew's monotone chain."""
    def turn(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(ordered):
        kept = []
        for v in ordered:
            while len(kept) >= 2 and turn(points[kept[-2]], points[kept[-1]], points[v]) <= 0:
                kept.pop()
            kept.append(v)
        return kept

    ordered = sorted(range(len(points)), key=points.__getitem__)
    return set(chain(ordered)) | set(chain(ordered[::-1]))


# -- reference crossing predicates ----------------------------------------------
#
# predicate(d) answers f(i, j, k, l) for one pair of sorted, independent
# edges (i, j) and (k, l), with no validation.  The library reads crossings
# only through crossing_masks; the tests compare it against these.


def _interleave(i: int, j: int, k: int, l: int) -> bool:
    # both pairs sorted; strict interleaving of index intervals
    return (i < k < j < l) or (k < i < l < j)


def _nested(i: int, j: int, k: int, l: int) -> bool:
    # both pairs sorted; one open interval strictly inside the other
    return (i < k < l < j) or (k < i < j < l)


def _same_side_interleave(d):
    signs, off = d.signs, _rank_offsets(d.n)
    return lambda i, j, k, l: _interleave(i, j, k, l) and signs[off[i] + j] == signs[off[k] + l]


def _segments_cross(d):
    pts = d.points

    def f(i, j, k, l):
        # a proper crossing: no three points are collinear
        return (orient(pts[i], pts[j], pts[k]) * orient(pts[i], pts[j], pts[l]) < 0
                and orient(pts[k], pts[l], pts[i]) * orient(pts[k], pts[l], pts[j]) < 0)

    return f


def _listed_pair(d):
    # one bit of the table, read by cross() without a kernel
    return lambda i, j, k, l: cross(d, (i, j), (k, l))


# -- germ sweeps ----------------------------------------------------------------
#
# sweep(pos, v, u, eps): the sweep that the model's ``arc`` reads as the
# point of arc v-u at distance about eps from v.


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


# -- the registry ---------------------------------------------------------------


@dataclass(frozen=True)
class Entry:
    """A model's reference crossing predicate, its named samples at small n,
    a builder of one sample at n >= 256 and of pairs of edges ((a, b), (c, w))
    that cross in it (for a model whose crossings a uniform triple rarely
    meets), the vertices it certifies on the unbounded cell, and its germ
    sweep (None: straight edges or no geometry)."""

    predicate: Callable[[Drawing], Callable[[int, int, int, int], bool]]
    samples: Dict[str, Drawing]
    large: Callable[[], Drawing]
    large_crossings: Callable[[], Sequence] = tuple
    certified: Callable[[Drawing], set] = lambda d: {anchored_view(d).v0}
    germ_sweep: Optional[Callable] = None


def _explicit_samples():
    order = list(range(14))
    random.Random(3).shuffle(order)
    yield "shuffled restriction", induced_subdrawing(gen_halfcircle(16, seed=8), order)
    yield "anchored restriction", anchored_restriction(gen_halfcircle(12, seed=1))
    # an identity restriction that stores the drawn rotations and anchor
    d = gen_halfcircle(6, seed=1)
    ad = anchored_view(d)
    yield "halfcircle 6 seed 1 carrier", Drawing(
        n=6, model="explicit", crossings=induced_subdrawing(d, range(6)).crossings,
        rotations=rotations_of(d), anchor=(ad.v0, ad.order)
    )
    yield "horton 8 restriction", induced_subdrawing(gen_straightline(gen_horton(3)), range(8))
    yield "empty explicit 8", Drawing(n=8, model="explicit", crossings=frozenset())
    rng = random.Random(505)
    for t in range(8):
        yield f"random explicit {t}", random_explicit(
            rng, rng.randint(4, 11), density=rng.choice([0.05, 0.2, 0.5])
        )
    yield "random explicit 11", random_explicit(random.Random("explicit"), 11, density=0.4)


def _points_samples():
    horton = gen_horton(4)
    yield "horton 16", gen_straightline(horton)
    yield "horton 16 negative", gen_straightline([(x - 1000, y - 999) for x, y in horton])
    yield "horton 16 mixed signs", gen_straightline([(x - 7, 3 * y - 40) for x, y in horton])
    yield "horton 16 beyond 2**64", gen_straightline(
        [(x * 2**66 - 5, y * 2**67 + 2**65) for x, y in horton]
    )
    for seed, bound in ((11, 50), (12, 10**12)):
        yield f"random points seed {seed}", random_points(random.Random(seed), 11, bound)
    yield "five points", gen_straightline([(0, 0), (9, 1), (4, 8), (3, 3), (7, 3)])


REGISTRY = {
    "convex": Entry(
        predicate=lambda d: _interleave,
        samples={f"convex {n}": gen_convex(n) for n in (4, 6, 7, 8, 10, 11, 14)},
        large=lambda: gen_convex(700),
        certified=lambda d: set(range(d.n)),
    ),
    "twisted": Entry(
        predicate=lambda d: _nested,
        samples={f"twisted {n}": gen_twisted(n) for n in (4, 6, 7, 8, 10, 11, 14)},
        large=lambda: gen_twisted(700),
        germ_sweep=_twisted_sweep,
    ),
    "halfcircle": Entry(
        predicate=_same_side_interleave,
        samples={**dict(halfcircle_seeds()),
                 **{f"halfcircle {n} seed {s}": gen_halfcircle(n, seed=s)
                    for n, s in ((6, 4), (8, 2), (11, 4))}},
        large=lambda: gen_halfcircle(600, seed=6),
        germ_sweep=_halfcircle_sweep,
    ),
    "points": Entry(
        predicate=_segments_cross,
        samples=dict(_points_samples()),
        large=lambda: gen_straightline(gen_horton(8)),
        certified=lambda d: hull_vertices(d.points),
    ),
    "explicit": Entry(
        predicate=_listed_pair,
        samples=dict(_explicit_samples()),
        large=lambda: explicit_of(256, sparse_pairs(256, 2000)),
        large_crossings=lambda: sparse_pairs(256, 2000),
        certified=lambda d: set() if d.anchor is None else {d.anchor[0]},
    ),
}

# every sample of every model, by its name
SAMPLES = {name: d for entry in REGISTRY.values() for name, d in entry.samples.items()}


def crossing_function(d: Drawing):
    """The reference crossing predicate of d's model, on d."""
    return REGISTRY[d.model].predicate(d)


def anchored_views(d):
    """The anchored views of d at every vertex its model certifies."""
    return [anchored_view(d, v0) for v0 in sorted(REGISTRY[d.model].certified(d))]


def incomplete():
    """The models of ``MODELS`` with no entry, or whose entry's germ sweep
    does not say what their ``turn`` says: straight edges or no geometry
    (None), or arcs."""
    return sorted(
        name for name, model in MODELS.items()
        if name not in REGISTRY or (REGISTRY[name].germ_sweep is None) != (model.turn is None)
    )
