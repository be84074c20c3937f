"""Core drawing model: ranks, crossing queries, restrictions, certificates."""

import dataclasses
import inspect
import itertools
import json
import math
import random
import re
import time

import pytest
from helpers import edge_at, independent_pairs
from models import SAMPLES, crossing_function, random_explicit, reference_collinear, rotations_of

import cstg
from cstg import drawing
from cstg.chromatics import ChiCache, phi_table
from cstg.codec import encode_drawing
from cstg.drawing import (
    CONVEX,
    MODELS,
    PLANE_BIPARTITE,
    PLANE_PATH,
    TWISTED,
    AnchoredDrawing,
    Certificate,
    Drawing,
    CertificateReport,
    check_plane_edges,
    cross,
    crossing_masks,
    crossing_pairs,
    edge_index,
    induced_subdrawing,
    sorted_pair,
    verify_certificate,
)
from cstg.errors import (
    DegenerateInput,
    InvalidCertificate,
    InvalidEdge,
    InvalidSelection,
    InvalidSigns,
    InvalidTriple,
    NotIndependent,
    RuleViolation,
    SizeLimit,
    ValidationError,
)
from cstg.generators import (
    anchored_view,
    gen_convex,
    gen_halfcircle,
    gen_horton,
    gen_straightline,
    gen_twisted,
)
from cstg.extraction import embed_tree, extract_pattern, guaranteed_m, required_n
from cstg.oracles import OracleBudget, longest_plane_path_exact, max_pattern_exact
from cstg.planepath import extract_plane_path, find_plane_k2m2, theta
from cstg.ramsey import GameState, adversarial_painter, naive_builder, run_game


def all_pairs(n):
    return list(itertools.combinations(range(n), 2))


def relation(d):
    return {frozenset((e1, e2)) for e1, e2 in independent_pairs(d.n) if cross(d, e1, e2)}


class TestEdgeIndex:
    def test_against_enumeration_oracle(self):
        # oracle: rank = position in the lexicographic listing of all pairs
        for n in (2, 3, 5, 9):
            listing = all_pairs(n)
            for rank, (i, j) in enumerate(listing):
                assert edge_index(i, j, n) == rank
                assert edge_at(rank, n) == (i, j)

    def test_spec_values(self):
        assert edge_index(0, 1, 5) == 0
        assert edge_index(3, 4, 5) == 9
        assert edge_index(1, 3, 5) == 5

    def test_rejects_bad_edges(self):
        with pytest.raises(InvalidEdge):
            edge_index(3, 3, 5)
        with pytest.raises(InvalidEdge):
            edge_index(2, 1, 5)
        with pytest.raises(InvalidEdge):
            edge_index(0, 5, 5)
        with pytest.raises(InvalidEdge):
            edge_at(10, 5)


def segments_cross_float(p1, p2, q1, q2):
    # independent float oracle used only by the tests
    def ori(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    return (
        ori(p1, p2, q1) * ori(p1, p2, q2) < 0
        and ori(q1, q2, p1) * ori(q1, q2, p2) < 0
    )


class TestDrawingFields:
    @pytest.mark.parametrize("kwargs, message", [
        ({"model": "spiral"}, "unknown model 'spiral'"),
        ({"model": "convex", "rotations": ((1, 2, 3),)},
         "rotations must hold one tuple per vertex"),
        ({"model": "convex", "anchor": (0,)}, "anchor must be a pair (v0, order)"),
    ], ids=["model", "rotations", "anchor"])
    def test_malformed_fields_are_refused(self, kwargs, message):
        with pytest.raises(InvalidSelection) as info:
            Drawing(n=4, **kwargs)
        assert str(info.value) == message

    @pytest.mark.parametrize("a, b, equal", [
        ((), (), True),
        ((1, 2, 3), (1, 2), False),
        ((1, 2, 3), (2, 3, 4), False),
        ((1, 2, 3), (3, 1, 2), True),
        ((1, 2, 3), (3, 2, 1), False),
    ], ids=["empty", "lengths differ", "first missing", "rotated", "reversed"])
    def test_cyclic_equal(self, a, b, equal):
        assert drawing.cyclic_equal(a, b) is equal


class TestCross:
    def test_convex_4_matches_segment_oracle(self):
        d = gen_convex(4)
        pts = [
            (math.cos(2 * math.pi * v / 4), math.sin(2 * math.pi * v / 4))
            for v in range(4)
        ]
        assert cross(d, (0, 2), (1, 3)) is True
        for e1, e2 in independent_pairs(4):
            expected = segments_cross_float(pts[e1[0]], pts[e1[1]], pts[e2[0]], pts[e2[1]])
            assert cross(d, e1, e2) == expected

    def test_twisted_4_outer_pair(self):
        assert cross(gen_twisted(4), (0, 3), (1, 2)) is True
        assert cross(gen_twisted(5), (0, 4), (1, 3)) is True
        assert cross(gen_twisted(5), (0, 2), (1, 3)) is False

    def test_halfcircle_opposite_sides_never_cross(self):
        # edges (1,3) U and (2,4) L on n=5
        n = 5
        signs = ["L"] * (n * (n - 1) // 2)
        signs[edge_index(1, 3, n)] = "U"
        signs[edge_index(2, 4, n)] = "L"
        d = Drawing(n=n, model="halfcircle", signs="".join(signs))
        assert cross(d, (1, 3), (2, 4)) is False

    def test_adjacent_query_is_an_error(self):
        d = gen_convex(5)
        with pytest.raises(NotIndependent):
            cross(d, (0, 1), (1, 2))
        with pytest.raises(InvalidEdge):
            cross(d, (0, 5), (1, 2))
        with pytest.raises(InvalidEdge):
            cross(d, (2, 2), (0, 1))

    @pytest.mark.parametrize("edge, named", [((0, 1, 2), "(0, 1, 2)"), (5, "5")],
                             ids=["three vertices", "an int"])
    def test_an_edge_that_is_no_pair_is_refused(self, edge, named):
        with pytest.raises(InvalidEdge) as info:
            cross(gen_convex(5), edge, (3, 4))
        assert str(info.value) == f"edge {named} is not a vertex pair"

    @pytest.mark.parametrize("vertex", [0.5, 0.9, True], ids=["0.5", "0.9", "True"])
    def test_a_vertex_that_is_no_integer_is_refused(self, vertex):
        # not truncated to 0 or read as 1: the edge names no vertex pair
        d = gen_convex(6)
        message = f"edge vertex {vertex!r} is not an integer"
        for e1, e2 in (((vertex, 2), (1, 3)), ((0, 2), (4, vertex))):
            with pytest.raises(InvalidEdge) as info:
                cross(d, e1, e2)
            assert str(info.value) == message
            with pytest.raises(InvalidEdge) as info:
                check_plane_edges(d, [e1, e2])
            assert str(info.value) == message

    def test_explicit_table_equals_implicit_backend(self):
        drawings = [
            gen_convex(10),
            gen_twisted(10),
            gen_halfcircle(10, seed=4),
            gen_convex(24),
            gen_twisted(24),
        ]
        for d in drawings:
            table = induced_subdrawing(d, range(d.n))
            for e1, e2 in independent_pairs(d.n):
                assert cross(table, e1, e2) == cross(d, e1, e2)

    def test_every_independent_pair_matches_the_reference(self):
        # cross() reads one kernel over its four vertices, or an explicit
        # table; the predicate answers per model, so every backend is
        # compared on every pair, both ways round
        rng = random.Random(77)
        drawings = [
            gen_convex(7),
            gen_twisted(7),
            gen_halfcircle(7, seed=1),
            gen_convex(9),
            gen_twisted(9),
            gen_halfcircle(9, seed=5),
            gen_halfcircle(10, seed=6),
            gen_straightline(gen_horton(4)),
            random_explicit(rng, 9, density=0.4),
            induced_subdrawing(gen_halfcircle(12, seed=2), rng.sample(range(12), 10)),
        ]
        for d in drawings:
            f = crossing_function(d)
            for e1, e2 in independent_pairs(d.n):
                want = f(*e1, *e2)
                assert cross(d, e1, e2) is want, (d.model, e1, e2)
                assert cross(d, e2, e1) is want, (d.model, e1, e2)
                assert cross(d, e2[::-1], e1) is want, (d.model, e1, e2)

    # entries that name no independent pair in rank order used to be skipped,
    # so cross() answered False on the (4, 1) table, whose entry says it is
    # True; now the drawing is not built
    @pytest.mark.parametrize(
        "entry, message",
        [
            ((4, 1), "crossing pair [4, 1] joins edges (1,3) and (0,2) out of rank order"),
            ((1, 6), "crossing ranks [1, 6] out of range for n=4"),
            ((0, 1), "crossing pair [0, 1] joins edges (0,1) and (0,2) which share a vertex"),
        ],
        ids=["unsorted", "rank out of range", "shared vertex"],
    )
    def test_explicit_stray_entry_is_rejected(self, entry, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            Drawing(n=4, model="explicit", crossings=frozenset({entry}))

    # a table that is not a collection of integer pairs is refused as the
    # codec refuses one, not with a bare TypeError or ValueError
    @pytest.mark.parametrize(
        "crossings, message",
        [
            (5, "field 'crossings' of type int is not a collection of rank pairs"),
            ([(1, 4, 5)], "field 'crossings': entry (1, 4, 5) is not a pair of integers"),
            ([("a", 4)], "field 'crossings': entry ('a', 4) is not a pair of integers"),
            ([(1.0, 4)], "field 'crossings': entry (1.0, 4) is not a pair of integers"),
            # each of these holds the pair (1, 4) when iterated
            ([(1, 4), (True, 4)],
             "field 'crossings': entry (True, 4) is not a pair of integers"),
            ([{1, 4}], "field 'crossings': entry {1, 4} is not a pair of integers"),
            ([{1: 0, 4: 0}], "field 'crossings': entry {1: 0, 4: 0} is not a pair of integers"),
            ([b"\x01\x04"], "field 'crossings': entry b'\\x01\\x04' is not a pair of integers"),
        ],
        ids=["not a collection", "three ranks", "string rank", "float rank", "bool rank",
             "set entry", "dict entry", "bytes entry"],
    )
    def test_explicit_table_of_non_integer_pairs_is_rejected(self, crossings, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            Drawing(n=4, model="explicit", crossings=crossings)

    def test_explicit_looks_its_pair_up_without_a_kernel(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an explicit cross() built a crossing kernel")

        monkeypatch.setattr(drawing, "crossing_masks", refuse)
        monkeypatch.setattr(drawing, "_kernels", refuse)
        d = random_explicit(random.Random(79), 9, density=0.4)
        f = crossing_function(d)
        for e1, e2 in independent_pairs(d.n):
            assert cross(d, e1, e2) is f(*e1, *e2), (e1, e2)
            assert cross(d, e2[::-1], e1) is f(*e1, *e2), (e1, e2)
        # a stray entry is rejected when the drawing is built
        with pytest.raises(ValidationError, match=re.escape("[4, 1]")):
            Drawing(n=4, model="explicit", crossings=frozenset({(4, 1)}))

    def test_explicit_names_the_smallest_stray_entry(self):
        rng = random.Random(505)
        table = frozenset(crossing_pairs(random_explicit(rng, 9)))
        unsorted = {(r2, r1) for r1, r2 in set(crossing_pairs(random_explicit(rng, 9))) - table}
        adjacent = {
            (edge_index(*e1, 9), edge_index(*e2, 9))
            for e1, e2 in itertools.combinations(all_pairs(9), 2)
            if set(e1) & set(e2) and rng.random() < 0.3
        }
        for stray in (unsorted | {(3, 10**6)}, adjacent):
            r1, r2 = min(stray)
            with pytest.raises(ValidationError, match=re.escape(f"[{r1}, {r2}]")):
                Drawing(n=9, model="explicit", crossings=table | stray)

    def test_explicit_cap(self):
        with pytest.raises(SizeLimit):
            Drawing(n=300, model="explicit", crossings=frozenset())

    def test_halfcircle_signs_too_short(self):
        # used to build, then fail inside cross with a bare IndexError
        with pytest.raises(InvalidSigns, match="length 1"):
            Drawing(n=4, model="halfcircle", signs="U")

    def test_halfcircle_signs_outside_alphabet(self):
        # used to build and report crossings for arcs on side X
        with pytest.raises(InvalidSigns, match="only U and L"):
            Drawing(n=4, model="halfcircle", signs="XXXXXX")
        with pytest.raises(InvalidSigns):
            Drawing(n=4, model="halfcircle", signs="UULLUu")

    def test_halfcircle_signs_missing(self):
        with pytest.raises(InvalidSigns, match="missing"):
            Drawing(n=4, model="halfcircle")


def reference_restriction(d, vs):
    """The crossing table of induced_subdrawing as the quartic loop built it:
    one predicate call per independent pair of selected edges."""
    f = crossing_function(d)
    m = len(vs)
    sub_edges = [(ia, ib) for ia in range(m) for ib in range(ia + 1, m)]
    pairs = set()
    for r1, (ia, ib) in enumerate(sub_edges):
        a, b = sorted_pair(vs[ia], vs[ib])
        for r2 in range(r1 + 1, len(sub_edges)):
            ic, id_ = sub_edges[r2]
            c, e = sorted_pair(vs[ic], vs[id_])
            if c in (a, b) or e in (a, b):
                continue
            if f(a, b, c, e):
                pairs.add((r1, r2))
    return frozenset(pairs)


def restriction_sources():
    yield "convex 11", gen_convex(11)
    yield "twisted 11", gen_twisted(11)
    for seed in range(3):
        yield f"halfcircle 12 seed {seed}", gen_halfcircle(12, seed=seed)
    yield "horton 16", gen_straightline(gen_horton(4))
    rng = random.Random(91)
    yield "random explicit", random_explicit(rng, 10, density=0.3)
    order = rng.sample(range(13), 13)
    yield "explicit restriction", induced_subdrawing(gen_halfcircle(13, seed=4), order)


RESTRICTION_SOURCES = dict(restriction_sources())


def assert_reads_as(d, ref):
    """crossing_pairs(d) lists the frozenset ref of rank pairs in rank
    order, and cross() answers as ref on every independent pair."""
    assert list(crossing_pairs(d)) == sorted(ref)
    for e1, e2 in independent_pairs(d.n):
        pair = sorted_pair(edge_index(*e1, d.n), edge_index(*e2, d.n))
        assert cross(d, e1, e2) is (pair in ref), pair


class TestInducedSubdrawing:
    def test_twisted_restriction_is_twisted(self):
        # order-preserving restriction of the nesting rule is the nesting rule
        sub = induced_subdrawing(gen_twisted(6), [0, 1, 2, 3])
        assert relation(sub) == relation(gen_twisted(4))

    def test_convex_restriction_is_convex(self):
        sub = induced_subdrawing(gen_convex(8), [0, 2, 4, 6])
        assert relation(sub) == relation(gen_convex(4))

    def test_identity_restriction(self):
        d = gen_halfcircle(7, seed=9)
        sub = induced_subdrawing(d, list(range(7)))
        assert relation(sub) == relation(d)

    def test_composition(self):
        d = gen_halfcircle(10, seed=2)
        once = induced_subdrawing(d, [0, 2, 3, 5, 7, 8])
        twice = induced_subdrawing(once, [0, 1, 3, 5])
        direct = induced_subdrawing(d, [0, 2, 5, 8])
        assert relation(twice) == relation(direct)

    def test_rotations_are_subsequences(self):
        d = gen_halfcircle(8, seed=3)
        vs = [0, 1, 3, 4, 6]
        sub = induced_subdrawing(d, vs)
        full = rotations_of(d)
        keep = set(vs)
        back = {v: i for i, v in enumerate(vs)}
        for new_v, old_v in enumerate(vs):
            expected = tuple(back[u] for u in full[old_v] if u in keep)
            assert sub.rotations[new_v] == expected

    def test_anchor_restricts_when_kept(self):
        d = gen_halfcircle(8, seed=1)
        ad = anchored_view(d)
        carrier = Drawing(
            n=8,
            model="halfcircle",
            signs=d.signs,
            anchor=(ad.v0, ad.order),
        )
        vs = [0, 2, 3, 5, 7]
        sub = induced_subdrawing(carrier, vs)
        assert sub.anchor is not None
        v0, order = sub.anchor
        assert vs[v0] == ad.v0
        # restricted order is the subsequence of the original
        back = [vs[p] for p in order]
        assert back == [u for u in ad.order if u in set(vs)]

    def test_rejects_bad_selection(self):
        d = gen_convex(5)
        with pytest.raises(InvalidSelection):
            induced_subdrawing(d, [0, 0, 1])
        with pytest.raises(InvalidSelection):
            induced_subdrawing(d, [0, 9])
        with pytest.raises(InvalidSelection):
            induced_subdrawing(d, [1])

    @pytest.mark.parametrize("name", sorted(RESTRICTION_SOURCES))
    def test_matches_the_quartic_loop(self, name):
        d = RESTRICTION_SOURCES[name]
        rng = random.Random(name)
        for _ in range(6):
            vs = rng.sample(range(d.n), rng.randint(2, d.n))
            x = induced_subdrawing(d, vs)
            want = reference_restriction(d, vs)
            assert frozenset(crossing_pairs(x)) == want, vs
            # the table lists the set of its pairs, on the restriction
            # and on a random table built by hand from a frozenset, a set
            # and a shuffled list
            n = rng.randint(4, 9)
            pairs = [
                sorted_pair(edge_index(*e1, n), edge_index(*e2, n))
                for e1, e2 in independent_pairs(n) if rng.random() < 0.4
            ]
            ref = frozenset(pairs)
            rng.shuffle(pairs)
            assert_reads_as(x, want)
            for given in (ref, set(pairs), pairs):
                assert_reads_as(Drawing(n=n, model="explicit", crossings=given), ref)

    def test_keeps_the_bits_its_table_builds(self):
        # a restriction's table is a view over the rank bitsets it built from
        # its masks: a dataclasses.replace copy keeps that view, a drawing
        # built from the set of its pairs builds equal bitsets, and all three
        # encode to the same bytes as that set sorted
        rng = random.Random(2537)
        vs = rng.sample(range(16), 13)
        sub = induced_subdrawing(gen_halfcircle(16, seed=8), vs)
        copy = dataclasses.replace(sub)
        by_set = Drawing(n=13, model="explicit", crossings=frozenset(crossing_pairs(sub)),
                         rotations=sub.rotations)
        assert copy.crossings is sub.crossings
        assert len(sub.crossings.bits) == len(by_set.crossings.bits) == math.comb(13, 2)
        assert sub.crossings.bits == by_set.crossings.bits
        sorted_text = json.dumps(sorted(crossing_pairs(sub)), separators=(",", ":"))
        assert f'"crossings":{sorted_text},' in encode_drawing(sub)
        assert encode_drawing(sub) == encode_drawing(copy) == encode_drawing(by_set)

    def test_draws_rotations_at_the_selected_vertices_only(self, monkeypatch):
        # a source that stores no rotations has them drawn at the vertices
        # the restriction keeps, not at every vertex of the source
        calls = []
        points = MODELS["points"]
        drawn = points.rotation

        def counted(d, v):
            calls.append(v)
            return drawn(d, v)

        monkeypatch.setattr(points, "rotation", counted)
        d = gen_straightline(gen_horton(6))
        vs = [63, 5, 17, 40, 2]
        sub = induced_subdrawing(d, vs)
        assert sorted(calls) == sorted(vs)
        keep = set(vs)
        for v, rot in zip(vs, sub.rotations):
            assert rot == tuple(vs.index(u) for u in drawn(d, v) if u in keep)

    def test_size_cap_fails_before_the_quartic_loop(self):
        d = gen_convex(300)
        t0 = time.monotonic()
        with pytest.raises(SizeLimit):
            induced_subdrawing(d, range(257))
        assert time.monotonic() - t0 < 1.0


# Every count (a size, a target or a budget) is read through drawing._count
# and every vertex selection through drawing._vertices, and positions,
# edge endpoints and budget objects are refused by their own checks: a bad
# argument is named where it comes in, never met as a TypeError deep in a
# kernel, never truncated, and a bool is neither a count nor a vertex.  Each
# row is (call, error, message), its id "<callable>.<parameter>: <case>";
# each count has a bool, a float and a below-range row.
HC8 = gen_halfcircle(8, seed=1)
AD8 = anchored_view(HC8)
GAME = (naive_builder(), adversarial_painter())


def game_with(*colors):
    """A game whose vertex k + 2 is joined to vertex 1 in colors[k]."""
    game = GameState()
    game.add_vertex()
    for color in colors:
        game.add_edge(1, game.add_vertex(), color)
    return game


def refused(target, case, call, error, message):
    return pytest.param(call, error, message, id=f"{target}: {case}")


REFUSALS = [
    # sizes of drawings and point sets
    refused("Drawing.n", "bool", lambda: Drawing(n=True, model="convex"),
            InvalidSelection, "drawing n True is not an integer"),
    refused("Drawing.n", "float", lambda: Drawing(n=4.0, model="convex"),
            InvalidSelection, "drawing n 4.0 is not an integer"),
    refused("Drawing.n", "below", lambda: Drawing(n=1, model="convex"),
            InvalidSelection, "drawing n must be at least 2, got 1"),
    refused("gen_convex.n", "bool", lambda: gen_convex(True),
            InvalidSelection, "drawing n True is not an integer"),
    refused("gen_convex.n", "float", lambda: gen_convex(5.0),
            InvalidSelection, "drawing n 5.0 is not an integer"),
    refused("gen_convex.n", "below", lambda: gen_convex(1),
            InvalidSelection, "drawing n must be at least 2, got 1"),
    refused("gen_twisted.m", "bool", lambda: gen_twisted(True),
            InvalidSelection, "drawing n True is not an integer"),
    refused("gen_twisted.m", "float", lambda: gen_twisted(5.0),
            InvalidSelection, "drawing n 5.0 is not an integer"),
    refused("gen_twisted.m", "below", lambda: gen_twisted(0),
            InvalidSelection, "drawing n must be at least 2, got 0"),
    refused("gen_halfcircle.n", "bool", lambda: gen_halfcircle(True),
            InvalidSelection, "drawing n True is not an integer"),
    refused("gen_halfcircle.n", "float", lambda: gen_halfcircle(5.0),
            InvalidSelection, "drawing n 5.0 is not an integer"),
    refused("gen_halfcircle.n", "below", lambda: gen_halfcircle(-3),
            InvalidSelection, "drawing n must be at least 2, got -3"),
    # a seed from the OS is not reproducible, and -s would repeat s
    refused("gen_halfcircle.seed", "None", lambda: gen_halfcircle(8, seed=None),
            InvalidSelection, "seed None is not an integer"),
    refused("gen_halfcircle.seed", "bool", lambda: gen_halfcircle(8, seed=True),
            InvalidSelection, "seed True is not an integer"),
    refused("gen_halfcircle.seed", "float", lambda: gen_halfcircle(8, seed=1.0),
            InvalidSelection, "seed 1.0 is not an integer"),
    refused("gen_halfcircle.seed", "str", lambda: gen_halfcircle(8, seed="1"),
            InvalidSelection, "seed '1' is not an integer"),
    refused("gen_halfcircle.seed", "negative", lambda: gen_halfcircle(8, seed=-1),
            InvalidSelection, "seed must be at least 0, got -1"),
    refused("gen_horton.k", "bool", lambda: gen_horton(True),
            InvalidSelection, "k True is not an integer"),
    refused("gen_horton.k", "float", lambda: gen_horton(2.0),
            InvalidSelection, "k 2.0 is not an integer"),
    refused("gen_horton.k", "below", lambda: gen_horton(-1),
            InvalidSelection, "k must be at least 0, got -1"),
    refused("edge_index.n", "bool", lambda: edge_index(0, 1, True),
            InvalidSelection, "n True is not an integer"),
    refused("edge_index.n", "float", lambda: edge_index(0, 1, 2.5),
            InvalidSelection, "n 2.5 is not an integer"),
    refused("edge_index.n", "below", lambda: edge_index(0, 1, 1),
            InvalidSelection, "n must be at least 2, got 1"),
    # targets
    refused("extract_pattern.m1", "bool", lambda: extract_pattern(AD8, True, 3),
            InvalidSelection, "pattern target m1 True is not an integer"),
    refused("extract_pattern.m1", "float", lambda: extract_pattern(AD8, 3.0, 3),
            InvalidSelection, "pattern target m1 3.0 is not an integer"),
    refused("extract_pattern.m1", "float below the range", lambda: extract_pattern(AD8, 0.5, 3),
            InvalidSelection, "pattern target m1 0.5 is not an integer"),
    refused("extract_pattern.m1", "below", lambda: extract_pattern(AD8, 1, 3),
            InvalidSelection, "pattern target m1 must be at least 2, got 1"),
    refused("extract_pattern.m2", "bool", lambda: extract_pattern(AD8, 3, True),
            InvalidSelection, "pattern target m2 True is not an integer"),
    refused("extract_pattern.m2", "float", lambda: extract_pattern(AD8, 3, 3.0),
            InvalidSelection, "pattern target m2 3.0 is not an integer"),
    refused("extract_pattern.m2", "below",
            lambda: extract_pattern(anchored_view(gen_convex(8)), 4, 1),
            InvalidSelection, "pattern target m2 must be at least 2, got 1"),
    refused("required_n.m1", "bool", lambda: required_n(True, 3),
            InvalidSelection, "pattern target m1 True is not an integer"),
    refused("required_n.m1", "float", lambda: required_n(2.5, 3),
            InvalidSelection, "pattern target m1 2.5 is not an integer"),
    refused("required_n.m1", "below", lambda: required_n(1, 4),
            InvalidSelection, "pattern target m1 must be at least 2, got 1"),
    refused("required_n.m2", "bool", lambda: required_n(3, True),
            InvalidSelection, "pattern target m2 True is not an integer"),
    refused("required_n.m2", "float", lambda: required_n(3, 3.0),
            InvalidSelection, "pattern target m2 3.0 is not an integer"),
    refused("required_n.m2", "below", lambda: required_n(4, 1),
            InvalidSelection, "pattern target m2 must be at least 2, got 1"),
    refused("guaranteed_m.n", "bool", lambda: guaranteed_m(True),
            InvalidSelection, "n True is not an integer"),
    refused("guaranteed_m.n", "float", lambda: guaranteed_m(1000.5),
            InvalidSelection, "n 1000.5 is not an integer"),
    refused("guaranteed_m.n", "below", lambda: guaranteed_m(2),
            InvalidSelection, "n must be at least 3, got 2"),
    refused("embed_tree.m", "bool", lambda: embed_tree(CONVEX, True, [[]]),
            InvalidSelection, "m True is not an integer"),
    refused("embed_tree.m", "float", lambda: embed_tree(CONVEX, 5.0, [[]]),
            InvalidSelection, "m 5.0 is not an integer"),
    refused("embed_tree.m", "below", lambda: embed_tree(CONVEX, 0, [[]]),
            InvalidSelection, "m must be at least 1, got 0"),
    refused("find_plane_k2m2.m", "bool", lambda: find_plane_k2m2(AD8, True),
            InvalidSelection, "m True is not an integer"),
    refused("find_plane_k2m2.m", "float", lambda: find_plane_k2m2(AD8, 2.5),
            InvalidSelection, "m 2.5 is not an integer"),
    refused("find_plane_k2m2.m", "below", lambda: find_plane_k2m2(AD8, 0),
            InvalidSelection, "m must be at least 1, got 0"),
    refused("extract_plane_path.m_override", "bool",
            lambda: extract_plane_path(AD8, m_override=True),
            InvalidSelection, "m override True is not an integer"),
    refused("extract_plane_path.m_override", "float",
            lambda: extract_plane_path(AD8, m_override=2.0),
            InvalidSelection, "m override 2.0 is not an integer"),
    refused("extract_plane_path.m_override", "below",
            lambda: extract_plane_path(AD8, m_override=0),
            InvalidSelection, "m override must be at least 1, got 0"),
    refused("extract_plane_path.path_target", "bool",
            lambda: extract_plane_path(AD8, path_target=True),
            InvalidSelection, "path target True is not an integer"),
    refused("extract_plane_path.path_target", "float",
            lambda: extract_plane_path(AD8, path_target=4.5),
            InvalidSelection, "path target 4.5 is not an integer"),
    refused("extract_plane_path.path_target", "str",
            lambda: extract_plane_path(AD8, path_target="4"),
            InvalidSelection, "path target '4' is not an integer"),
    refused("extract_plane_path.path_target", "below",
            lambda: extract_plane_path(AD8, m_override=2, path_target=1),
            InvalidSelection, "path target must be at least 2, got 1"),
    refused("longest_plane_path_exact.target", "bool",
            lambda: longest_plane_path_exact(HC8, target=True),
            InvalidSelection, "target True is not an integer"),
    refused("longest_plane_path_exact.target", "float",
            lambda: longest_plane_path_exact(HC8, target=2.0),
            InvalidSelection, "target 2.0 is not an integer"),
    refused("longest_plane_path_exact.target", "below",
            lambda: longest_plane_path_exact(HC8, target=0),
            InvalidSelection, "target must be at least 1, got 0"),
    refused("run_game.m", "bool", lambda: run_game(True, *GAME, budget=5),
            InvalidSelection, "target path length True is not an integer"),
    refused("run_game.m", "float", lambda: run_game(2.5, *GAME, budget=5),
            InvalidSelection, "target path length 2.5 is not an integer"),
    refused("run_game.m", "below", lambda: run_game(1, *GAME, budget=5),
            InvalidSelection, "target path length must be at least 2, got 1"),
    # a game's vertex labels and colors
    refused("GameState.add_vertex.label", "bool", lambda: GameState().add_vertex(True),
            InvalidSelection, "vertex label True is not an integer"),
    refused("GameState.add_vertex.label", "float", lambda: GameState().add_vertex(1.5),
            InvalidSelection, "vertex label 1.5 is not an integer"),
    refused("GameState.add_vertex.label", "below", lambda: GameState().add_vertex(0),
            InvalidSelection, "vertex label must be at least 1, got 0"),
    refused("GameState.add_edge.color", "None", lambda: game_with(None),
            RuleViolation, "edge color None is not a str"),
    refused("GameState.add_edge.color", "a third", lambda: game_with("purple", "green", "red"),
            RuleViolation, "edge color 'red' is a third color, after 'purple' and 'green'"),
    # budgets
    refused("run_game.budget", "bool", lambda: run_game(3, *GAME, budget=True),
            InvalidSelection, "edge budget True is not an integer"),
    refused("run_game.budget", "float", lambda: run_game(3, *GAME, budget=5.0),
            InvalidSelection, "edge budget 5.0 is not an integer"),
    refused("run_game.budget", "below", lambda: run_game(3, *GAME, budget=0),
            InvalidSelection, "edge budget must be at least 1, got 0"),
    refused("OracleBudget.nodes", "bool", lambda: OracleBudget(nodes=True),
            InvalidSelection, "node budget True is not an integer"),
    refused("OracleBudget.nodes", "float", lambda: OracleBudget(nodes=2.5),
            InvalidSelection, "node budget 2.5 is not an integer"),
    refused("OracleBudget.nodes", "str", lambda: OracleBudget(nodes="5"),
            InvalidSelection, "node budget '5' is not an integer"),
    refused("OracleBudget.nodes", "below", lambda: OracleBudget(nodes=0),
            InvalidSelection, "node budget must be at least 1, got 0"),
    refused("max_pattern_exact.budget", "int", lambda: max_pattern_exact(HC8, CONVEX, 5),
            InvalidSelection, "budget must be an OracleBudget, got int"),
    refused("longest_plane_path_exact.budget", "dict",
            lambda: longest_plane_path_exact(HC8, budget={"nodes": 5}),
            InvalidSelection, "budget must be an OracleBudget, got dict"),
    # vertex selections
    refused("induced_subdrawing.vs", "float", lambda: induced_subdrawing(HC8, [0, 1.0, 2]),
            InvalidSelection, "selection member 1.0 is not an integer"),
    refused("induced_subdrawing.vs", "bool", lambda: induced_subdrawing(HC8, [0, True, 2]),
            InvalidSelection, "selection member True is not an integer"),
    refused("induced_subdrawing.vs", "past n", lambda: induced_subdrawing(HC8, [0, 8]),
            InvalidSelection, "selection member 8 out of range for n=8"),
    refused("induced_subdrawing.vs", "repeated", lambda: induced_subdrawing(HC8, [3, 1, 3]),
            InvalidSelection, "selection member 3 is repeated"),
    refused("longest_plane_path_exact.vertices", "float",
            lambda: longest_plane_path_exact(HC8, vertices=[0, 1.5, 3]),
            InvalidSelection, "selection member 1.5 is not an integer"),
    refused("longest_plane_path_exact.vertices", "bool",
            lambda: longest_plane_path_exact(HC8, vertices=[False, 1, 3]),
            InvalidSelection, "selection member False is not an integer"),
    refused("longest_plane_path_exact.vertices", "past n",
            lambda: longest_plane_path_exact(gen_convex(6), vertices=[0, 6]),
            InvalidSelection, "selection member 6 out of range for n=6"),
    refused("longest_plane_path_exact.vertices", "negative",
            lambda: longest_plane_path_exact(gen_convex(6), vertices=[-1, 2]),
            InvalidSelection, "selection member -1 out of range for n=6"),
    refused("longest_plane_path_exact.vertices", "repeated",
            lambda: longest_plane_path_exact(gen_convex(6), vertices=[1, 2, 1]),
            InvalidSelection, "selection member 1 is repeated"),
    # anchors, positions and edge endpoints
    refused("AnchoredDrawing.v0", "float", lambda: AnchoredDrawing(HC8, 0.0, tuple(range(1, 8))),
            InvalidSelection, "anchor 0.0 out of range"),
    refused("AnchoredDrawing.v0", "bool", lambda: AnchoredDrawing(HC8, True, (0, *range(2, 8))),
            InvalidSelection, "anchor True out of range"),
    refused("AnchoredDrawing.v0", "past n", lambda: AnchoredDrawing(HC8, 8, tuple(range(8))),
            InvalidSelection, "anchor 8 out of range"),
    refused("anchored_view.v0", "float", lambda: anchored_view(HC8, 0.0),
            InvalidSelection, "anchor 0.0 out of range"),
    refused("anchored_view.v0", "bool", lambda: anchored_view(gen_convex(5), True),
            InvalidSelection, "anchor True out of range"),
    refused("anchored_view.v0", "negative", lambda: anchored_view(HC8, -1),
            InvalidSelection, "anchor -1 out of range"),
    refused("theta.i", "float", lambda: theta(AD8, 1.0),
            InvalidSelection, "position 1.0 out of range"),
    refused("theta.i", "bool", lambda: theta(AD8, True),
            InvalidSelection, "position True out of range"),
    refused("theta.i", "the anchor", lambda: theta(AD8, 0),
            InvalidSelection, "position 0 out of range"),
    refused("edge_index.i", "bool", lambda: edge_index(True, 2, 3),
            InvalidEdge, "edge (True,2) invalid for n=3"),
    refused("edge_index.i", "float", lambda: edge_index(1.0, 2, 3),
            InvalidEdge, "edge (1.0,2) invalid for n=3"),
    refused("edge_index.i", "negative", lambda: edge_index(-1, 2, 3),
            InvalidEdge, "edge (-1,2) invalid for n=3"),
    refused("edge_index.j", "bool", lambda: edge_index(0, True, 3),
            InvalidEdge, "edge (0,True) invalid for n=3"),
    refused("edge_index.j", "float", lambda: edge_index(0, 2.0, 3),
            InvalidEdge, "edge (0,2.0) invalid for n=3"),
    refused("edge_index.j", "past n", lambda: edge_index(0, 3, 3),
            InvalidEdge, "edge (0,3) invalid for n=3"),
    # (1.0, 2) hashes as (1, 2), so a memoized pair must not answer a float
    refused("ChiCache.get", "float after its pair", lambda: (
        (cache := ChiCache(AD8)).get(1, 2, 3) and cache.get(1.0, 2, 3)),
            InvalidTriple, "positions (1.0, 2, 3) invalid for n=8"),
    refused("ChiCache.get", "bool", lambda: ChiCache(AD8).get(True, 2, 3),
            InvalidTriple, "positions (True, 2, 3) invalid for n=8"),
    refused("PhiTable.value", "float", lambda: phi_table(AD8).value(1.0, 3),
            InvalidTriple, "pair (1.0,3) invalid for n=8"),
    refused("PhiTable.value", "bool", lambda: phi_table(AD8).value(True, 3),
            InvalidTriple, "pair (True,3) invalid for n=8"),
    refused("PhiTable.column", "float", lambda: phi_table(AD8).column(1.0),
            InvalidTriple, "column 1.0 invalid for n=8"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_a_bad_argument_is_refused_by_name(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


# a record holds what was computed and a formula reads any number, so no
# count of theirs is refused
UNCHECKED = {
    "GameTranscript": "a record of a game that run_game has already checked",
    "PhiValue": "a record of a pair value that PhiTable computes",
    "paper_r_bound": "a formula of m, required_n's default r_bound",
    "naive_r_bound": "a formula of m, an r_bound for required_n",
}


def test_every_int_parameter_of_the_api_has_a_refusal_row():
    rows = {param.id.split(":")[0] for param in REFUSALS}
    missing = [
        f"{name}.{param}"
        for name in sorted(set(cstg.__all__) - set(UNCHECKED))
        if callable(getattr(cstg, name))
        for param, spec in inspect.signature(getattr(cstg, name)).parameters.items()
        if spec.annotation in ("int", "Optional[int]") and f"{name}.{param}" not in rows
    ]
    assert missing == []


class TestVerifyCertificate:
    def test_generator_identities(self):
        for m in list(range(2, 20)) + [33, 64]:
            assert verify_certificate(gen_convex(m), Certificate(CONVEX, tuple(range(m)))).ok
            assert verify_certificate(gen_twisted(m), Certificate(TWISTED, tuple(range(m)))).ok

    def test_convex_on_twisted_fails_at_first_tuple(self):
        report = verify_certificate(gen_twisted(5), Certificate(CONVEX, (0, 1, 2, 3, 4)))
        assert not report.ok
        assert report.failing_tuple == (0, 1, 2, 3)

    def test_a_report_is_as_true_as_its_ok(self):
        # `if verify_certificate(d, c):` must not pass a failing certificate
        assert not verify_certificate(gen_twisted(5), Certificate(CONVEX, (0, 1, 2, 3, 4)))
        assert verify_certificate(gen_twisted(5), Certificate(TWISTED, (0, 1, 2, 3, 4)))

    def test_twisted_spine_is_a_plane_path(self):
        # consecutive index intervals are never nested
        report = verify_certificate(gen_twisted(5), Certificate(PLANE_PATH, (0, 1, 2, 3, 4)))
        assert report.ok

    def test_hull_path_is_plane_in_convex(self):
        report = verify_certificate(gen_convex(6), Certificate(PLANE_PATH, (0, 1, 2, 3, 4, 5)))
        assert report.ok

    def test_plane_bipartite(self):
        # half-circle star: center 0 uses upper arcs, center 1 lower arcs;
        # opposite half-planes never cross, same-center edges share a vertex
        n = 6
        signs = ["U"] * (n * (n - 1) // 2)
        for leaf in range(2, n):
            signs[edge_index(1, leaf, n)] = "L"
        d = Drawing(n=n, model="halfcircle", signs="".join(signs))
        cert = Certificate(PLANE_BIPARTITE, (0, 1, 2, 3, 4, 5))
        assert verify_certificate(d, cert).ok

    def test_convex_has_no_plane_two_three_star(self):
        # two leaves always land on one arc between the centers and cross
        d = gen_convex(8)
        for centers in itertools.combinations(range(8), 2):
            for leaves in itertools.combinations(
                [v for v in range(8) if v not in centers], 3
            ):
                cert = Certificate(PLANE_BIPARTITE, centers + leaves)
                assert not verify_certificate(d, cert).ok

    def test_malformed_certificates(self):
        with pytest.raises(InvalidCertificate):
            Certificate(CONVEX, (0, 0, 1))
        with pytest.raises(InvalidCertificate):
            Certificate("weird", (0, 1))
        with pytest.raises(InvalidCertificate):
            verify_certificate(gen_convex(4), Certificate(CONVEX, (0, 1, 9)))

    @pytest.mark.parametrize("kind, vertices, bad", [
        (PLANE_PATH, (0.5, 1), "0.5"),
        (PLANE_PATH, (True, 2), "True"),
        (CONVEX, (0.0, 1, 2, 3), "0.0"),
        (CONVEX, (0, 1, 2, "3"), "'3'"),
    ])
    def test_certificate_vertices_are_exact_ints(self, kind, vertices, bad):
        with pytest.raises(InvalidCertificate) as info:
            verify_certificate(gen_convex(8), Certificate(kind, vertices))
        assert str(info.value) == f"certificate vertex {bad} is not a non-negative integer"
        with pytest.raises(InvalidCertificate, match="are not a tuple"):
            Certificate(kind, list(range(4)))

    def test_a_star_needs_two_centres_and_a_leaf(self):
        with pytest.raises(InvalidCertificate) as info:
            Certificate(PLANE_BIPARTITE, (0, 1))
        assert str(info.value) == "plane_bipartite certificate needs at least 3 vertices"

    def test_small_patterns_trivially_pass(self):
        d = gen_halfcircle(6, seed=0)
        for kind in (CONVEX, TWISTED):
            for vs in ((0,), (0, 1), (0, 1, 2)):
                assert verify_certificate(d, Certificate(kind, vs)).ok


class TestCheckPlaneEdges:
    def test_reports_first_crossing(self):
        d = gen_convex(4)
        bad = check_plane_edges(d, [(0, 2), (1, 3)])
        assert bad == ((0, 2), (1, 3))
        assert check_plane_edges(d, [(0, 1), (1, 2), (2, 3)]) is None

    @pytest.mark.parametrize("name", sorted(RESTRICTION_SOURCES))
    def test_first_pair_matches_the_reference(self, name):
        # the first crossing pair in the order the edges are given, or None
        d = RESTRICTION_SOURCES[name]
        f = crossing_function(d)
        rng = random.Random(name)
        pairs = all_pairs(d.n)
        for _ in range(20):
            edges = [e[::-1] if rng.random() < 0.5 else e for e in rng.sample(pairs, 6)]
            want = next(
                (
                    (sorted_pair(*e1), sorted_pair(*e2))
                    for e1, e2 in itertools.combinations(edges, 2)
                    if not set(e1) & set(e2) and f(*sorted_pair(*e1), *sorted_pair(*e2))
                ),
                None,
            )
            assert check_plane_edges(d, edges) == want, edges


def position_of(ad, v):
    """Anchored position of base vertex v: the inverse of ``vertex_at``."""
    return 0 if v == ad.v0 else ad.order.index(v) + 1


class TestAnchoredDrawing:
    def test_order_must_be_permutation(self):
        d = gen_convex(5)
        with pytest.raises(InvalidSelection):
            AnchoredDrawing(base=d, v0=0, order=(1, 2, 3))
        with pytest.raises(InvalidSelection):
            AnchoredDrawing(base=d, v0=0, order=(1, 2, 3, 3))

    @pytest.mark.parametrize("v0", [-1, 5])
    def test_anchor_must_be_a_vertex(self, v0):
        with pytest.raises(InvalidSelection) as info:
            AnchoredDrawing(base=gen_convex(5), v0=v0, order=(1, 2, 3, 4))
        assert str(info.value) == f"anchor {v0} out of range"

    def test_positions(self):
        d = gen_convex(5)
        ad = AnchoredDrawing(base=d, v0=2, order=(1, 0, 4, 3))
        assert ad.vertex_at(0) == 2
        assert ad.vertex_at(1) == 1
        assert position_of(ad, 4) == 3
        assert position_of(ad, 2) == 0


# -- explicit tables as rank bitsets --------------------------------------------


def bitset_sources():
    """Explicit restrictions at small n, and the drawings they restrict."""
    rng = random.Random(4201)
    for name, d in (
        ("convex 9", gen_convex(9)),
        ("twisted 9", gen_twisted(9)),
        ("halfcircle 10", gen_halfcircle(10, seed=6)),
        ("horton 16", gen_straightline(gen_horton(4))),
    ):
        vs = rng.sample(range(d.n), rng.randint(7, min(d.n, 10)))
        yield name, (d, vs, induced_subdrawing(d, vs))


BITSET_SOURCES = dict(bitset_sources())


class TestRankBitsets:
    @pytest.mark.parametrize("name", sorted(BITSET_SOURCES))
    def test_every_order_reads_the_source_kernel(self, name):
        # under the identity and random non-identity orders, the bitset
        # kernel of a restriction answers as the source's kernel does on the
        # same vertices, on every ordered triple
        d, vs, x = BITSET_SOURCES[name]
        rng = random.Random(name)
        orders = [range(x.n), range(x.n - 1, -1, -1)]
        orders += [rng.sample(range(x.n), k) for k in (x.n, x.n, x.n - 1, 5, 3)]
        for order in orders:
            order = tuple(order)
            N = crossing_masks(x, order)
            M = crossing_masks(d, [vs[v] for v in order])
            for a, b, c in itertools.permutations(order, 3):
                assert N(a, b, c) == M(vs[a], vs[b], vs[c]), (order, a, b, c)

    @pytest.mark.parametrize("name", sorted(BITSET_SOURCES))
    def test_cross_is_membership_in_the_table(self, name):
        _, _, x = BITSET_SOURCES[name]
        tables = [x, random_explicit(random.Random(name), 9, density=0.4)]
        for t in tables:
            table = frozenset(crossing_pairs(t))
            for e1, e2 in independent_pairs(t.n):
                want = sorted_pair(edge_index(*e1, t.n), edge_index(*e2, t.n)) in table
                assert cross(t, e1, e2) is want, (e1, e2)
                assert cross(t, e2, e1[::-1]) is want, (e1, e2)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 10])
    def test_pairs_are_listed_in_rank_order_and_build_the_same_rows(self, n):
        # crossing_pairs lists each crossing pair (r1 < r2) once, in rank
        # order, and a drawing built from that list holds equal rows, so it
        # is equal to its source and hashes alike
        rng = random.Random(4211 + n)
        d = random_explicit(rng, n, density=rng.choice([0.1, 0.5, 0.9]))
        listed = list(crossing_pairs(d))
        assert listed == sorted(set(listed))
        assert set(listed) == {
            sorted_pair(edge_index(*e1, n), edge_index(*e2, n))
            for e1, e2 in independent_pairs(n) if cross(d, e1, e2)
        }
        again = Drawing(n=n, model="explicit", crossings=listed)
        assert again.crossings.bits == d.crossings.bits
        assert again == d and hash(again) == hash(d)

    # a set-style read of the table raises rather than answering for a set
    @pytest.mark.parametrize("read", [
        lambda t: (1, 4) in t,
        lambda t: t | {(1, 4)},
        lambda t: t - {(1, 4)},
        lambda t: {(1, 4)} <= t,
        len,
        list,
    ], ids=["in", "or", "minus", "subset", "len", "iter"])
    def test_the_table_is_not_a_set(self, read):
        d = Drawing(n=4, model="explicit", crossings=[(1, 4)])
        with pytest.raises(TypeError):
            read(d.crossings)

    def test_rows_of_another_n_are_refused(self):
        rows = Drawing(n=4, model="explicit", crossings=[(1, 4)]).crossings
        with pytest.raises(ValidationError) as info:
            Drawing(n=5, model="explicit", crossings=rows)
        message = str(info.value)
        assert message == "field 'crossings' of type _Crossings is not a collection of rank pairs"
        assert "0x" not in message


# -- collinearity against the cubic scan ----------------------------------------


def planted_points(rng, n, bound, lines):
    """n distinct random points with `lines` collinear triples planted on
    horizontal, vertical and negative-slope lines."""
    while True:
        pts = [(rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(n)]
        for _ in range(lines):
            dx, dy = rng.choice([(1, 0), (0, 1), (rng.randint(1, 9), -rng.randint(1, 9))])
            x0, y0 = rng.randint(-bound, bound), rng.randint(-bound, bound)
            for idx, t in zip(rng.sample(range(n), 3), rng.sample(range(-9, 10), 3)):
                pts[idx] = (x0 + t * dx, y0 + t * dy)
        if len(set(pts)) == n:
            return tuple(pts)


def collinear_message(pts):
    try:
        Drawing(n=len(pts), model="points", points=pts)
    except DegenerateInput as exc:
        return str(exc)
    return None


class TestCollinearity:
    @pytest.mark.parametrize("bound", [3, 1000, 10**12, 2**70])
    def test_names_the_reference_triple(self, bound):
        rng = random.Random(bound)
        named = 0
        for _ in range(400):
            pts = planted_points(rng, rng.randint(3, 12), bound, rng.randint(0, 3))
            want = reference_collinear(pts)
            assert collinear_message(pts) == want, pts
            named += want is not None
        assert 100 < named < 400

    def test_smallest_class_first_not_first_repeat(self):
        # from vertex 0, direction class {2, 3} repeats first (at 3), but
        # (0, 1, 5) comes first lexicographically
        pts = ((0, 0), (1, 0), (0, 1), (0, 2), (3, 7), (2, 0))
        assert reference_collinear(pts) == "collinear triple (0,1,5)"
        assert collinear_message(pts) == "collinear triple (0,1,5)"

    def test_opposite_directions_are_one_line(self):
        # 1 and 2 lie on either side of 0 on a line of slope -1
        pts = ((0, 0), (4, -4), (-3, 3), (5, 1))
        assert collinear_message(pts) == "collinear triple (0,1,2)"


# -- certificate checks against the 4-tuple scan --------------------------------
#
# verify_certificate as it was before the crossing masks: three predicate
# calls per 4-tuple of positions, in lexicographic order.  Every field of the
# report, the failure text included, must agree.


def reference_verify(d, c):
    vs = c.vertices
    f = crossing_function(d)
    m = len(vs)
    checked = 0
    for a, b, cc, dd in itertools.combinations(range(m), 4):
        checked += 1
        va, vb, vc, vd = vs[a], vs[b], vs[cc], vs[dd]
        mid = f(*sorted_pair(va, vc), *sorted_pair(vb, vd))
        inner = f(*sorted_pair(va, vb), *sorted_pair(vc, vd))
        outer = f(*sorted_pair(va, vd), *sorted_pair(vb, vc))
        if mid != (c.kind == CONVEX) or inner or outer != (c.kind == TWISTED):
            want = "mid" if c.kind == CONVEX else "outer"
            got = [name for name, val in (("mid", mid), ("inner", inner), ("outer", outer)) if val]
            return CertificateReport(
                ok=False,
                kind=c.kind,
                checked=checked,
                failing_tuple=(a, b, cc, dd),
                failure=f"vertices {(va, vb, vc, vd)}: required crossing pattern {want!r}, "
                f"observed {got or ['none']}",
            )
    return CertificateReport(ok=True, kind=c.kind, checked=checked)


def certificate_orders(d, rng):
    """Witnesses of both kinds, subsequences of them, single transpositions,
    reversals and random orders."""
    orders = []
    for kind in (CONVEX, TWISTED):
        witness = list(max_pattern_exact(d, kind).witness)
        orders.append(witness)
        orders.append(witness[::-1])
        if len(witness) > 4:
            keep = sorted(rng.sample(range(len(witness)), len(witness) - 1))
            orders.append([witness[p] for p in keep])
        for _ in range(3):
            swapped = list(witness)
            p, q = rng.sample(range(len(swapped)), 2)
            swapped[p], swapped[q] = swapped[q], swapped[p]
            orders.append(swapped)
    for _ in range(3):
        orders.append(rng.sample(range(d.n), rng.randint(1, d.n)))
    return orders


class TestVerifyEquivalence:
    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_reports_match_the_reference(self, name):
        d = SAMPLES[name]
        rng = random.Random(name)
        verdicts = set()
        for order in certificate_orders(d, rng):
            for kind in (CONVEX, TWISTED):
                c = Certificate(kind, tuple(order))
                report = verify_certificate(d, c)
                assert report == reference_verify(d, c), (kind, order)
                verdicts.add(report.ok)
        assert True in verdicts
        if d.n >= 8:
            assert False in verdicts

    # Reversal maps positions a<b<c<d to d'<c'<b'<a' and each of the mid,
    # inner and outer pairings onto itself, so a certificate and its reverse
    # pass or fail together; extraction verifies a twisted witness once.

    def test_reversal_keeps_the_verdict_on_halfcircle_sequences(self):
        rng = random.Random(1414)
        verdicts = set()
        for seed in range(12):
            d = gen_halfcircle(12, seed=seed)
            orders = [list(max_pattern_exact(d, kind).witness) for kind in (CONVEX, TWISTED)]
            orders += [rng.sample(range(12), rng.randint(4, 12)) for _ in range(40)]
            for order in orders:
                for kind in (CONVEX, TWISTED):
                    ok = verify_certificate(d, Certificate(kind, tuple(order))).ok
                    assert verify_certificate(d, Certificate(kind, tuple(order[::-1]))).ok == ok
                    verdicts.add(ok)
        assert verdicts == {True, False}

    def test_reversal_keeps_the_verdict_on_every_5_permutation(self):
        # each permutation is met once as p or as its reverse; the drawing's
        # own kind passes on some of them (1,260 convex and 252 twisted pairs)
        for d in (gen_convex(10), gen_twisted(10)):
            passed = 0
            for kind in (CONVEX, TWISTED):
                for p in itertools.permutations(range(10), 5):
                    if p < p[::-1]:
                        ok = verify_certificate(d, Certificate(kind, p)).ok
                        assert verify_certificate(d, Certificate(kind, p[::-1])).ok == ok, p
                        passed += ok
            assert passed == (1260 if d.model == CONVEX else 252)

    def test_failures_deep_in_large_certificates(self):
        # the first bad 4-tuple lies far from the start; its count and text
        # must still be the scan's
        rng = random.Random(48)
        for kind, gen in ((CONVEX, gen_convex), (TWISTED, gen_twisted)):
            for d in (gen(20), induced_subdrawing(gen(20), range(20))):
                for _ in range(4):
                    order = list(range(20))
                    p = rng.randrange(10, 19)
                    order[p], order[p + 1] = order[p + 1], order[p]
                    c = Certificate(kind, tuple(order))
                    report = verify_certificate(d, c)
                    assert not report.ok and report.checked > 100
                    assert report == reference_verify(d, c)
