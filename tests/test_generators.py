"""Family generators: crossing rules vs independent geometry, rotations,
anchors, reproducibility."""

import itertools
import math
import random
import re
import tracemalloc

import pytest
from helpers import independent_pairs, reference_halfcircle_signs, spiral_cross
from models import rotations_of

from cstg.chromatics import validate_observation
from cstg.drawing import (
    CONVEX,
    MODELS,
    Drawing,
    cross,
    cyclic_equal,
    edge_index,
    orient,
    sorted_pair,
)
from cstg.errors import (
    AnchorUnavailable,
    DegenerateInput,
    InvalidSelection,
    InvalidSigns,
    RotationMissing,
    SizeLimit,
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
from cstg.oracles import max_pattern_exact


def crossing_count(d):
    return sum(1 for e1, e2 in independent_pairs(d.n) if cross(d, e1, e2))


class TestConvex:
    def test_small_counts(self):
        assert crossing_count(gen_convex(3)) == 0
        assert crossing_count(gen_convex(4)) == 1
        assert cross(gen_convex(4), (0, 2), (1, 3))
        # each 4-subset contributes exactly one interleaving pair
        assert crossing_count(gen_convex(5)) == 5
        assert crossing_count(gen_convex(7)) == math.comb(7, 4)

    def test_matches_exact_segments_on_parabola(self):
        # points (i, i^2) are in convex position in hull order 0..n-1, so the
        # interleaving rule must agree with the exact segment predicate
        n = 12
        d = gen_convex(n)
        pts = gen_straightline([(i, i * i) for i in range(n)])
        for e1, e2 in independent_pairs(n):
            assert cross(d, e1, e2) == cross(pts, e1, e2)

    def test_every_vertex_anchors(self):
        d = gen_convex(7)
        for v in range(7):
            ad = anchored_view(d, v)
            assert ad.v0 == v
            assert validate_observation(ad).ok


class TestTwisted:
    def test_formula_examples(self):
        d = gen_twisted(5)
        assert cross(d, (0, 4), (1, 3)) is True
        assert cross(d, (0, 2), (1, 3)) is False

    def test_crossing_pairs_by_enumeration(self):
        # one nested pairing per 4-subset: C(m,4) crossing pairs in total
        assert crossing_count(gen_twisted(4)) == 1
        assert crossing_count(gen_twisted(5)) == 5
        assert crossing_count(gen_twisted(6)) == math.comb(6, 4)
        assert crossing_count(gen_twisted(2)) == 0

    def test_spiral_route_equals_index_formula(self):
        # dual route: the spiral realization decides crossings from radius
        # differences at the sweep ends, independently of the index rule
        for m in (4, 6, 9, 13):
            d = gen_twisted(m)
            radii = tuple(range(1, m + 1))
            for e1, e2 in independent_pairs(m):
                assert spiral_cross(radii, e1, e2) == cross(d, e1, e2)

    def test_anchor_is_outermost_only(self):
        d = gen_twisted(6)
        assert anchored_view(d).v0 == 5
        with pytest.raises(AnchorUnavailable):
            anchored_view(d, 2)


def circles_intersect_strictly(c1, r1, c2, r2):
    # numeric oracle: two circles centered on the x-axis cross off-axis
    d = abs(c2 - c1)
    if d == 0:
        return False
    x = (c1 + c2) / 2 + (r1 * r1 - r2 * r2) / (2 * (c2 - c1))
    y_sq = r1 * r1 - (x - c1) ** 2
    return y_sq > 1e-12


class TestHalfCircle:
    def test_same_side_interleaving_crosses(self):
        n = 6
        d = Drawing(n=n, model="halfcircle", signs="U" * 15)
        # labels 1,3 and 2,4 (0-based: x positions 2,4 and 3,5)
        assert cross(d, (1, 3), (2, 4)) is True
        assert cross(d, (0, 3), (1, 2)) is False  # nested same side

    def test_against_circle_intersection_oracle(self):
        for seed in range(10):
            d = gen_halfcircle(7, seed=seed)
            xs = [v + 1.0 for v in range(7)]
            for (a, b), (c, e) in independent_pairs(7):
                same = d.signs[edge_index(a, b, 7)] == d.signs[edge_index(c, e, 7)]
                expected = same and circles_intersect_strictly(
                    (xs[a] + xs[b]) / 2,
                    (xs[b] - xs[a]) / 2,
                    (xs[c] + xs[e]) / 2,
                    (xs[e] - xs[c]) / 2,
                )
                assert cross(d, (a, b), (c, e)) == expected

    def test_seeded_generation_is_reproducible(self):
        a = gen_halfcircle(20, seed=42)
        b = gen_halfcircle(20, seed=42)
        assert a.signs == b.signs
        assert gen_halfcircle(20, seed=43).signs != a.signs
        # no seed is seed 0, as under the CLI, not a seed from the OS
        assert gen_halfcircle(20) == gen_halfcircle(20, seed=0)

    # C(364, 2) = 66,066 signs cross the 2^16-sign piece boundary
    @pytest.mark.parametrize("seed", [0, 1, 2**40 + 3])
    @pytest.mark.parametrize("n", [2, 3, 17, 364, 1024])
    def test_signs_are_the_top_bits_drawn_one_per_call(self, n, seed):
        assert gen_halfcircle(n, seed).signs == reference_halfcircle_signs(n, seed)

    def test_peak_memory_is_near_three_sign_strings(self):
        tracemalloc.start()
        try:
            d = gen_halfcircle(2048, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(d.signs) == 2_096_128
        assert peak <= 3.5 * len(d.signs)

    def test_sign_length_validation(self):
        with pytest.raises(InvalidSigns):
            Drawing(n=5, model="halfcircle", signs="UUU")
        with pytest.raises(InvalidSigns):
            Drawing(n=3, model="halfcircle", signs="UXL")

    def test_sign_reads_match_edge_index(self):
        # reference: each sign read through the checked edge_index
        for n in range(2, 41):
            for seed in range(5):
                d = gen_halfcircle(n, seed=seed)

                def up(v):
                    return [
                        j for j in range(n)
                        if j != v and d.signs[edge_index(*sorted_pair(v, j), n)] == "U"
                    ]

                for v in range(n):
                    upper = up(v)
                    lower = [j for j in range(n) if j != v and j not in upper]
                    assert rotation_at(d, v) == tuple(
                        [j for j in upper if j > v] + [j for j in upper if j < v]
                        + [j for j in lower if j < v][::-1]
                        + [j for j in lower if j > v][::-1]
                    )
                lower0 = [j for j in range(1, n) if j not in up(0)]
                assert anchored_view(d, 0).order == tuple(up(0)[::-1] + lower0)

    def test_anchored_order_upper_desc_then_lower_asc(self):
        n = 5
        signs = ["L"] * 10
        for j in (1, 3):  # edges 0-1 and 0-3 upper, 0-2 and 0-4 lower
            signs[edge_index(0, j, n)] = "U"
        d = Drawing(n=n, model="halfcircle", signs="".join(signs))
        assert anchored_view(d, 0).order == (3, 1, 2, 4)
        with pytest.raises(AnchorUnavailable):
            anchored_view(d, 1)


class TestStraightLine:
    def test_convex_position_matches_gen_convex(self):
        pts = [(10, 0), (0, 10), (-10, 0), (0, -10)]
        d = gen_straightline(pts)
        c = gen_convex(4)
        for e1, e2 in independent_pairs(4):
            assert cross(d, e1, e2) == cross(c, e1, e2)

    def test_point_inside_triangle_has_no_crossings(self):
        d = gen_straightline([(0, 0), (10, 0), (5, 9), (5, 3)])
        assert crossing_count(d) == 0

    def test_collinear_triple_rejected_with_names(self):
        with pytest.raises(DegenerateInput, match=r"\(0,1,2\)"):
            gen_straightline([(0, 0), (1, 1), (2, 2), (5, 0)])

    def test_duplicate_point_rejected(self):
        with pytest.raises(DegenerateInput, match="duplicate"):
            gen_straightline([(0, 0), (1, 2), (0, 0)])

    @pytest.mark.parametrize("point", [(1.5, 2), (True, 2), ("0", 2)])
    def test_non_integer_point_is_refused_not_moved(self, point):
        # int() would have moved (1.5, 2) and (True, 2) to (1, 2)
        with pytest.raises(InvalidSelection, match=rf"point 1 {re.escape(repr(point))} "):
            gen_straightline([(0, 0), point, (3, 1)])

    def test_anchors_exactly_at_hull_vertices(self):
        # reference: a point is on the hull iff it lies in no triangle of
        # three other points
        def in_triangle(p, a, b, c):
            signs = {orient(a, b, p) > 0, orient(b, c, p) > 0, orient(c, a, p) > 0}
            return len(signs) == 1

        rng = random.Random(19)
        drawn = 0
        while drawn < 300:
            n = rng.randint(2, 12)
            pts = [(rng.randint(-30, 30), rng.randint(-30, 30)) for _ in range(n)]
            try:
                d = gen_straightline(pts)
            except DegenerateInput:
                continue
            drawn += 1
            for v in range(n):
                others = [pts[u] for u in range(n) if u != v]
                inside = any(
                    in_triangle(pts[v], *tri) for tri in itertools.combinations(others, 3)
                )
                if inside:
                    with pytest.raises(AnchorUnavailable, match=f"point {v} is not a hull vertex"):
                        anchored_view(d, v)
                else:
                    ad = anchored_view(d, v)
                    assert cyclic_equal(ad.order[::-1], rotation_at(d, v))

    def test_two_and_three_points_anchor(self):
        assert anchored_view(gen_straightline([(0, 0), (1, 0)]), 0).order == (1,)
        assert anchored_view(gen_straightline([(0, 0), (1, 0)]), 1).order == (0,)
        triangle = gen_straightline([(0, 0), (4, 0), (1, 3)])
        # clockwise around each corner, from the outside
        assert [anchored_view(triangle, v).order for v in range(3)] == [(2, 1), (0, 2), (1, 0)]

    def test_anchor_must_be_on_hull(self):
        d = gen_straightline([(0, 0), (10, 0), (5, 9), (5, 3)])
        assert anchored_view(d).v0 == 0
        with pytest.raises(AnchorUnavailable):
            anchored_view(d, 3)  # interior point


class TestHorton:
    def test_sizes(self):
        assert len(gen_horton(0)) == 1
        assert len(gen_horton(1)) == 2
        assert len(gen_horton(3)) == 8
        with pytest.raises(SizeLimit):
            gen_horton(13)

    def test_general_position_up_to_k10(self):
        for k in range(1, 11):
            pts = gen_horton(k)
            gen_straightline(pts)  # validates pairwise distinct + no collinear

    @pytest.mark.parametrize("k,size,nodes", [(3, 6, 80), (4, 10, 1724)])
    def test_max_convex_subset(self, k, size, nodes):
        # exact search: a Horton set has no empty convex 7-gon, but it does
        # have large subsets in convex position
        result = max_pattern_exact(gen_straightline(gen_horton(k)), CONVEX)
        assert (result.size, result.exact, result.nodes) == (size, True, nodes)


class TestAnchoredViews:
    def test_observation_holds_for_every_generator(self):
        drawings = [
            gen_convex(32),
            gen_twisted(32),
            gen_halfcircle(16, seed=7),
            gen_halfcircle(32, seed=3),
            gen_straightline(gen_horton(4)),
        ]
        for d in drawings:
            ad = anchored_view(d)
            assert validate_observation(ad).ok, d.model

    def test_bare_drawing_draws_the_rotation_at_v0_once(self, monkeypatch):
        # the drawn order reads the drawn rotation by construction, so a
        # drawing that stores neither rotations nor an anchor is not checked
        calls = []
        model = MODELS["halfcircle"]
        drawn = model.rotation

        def counted(d, v):
            calls.append(v)
            return drawn(d, v)

        monkeypatch.setattr(model, "rotation", counted)
        d = gen_halfcircle(96, seed=1)
        assert anchored_view(d).order == anchored_view(d, 0).order
        assert calls == [0, 0]  # one per view

    def test_stored_anchor_is_checked_against_the_drawn_rotation(self):
        # no stored rotations: a stored anchor must still read the drawn one
        assert anchored_view(Drawing(n=4, model="convex", anchor=(0, (3, 2, 1)))).order == (
            3, 2, 1
        )
        with pytest.raises(InvalidSelection, match="not a clockwise reading"):
            Drawing(n=4, model="convex", anchor=(0, (1, 2, 3)))

    def test_rotation_missing_for_bare_explicit(self):
        d = Drawing(n=4, model="explicit", crossings=frozenset())
        with pytest.raises(RotationMissing):
            anchored_view(d, 0)

    def test_bare_explicit_reports_the_rotation_rule(self):
        # anchored_view has no rotation rule of its own: rotation_at's
        # message, or AnchorUnavailable when rotations exist
        d = Drawing(n=4, model="explicit", crossings=frozenset())
        for call in (anchored_view, rotation_at):
            with pytest.raises(RotationMissing) as info:
                call(d, 0)
            assert str(info.value) == "explicit drawing carries no rotation data"
        rotated = Drawing(
            n=4, model="explicit", crossings=frozenset(), rotations=rotations_of(gen_convex(4))
        )
        with pytest.raises(AnchorUnavailable, match="vertex 0 is not certified"):
            anchored_view(rotated, 0)
