"""Brute-force searches and the numeric rotation oracle."""

import itertools
import random

import helpers
import pytest
from helpers import full_order_max_pattern, numeric_rotation_oracle
from models import (
    SAMPLES,
    crossing_function,
    halfcircle_seeds,
    random_explicit,
    random_points,
    rotations_of,
)

from cstg import oracles
from cstg.drawing import (
    CONVEX,
    TWISTED,
    Certificate,
    Drawing,
    cross,
    crossing_masks,
    cyclic_equal,
    edge_index,
    induced_subdrawing,
    pattern_fit,
    sorted_pair,
    verify_certificate,
)
from cstg.errors import BudgetExhausted, DegenerateInput, GeometryMissing, InvalidSelection
from cstg.extraction import extract_pattern
from cstg.generators import (
    anchored_view,
    gen_convex,
    gen_halfcircle,
    gen_horton,
    gen_straightline,
    gen_twisted,
)
from cstg.oracles import (
    OracleBudget,
    OracleResult,
    _Clock,
    longest_plane_path_exact,
    max_pattern_exact,
)
from cstg.planepath import extract_plane_path


class TestMaxPattern:
    def test_unknown_kind_is_refused(self):
        with pytest.raises(InvalidSelection) as info:
            max_pattern_exact(gen_convex(6), "plane_path")
        assert str(info.value) == "kind must be 'convex' or 'twisted'"

    def test_whole_drawing_is_its_own_pattern(self):
        assert max_pattern_exact(gen_convex(6), CONVEX).size == 6
        assert max_pattern_exact(gen_twisted(6), TWISTED).size == 6

    def test_twisted_has_no_big_convex_pattern(self):
        # reordering buys a 4-point convex pattern (e.g. 1,2,4,3) but no more
        assert max_pattern_exact(gen_twisted(6), CONVEX).size == 4
        assert max_pattern_exact(gen_twisted(8), CONVEX).size == 4

    def test_convex_has_no_big_twisted_pattern(self):
        result = max_pattern_exact(gen_convex(8), TWISTED)
        assert result.size == 4

    def test_witnesses_verify(self):
        for seed in range(8):
            d = gen_halfcircle(10, seed=seed)
            for kind in (CONVEX, TWISTED):
                result = max_pattern_exact(d, kind)
                cert = Certificate(kind, result.witness)
                assert verify_certificate(d, cert).ok
                assert result.exact

    def test_monotone_under_restriction(self):
        d = gen_halfcircle(10, seed=5)
        sub = induced_subdrawing(d, [0, 2, 3, 5, 7, 8, 9])
        for kind in (CONVEX, TWISTED):
            assert (
                max_pattern_exact(sub, kind).size
                <= max_pattern_exact(d, kind).size
            )

    def test_budget_exhaustion_carries_best(self):
        with pytest.raises(BudgetExhausted) as info:
            max_pattern_exact(gen_halfcircle(14, seed=0), CONVEX, OracleBudget(nodes=5))
        payload = info.value.payload
        assert not payload.exact
        assert payload.size >= 1

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"seconds": True}, "time budget must be a number, got True"),
            ({"seconds": "5"}, "time budget must be a number, got '5'"),
            ({"seconds": float("nan")}, "time budget must be positive"),
        ],
    )
    def test_a_budget_that_is_no_positive_number_is_refused(self, kwargs, message):
        with pytest.raises(InvalidSelection) as info:
            OracleBudget(**kwargs)
        assert str(info.value) == message

    def test_an_int_time_budget_is_a_number(self):
        d = gen_twisted(8)
        assert max_pattern_exact(d, CONVEX, OracleBudget(seconds=60, nodes=10**6)) == (
            max_pattern_exact(d, CONVEX)
        )

    def test_infinite_time_budget_is_no_limit(self):
        # the positivity check must let inf through (NaN is refused)
        d = gen_twisted(8)
        assert max_pattern_exact(d, CONVEX, OracleBudget(seconds=float("inf"))) == (
            max_pattern_exact(d, CONVEX)
        )

    def test_whole_pattern_costs_one_node_per_vertex(self):
        # the identity order is found first; after it every node's bound
        # len(seq) + |consistent candidates| equals n, so nothing else ticks
        for n in (5, 9, 13):
            assert max_pattern_exact(gen_convex(n), CONVEX).nodes == n
            assert max_pattern_exact(gen_twisted(n), TWISTED).nodes == n

    @pytest.mark.parametrize(
        "d",
        [gen_halfcircle(12, seed=1), gen_halfcircle(16, seed=4), gen_convex(9), gen_twisted(9)],
        ids=["halfcircle-12-1", "halfcircle-16-4", "convex-9", "twisted-9"],
    )
    def test_budget_of_exactly_the_node_count(self, d):
        # one tick per consistent extension: a budget of N nodes finishes a
        # search that expands N, and N - 1 stops on the N-th tick
        for kind in (CONVEX, TWISTED):
            full = max_pattern_exact(d, kind)
            assert full.exact and full.nodes >= 2
            assert max_pattern_exact(d, kind, OracleBudget(nodes=full.nodes)) == full
            with pytest.raises(BudgetExhausted) as info:
                max_pattern_exact(d, kind, OracleBudget(nodes=full.nodes - 1))
            assert info.value.payload.nodes == full.nodes
            assert not info.value.payload.exact


    def test_a_budget_stopped_search_reads_few_masks(self, monkeypatch):
        # rows are built one ordered pair at a time, each entry read once: a
        # search that a budget stops after 300 nodes on 100 vertices reads
        # O(n) masks per node, not the n^2 masks of all the rows of a vertex
        d = gen_halfcircle(100, seed=0)
        kernel, reads = oracles.crossing_masks, 0

        def counting(d):
            N = kernel(d)

            def counted(a, b, c):
                nonlocal reads
                reads += 1
                return N(a, b, c)

            return counted

        monkeypatch.setattr(oracles, "crossing_masks", counting)
        for kind in (CONVEX, TWISTED):
            reads = 0
            with pytest.raises(BudgetExhausted):
                max_pattern_exact(d, kind, OracleBudget(nodes=300))
            assert 0 < reads <= 2 * d.n * 300, kind

    def test_time_budget_ends_at_the_first_clock_reading(self, monkeypatch):
        # the clock is read every 1024 nodes; one that jumps 11 s per
        # reading ends a 10 s budget there, before the 1,800 nodes of the
        # full search
        d = gen_halfcircle(24, seed=0)
        assert max_pattern_exact(d, TWISTED).nodes == 1800
        ticks = itertools.count(0.0, 11.0)
        monkeypatch.setattr(oracles.time, "monotonic", lambda: next(ticks))
        with pytest.raises(BudgetExhausted) as info:
            max_pattern_exact(d, TWISTED, OracleBudget(seconds=10))
        assert info.value.payload.nodes == 1024
        assert not info.value.payload.exact


class TestLongestPlanePath:
    @pytest.mark.parametrize(
        "d, budget",
        [
            (gen_convex(12), None),
            (gen_convex(12), OracleBudget(nodes=12)),
            (gen_halfcircle(64, seed=1), None),
        ],
        ids=["convex-12", "convex-12-budget-12", "halfcircle-64-1"],
    )
    def test_stops_at_a_path_through_every_vertex(self, d, budget):
        # the first start's greedy path uses every vertex: one tick per
        # vertex, and no further candidate or start is ticked
        result = longest_plane_path_exact(d, budget)
        assert result.size == d.n and result.nodes == d.n and result.exact

    def test_small_families(self):
        assert longest_plane_path_exact(gen_convex(5)).size == 5
        assert longest_plane_path_exact(gen_twisted(5)).size == 5
        assert longest_plane_path_exact(gen_convex(2)).size == 2

    def test_twisted_spine_witness(self):
        result = longest_plane_path_exact(gen_twisted(5))
        cert = Certificate("plane_path", result.witness)
        assert verify_certificate(gen_twisted(5), cert).ok

    def test_restriction_and_target(self):
        d = gen_convex(10)
        result = longest_plane_path_exact(d, vertices=[0, 2, 4, 6], target=3)
        assert result.size >= 3
        assert set(result.witness) <= {0, 2, 4, 6}
        assert not result.exact  # stopped at the target

    @pytest.mark.parametrize("target", [4, 5])
    def test_target_met_by_a_path_through_every_vertex_is_exact(self, target):
        # no path beats one through all allowed vertices, target or not
        result = longest_plane_path_exact(gen_convex(10), vertices=[0, 2, 4, 6], target=target)
        assert (result.size, result.witness, result.nodes) == (4, (0, 2, 4, 6), 4)
        assert result.exact

    @pytest.mark.parametrize(
        "crossing, witness",
        [
            # local edges (0,1) x (2,3): read from the row of local vertex 0
            (((1, 3), (4, 6)), (1, 3, 4, 7, 6, 8)),
            # local edges (1,2) x (3,4): read from the row of local vertex 1
            (((3, 4), (6, 7)), (1, 3, 4, 6, 8, 7)),
        ],
    )
    def test_conflict_rows_land_on_local_ranks(self, crossing, witness):
        # one crossing pair among the restricted vertices 1, 3, 4, 6, 7, 8:
        # the witness is the first path in search order that avoids using
        # both edges, so a conflict moved to another local rank changes it
        (e1, e2) = crossing
        pair = (edge_index(*e1, 9), edge_index(*e2, 9))
        d = Drawing(n=9, model="explicit", crossings=frozenset({pair}))
        result = longest_plane_path_exact(d, vertices=[8, 1, 3, 4, 6, 7])
        assert result.exact and result.witness == witness

    def test_witness_always_plane(self):
        for seed in range(6):
            d = gen_halfcircle(9, seed=seed)
            result = longest_plane_path_exact(d)
            cert = Certificate("plane_path", result.witness)
            assert verify_certificate(d, cert).ok


class TestNumericRotations:
    def test_agrees_with_analytic_all_families(self):
        drawings = [
            gen_convex(9),
            gen_convex(11),
            gen_twisted(9),
            gen_twisted(11),
            gen_halfcircle(9, seed=0),
            gen_halfcircle(9, seed=7),
            gen_halfcircle(11, seed=13),
            *(gen_halfcircle(8, seed=seed) for seed in range(25)),
            gen_straightline(gen_horton(3)),
            gen_straightline([(0, 0), (7, 2), (5, 9), (-3, 4), (2, -6), (9, -1)]),
        ]
        for d in drawings:
            numeric = numeric_rotation_oracle(d)
            for v, rotation in enumerate(rotations_of(d)):
                assert cyclic_equal(numeric[v], rotation), (d.model, v)

    def test_duplicate_positions_degenerate(self):
        # distinct integer points that round to one float position: the
        # drawing is valid, its float realisation is not
        d = Drawing(n=2, model="points", points=((2**60, 0), (2**60 + 1, 0)))
        with pytest.raises(DegenerateInput, match="duplicate vertex positions"):
            numeric_rotation_oracle(d)

    def test_germs_that_stay_together_are_degenerate(self, monkeypatch):
        # the germs of 0-1 and 0-2 coincide at every distance: the search
        # halves it up to its retry cap, then gives up
        germ = helpers._germ_point

        def merged(model, d, pos, v, u, eps):
            return germ(model, d, pos, v, 1 if (v, u) == (0, 2) else u, eps)

        monkeypatch.setattr(helpers, "_germ_point", merged)
        with pytest.raises(DegenerateInput) as info:
            numeric_rotation_oracle(gen_convex(5))
        assert str(info.value) == (
            "germs at vertex 0 remain indistinguishable after 40 retries"
        )

    def test_exact_duplicate_fails_at_construction(self):
        with pytest.raises(DegenerateInput, match=r"duplicate point \(0, 0\)"):
            Drawing(n=2, model="points", points=((0, 0), (0, 0)))

    def test_geometry_missing_for_explicit(self):
        d = Drawing(n=4, model="explicit", crossings=frozenset())
        with pytest.raises(GeometryMissing):
            numeric_rotation_oracle(d)


def no_twisted_five_drawings():
    for n in (32, 64):
        for seed in (0, 1):
            yield f"halfcircle {n} seed {seed}", gen_halfcircle(n, seed=seed)
    yield "horton 32", gen_straightline(gen_horton(5))
    for seed in range(3):
        yield f"points 40 seed {seed}", random_points(random.Random(seed), 40, 1000)


class TestNoTwistedFive:
    # C5 and T5 are the two five-crossing classes of K5, and in half-circle
    # and straight-line drawings every five-crossing 5-subset is C5, so the
    # twisted maximum there is 4 once some K4 crosses (the oracles docstring)
    @pytest.mark.parametrize("name,d", list(no_twisted_five_drawings()))
    def test_twisted_maximum_is_four(self, name, d):
        result = max_pattern_exact(d, TWISTED, OracleBudget(nodes=50_000))
        assert (result.size, result.exact) == (4, True)

    def test_five_crossing_subsets_of_halfcircles_are_convex_in_line_order(self):
        found = 0
        for seed in range(20):
            d = gen_halfcircle(9, seed=seed)
            for sub in itertools.combinations(range(9), 5):
                pairs = itertools.combinations(itertools.combinations(sub, 2), 2)
                if sum(cross(d, e, f) for e, f in pairs if not set(e) & set(f)) == 5:
                    found += 1
                    assert verify_certificate(d, Certificate(CONVEX, sub)).ok, (seed, sub)
        assert found == 148


class TestDominance:
    def test_extraction_below_oracle(self):
        for seed in range(6):
            d = gen_halfcircle(10, seed=seed)
            ad = anchored_view(d)
            out = extract_pattern(ad, 3, 3)
            if out.certificate is not None:
                oracle = max_pattern_exact(d, out.certificate.kind)
                assert len(out.certificate.vertices) <= oracle.size
            path_out = extract_plane_path(ad, m_override=2)
            oracle_path = longest_plane_path_exact(d)
            assert path_out.vertex_count <= oracle_path.size


# -- reference kernels ---------------------------------------------------------
#
# The searches without the mask kernels: one crossing-predicate scan over
# every 4-tuple of the sequence that holds the candidate, and frozenset
# conflict sets for the plane path.  The pattern search lists the children
# of a node in the kernel's visiting order (the first vertex ascending, the
# last descending, then the middle ascending), ticks once per child and
# stops a node once the sequence plus the vertices that may still join
# cannot beat the best; past the first two vertices the twisted kind counts
# the classes of a greedy colouring of those vertices in their place, from
# lists.  Same visiting order, clock ticks and bounds as the kernels, so
# every field of the result must agree, also on exhausted budgets.


def reference_max_pattern(d, kind, budget=None, record=None):
    """``record``, a list, gets the best sequence as a tuple before each tick."""
    f = crossing_function(d)
    n = d.n
    convex = kind == CONVEX
    clock = _Clock(budget)
    best = []

    def shows(a, b, c, e):
        # in this order, the middle pairing crosses (convex) or the outer
        # one (twisted), and no other
        middle = f(*sorted_pair(a, c), *sorted_pair(b, e))
        outer = f(*sorted_pair(a, e), *sorted_pair(b, c))
        inner = f(*sorted_pair(a, b), *sorted_pair(c, e))
        return (middle, outer, inner) == ((True, False, False) if convex else (False, True, False))

    def children(seq):
        # the next sequences in visiting order, and how many vertices may join
        if not seq:
            return [[v] for v in range(n)], n
        pool = [w for w in range(n) if w not in seq and (w > seq[0] or not convex)]
        if len(seq) == 1:
            return [seq + [w] for w in reversed(pool) if w > seq[0]], len(pool)
        grown = [seq[:-1] + [w, seq[-1]] for w in pool]
        grown = [s for s in grown
                 if all(shows(*q) for q in itertools.combinations(s, 4) if s[-2] in q)]
        free = len(grown) if convex else colours(seq[0], [s[-2] for s in grown], seq[-1])
        # convex: the first middle vertex lies below the last vertex
        return [s for s in grown if not convex or len(seq) > 2 or s[1] < s[2]], free

    def colours(first, cands, last):
        # the classes of a greedy colouring of cands, ascending, in the graph of the pairs
        # u, w that show (first, u, w, last): no two of a class may both join
        classes = 0
        while cands:
            members = []
            for w in cands:
                if not any(shows(first, u, w, last) for u in members):
                    members.append(w)
            cands = [w for w in cands if w not in members]
            classes += 1
        return classes

    def dfs(seq):
        nonlocal best
        if len(seq) > len(best):
            best = list(seq)
        nexts, free = children(seq)
        for child in nexts:
            if len(seq) + free <= len(best):
                return True
            if record is not None:
                record.append(tuple(best))
            if not clock.tick():
                return False
            if not dfs(child):
                return False
        return True

    completed = dfs([])
    result = OracleResult(len(best), tuple(best), clock.nodes, completed)
    if not completed:
        raise BudgetExhausted("reference search exhausted", payload=result)
    return result


def reference_plane_path(d, budget=None, vertices=None, target=None):
    verts = sorted(vertices) if vertices is not None else list(range(d.n))
    f = crossing_function(d)
    n = d.n
    edge_of = {}
    for x in range(len(verts)):
        for y in range(x + 1, len(verts)):
            a, b = sorted_pair(verts[x], verts[y])
            edge_of[edge_index(a, b, n)] = (a, b)
    conflicts = {}

    def conflicts_of(r):
        if r not in conflicts:
            a, b = edge_of[r]
            bad = set()
            for p in range(len(verts)):
                for q in range(p + 1, len(verts)):
                    vp, vq = verts[p], verts[q]
                    if vp in (a, b) or vq in (a, b):
                        continue
                    if f(vp, vq, a, b):
                        bad.add(edge_index(vp, vq, n))
            conflicts[r] = frozenset(bad)
        return conflicts[r]

    clock = _Clock(budget)
    best = []
    hit_target = False

    def dfs(path, used, used_edges):
        nonlocal best, hit_target
        if len(path) > len(best):
            best = list(path)
            if len(best) == len(verts):  # exact, whatever the target
                return True
            if target is not None and len(best) >= target:
                hit_target = True
                return False
        if len(path) + (len(verts) - len(used)) <= len(best):
            return True
        for w in verts:
            if w in used:
                continue
            if not clock.tick():
                return False
            r = edge_index(*sorted_pair(path[-1], w), n)
            if not conflicts_of(r).isdisjoint(used_edges):
                continue
            path.append(w)
            used.add(w)
            used_edges.add(r)
            ok = dfs(path, used, used_edges)
            path.pop()
            used.remove(w)
            used_edges.remove(r)
            if not ok:
                return False
            if len(best) == len(verts):  # a path through every vertex
                return True
        return True

    completed = True
    for start in verts:
        if not clock.tick() or not dfs([start], {start}, set()):
            completed = False
            break
        if len(best) == len(verts):
            break
    if not best and verts:
        best = [verts[0]]
    result = OracleResult(len(best), tuple(best), clock.nodes, completed)
    if not completed and not hit_target:
        raise BudgetExhausted("reference search exhausted", payload=result)
    return result


def outcome(search, *args, **kwargs):
    """The result, or the payload of an exhausted budget, tagged by which."""
    try:
        return "done", search(*args, **kwargs)
    except BudgetExhausted as exc:
        return "exhausted", exc.payload


BUDGETS = [None, OracleBudget(nodes=1), OracleBudget(nodes=777)]


def search_drawings():
    for n in range(4, 15):
        yield f"convex {n}", gen_convex(n)
        yield f"twisted {n}", gen_twisted(n)
    yield from halfcircle_seeds()
    for name in ("horton 16", "shuffled restriction"):
        yield name, SAMPLES[name]


SEARCH_DRAWINGS = dict(search_drawings())


def random_tables():
    """60 random crossing tables on 4 to 11 vertices, each with a budget."""
    rng = random.Random(404)
    for _ in range(60):
        n = rng.randint(4, 11)
        d = random_explicit(rng, n, density=rng.choice([0.05, 0.2, 0.5]))
        yield d, rng.choice(BUDGETS)


class TestSearchEquivalence:
    @pytest.mark.parametrize("name", sorted(SEARCH_DRAWINGS))
    def test_pattern_search_matches_the_reference(self, name):
        d = SEARCH_DRAWINGS[name]
        for kind in (CONVEX, TWISTED):
            for budget in BUDGETS:
                assert outcome(max_pattern_exact, d, kind, budget) == outcome(
                    reference_max_pattern, d, kind, budget
                ), (kind, budget)

    # each budget stops the search at another tick, among them the ticks of
    # the children that it counts without a call
    @pytest.mark.parametrize("kind", [CONVEX, TWISTED])
    @pytest.mark.parametrize(
        "d", [gen_halfcircle(10, seed=2), gen_twisted(9)], ids=["halfcircle 10 seed 2", "twisted 9"]
    )
    def test_every_node_budget_stops_as_the_reference(self, d, kind):
        # one unbudgeted reference run gives every cap's outcome: a cap stops
        # the search at tick cap+1, holding the best found before that tick
        bests = []
        full = reference_max_pattern(d, kind, record=bests)
        total = full.nodes
        assert len(bests) == total

        def expected(cap):
            if cap >= total:
                return "done", full
            best = bests[cap]
            return "exhausted", OracleResult(len(best), best, cap + 1, False)

        # the derivation against budgeted reference runs
        for cap in (1, 777, total - 1, total):
            budget = OracleBudget(nodes=cap)
            assert outcome(reference_max_pattern, d, kind, budget) == expected(cap), cap
        for cap in range(1, total + 1):
            budget = OracleBudget(nodes=cap)
            assert outcome(max_pattern_exact, d, kind, budget) == expected(cap), cap

    @pytest.mark.parametrize("name", sorted(SEARCH_DRAWINGS))
    def test_plane_path_search_matches_the_reference(self, name):
        d = SEARCH_DRAWINGS[name]
        restriction = [d.n - 1, *range(0, d.n - 1, 2)]
        for budget in BUDGETS:
            assert outcome(longest_plane_path_exact, d, budget) == outcome(
                reference_plane_path, d, budget
            ), budget
            for target in (None, 3):
                assert outcome(
                    longest_plane_path_exact, d, budget, restriction, target
                ) == outcome(reference_plane_path, d, budget, restriction, target), (
                    budget,
                    target,
                )

    def test_random_crossing_data_matches_the_reference(self):
        for d, budget in random_tables():
            for kind in (CONVEX, TWISTED):
                assert outcome(max_pattern_exact, d, kind, budget) == outcome(
                    reference_max_pattern, d, kind, budget
                )
            assert outcome(longest_plane_path_exact, d, budget) == outcome(
                reference_plane_path, d, budget
            )


class TestAgainstTheFullOrderSearch:
    """The search visits one sequence per reversal (twisted) or rotation and
    reflection (convex); a search over every order must find the same size."""

    @staticmethod
    def same_size(d):
        for kind in (CONVEX, TWISTED):
            result, full = max_pattern_exact(d, kind), full_order_max_pattern(d, kind)
            assert (result.size, result.exact) == (full.size, full.exact), kind
            assert verify_certificate(d, Certificate(kind, result.witness)).ok, kind

    @pytest.mark.parametrize("name", sorted(SEARCH_DRAWINGS))
    def test_search_drawings(self, name):
        self.same_size(SEARCH_DRAWINGS[name])

    def test_random_tables(self):
        for d, _ in random_tables():
            self.same_size(d)

    @pytest.mark.parametrize("n", range(16, 23))
    def test_halfcircle(self, n):
        for seed in range(3):
            self.same_size(gen_halfcircle(n, seed=seed))


def assert_twisted_end_rows_symmetric(d):
    # the twisted bound colours the graph of the end row of (v1, L): row[v]
    # holds the w that fit (v1, v, w, L), the outer pairing crossing alone.
    # Swapping v and w keeps the outer pairing and swaps the other two, so
    # the row is symmetric on any crossing table, realizable or not, and a
    # twisted middle is a clique of its graph
    N, n = crossing_masks(d), d.n
    fit = pattern_fit(N, TWISTED)
    for a, b in itertools.permutations(range(n), 2):
        row = [0 if v in (a, b) else N(a, b, v) & ~(N(b, v, a) | N(a, v, b)) for v in range(n)]
        for v, w in itertools.permutations(set(range(n)) - {a, b}, 2):
            assert row[v] >> w & 1 == row[w] >> v & 1 == fit(a, v, w) >> b & 1, (a, v, w, b)


@pytest.mark.parametrize("name", sorted(SEARCH_DRAWINGS))
def test_twisted_end_rows_are_symmetric(name):
    assert_twisted_end_rows_symmetric(SEARCH_DRAWINGS[name])


def test_twisted_end_rows_are_symmetric_on_random_tables():
    for d, _ in random_tables():
        assert_twisted_end_rows_symmetric(d)


def test_certificates_hold_under_the_symmetries_the_search_breaks():
    # a sequence certifies twisted exactly when its reverse does, and convex
    # exactly when its reflection (v1, vk, ..., v2) and its rotation do
    rng = random.Random(35)
    drawings = [random_explicit(rng, rng.randint(6, 9), density=p) for p in (0.1, 0.3, 0.5, 0.7)]
    drawings += [gen_convex(9), gen_twisted(9), gen_halfcircle(9, seed=4),
                 gen_halfcircle(12, seed=1), gen_straightline(gen_horton(3))]
    certified = {CONVEX: 0, TWISTED: 0}
    for d in drawings:
        seqs = [max_pattern_exact(d, kind).witness for kind in (CONVEX, TWISTED)]
        seqs += [tuple(rng.sample(range(d.n), rng.randint(4, min(d.n, 7)))) for _ in range(150)]
        for seq in seqs:
            reflection, rotation = seq[:1] + seq[:0:-1], seq[1:] + seq[:1]
            for kind, images in ((TWISTED, [seq[::-1]]), (CONVEX, [reflection, rotation])):
                holds = verify_certificate(d, Certificate(kind, seq)).ok
                certified[kind] += holds and len(seq) >= 4
                for image in images:
                    assert verify_certificate(d, Certificate(kind, image)).ok == holds, (kind, seq)
    assert min(certified.values()) >= 20, certified
