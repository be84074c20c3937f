"""Triple/pair colorings, monotone path DP, transitivity checks."""

import collections
import itertools
import math
import random
import re
import sys
import tracemalloc
from typing import Callable, List, Optional, Tuple

import pytest
from helpers import (
    TransitivityReport,
    assert_star_reads_the_pairs,
    check_transitive_completion,
    class_masks,
)
from models import (
    crossing_function,
    mirrored_twisted_view,
    random_anchored_views,
    random_explicit,
    random_points,
    shuffled_view,
)

from cstg import chromatics, cli, codec, drawing
from cstg.chromatics import (
    VALID_COLORS,
    ChiCache,
    PhiTable,
    PhiValue,
    _chi_blocks,
    phi_table,
    validate_observation,
)
from cstg.drawing import (
    AnchoredDrawing,
    Drawing,
    edge_index,
    induced_subdrawing,
    sorted_pair,
)
from cstg.errors import InvalidSelection, InvalidTriple, ObservationViolated
from cstg.generators import (
    anchored_view,
    gen_convex,
    gen_halfcircle,
    gen_horton,
    gen_straightline,
    gen_twisted,
)


def triples(n):
    return itertools.combinations(range(1, n), 3)


class TestChi:
    def test_convex_is_constant_010(self):
        ad = anchored_view(gen_convex(9))
        assert {ChiCache(ad).get(i, j, k) for i, j, k in triples(9)} == {"010"}

    def test_twisted_is_constant_001(self):
        ad = anchored_view(gen_twisted(9))
        assert {ChiCache(ad).get(i, j, k) for i, j, k in triples(9)} == {"001"}

    def test_mirrored_twisted_is_constant_100(self):
        ad = mirrored_twisted_view(9)
        assert {ChiCache(ad).get(i, j, k) for i, j, k in triples(9)} == {"100"}

    def test_bad_positions(self):
        ad = anchored_view(gen_convex(6))
        with pytest.raises(InvalidTriple):
            ChiCache(ad).get(2, 2, 3)
        with pytest.raises(InvalidTriple):
            ChiCache(ad).get(0, 1, 2)
        with pytest.raises(InvalidTriple):
            ChiCache(ad).get(1, 2, 6)

    def test_injected_violation_raises(self):
        # crossings chosen so the triple (1,2,3) colors 011
        n = 4
        crossings = frozenset(
            {
                tuple(sorted((edge_index(1, 3, n), edge_index(0, 2, n)))),
                tuple(sorted((edge_index(1, 2, n), edge_index(0, 3, n)))),
            }
        )
        d = Drawing(n=n, model="explicit", crossings=crossings)
        ad = AnchoredDrawing(base=d, v0=0, order=(1, 2, 3))
        with pytest.raises(ObservationViolated):
            ChiCache(ad).get(1, 2, 3)
        report = validate_observation(ad)
        assert not report.ok
        assert report.violation == (1, 2, 3, "011")
        # a failing report is falsy, so `if validate_observation(ad):` fails
        assert not report and validate_observation(anchored_view(gen_convex(6)))


class TestValidateObservation:
    def test_counts_triples(self):
        report = validate_observation(anchored_view(gen_convex(8)))
        assert report.triples_checked == 35  # C(7,3)


class TestPhi:
    def test_convex_phi_is_2_2(self):
        table = phi_table(anchored_view(gen_convex(10)))
        for i, j in itertools.combinations(range(1, 10), 2):
            assert table.value(i, j) == PhiValue(2, 2)

    def test_twisted_phi_b_counts_predecessors(self):
        table = phi_table(anchored_view(gen_twisted(10)))
        for i, j in itertools.combinations(range(1, 10), 2):
            assert table.value(i, j) == PhiValue(2, i + 1)

    def test_single_extension_gives_3(self):
        # explicit drawing where only chi(1,2,3) = 001
        n = 4
        crossings = frozenset(
            {tuple(sorted((edge_index(1, 2, n), edge_index(0, 3, n))))}
        )
        d = Drawing(n=n, model="explicit", crossings=crossings)
        ad = AnchoredDrawing(base=d, v0=0, order=(1, 2, 3))
        table = phi_table(ad)
        assert table.value(2, 3) == PhiValue(2, 3)
        assert table.value(1, 2) == PhiValue(2, 2)

    def test_witness_is_a_monotone_path_in_the_class(self):
        ad = anchored_view(gen_twisted(12))
        cache = ChiCache(ad)
        table = phi_table(ad, cache)
        wit = table.witness(6, 9, "b")
        assert wit[-2:] == [6, 9]
        assert len(wit) == table.value(6, 9).b
        for a, b, c in zip(wit, wit[1:], wit[2:]):
            assert cache.get(a, b, c) == "001"

    def test_witness_rejects_an_unknown_component(self):
        table = phi_table(anchored_view(gen_twisted(8)))
        with pytest.raises(InvalidSelection, match="'x'"):
            table.witness(2, 4, "x")

    def test_restriction_keeps_phi_on_surviving_pairs(self):
        # deleting the last anchored vertex never changes phi on earlier pairs
        for seed in (0, 1, 2):
            d = gen_halfcircle(10, seed=seed)
            ad = anchored_view(d)
            table = phi_table(ad)
            keep = (ad.v0,) + ad.order[:-1]
            sub = induced_subdrawing(d, keep)
            sub_ad = AnchoredDrawing(
                base=sub, v0=0, order=tuple(range(1, len(keep)))
            )
            sub_table = phi_table(sub_ad)
            for i, j in itertools.combinations(range(1, len(keep)), 2):
                assert sub_table.value(i, j) == table.value(i, j)

    @pytest.mark.parametrize("read, message", [
        (lambda t: t.column(0), "column 0 invalid for n=6"),
        (lambda t: t.column(6), "column 6 invalid for n=6"),
        (lambda t: t.value(3, 3), "pair (3,3) invalid for n=6"),
        (lambda t: t.value(2, 6), "pair (2,6) invalid for n=6"),
    ], ids=["column 0", "column n", "pair i = j", "pair j = n"])
    def test_positions_outside_the_order_are_refused(self, read, message):
        table = phi_table(anchored_view(gen_convex(6)))
        with pytest.raises(InvalidTriple) as info:
            read(table)
        assert str(info.value) == message


# Reference DP: a generic copy of the PhiTable and GameState path DPs that
# the tests compare against.
def longest_monotone_path(
    k: int, n: int, member: Callable[[Tuple[int, ...]], bool]
) -> Tuple[int, List[int]]:
    """Longest monotone k-path (k in {2,3}) over vertices 0..n-1.

    A vertex sequence v_1 < ... < v_m is a monotone k-path when every k
    consecutive vertices form a member tuple; length counts vertices and is
    conventionally at least k-1.  DP ties break toward the smallest
    predecessor.
    """
    if k == 2:
        best_len = [1] * n
        parent: List[Optional[int]] = [None] * n
        for j in range(n):
            for i in range(j):
                if member((i, j)) and best_len[i] + 1 > best_len[j]:
                    best_len[j] = best_len[i] + 1
                    parent[j] = i
        if n == 0:
            return max(0, k - 1), []
        end = max(range(n), key=lambda v: (best_len[v], -v))
        path = [end]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        path.reverse()
        return max(best_len[end], k - 1), path

    if k != 3:
        raise ValueError("only 2- and 3-uniform paths are supported")

    if n < 2:
        return k - 1, list(range(n))
    length = {}
    parent = {}
    best_pair = None
    for j in range(1, n):
        for i in range(j):
            best, par = 2, None
            for h in range(i):
                if member((h, i, j)) and length[(h, i)] + 1 > best:
                    best, par = length[(h, i)] + 1, h
            length[(i, j)] = best
            parent[(i, j)] = par
            if best_pair is None or best > length[best_pair]:
                best_pair = (i, j)
    path = [best_pair[1], best_pair[0]]
    while True:
        h = parent[(path[-1], path[-2])]
        if h is None:
            break
        path.append(h)
    path.reverse()
    return length[best_pair], path


class TestLongestMonotonePath:
    def test_complete_3_uniform(self):
        length, wit = longest_monotone_path(3, 5, lambda t: True)
        assert length == 5
        assert wit == [0, 1, 2, 3, 4]

    def test_two_consecutive_windows(self):
        members = {(0, 1, 2), (1, 2, 3)}
        length, wit = longest_monotone_path(3, 4, lambda t: t in members)
        assert length == 4
        assert wit == [0, 1, 2, 3]

    def test_gap_blocks_the_path(self):
        members = {(0, 1, 2), (2, 3, 4)}  # not consecutive as windows
        length, _ = longest_monotone_path(3, 5, lambda t: t in members)
        assert length == 3

    def test_k2_matches_exhaustive_search(self):
        rng = random.Random(5)
        for _ in range(20):
            n = 9
            present = {
                (i, j)
                for i, j in itertools.combinations(range(n), 2)
                if rng.random() < 0.5
            }
            length, wit = longest_monotone_path(2, n, lambda t: t in present)
            # brute force over all increasing vertex sequences
            best = 1
            for size in range(2, n + 1):
                for seq in itertools.combinations(range(n), size):
                    if all(
                        (seq[t], seq[t + 1]) in present for t in range(size - 1)
                    ):
                        best = max(best, size)
            assert length == best
            assert all((wit[t], wit[t + 1]) in present for t in range(len(wit) - 1))

    def test_convention_floor(self):
        length, _ = longest_monotone_path(3, 4, lambda t: False)
        assert length == 2


def masks_of(members) -> Callable[[int, int], int]:
    """cls(p, q) of a set of triples."""
    masks = {}
    for p, q, r in members:
        masks[p, q] = masks.get((p, q), 0) | 1 << r
    return lambda p, q: masks.get((p, q), 0)


def reference_transitive_completion(n, member, window):
    """check_transitive_completion by a scan of every 4-tuple, with
    ``member(triple)`` in place of the class masks."""
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
        # a transitive class holding the consecutive triples is complete
        for p in range(t - 2):
            for q in range(p + 1, t - 1):
                for r in range(q + 1, t):
                    assert member((w[p], w[q], w[r])), (w, (w[p], w[q], w[r]))
        return TransitivityReport(True, checked, completion_checked=True)
    return TransitivityReport(True, checked)


def check_against_reference(n, cls, window):
    """Both checks' report on the class; the reference reads each pair's
    mask once, through a memo."""
    memo = {}

    def member(t):
        p, q, r = t
        mask = memo.get((p, q))
        if mask is None:
            mask = memo[p, q] = cls(p, q)
        return mask >> r & 1

    report = check_transitive_completion(n, cls, window)
    assert report == reference_transitive_completion(n, member, window), (window, report)
    return report


def criterion_02_corpus():
    """The drawings of acceptance criterion 02."""
    for seed in range(200):
        yield anchored_view(gen_halfcircle(32, seed=seed))
    yield anchored_view(gen_straightline(gen_horton(4)))
    yield anchored_view(gen_twisted(16))
    yield mirrored_twisted_view(16)


def dropped(cls, triple):
    """cls without the one triple."""
    p0, q0, r0 = triple
    return lambda p, q: cls(p, q) & ~(1 << r0) if (p, q) == (p0, q0) else cls(p, q)


class TestTransitivity:
    def test_complete_class_passes_with_completion(self):
        ad = anchored_view(gen_twisted(8))
        report = check_transitive_completion(8, class_masks(ad, "001"), list(range(1, 8)))
        assert report.ok
        assert report.completion_checked

    def test_missing_tuple_is_reported(self):
        members = {(1, 2, 3), (2, 3, 4)}
        report = check_transitive_completion(5, masks_of(members), [1, 2, 3, 4])
        assert not report.ok
        # the chain 123,234 spans the window but 124 is missing
        assert report.counterexample == (1, 2, 3, 4)

    def test_generated_halfcircle_classes_are_transitive(self):
        for seed in range(10):
            ad = anchored_view(gen_halfcircle(14, seed=seed))
            window = list(range(1, 14))
            for color in ("100", "001"):
                report = check_transitive_completion(14, class_masks(ad, color), window)
                assert report.ok, (seed, color, report)

    def test_consecutive_triples_force_the_other_two(self):
        # direct statement: consecutive triples in a class force the other two
        for seed in range(6):
            ad = anchored_view(gen_halfcircle(12, seed=seed))
            cache = ChiCache(ad)
            for color in ("100", "001"):
                for p, q, r, s in itertools.combinations(range(1, 12), 4):
                    if cache.get(p, q, r) == color and cache.get(q, r, s) == color:
                        assert cache.get(p, q, s) == color
                        assert cache.get(p, r, s) == color

    def test_window_must_increase(self):
        with pytest.raises(InvalidTriple):
            check_transitive_completion(5, lambda p, q: 0, [2, 1, 3])

    def test_random_classes_match_the_reference(self):
        # the masks carry bits below q and outside the window, which the
        # check must ignore
        rng = random.Random(2)
        outcomes = collections.Counter()
        for _ in range(3000):
            n = rng.randint(0, 9)
            density = rng.choice((0.3, 0.8, 0.97, 1.0))
            members = masks_of(
                t for t in itertools.combinations(range(n), 3) if rng.random() < density
            )
            noise = {pq: rng.getrandbits(n) for pq in itertools.combinations(range(n), 2)}

            def cls(p, q):
                return members(p, q) | noise[p, q] & ((1 << (q + 1)) - 1)

            window = sorted(rng.sample(range(n), rng.randint(0, n)))
            report = check_against_reference(n, cls, window)
            outcomes[report.ok, report.completion_checked, report.counterexample is None] += 1
        # passes with and without completion, and broken transitivity; no
        # missing triple, since a transitive class holding the consecutive
        # triples holds (p,q,r) once it holds (p,p+1,q) and (p+1,q,r), or
        # (p,p+1,r-1) and (p+1,r-1,r), by induction on r - p
        assert set(outcomes) == {
            (True, False, True), (True, True, True), (False, False, False)
        }, outcomes

    def test_criterion_02_corpus_matches_the_reference(self):
        for ad in criterion_02_corpus():
            for color in ("100", "001"):
                check_against_reference(ad.n, class_masks(ad, color), range(1, ad.n))

    @pytest.mark.parametrize(
        "triple,counterexample,checked",
        [((3, 7, 12), (3, 4, 7, 12), 674), ((1, 8, 15), (1, 2, 8, 15), 57)],
        ids=["drop 3,7,12", "drop 1,8,15"],
    )
    def test_planted_break_is_found(self, triple, counterexample, checked):
        cls = dropped(class_masks(anchored_view(gen_twisted(16)), "001"), triple)
        report = check_against_reference(16, cls, range(1, 16))
        assert (report.ok, report.counterexample) == (False, counterexample)
        assert report.quadruples_checked == checked

    def test_dropped_chain_link_leaves_completion_unchecked(self):
        # no 4-tuple concludes (1,2,3), so the class stays transitive, but it
        # no longer spans the window: criterion 02's completion_checked
        # assertion, which expects completion on this class, fails
        cls = dropped(class_masks(anchored_view(gen_twisted(16)), "001"), (1, 2, 3))
        report = check_against_reference(16, cls, range(1, 16))
        assert report.ok
        # criterion 02 asserts completion_checked == (color == complete),
        # True for twisted 16's 001 class, so it catches the drop
        assert report.completion_checked is False


class TestPhiPathConsistency:
    def test_phi_value_recoverable_as_monotone_path(self):
        # if a(i,j) >= L then a 100-colored monotone 3-path of length >= L
        # ending at (i,j) exists; recover it with the generic DP
        ad = mirrored_twisted_view(10)
        cache = ChiCache(ad)
        table = phi_table(ad, cache)
        val = table.value(5, 7)
        assert val.a == 6
        length, wit = longest_monotone_path(
            3, 10, lambda t: 0 not in t and cache.get(*t) == "100"
        )
        assert length >= val.a
        for a, b, c in zip(wit, wit[1:], wit[2:]):
            assert cache.get(a, b, c) == "100"


# Reference kernel: the per-triple crossing-predicate closure the mask kernel
# replaced, and the scans built on it.  The kernel must agree with it on
# every triple, every report and every phi value.
def reference_color(ad: AnchoredDrawing):
    """Returns color(i, j, k) on anchored positions, unvalidated."""
    f = crossing_function(ad.base)
    v0 = ad.v0
    at = (None,) + ad.order

    def color(i, j, k):
        vi, vj, vk = at[i], at[j], at[k]
        x = f(*sorted_pair(vj, vk), *sorted_pair(v0, vi))
        y = f(*sorted_pair(vi, vk), *sorted_pair(v0, vj))
        z = f(*sorted_pair(vi, vj), *sorted_pair(v0, vk))
        return ("1" if x else "0") + ("1" if y else "0") + ("1" if z else "0")

    return color


def reference_validate(ad: AnchoredDrawing):
    color = reference_color(ad)
    checked = 0
    for i, j, k in triples(ad.n):
        checked += 1
        value = color(i, j, k)
        if value not in VALID_COLORS:
            return False, checked, (i, j, k, value)
    return True, checked, None


def reference_phi(ad: AnchoredDrawing):
    """(i, j) -> ((a, b), (parent in a, parent in b)), columns i in position
    order, smallest predecessor on ties; None and the first invalid triple
    (k, i, j) when the drawing breaks the observation, in the order the
    columns visit them: lowest i, then lowest k, then lowest j."""
    color = reference_color(ad)
    table = {}
    for i in range(1, ad.n):
        for k in range(1, i):
            for j in range(i + 1, ad.n):
                c = color(k, i, j)
                if c not in VALID_COLORS:
                    return None, (k, i, j, c)
        for j in range(i + 1, ad.n):
            best, parent = [2, 2], [None, None]
            for k in range(1, i):
                c = color(k, i, j)
                for slot, want in enumerate(("100", "001")):
                    if c == want and table[(k, i)][0][slot] + 1 > best[slot]:
                        best[slot], parent[slot] = table[(k, i)][0][slot] + 1, k
            table[(i, j)] = (tuple(best), tuple(parent))
    return table, None


def reference_witness(table, i, j, slot):
    path = [j, i]
    while table[(path[-1], path[-2])][1][slot] is not None:
        path.append(table[(path[-1], path[-2])][1][slot])
    return path[::-1]


def reference_masks(ad: AnchoredDrawing):
    """pair(i, j) -> (R(i,j), R(j,i), X(i,j)) from the crossing predicate.

    One pass evaluates every anchor edge against every edge avoiding it once
    (about n^3/2 predicate calls) and fills X and R together.
    """
    f = crossing_function(ad.base)
    n = ad.n
    at = (ad.v0,) + ad.order
    xs = [[0] * n for _ in range(n)]
    rs = [[0] * n for _ in range(n)]
    for p in range(1, n):
        c, e = sorted_pair(ad.v0, at[p])
        bit = 1 << p
        row = rs[p]
        for a in range(1, n - 1):
            if a == p:
                continue
            va = at[a]
            xa = xs[a]
            hits = 0
            for b in range(a + 1, n):
                vb = at[b]
                if b != p and f(*sorted_pair(va, vb), c, e):
                    xa[b] |= bit
                    hits |= 1 << b
                    row[b] |= 1 << a
            row[a] |= hits
    return lambda i, j: (rs[i][j], rs[j][i], xs[i][j])


def shuffled_horton(k, seed):
    """The 2**k points of gen_horton(k) in a seeded random order."""
    points = gen_horton(k)
    random.Random(seed).shuffle(points)
    return points


def kernel_views():
    """(name, view) for every kind of anchored view."""
    yield "convex", anchored_view(gen_convex(11))
    yield "convex anchored at 4", anchored_view(gen_convex(12), 4)
    yield "twisted", anchored_view(gen_twisted(11))
    yield "mirrored twisted", mirrored_twisted_view(11)
    for n, seed in ((9, 0), (17, 1), (24, 2), (33, 3), (40, 4), (40, 5)):
        yield f"half-circle n={n} seed={seed}", anchored_view(gen_halfcircle(n, seed=seed))
    base = gen_halfcircle(15, seed=6)
    # the identity order is not the drawing's clockwise order around vertex 0
    yield "half-circle, non-canonical order", AnchoredDrawing(
        base=base, v0=0, order=tuple(range(1, 15))
    )
    yield "horton 16", anchored_view(gen_straightline(gen_horton(4)))
    yield "horton 32", anchored_view(gen_straightline(gen_horton(5)))
    d = gen_halfcircle(30, seed=7)
    ad = anchored_view(d)
    keep = (ad.v0,) + ad.order[::2]
    yield "explicit restriction", AnchoredDrawing(
        base=induced_subdrawing(d, keep), v0=0, order=tuple(range(1, len(keep)))
    )
    for seed in range(3):
        yield f"shuffled convex seed={seed}", shuffled_view(gen_convex(13), seed)
        yield f"shuffled twisted seed={seed}", shuffled_view(gen_twisted(13), seed)
        yield f"shuffled half-circle seed={seed}", shuffled_view(gen_halfcircle(16, seed=seed), seed)
        yield f"shuffled horton 16 seed={seed}", shuffled_view(gen_straightline(gen_horton(4)), seed)


KERNEL_VIEWS = [pytest.param(ad, id=name) for name, ad in kernel_views()]


def twisted_phi(ad: AnchoredDrawing):
    """reference_phi's values on an anchored gen_twisted view in closed form,
    phi(i,j) = (2, i+1), without parents."""
    pairs = itertools.combinations(range(1, ad.n), 2)
    return {(i, j): ((2, i + 1), None) for i, j in pairs}, None


# the kernel views against the reference build, and twisted 300, whose b
# columns have more than 256 levels from column 257 on
COLUMN_VIEWS = [pytest.param(ad, reference_phi, id=name) for name, ad in kernel_views()] + [
    pytest.param(anchored_view(gen_twisted(300)), twisted_phi, id="twisted 300")
]


class TestKernelEquivalence:
    @pytest.mark.parametrize("ad", KERNEL_VIEWS)
    def test_every_triple_matches_the_reference(self, ad):
        color = reference_color(ad)
        cache = ChiCache(ad)
        for i, j, k in triples(ad.n):
            want = color(i, j, k)
            if want in VALID_COLORS:
                assert cache.get(i, j, k) == want, (i, j, k)
            else:
                with pytest.raises(ObservationViolated, match=f"colored {want}"):
                    cache.get(i, j, k)
        report = validate_observation(ad)
        assert (report.ok, report.triples_checked, report.violation) == reference_validate(ad)

    @pytest.mark.parametrize("ad", KERNEL_VIEWS)
    def test_phi_values_and_witnesses_match_the_reference(self, ad):
        want, violation = reference_phi(ad)
        if violation is not None:
            with pytest.raises(ObservationViolated, match=re.escape(
                f"triple {violation[:3]} colored {violation[3]}"
            )):
                phi_table(ad)
            return
        table = phi_table(ad)
        for (i, j), (values, _) in want.items():
            assert table.value(i, j) == PhiValue(*values), (i, j)
            for slot, component in enumerate("ab"):
                assert table.witness(i, j, component) == reference_witness(want, i, j, slot)

    @pytest.mark.parametrize("ad, reference", COLUMN_VIEWS)
    def test_columns_partition_the_later_positions(self, ad, reference):
        # column i's levels are disjoint, cover exactly the positions above
        # i and end at the highest phi value; its value codes put each j in
        # the level that holds it, at the reference's phi(i,j); a drawing
        # that breaks the observation is checked up to the column that raises
        want, violation = reference(ad)
        table = PhiTable(ad)
        last = ad.n if violation is None else violation[1]
        for i in range(1, last):
            for slot, (levels, codes) in enumerate(zip(table.column(i), table._codes(i))):
                union = 0
                for t, level in enumerate(levels):
                    assert not union & level, (i, t)
                    union |= level
                assert union == (1 << ad.n) - (2 << i), i
                assert levels[-1] or levels == [0], i
                for j in range(i + 1, ad.n):
                    t = codes[j]
                    assert t < len(levels) and levels[t] >> j & 1, (i, j)
                    if want is not None:
                        assert want[(i, j)][0][slot] == t + 2, (i, j)
        if violation is not None:
            with pytest.raises(ObservationViolated, match=re.escape(
                f"triple {violation[:3]} colored {violation[3]}"
            )):
                table.column(violation[1])

    @pytest.mark.parametrize("ad", KERNEL_VIEWS)
    def test_pair_masks_match_the_reference_build(self, ad):
        kernel, reference = ChiCache(ad)._pair, reference_masks(ad)
        for i, j in itertools.combinations(range(1, ad.n), 2):
            assert kernel(i, j) == reference(i, j), (i, j)

    def test_one_triple_reads_few_orientations(self, monkeypatch):
        # a one-shot colour builds only the masks of its pair, not the whole
        # anchor relation (n^3/2 crossing tests, each two or more orientations)
        points = gen_horton(6)
        random.Random(64).shuffle(points)
        ad = anchored_view(gen_straightline(points))
        calls = 0
        orient = drawing.orient

        def counting(p, q, r):
            nonlocal calls
            calls += 1
            return orient(p, q, r)

        monkeypatch.setattr(drawing, "orient", counting)
        assert ChiCache(ad).get(1, 2, 3) == reference_color(ad)(1, 2, 3)
        assert 0 < calls < ad.n ** 2

    def test_random_crossing_data_fails_at_the_reference_triple(self):
        rng = random.Random(2024)
        rejected = 0
        for _ in range(80):
            n = rng.randint(4, 10)
            d = random_explicit(rng, n, density=rng.choice([0.05, 0.2, 0.5]))
            order = list(range(1, n))
            rng.shuffle(order)
            ad = AnchoredDrawing(base=d, v0=0, order=tuple(order))
            report = validate_observation(ad)
            assert (report.ok, report.triples_checked, report.violation) == reference_validate(ad)
            _, violation = reference_phi(ad)
            if violation is None:
                phi_table(ad)
                continue
            rejected += 1
            with pytest.raises(ObservationViolated) as info:
                phi_table(ad)
            assert str(info.value) == f"triple {violation[:3]} colored {violation[3]}"
        assert rejected > 0


def rows_by_get(ad: AnchoredDrawing):
    """(i, j) -> [get(i, j, k) for k > j], or the message of the get that raises."""
    cache = ChiCache(ad)
    rows = {}
    for i, j in itertools.combinations(range(1, ad.n), 2):
        try:
            rows[i, j] = [cache.get(i, j, k) for k in range(j + 1, ad.n)]
        except ObservationViolated as exc:
            rows[i, j] = str(exc)
    return rows


def blocks_by_get(ad: AnchoredDrawing):
    """What ``_chi_blocks`` must yield, from ``rows_by_get``: i -> the rows
    "i,j,k,color" of anchor row i, for every row before the first pair that
    raises, and that pair's message (None when no pair raises)."""
    blocks = {}
    for (i, j), row in rows_by_get(ad).items():
        if isinstance(row, str):
            blocks.pop(i, None)
            return blocks, row
        rows = "".join(f"{i},{j},{k},{color}\n" for k, color in enumerate(row, j + 1))
        if rows:
            blocks[i] = blocks.get(i, "") + rows
    return blocks, None


def blocks_by_writer(ad: AnchoredDrawing):
    """i -> ``_chi_blocks``' block of anchor row i, and its message if it raises."""
    cache = ChiCache(ad)
    blocks, message = {}, None
    try:
        for i, block in enumerate(_chi_blocks(cache._star, ad.n), 1):
            blocks[i] = block
    except ObservationViolated as exc:
        message = str(exc)
    assert not cache._memo
    return blocks, message


class TestChiBlocks:
    @pytest.mark.parametrize("ad", KERNEL_VIEWS)
    def test_blocks_equal_the_gets_of_their_pairs(self, ad):
        assert blocks_by_writer(ad) == blocks_by_get(ad)

    def test_random_explicit_views(self):
        raised = kept = 0
        for ad in random_anchored_views(40, 1010):
            want = blocks_by_get(ad)
            assert blocks_by_writer(ad) == want
            raised += want[1] is not None
            kept += len(want[0])
        assert raised > 0 and kept > 0

    def test_rows_of_convex_6(self):
        # pairs (i, n-1) have no rows; the last block is the one triple (3,4,5)
        ad = anchored_view(gen_convex(6))
        blocks = list(_chi_blocks(ChiCache(ad)._star, ad.n))
        assert len(blocks) == 3
        assert blocks[0].startswith("1,2,3,010\n1,2,4,010\n1,2,5,010\n1,3,4,")
        assert blocks[-1] == "3,4,5,010\n"

    @pytest.mark.parametrize("n", [3, 4, 7])
    def test_reads_each_anchor_row_once_in_order(self, n):
        ad = anchored_view(gen_convex(n))
        star = ChiCache(ad)._star
        calls = []

        def recording(f, gs):
            calls.append((f, gs))
            return star(f, gs)

        assert len(list(_chi_blocks(recording, n))) == max(0, n - 3)
        assert calls == [(i, range(i + 1, n - 1)) for i in range(1, n - 2)]

    def test_a_bad_row_raises_before_its_block(self, monkeypatch):
        # (2, 3, 5) colors 011: row 1 is yielded, row 2 is read and raises
        ad = anchored_view(gen_convex(7))
        flip_x_bit(monkeypatch, 2, 3, 5)
        star = ChiCache(ad)._star
        calls = []

        def recording(f, gs):
            calls.append(f)
            return star(f, gs)

        blocks = _chi_blocks(recording, ad.n)
        assert next(blocks).startswith("1,2,3,010\n")
        with pytest.raises(ObservationViolated, match=re.escape("triple (2, 3, 5) colored 011")):
            next(blocks)
        assert calls == [1, 2]


def flip_x_bit(monkeypatch, k, i, j):
    """Flips bit j of X(k,i) in every mask reader that chromatics builds from
    here on: in the crossing kernel, whose N(a, b, c) is symmetric in a and
    b, and in the star reader of models that have their own."""
    kernels = chromatics._kernels

    def flipped(d, order):
        N, star = kernels(d, order)
        edge, hub = {order[k], order[i]}, order[0]

        def kernel(a, b, c):
            mask = N(a, b, c)
            return mask ^ 1 << j if c == hub and {a, b} == edge else mask

        def flipped_star(f, gs):
            return [(r1, r2, x ^ 1 << j if {f, g} == {k, i} else x)
                    for g, (r1, r2, x) in zip(gs, star(f, gs))]

        return kernel, (flipped_star if star is not None else None)

    monkeypatch.setattr(chromatics, "_kernels", flipped)


class TestStarReader:
    @pytest.mark.parametrize("ad", KERNEL_VIEWS)
    def test_star_equals_pair_both_ways(self, ad):
        assert_star_reads_the_pairs(ad, 0)

    def test_random_anchored_orders(self):
        rng = random.Random(2323)
        for seed in range(24):
            n = rng.randint(3, 30)
            d = rng.choice([gen_halfcircle(n, seed=seed), gen_convex(n), gen_twisted(n)])
            assert_star_reads_the_pairs(shuffled_view(d, seed), seed)
        for seed, ad in enumerate(random_anchored_views(16, 2324)):
            assert_star_reads_the_pairs(ad, seed)
        for seed in range(24):
            n = rng.randint(3, 30)
            d = random_points(rng, n, rng.choice([1000, 10**12]))
            assert_star_reads_the_pairs(shuffled_view(d, seed), seed)

    def test_a_points_star_builds_each_vertex_pair_once(self):
        # each hull edge has an empty side, so a half-plane mask of 0 must
        # count as built; the other side of a pair is the complement of the
        # side built, less the pair itself
        points = [(0, 0), (9, 1), (10, 10), (1, 9), (3, 4), (6, 2), (4, 7), (7, 6)]
        hull = [(0, 1), (1, 2), (2, 3), (3, 0)]
        assert all(drawing.orient(points[q], points[p], w) < 0
                   for p, q in hull for w in points if w not in (points[p], points[q]))
        builds = 0

        def counting(frame, event, arg):
            nonlocal builds
            builds += event == "c_call" and arg.__name__ == "to_bytes"

        for seed in range(4):
            ad = shuffled_view(gen_straightline(points), seed)
            builds = 0
            sys.setprofile(counting)
            try:
                assert_star_reads_the_pairs(ad, seed)
            finally:
                sys.setprofile(None)
            assert builds == math.comb(len(points), 2), seed

    @pytest.mark.parametrize("d", [gen_convex(9), gen_halfcircle(24, seed=3),
                                   gen_straightline(shuffled_horton(4, 16))],
                             ids=["convex 9", "half-circle 24", "shuffled horton 16"])
    def test_every_scan_names_a_flipped_triple_as_get_does(self, monkeypatch, tmp_path,
                                                           capsys, d):
        ad = anchored_view(d)
        cache = ChiCache(ad)
        k, i, j = [t for t in triples(ad.n) if t[0] > 1 and cache.get(*t) == "010"][-1]
        flip_x_bit(monkeypatch, k, i, j)
        message = f"triple {(k, i, j)} colored 011"
        with pytest.raises(ObservationViolated, match=re.escape(message)):
            ChiCache(ad).get(k, i, j)
        table = PhiTable(ad)
        table.column(i - 1)
        with pytest.raises(ObservationViolated, match=re.escape(message)):
            table.column(i)
        assert validate_observation(ad).violation == (k, i, j, "011")
        path, out = tmp_path / "d.cstg", tmp_path / "chi.csv"
        codec.save_drawing(d, str(path))
        capsys.readouterr()
        assert cli.dispatch(["tables", "chi", str(path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"invalid input: ObservationViolated: {message}\n"
        assert not out.exists()


class TestPointsStarCost:
    def test_scans_read_no_orientation(self, monkeypatch):
        # the star reads one bit of a half-plane mask where the pair reader
        # asks orient: every scan finishes with orient raising
        ad = anchored_view(gen_straightline(shuffled_horton(6, 24)))

        def scans():
            table = phi_table(ad)
            return (validate_observation(ad), [table.column(i) for i in range(1, ad.n)],
                    list(_chi_blocks(ChiCache(ad)._star, ad.n)))

        want = scans()

        def raising(p, q, r):
            raise AssertionError("orient called")

        monkeypatch.setattr(drawing, "orient", raising)
        assert scans() == want
        assert want[0].ok

    def test_one_cross_allocates_no_square_table(self):
        # a kernel per query: its memo holds the pairs asked, not n*n masks
        d = gen_straightline(gen_horton(10))
        drawing.cross(d, (0, 1), (2, 3))
        tracemalloc.start()
        try:
            drawing.cross(d, (5, 700), (3, 1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024
