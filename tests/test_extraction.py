"""Extraction pipeline, threshold arithmetic, tree embedding."""

import math
import random
import re

import pytest
from helpers import random_tree_adjacency
from models import anchored_restriction, mirrored_twisted_view, random_anchored_views

from cstg import extraction
from cstg.chromatics import ChiCache, PhiTable, phi_table
from cstg.drawing import CONVEX, TWISTED, check_plane_edges, verify_certificate
from cstg.errors import (InternalInvariantBroken, InvalidSelection, NotATree, ObservationViolated,
                         SizeLimit)
from cstg.extraction import (
    embed_tree,
    extract_pattern,
    guaranteed_m,
    naive_r_bound,
    paper_r_bound,
    required_n,
)
from cstg.generators import anchored_view, gen_convex, gen_halfcircle, gen_twisted
from cstg.oracles import max_pattern_exact
from cstg.ramsey import GameState


class TestExtractPattern:
    def test_convex_64_yields_convex_8(self):
        out = extract_pattern(anchored_view(gen_convex(64)), 8, 8)
        assert out.stats.outcome == "convex"
        assert len(out.certificate.vertices) == 8
        assert verify_certificate(gen_convex(64), out.certificate).ok

    def test_twisted_33_yields_twisted_16(self):
        out = extract_pattern(anchored_view(gen_twisted(33)), 4, 16)
        assert out.stats.outcome == "twisted"
        assert len(out.certificate.vertices) == 16
        assert verify_certificate(gen_twisted(33), out.certificate).ok

    def test_tiny_input_exhausts(self):
        out = extract_pattern(anchored_view(gen_twisted(4)), 10, 10)
        assert out.exhausted
        assert out.certificate is None
        assert out.stats.outcome == "exhausted"

    def test_certificate_sizes_are_exact(self):
        # whichever pattern comes back, its size is exactly the target
        for seed in range(20):
            ad = anchored_view(gen_halfcircle(16, seed=seed))
            out = extract_pattern(ad, 3, 3)
            assert out.certificate is not None
            assert len(out.certificate.vertices) == 3

    def test_halfcircle_runs_verify(self):
        for seed in range(15):
            d = gen_halfcircle(14, seed=seed)
            out = extract_pattern(anchored_view(d), 4, 4)
            if out.certificate is not None:
                assert verify_certificate(d, out.certificate).ok

    def test_stats_accounting(self):
        out = extract_pattern(anchored_view(gen_convex(64)), 8, 8)
        s = out.stats
        assert s.stages == 8
        assert s.edge_counts == [0, 1, 2, 3, 4, 5, 6, 7]
        assert s.total_edges == 28
        assert s.zero_edge_stages == 1
        assert s.class_histogram == {(2, 2): 8}

    def test_twisted_certificate_orientation(self):
        # canonical twisted anchoring reverses the vertex indices, so the
        # returned witness must list them descending (or pass reversed)
        out = extract_pattern(anchored_view(gen_twisted(20)), 3, 8)
        vs = out.certificate.vertices
        assert len(vs) == 8
        assert verify_certificate(gen_twisted(20), out.certificate).ok


class TestStageStateProperties:
    """The five structural facts the stage construction maintains, checked
    post-hoc from the final state snapshot."""

    @staticmethod
    def runs():
        for seed in range(12):
            d = gen_halfcircle(32, seed=seed)
            ad = anchored_view(d)
            out = extract_pattern(ad, 4, 5)
            yield ad, out

    def test_assignment_count_matches_stages(self):
        for ad, out in self.runs():
            assigned = sum(len(v) for v in out.stats.class_members.values())
            expected = out.stats.stages - (1 if out.stats.outcome == "twisted" else 0)
            assert assigned == expected

    def test_zero_edge_stages_open_the_classes(self):
        # a zero-edge stage opens a class, and with no twisted hit at m2 = 5
        # every class key lies in {2..4}^2
        for ad, out in self.runs():
            assert out.stats.zero_edge_stages == len(out.stats.class_members) <= (5 - 2) ** 2

    def test_members_precede_survivors(self):
        for ad, out in self.runs():
            if not out.stats.final_candidates:
                continue
            first = min(out.stats.final_candidates)
            for members in out.stats.class_members.values():
                assert all(u < first for u in members)

    def test_phi_constant_inside_each_class(self):
        for ad, out in self.runs():
            table = phi_table(ad)
            for key, members in out.stats.class_members.items():
                later_pool = out.stats.final_candidates
                for idx, u1 in enumerate(members):
                    for u2 in members[idx + 1 :] + later_pool:
                        value = table.value(u1, u2)
                        assert (value.a, value.b) == key

    def test_built_edges_color_matches_later_members(self):
        for ad, out in self.runs():
            cache = ChiCache(ad)
            for key, edges in out.stats.class_edges.items():
                members = out.stats.class_members[key]
                for u1, u2, psi in edges:
                    assert psi in ("000", "010")
                    for u3 in members:
                        if u3 > u2:
                            assert cache.get(u1, u2, u3) == psi


def reference_halve(chi, u, w, candidates):
    """The per-candidate halving painter: one ChiCache.get per candidate,
    the larger of the 000 and 010 classes kept, ties going to 000."""
    zeros, tens = [], []
    for v in candidates:
        c = chi.get(u, w, v)
        if c == "000":
            zeros.append(v)
        elif c == "010":
            tens.append(v)
        else:
            raise InternalInvariantBroken(
                f"candidate {v} colors chi({u},{w},{v})={c}, expected 000 or 010"
            )
    return ("000", zeros) if len(zeros) >= len(tens) else ("010", tens)


def positions(mask):
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def split_or_error(split, *args):
    try:
        return split(*args)
    except InternalInvariantBroken as exc:
        return str(exc)


class TestMaskSplit:
    """extraction._halve against the per-candidate painter it replaced."""

    @pytest.mark.parametrize("name, d, m1, m2", [
        *((f"half-circle 24 seed {s}", gen_halfcircle(24, seed=s), 4, 4) for s in range(6)),
        ("half-circle 40 seed 1", gen_halfcircle(40, seed=1), 5, 5),
        ("convex 20", gen_convex(20), 5, 5),
        ("twisted 20", gen_twisted(20), 3, 30),  # no twisted T30 in 20 vertices
        ("anchored explicit", anchored_restriction(gen_halfcircle(24, seed=3)), 4, 4),
    ])
    def test_every_built_edge(self, monkeypatch, name, d, m1, m2):
        calls = []
        halve = extraction._halve

        def spy(chi, u, w, pool):
            calls.append((u, w, pool))
            return halve(chi, u, w, pool)

        monkeypatch.setattr(extraction, "_halve", spy)
        ad = anchored_view(d)
        out = extract_pattern(ad, m1, m2)
        assert len(calls) == out.stats.total_edges > 0
        chi = ChiCache(ad)
        for u, w, pool in calls:
            color, kept = halve(chi, u, w, pool)
            assert (color, positions(kept)) == reference_halve(chi, u, w, positions(pool))

    @pytest.mark.parametrize("name, d", [
        *((f"half-circle 24 seed {s}", gen_halfcircle(24, seed=s)) for s in range(4)),
        ("convex 20", gen_convex(20)),
        ("twisted 20", gen_twisted(20)),
    ])
    def test_random_pools(self, name, d):
        # pools that sit in no phi class: twisted and half-circle candidates
        # color 001 or 100 too, and both splits name the lowest of them
        rng = random.Random(name)
        ad = anchored_view(d)
        chi = ChiCache(ad)
        for _ in range(200):
            u, w = sorted(rng.sample(range(1, ad.n - 1), 2))
            pool = rng.getrandbits(ad.n) >> (w + 1) << (w + 1)
            got = split_or_error(extraction._halve, chi, u, w, pool)
            if not isinstance(got, str):
                got = (got[0], positions(got[1]))
            assert got == split_or_error(reference_halve, chi, u, w, positions(pool))


def reference_stage(phi, w, candidates, m2):
    """The per-candidate stage rule: the first candidate u whose phi(w,u)
    reaches m2 in a, then in b, is a twisted hit ((u, component), None);
    otherwise (None, (key, members)) for the largest group of equal phi
    values, ties going to the smallest key, or ((2, 2), []) when there
    are no candidates."""
    groups = {}
    for u in candidates:
        val = phi.value(w, u)
        if val.a >= m2:
            return (u, "a"), None
        if val.b >= m2:
            return (u, "b"), None
        groups.setdefault((val.a, val.b), []).append(u)
    if not groups:
        return None, ((2, 2), [])
    return None, max(groups.items(), key=lambda kv: (len(kv[1]), (-kv[0][0], -kv[0][1])))


def stage_views():
    for n in range(8, 17):
        yield f"twisted {n}", [anchored_view(gen_twisted(n))]
    yield "mirrored twisted 16", [mirrored_twisted_view(16)]
    for n, seed in ((24, 0), (32, 1), (48, 2), (64, 3)):
        yield f"half-circle {n} seed {seed}", [anchored_view(gen_halfcircle(n, seed=seed))]
    yield "random explicit views", list(random_anchored_views(12, 1616))


class TestStageByMasks:
    """The stage's twisted hit and kept class, read from column w as masks,
    against the per-candidate rule they replaced."""

    @pytest.mark.parametrize("name, views", [
        pytest.param(name, views, id=name) for name, views in stage_views()
    ])
    def test_every_column_matches_the_per_candidate_rule(self, name, views):
        rng = random.Random(name)
        columns = 0
        for ad in views:
            phi = PhiTable(ad)
            for w in range(1, ad.n):
                try:
                    column = phi.column(w)
                except ObservationViolated:
                    break
                columns += 1
                above = (1 << ad.n) - (2 << w)
                for rest in (above, above & rng.getrandbits(ad.n), 0):
                    for m2 in range(2, ad.n + 2):
                        twisted, kept = reference_stage(phi, w, positions(rest), m2)
                        assert extraction._twisted_hit(column, rest, m2) == twisted, (w, m2)
                        if twisted is None:
                            key, mask = extraction._largest_class(column, rest)
                            assert (key, positions(mask)) == kept, (w, m2)
        assert columns > 0

    def test_ties_go_to_the_smallest_key(self):
        # of the candidates 4..7, 4 and 5 have phi (2,3) and 6 and 7 (3,2)
        column = ([0b00110000, 0b11000000], [0b11000000, 0b00110000])
        assert extraction._largest_class(column, 0b11110000) == ((2, 3), 0b00110000)


def cut_to(mask, size):
    """The ``size`` highest members of ``mask``."""
    while mask.bit_count() > size:
        mask &= mask - 1
    return mask


class TestStageGuards:
    """Faults injected where a stage asserts what the proof promises."""

    cases = pytest.mark.parametrize("name, d, m1, m2", [
        # |S|-1 = 10 is one past m2^2 = 9 at the first stage: a guard that
        # is off by one in either operand lets a one-member class through
        ("convex 12", gen_convex(12), 4, 3),
        ("twisted 12", gen_twisted(12), 4, 3),
        # the floor is 2 at the first stage
        ("half-circle 24 seed 3", gen_halfcircle(24, seed=3), 4, 4),
    ])

    @staticmethod
    def cut_classes(monkeypatch, m2, short):
        # every stage keeps its largest class cut to the pigeonhole floor
        # ceil((|S|-1)/m2^2), less ``short`` members
        largest = extraction._largest_class

        def cut(column, rest):
            key, pool = largest(column, rest)
            return key, cut_to(pool, -(-rest.bit_count() // (m2 * m2)) - short)

        monkeypatch.setattr(extraction, "_largest_class", cut)

    @cases
    def test_class_below_the_pigeonhole_floor_raises(self, monkeypatch, name, d, m1, m2):
        self.cut_classes(monkeypatch, m2, 1)
        message = "pigeonhole class smaller than (|S|-1)/m2^2"
        with pytest.raises(InternalInvariantBroken, match=re.escape(message)):
            extract_pattern(anchored_view(d), m1, m2)

    @cases
    def test_class_at_the_pigeonhole_floor_passes(self, monkeypatch, name, d, m1, m2):
        self.cut_classes(monkeypatch, m2, 0)
        assert extract_pattern(anchored_view(d), m1, m2).stats.stages >= 1

    def test_convex_witness_triple_colored_000(self, monkeypatch):
        # convex 12 colors every triple 010; once the game holds its path,
        # v leaves R(q,p) for the witness's first triple (p, q, v)
        ad = anchored_view(gen_convex(12))
        chi = ChiCache(ad)
        witness = []
        path_witness = GameState.path_witness

        def held(game, v, color):
            path = path_witness(game, v, color)
            witness.extend(path[-4:])
            return path

        pair = chi._pair

        def cleared(i, j, ks=0):
            ri, rj, x = pair(i, j, ks)
            if witness and (i, j) == tuple(witness[:2]):
                rj &= ~(1 << witness[2])
            return ri, rj, x

        monkeypatch.setattr(GameState, "path_witness", held)
        monkeypatch.setattr(chi, "_pair", cleared)
        with pytest.raises(InternalInvariantBroken) as info:
            extract_pattern(ad, 4, 4, chi_cache=chi)
        assert str(info.value) == f"convex witness triple {tuple(witness[:3])} colored 000"


class TestThresholds:
    def test_paper_formula_value_at_2_2(self):
        report = required_n(2, 2)
        assert report.formula_exponent == 144.0  # 9 * (2*2)^2 * 1 * 1
        assert report.chain_exponent <= report.formula_exponent

    def test_formula_value_at_2_3(self):
        report = required_n(2, 3)
        assert math.isclose(report.formula_exponent, 9 * 36 * math.log2(3))

    def test_monotone_in_both_targets(self):
        prev_chain = prev_formula = 0.0
        for m in range(2, 9):
            report = required_n(m, m)
            assert report.chain_exponent >= prev_chain
            assert report.formula_exponent >= prev_formula
            prev_chain, prev_formula = report.chain_exponent, report.formula_exponent
        r_a, r_b = required_n(3, 4), required_n(3, 5)
        assert r_b.formula_exponent >= r_a.formula_exponent
        assert r_b.chain_exponent >= r_a.chain_exponent

    def test_chain_stays_below_formula_with_paper_bound(self):
        for m1 in range(2, 7):
            for m2 in range(2, 7):
                report = required_n(m1, m2, paper_r_bound)
                assert report.chain_exponent <= report.formula_exponent

    def test_naive_bound_is_weaker(self):
        assert naive_r_bound(5) == math.comb(17, 2)
        assert naive_r_bound(5) > paper_r_bound(5)

    def test_guaranteed_m_boundaries(self):
        assert guaranteed_m(2**145) == 2
        assert guaranteed_m(2**144) == 1
        assert guaranteed_m(3) == 1

    def test_guaranteed_m_nondecreasing(self):
        values = [guaranteed_m(2**e) for e in range(2, 400, 37)]
        assert values == sorted(values)


class TestEmbedTree:
    def test_path_into_convex_hull(self):
        adj = [[1], [0, 2], [1, 3], [2, 4], [3]]
        emb = embed_tree(CONVEX, 5, adj)
        assert check_plane_edges(gen_convex(5), emb.edges) is None
        # a path in preorder is the hull path
        assert emb.edges == ((0, 1), (1, 2), (2, 3), (3, 4))

    def test_star_into_twisted(self):
        adj = [[1, 2, 3, 4, 5]] + [[0]] * 5
        emb = embed_tree(TWISTED, 6, adj)
        assert check_plane_edges(gen_twisted(6), emb.edges) is None

    def test_hundred_random_trees_both_patterns(self):
        rng = random.Random(123)
        for _ in range(100):
            k = rng.randint(2, 16)
            adj = random_tree_adjacency(rng, k)
            for kind, gen in ((CONVEX, gen_convex), (TWISTED, gen_twisted)):
                emb = embed_tree(kind, 16, adj)
                assert check_plane_edges(gen(16), emb.edges) is None
                assert len(emb.edges) == k - 1
                used = {v for e in emb.edges for v in e}
                assert used <= set(range(16))

    def test_not_a_tree_rejected(self):
        with pytest.raises(NotATree):
            embed_tree(CONVEX, 8, [[1], [0, 2], [1, 0]])  # asymmetric/cycle
        with pytest.raises(NotATree):
            embed_tree(CONVEX, 8, [[1], [0], [3], [2]])  # disconnected
        with pytest.raises(NotATree):
            embed_tree(CONVEX, 8, [[1, 2], [0, 2], [0, 1]])  # triangle

    def test_tree_too_large(self):
        adj = random_tree_adjacency(random.Random(0), 9)
        with pytest.raises(SizeLimit):
            embed_tree(CONVEX, 8, adj)

    def test_unknown_kind_is_refused(self):
        with pytest.raises(InvalidSelection) as info:
            embed_tree("plane_path", 8, [[1], [0]])
        assert str(info.value) == "kind must be 'convex' or 'twisted'"

    @pytest.mark.parametrize("kind", [CONVEX, TWISTED])
    @pytest.mark.parametrize("m, adjacency, error, message", [
        (8, [], NotATree, "empty adjacency"),
        (2, [[1], [0, 2], [1]], SizeLimit, "tree has 3 vertices, pattern only 2"),
        (8, [[1, 2], [0, 2], [0, 1]], NotATree, "3 edges, a tree on 3 vertices has 2"),
        (8, [[5], [0]], NotATree, "bad neighbor 5 at vertex 0"),
        (8, [[1], [0, 1], [1]], NotATree, "bad neighbor 1 at vertex 1"),
        (8, [[1, 2], [0], [1]], NotATree, "adjacency not symmetric at (0,2)"),
        (8, [[1], []], NotATree, "adjacency not symmetric at (0,1)"),
        # k - 1 edges, symmetric: a triangle on 0, 1, 2 with vertex 3 alone
        (8, [[1, 2], [0, 2], [0, 1], []], NotATree, "cycle detected"),
        # k - 1 edges, symmetric: the edge 0-1 and a triangle on 2, 3, 4
        (8, [[1], [0], [3, 4], [2, 4], [2, 3]], NotATree, "adjacency is not connected"),
    ], ids=["empty", "past m", "edge count", "neighbor out of range", "self-loop",
            "not symmetric", "half an edge", "cycle", "not connected"])
    def test_refusals_name_their_reason(self, kind, m, adjacency, error, message):
        with pytest.raises(error) as info:
            embed_tree(kind, m, adjacency)
        assert type(info.value) is error
        assert str(info.value) == message


class TestOracleDominanceSmall:
    def test_certificate_never_beats_the_oracle(self):
        for seed in range(10):
            d = gen_halfcircle(11, seed=seed)
            ad = anchored_view(d)
            out = extract_pattern(ad, 4, 4)
            if out.certificate is None:
                continue
            kind = out.certificate.kind
            oracle = max_pattern_exact(d, kind)
            assert len(out.certificate.vertices) <= oracle.size
