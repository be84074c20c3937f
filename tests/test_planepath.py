"""Successor sequences, subsequence search, and the path pipeline."""

import dataclasses
import itertools
import random
import re

import pytest
from helpers import (
    assert_step_shares,
    assert_wedges_uniform,
    inside_delta,
    lis_lds,
    path_positions,
)
from models import (
    anchored_restriction,
    mirrored_twisted_view,
    random_rotation_views,
    violating_documents,
)

from cstg import oracles, planepath
from cstg.chromatics import ChiCache
from cstg.drawing import (
    AnchoredDrawing,
    Drawing,
    crossing_pairs,
    edge_index,
    sorted_pair,
    verify_certificate,
)
from cstg.errors import (
    BudgetExhausted,
    InternalInvariantBroken,
    InvalidSelection,
    InvalidTriple,
    ObservationViolated,
    RotationMissing,
)
from cstg.generators import anchored_view, gen_convex, gen_halfcircle, gen_twisted
from cstg.planepath import (
    default_m,
    extract_plane_path,
    find_plane_k2m2,
    theta,
)


def count_theta_calls(monkeypatch):
    """Positions passed to planepath.theta from here on, in call order."""
    calls = []

    def counted(ad, i):
        calls.append(i)
        return theta(ad, i)

    monkeypatch.setattr(planepath, "theta", counted)
    return calls


class TestTheta:
    def test_worked_example_from_explicit_rotations(self):
        # rotation at v1 reads (v0, v4, v3, v2, v5) counterclockwise; the
        # table and rotations are those of a half-circle drawing (signs
        # LLLLLLLLULUULUL) restricted to its anchored order
        n = 6
        rots = [
            (5, 4, 3, 2, 1),  # anchor: clockwise reading is 1,2,3,4,5
            (0, 4, 3, 2, 5),
            (0, 3, 4, 5, 1),
            (0, 4, 5, 2, 1),
            (0, 5, 2, 3, 1),
            (0, 1, 2, 3, 4),
        ]
        d = Drawing(
            n=n,
            model="explicit",
            crossings=[(1, 6), (1, 7), (2, 7), (10, 13)],
            rotations=tuple(rots),
            anchor=(0, (1, 2, 3, 4, 5)),
        )
        ad = anchored_view(d)
        assert theta(ad, 1) == [4, 3, 2, 5]

    def test_convex_theta_is_decreasing(self):
        # under the clockwise-labeling convention the hull successors leave
        # v_i in reverse position order (so no long increasing run exists,
        # matching the absence of plane two-center stars in convex drawings)
        ad = anchored_view(gen_convex(10))
        for i in range(1, 10):
            th = theta(ad, i)
            assert th == sorted(th, reverse=True)

    def test_twisted_theta_is_decreasing(self):
        ad = anchored_view(gen_twisted(10))
        for i in range(1, 10):
            th = theta(ad, i)
            assert th == sorted(th, reverse=True)

    def test_mirrored_twisted_theta_is_increasing(self):
        ad = mirrored_twisted_view(10)
        for i in range(1, 10):
            th = theta(ad, i)
            assert th == sorted(th)

    @pytest.mark.parametrize("i", [0, 8])
    def test_positions_outside_the_order_are_refused(self, i):
        with pytest.raises(InvalidSelection) as info:
            theta(anchored_view(gen_convex(8)), i)
        assert str(info.value) == f"position {i} out of range"

    def test_rotation_missing(self):
        d = Drawing(n=4, model="explicit", crossings=frozenset(),
                    anchor=(0, (1, 2, 3)))
        ad = AnchoredDrawing(base=d, v0=0, order=(1, 2, 3))
        with pytest.raises(RotationMissing):
            theta(ad, 1)


class TestLisLds:
    def test_example(self):
        r = lis_lds([4, 3, 2, 5])
        assert r.lis_length == 2
        assert r.lds_length == 3
        assert list(r.lds_witness) == [4, 3, 2]
        assert list(r.lis_witness) in ([4, 5], [3, 5], [2, 5])

    def test_sorted_sequences(self):
        r = lis_lds(list(range(1, 8)))
        assert r.lis_length == 7 and r.lds_length == 1

    def test_against_brute_force(self):
        rng = random.Random(11)
        for _ in range(50):
            seq = rng.sample(range(100), 9)
            r = lis_lds(seq)
            best_inc = max(
                (
                    len(sub)
                    for size in range(1, 10)
                    for sub in itertools.combinations(seq, size)
                    if list(sub) == sorted(sub)
                ),
            )
            best_dec = max(
                (
                    len(sub)
                    for size in range(1, 10)
                    for sub in itertools.combinations(seq, size)
                    if list(sub) == sorted(sub, reverse=True)
                ),
            )
            assert r.lis_length == best_inc
            assert r.lds_length == best_dec
            assert list(r.lis_witness) == sorted(r.lis_witness)
            assert list(r.lds_witness) == sorted(r.lds_witness, reverse=True)

    def test_erdos_szekeres_on_37(self):
        rng = random.Random(7)
        for _ in range(1000):
            seq = rng.sample(range(37), 37)
            r = lis_lds(seq)
            assert r.lis_length >= 7 or r.lds_length >= 7


class TestFindPlaneStar:
    def test_mirrored_twisted_has_a_big_star(self):
        ad = mirrored_twisted_view(20)
        cert = find_plane_k2m2(ad, 4)
        assert cert is not None
        assert len(cert.vertices) == 2 + 16
        assert cert.vertices[0] == ad.v0
        assert verify_certificate(ad.base, cert).ok

    def test_twisted_has_none(self):
        assert find_plane_k2m2(anchored_view(gen_twisted(20)), 4) is None

    def test_reads_only_positions_with_enough_successors(self, monkeypatch):
        # mirrored twisted thetas are fully increasing, position i holding
        # n-1-i successors: with m=4, n=18 just qualifies at position 1 and
        # n=17 cannot qualify anywhere
        calls = count_theta_calls(monkeypatch)
        ad = mirrored_twisted_view(18)
        cert = find_plane_k2m2(ad, 4)
        assert cert is not None
        assert cert.vertices[1] == ad.vertex_at(1)
        assert calls == [1]
        calls.clear()
        assert find_plane_k2m2(mirrored_twisted_view(17), 4) is None
        assert calls == []

    @pytest.mark.parametrize("m", [0, -1])
    def test_m_below_one_is_refused(self, m):
        with pytest.raises(InvalidSelection) as info:
            find_plane_k2m2(anchored_view(gen_convex(8)), m)
        assert str(info.value) == f"m must be at least 1, got {m}"

    def test_m1_always_found(self):
        for d in (gen_convex(5), gen_twisted(5), gen_halfcircle(5, seed=0)):
            cert = find_plane_k2m2(anchored_view(d), 1)
            assert cert is not None
            assert len(cert.vertices) == 3  # two centers, one leaf


class TestInsideDelta:
    def test_twisted_always_inside(self):
        ad = anchored_view(gen_twisted(8))
        cache = ChiCache(ad)
        for a, b, v in itertools.combinations(range(1, 8), 3):
            assert inside_delta(ad, a, b, v, cache) is True

    def test_convex_always_outside(self):
        ad = anchored_view(gen_convex(8))
        cache = ChiCache(ad)
        for a, b, v in itertools.combinations(range(1, 8), 3):
            assert inside_delta(ad, a, b, v, cache) is False

    def test_order_precondition(self):
        ad = anchored_view(gen_convex(8))
        with pytest.raises(InvalidTriple):
            inside_delta(ad, 3, 2, 5)
        with pytest.raises(InvalidTriple):
            inside_delta(ad, 2, 5, 5)


def inside_or_error(chi, a, b, vs):
    """Reference for planepath._inside: one ChiCache.get per position of vs,
    ascending, so an invalid triple raises get's message for the lowest v."""
    try:
        return sum(1 << v for v in range(b + 1, chi.ad.n)
                   if vs >> v & 1 and chi.get(a, b, v) == "001")
    except ObservationViolated as exc:
        return str(exc)


class TestInsideSplit:
    """planepath._inside against chi.get(a, b, v) == "001"."""

    @pytest.mark.parametrize("name, d, m", [
        *((f"half-circle 40 seed {s}", gen_halfcircle(40, seed=s), 7) for s in range(4)),
        ("half-circle 64 seed 1", gen_halfcircle(64, seed=1), 16),
        ("convex 20", gen_convex(20), 5),
        ("twisted 20", gen_twisted(20), 5),
        ("anchored explicit", anchored_restriction(gen_halfcircle(24, seed=3)), 5),
    ])
    def test_every_decreasing_step(self, monkeypatch, name, d, m):
        calls = []
        inside = planepath._inside

        def spy(chi, a, b, vs):
            calls.append((a, b, vs))
            return inside(chi, a, b, vs)

        monkeypatch.setattr(planepath, "_inside", spy)
        ad = anchored_view(d)
        out = extract_plane_path(ad, m_override=m)
        assert out.stats.branch == "decreasing"
        # one split per step
        assert len(calls) == out.stats.steps
        chi = ChiCache(ad)
        for a, b, vs in calls:
            assert inside(chi, a, b, vs) == inside_or_error(chi, a, b, vs)

    @pytest.mark.parametrize("name, d", list(violating_documents()))
    def test_invalid_triple_names_the_lowest(self, name, d):
        ad = anchored_view(d)
        chi = ChiCache(ad)
        raised = 0
        for a, b in itertools.combinations(range(1, ad.n - 1), 2):
            vs = (1 << ad.n) - (2 << b)  # every position above b
            try:
                got = planepath._inside(chi, a, b, vs)
            except ObservationViolated as exc:
                got = str(exc)
                raised += 1
            assert got == inside_or_error(ChiCache(ad), a, b, vs)
        assert raised

    def test_inside_delta_raises_gets_message(self):
        _, d = next(violating_documents())  # (1, 2, 3) colors 011
        ad = anchored_view(d)
        with pytest.raises(ObservationViolated, match=re.escape("triple (1, 2, 3) colored 011")):
            inside_delta(ad, 1, 2, 3)


class TestDefaultM:
    def test_desk_scale_values(self):
        assert default_m(3) == 1
        assert default_m(4096) == 1
        assert default_m(2**16 - 1) == 1
        assert default_m(2**16) == 2

    def test_below_three_vertices_m_is_one(self):
        assert default_m(2) == 1


class TestExtractPlanePath:
    def test_twisted_long_path(self):
        ad = anchored_view(gen_twisted(64))
        out = extract_plane_path(ad, m_override=4)
        assert out.stats.branch == "decreasing"
        assert out.vertex_count >= 32
        assert verify_certificate(ad.base, out.path).ok

    def test_trivial_branch_single_edge(self):
        ad = anchored_view(gen_halfcircle(8, seed=1))
        out = extract_plane_path(ad)  # default m = 1 at this scale
        assert out.stats.branch == "trivial"
        assert out.vertex_count == 2

    def test_two_vertices_are_refused(self):
        with pytest.raises(InvalidSelection) as info:
            extract_plane_path(anchored_view(gen_convex(2)))
        assert str(info.value) == "plane path extraction needs n >= 3"

    def test_three_vertices(self):
        ad = anchored_view(gen_convex(3))
        out = extract_plane_path(ad)
        assert out.vertex_count == 2

    def test_increasing_branch_with_star(self):
        ad = mirrored_twisted_view(24)
        out = extract_plane_path(ad, m_override=3, path_target=4)
        assert out.stats.branch == "increasing"
        assert out.bipartite is not None
        assert len(out.bipartite.vertices) == 2 + 9
        assert out.vertex_count >= 4
        assert verify_certificate(ad.base, out.path).ok
        assert verify_certificate(ad.base, out.bipartite).ok

    def test_halfcircle_paths_verify(self):
        for seed in range(10):
            d = gen_halfcircle(48, seed=seed)
            ad = anchored_view(d)
            out = extract_plane_path(ad, m_override=2, path_target=5)
            assert verify_certificate(d, out.path).ok

    def test_decreasing_branch_on_halfcircle(self):
        # pick seeds whose theta sequences stay short of the m^2 threshold
        hits = 0
        for seed in range(30):
            d = gen_halfcircle(40, seed=seed)
            ad = anchored_view(d)
            out = extract_plane_path(ad, m_override=4)
            if out.stats.branch == "decreasing":
                hits += 1
                assert verify_certificate(d, out.path).ok
                sizes = out.stats.candidate_sizes
                assert sizes == sorted(sizes, reverse=True)
                assert_step_shares(out.stats)
                assert_wedges_uniform(ad, out)
        assert hits > 0

    def test_random_rotations_keep_the_step_facts(self, monkeypatch):
        # the families above never split a run across a wedge; random
        # crossing data does, in some of the runs that return a path
        splits = []
        inside = planepath._inside

        def spy(chi, a, b, vs):
            got = inside(chi, a, b, vs)
            splits.append(got not in (0, vs))
            return got

        monkeypatch.setattr(planepath, "_inside", spy)
        split_runs = 0
        for ad in random_rotation_views(random.Random(7), 200):
            splits.clear()
            try:
                out = extract_plane_path(ad, m_override=2)
            except (ObservationViolated, InternalInvariantBroken):
                continue
            if out.stats.branch == "decreasing":
                split_runs += any(splits)
                assert_step_shares(out.stats)
                assert_wedges_uniform(ad, out)
        assert split_runs > 0

    def test_star_search_skipped_when_no_position_qualifies(self, monkeypatch):
        # m^2 = 256 exceeds every position's successor count, so theta is
        # read only by the decreasing branch, once per step
        ad = anchored_view(gen_halfcircle(64, seed=1))
        calls = count_theta_calls(monkeypatch)
        out = extract_plane_path(ad, m_override=16)
        assert out.stats.branch == "decreasing"
        assert len(calls) == out.stats.steps

    @pytest.mark.parametrize("kwargs, named", [
        pytest.param({"m_override": 1, "path_target": 40}, "path target unused: m = 1",
                     id="m 1, path target"),
        pytest.param({"path_target": 40}, "path target unused: m = 1",
                     id="default m, path target"),  # default m is 1 at n = 64
        pytest.param({"m_override": 1, "budget": oracles.OracleBudget(nodes=10)},
                     "budget unused: m = 1", id="m 1, budget"),
        pytest.param({"budget": oracles.OracleBudget(seconds=5.0)},
                     "budget unused: m = 1", id="default m, budget"),
    ])
    def test_trivial_branch_rejects_the_increasing_branch_parameters(self, kwargs, named):
        # m <= 1 fixes the branch before any work, so a path target or a
        # budget there could only be dropped
        ad = anchored_view(gen_halfcircle(64, seed=1))
        with pytest.raises(InvalidSelection, match=named):
            extract_plane_path(ad, **kwargs)

    @pytest.mark.parametrize("kwargs, named", [
        pytest.param({"path_target": 40}, "path target", id="path target"),
        pytest.param({"budget": oracles.OracleBudget(nodes=5)}, "budget", id="budget"),
        pytest.param({"path_target": 40, "budget": oracles.OracleBudget(seconds=3.0)},
                     "path target", id="both"),
    ])
    def test_decreasing_branch_refuses_the_parameters_it_leaves(self, kwargs, named):
        # m = 16 finds no star at n = 64, and only the star branch reads them
        ad = anchored_view(gen_halfcircle(64, seed=1))
        assert extract_plane_path(ad, m_override=16).stats.branch == "decreasing"
        with pytest.raises(InvalidSelection) as info:
            extract_plane_path(ad, m_override=16, **kwargs)
        assert str(info.value) == f"{named} unused: m = 16 takes the decreasing branch"

    def test_an_exhausted_leaf_search_returns_its_partial_path(self, monkeypatch):
        # half-circle 40 seed 0 at m = 2 takes the increasing branch; three
        # nodes end the leaf search, which hands back the path it holds
        stops = []
        search = planepath.longest_plane_path_exact

        def spy(*args, **kwargs):
            try:
                return search(*args, **kwargs)
            except BudgetExhausted as exc:
                stops.append(str(exc))
                raise

        monkeypatch.setattr(planepath, "longest_plane_path_exact", spy)
        d = gen_halfcircle(40, seed=0)
        out = extract_plane_path(anchored_view(d), m_override=2, path_target=10,
                                 budget=oracles.OracleBudget(nodes=3))
        assert stops == ["path search budget exhausted after 4 nodes"]
        assert out.stats.branch == "increasing"
        assert out.path.vertices == (23, 30, 34)
        assert verify_certificate(d, out.path).ok

    def test_reports_vertex_and_edge_counts(self):
        ad = anchored_view(gen_twisted(16))
        out = extract_plane_path(ad, m_override=2)
        assert out.edge_count == out.vertex_count - 1
        lines = "\n".join(out.report_lines())
        assert "vertices" in lines and "edges" in lines

    def test_default_budget_counts_nodes_not_seconds(self, monkeypatch):
        # the star's leaves are 1..16; every independent pair of leaf edges
        # crosses unless both lie among 12..16, so the longest plane path
        # among the leaves is 12..16 and turns up only after 11 start
        # vertices' worth of nodes
        ad = mirrored_twisted_view(20)
        late = set(range(12, 17))
        edges = list(itertools.combinations(range(1, 17), 2))
        extra = {
            sorted_pair(edge_index(*e1, ad.n), edge_index(*e2, ad.n))
            for e1, e2 in itertools.combinations(edges, 2)
            if not set(e1) & set(e2) and not set(e1 + e2) <= late
        }
        d = dataclasses.replace(ad.base, crossings=set(crossing_pairs(ad.base)) | extra)
        ad = AnchoredDrawing(d, ad.v0, ad.order)
        search = oracles.longest_plane_path_exact(d, vertices=range(1, 17), target=99)
        assert search.nodes > 1024
        want = extract_plane_path(ad, m_override=4, path_target=99)
        assert want.stats.branch == "increasing"
        assert want.path.vertices == (12, 13, 14, 15, 16)
        # a clock that jumps 11 s per reading would end a 10 s budget at
        # the first time check, after 1024 nodes
        ticks = itertools.count(0.0, 11.0)
        monkeypatch.setattr(oracles.time, "monotonic", lambda: next(ticks))
        got = extract_plane_path(ad, m_override=4, path_target=99)
        assert got.path == want.path


class TestDecreasingRunGuard:
    """At m = 16 and n < 257 the star search reads no theta, so every _lis
    call is a step of the decreasing branch; at each step in turn the run is
    cut to the floor ceil(|S|/m^2) = 1, or one below it."""

    @staticmethod
    def steps(monkeypatch, short):
        ad = anchored_view(gen_halfcircle(64, seed=1))
        sizes = extract_plane_path(ad, m_override=16).stats.candidate_sizes
        # |S| = 1 at the last step: a guard that subtracts one from |S| is
        # caught there
        assert sizes[-1] == 1
        lis = planepath._lis
        for size in sizes:
            def cut(seq, size=size):
                _, run = lis(seq)
                if len(seq) == size:
                    run = run[:1 - short]
                return len(run), run

            with monkeypatch.context() as patch:
                patch.setattr(planepath, "_lis", cut)
                yield size, lambda: extract_plane_path(ad, m_override=16)

    def test_run_below_the_floor_raises(self, monkeypatch):
        message = "decreasing run shorter than |S|/m^2 despite no long increasing run"
        for size, extract in self.steps(monkeypatch, 1):
            with pytest.raises(InternalInvariantBroken, match=re.escape(message)):
                extract()

    def test_run_at_the_floor_passes(self, monkeypatch):
        for size, extract in self.steps(monkeypatch, 0):
            out = extract()
            assert out.stats.candidate_sizes[-1] == size
            assert out.stats.lds_lengths[-1] == 1


class TestThetaGuard:
    """At m = 16 and n < 257 the star search reads no theta, so the s-th
    theta call is step s of the decreasing branch; at each step in turn the
    next path vertex is dropped from it."""

    def test_a_missing_candidate_raises_at_every_step(self, monkeypatch):
        ad = anchored_view(gen_halfcircle(64, seed=1))
        out = extract_plane_path(ad, m_override=16)
        assert verify_certificate(ad.base, out.path).ok
        path = path_positions(ad, out)
        assert out.stats.steps == len(path) - 1 == 6
        message = "theta missed candidates above the tip"
        for step in range(out.stats.steps):
            calls = []

            def dropped(ad, i, step=step):
                calls.append(i)
                seq = theta(ad, i)
                if len(calls) == step + 1:
                    seq.remove(path[step + 1])
                return seq

            with monkeypatch.context() as patch:
                patch.setattr(planepath, "theta", dropped)
                with pytest.raises(InternalInvariantBroken, match=re.escape(message)):
                    extract_plane_path(ad, m_override=16)
            assert calls == path[:step + 1]


def explicit_view(n, crossing_edges):
    """Anchored at 0 in the order 1..n-1, with the given edge pairs crossing."""
    pairs = {
        sorted_pair(edge_index(*e1, n), edge_index(*e2, n)) for e1, e2 in crossing_edges
    }
    d = Drawing(n=n, model="explicit", crossings=frozenset(pairs))
    return AnchoredDrawing(d, 0, tuple(range(1, n)))


class TestAnchorEdgesClear:
    def test_clear_path_passes(self):
        ad = explicit_view(6, [((1, 3), (2, 4))])
        planepath._assert_anchor_edges_clear(ad, ChiCache(ad), [1, 2, 3, 4, 5])

    def test_names_the_first_anchor_edge_and_pair(self):
        # three offending (x, y, z): the anchor edge to the earliest path
        # vertex is named, with its first later pair
        ad = explicit_view(6, [((0, 2), (3, 4)), ((0, 1), (3, 5)), ((0, 1), (4, 5))])
        message = "anchor edge to 1 crosses path pair (3,5)"
        with pytest.raises(InternalInvariantBroken, match=re.escape(message)):
            planepath._assert_anchor_edges_clear(ad, ChiCache(ad), [1, 2, 3, 4, 5])

    def test_names_a_later_anchor_edge(self):
        # only the anchor edge to the second path vertex crosses a later pair
        ad = explicit_view(6, [((0, 2), (3, 4))])
        message = "anchor edge to 2 crosses path pair (3,4)"
        with pytest.raises(InternalInvariantBroken, match=re.escape(message)):
            planepath._assert_anchor_edges_clear(ad, ChiCache(ad), [1, 2, 3, 4, 5])

    def test_reads_path_positions_through_the_anchored_order(self):
        # positions 1, 3, 4 are vertices 5, 1, 2 in this order
        d = explicit_view(6, [((0, 5), (1, 2))]).base
        ad = AnchoredDrawing(d, 0, (5, 4, 1, 2, 3))
        message = "anchor edge to 5 crosses path pair (1,2)"
        with pytest.raises(InternalInvariantBroken, match=re.escape(message)):
            planepath._assert_anchor_edges_clear(ad, ChiCache(ad), [1, 3, 4])
        planepath._assert_anchor_edges_clear(ad, ChiCache(ad), [3, 4, 1])
