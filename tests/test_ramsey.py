"""Online game engine: rules, strategies, termination bounds, transcripts."""

import math
import random

import pytest

from cstg.errors import BudgetExhausted, RuleViolation
from cstg.ramsey import (
    BLUE,
    RED,
    GameState,
    GameTranscript,
    adversarial_painter,
    naive_builder,
    run_game,
)


def random_painter(seed):
    rng = random.Random(seed)

    def paint(state, edge):
        return RED if rng.getrandbits(1) else BLUE

    return paint


def erdos_szekeres_edge_cap(m):
    vertices = (m - 1) ** 2 + 1
    return math.comb(vertices, 2)


class TestRunGame:
    def test_m2_ends_after_one_edge(self):
        t = run_game(2, naive_builder(), adversarial_painter(), budget=10)
        assert t.total_edges == 1
        assert t.stages == 2
        assert len(t.witness) == 2

    def test_m3_naive_within_ten_edges_any_painter(self):
        painters = [adversarial_painter()] + [random_painter(s) for s in range(20)]
        for painter in painters:
            t = run_game(3, naive_builder(), painter, budget=erdos_szekeres_edge_cap(3))
            assert t.total_edges <= 10

    def test_adversarial_forces_four_vertices_for_m3(self):
        t = run_game(3, naive_builder(), adversarial_painter(), budget=100)
        assert t.stages >= 4

    def test_first_edge_tie_breaks_red(self):
        t = run_game(2, naive_builder(), adversarial_painter(), budget=5)
        assert t.events[0][3] == RED

    def test_naive_terminates_within_es_bound(self):
        # exhaustive over target sizes, adversarial plus seeded painters
        for m in range(2, 9):
            cap = erdos_szekeres_edge_cap(m)
            for painter in [adversarial_painter()] + [
                random_painter(s) for s in range(100)
            ]:
                t = run_game(m, naive_builder(), painter, budget=cap)
                assert t.total_edges <= cap
                assert len(t.witness) == m

    def test_witness_is_monochromatic_monotone(self):
        t = run_game(5, naive_builder(), adversarial_painter(), budget=2000)
        colors = {
            t.replay().colors[(u, w)]
            for u, w in zip(t.witness, t.witness[1:])
        }
        assert colors == {t.witness_color}
        assert t.witness == sorted(t.witness)

    def test_budget_exhausted_carries_transcript(self):
        with pytest.raises(BudgetExhausted) as info:
            run_game(6, naive_builder(), adversarial_painter(), budget=3)
        assert info.value.payload.total_edges == 3

    def test_replay_reproduces_state(self):
        t = run_game(4, naive_builder(), random_painter(9), budget=500)
        state = t.replay()
        assert state.total_edges == t.total_edges
        assert state.stage == t.stages
        length, end, color = state.best()
        assert length >= 4
        assert state.path_witness(end, color)[-4:] == t.witness


class TestRules:
    def test_builder_must_build_every_stage_after_first(self):
        def lazy_builder(state, w):
            return [] if state.stage == 3 else [u for u in state.vertices if u != w]

        with pytest.raises(RuleViolation):
            run_game(9, lazy_builder, adversarial_painter(), budget=10**6)

    def test_edges_must_touch_newest_vertex(self):
        state = GameState()
        state.add_vertex()
        state.add_vertex()
        state.add_vertex()
        with pytest.raises(RuleViolation):
            state.add_edge(1, 2, RED)  # 3 is the newest

    def test_duplicate_edge_rejected(self):
        def stuttering_builder(state, w):
            return [1, 1] if state.stage == 2 else []

        with pytest.raises(RuleViolation):
            run_game(5, stuttering_builder, adversarial_painter(), budget=100)

    def test_labels_must_increase(self):
        state = GameState()
        state.add_vertex(4)
        with pytest.raises(RuleViolation) as info:
            state.add_vertex(4)
        assert str(info.value) == "vertex labels must strictly increase"

    def test_edges_must_start_at_an_earlier_vertex(self):
        state = GameState()
        state.add_vertex()
        state.add_vertex()
        with pytest.raises(RuleViolation) as info:
            state.add_edge(5, 2, RED)
        assert str(info.value) == "edge endpoint 5 does not exist yet"

    def test_replay_keeps_the_stages_after_the_last_edge(self):
        # two stages with no edge, as a transcript that stopped there holds
        state = GameTranscript(target=3, stages=2).replay()
        assert (state.stage, state.vertices, state.total_edges) == (2, [1, 2], 0)


class TestNaiveBuilder:
    def test_proposes_all_priors_ascending(self):
        build = naive_builder()
        state = GameState()
        for _ in range(4):
            state.add_vertex()
        assert list(build(state, 4)) == [1, 2, 3]


class TestHalvingPainter:
    """Extraction's halving split: one pair's masks per built edge."""

    def test_convex_input_never_shrinks_candidates(self):
        from cstg.chromatics import ChiCache
        from cstg.extraction import _halve
        from cstg.generators import anchored_view, gen_convex

        ad = anchored_view(gen_convex(12))
        pool = sum(1 << v for v in range(4, 12))
        # every candidate colors 010, so the 000 side is empty and the
        # whole pool survives the edge
        assert _halve(ChiCache(ad), 1, 3, pool) == ("010", pool)

    def test_out_of_class_candidate_breaks_invariant(self):
        from cstg.chromatics import ChiCache
        from cstg.errors import InternalInvariantBroken
        from cstg.extraction import _halve
        from cstg.generators import anchored_view, gen_twisted

        # twisted triples color 001, which the split must refuse
        ad = anchored_view(gen_twisted(8))
        with pytest.raises(InternalInvariantBroken, match=r"candidate 5 colors chi\(2,3,5\)=001"):
            _halve(ChiCache(ad), 2, 3, 1 << 5 | 1 << 6)

    def test_empty_candidates_tie_to_000(self):
        from cstg.chromatics import ChiCache
        from cstg.extraction import _halve
        from cstg.generators import anchored_view, gen_convex

        assert _halve(ChiCache(anchored_view(gen_convex(4))), 1, 2, 0) == ("000", 0)


class TestMeasuredCost:
    def test_m5_cost_within_bound_and_reported(self):
        cap = erdos_szekeres_edge_cap(5)  # C(17,2) = 136
        assert cap == 136
        t = run_game(5, naive_builder(), adversarial_painter(), budget=cap)
        reference = 5 * 5 * math.log2(5)  # asymptotic builder cost scale
        assert t.total_edges <= cap
        # reported, not asserted: measured vs asymptotic reference
        print(f"m=5 edges built: {t.total_edges} (reference ~{reference:.1f})")
