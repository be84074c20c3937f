"""One battery over every drawing model: each name in ``drawing.MODELS``
against its entry in ``models.REGISTRY``, so that a model with no entry
fails, named.  One case per small sample: the kernel against the
reference predicate, by vertex and under orders.  One case per model, over
its small samples: the closed-form K4 rule on the rotations against
cross(), the chromatics star against three kernel reads, anchors out of
range, the rotations at every certified anchor, a restriction's
rows, arc ends and document bytes, and the exact answers and tables under
relabellings and restrictions; at n >= 256, the kernel on sampled triples
and on triples of listed crossings.
"""

import dataclasses
import itertools
import math
import random

import models
import pytest
from helpers import assert_rotations_follow_the_colors, assert_star_reads_the_pairs

from cstg.cli import dispatch
from cstg.codec import decode_drawing, encode_drawing, save_drawing
from cstg.drawing import (CONVEX, MODELS, PLANE_PATH, TWISTED, Certificate, cross,
                          crossing_masks, cyclic_equal, induced_subdrawing, sorted_pair,
                          verify_certificate)
from cstg.errors import InvalidSelection
from cstg.generators import anchored_view, rotation_at
from cstg.oracles import longest_plane_path_exact, max_pattern_exact


@pytest.fixture(params=sorted(models.REGISTRY))
def entry(request):
    return models.REGISTRY[request.param]


@pytest.fixture(params=sorted(models.SAMPLES))
def sample(request):
    return request.param, models.SAMPLES[request.param]


@pytest.mark.parametrize("model", sorted(MODELS))
def test_the_entry_is_complete(model):
    assert model not in models.incomplete(), f"model {model!r} has no complete entry"


def test_an_incomplete_model_is_named(monkeypatch):
    # a new model with no entry, and straight edges given an arc's sweep
    monkeypatch.setitem(MODELS, "spiral", MODELS["twisted"])
    points = dataclasses.replace(models.REGISTRY["points"], germ_sweep=models._twisted_sweep)
    monkeypatch.setitem(models.REGISTRY, "points", points)
    assert models.incomplete() == ["points", "spiral"]


def predicate_mask(f, order, a, b, c):
    """N(a, b, c) over `order`, bit p for order[p], one call of f per bit."""
    return sum(1 << p for p, w in enumerate(order)
               if w not in (a, b, c) and f(*sorted_pair(a, b), *sorted_pair(c, w)))


def predicate_masks(d, order):
    f = models.crossing_function(d)
    return {key: predicate_mask(f, order, *key) for key in itertools.permutations(order, 3)}


def mask_orders(d, rng):
    """(name, order): a certificate order, the reversal, a random permutation,
    and random subsets in random order: of any size, and of no, one and four
    vertices (cross() builds four-vertex kernels)."""
    yield "certificate", max_pattern_exact(d, "convex").witness
    yield "reversal", range(d.n - 1, -1, -1)
    yield "permutation", rng.sample(range(d.n), d.n)
    yield "subset", rng.sample(range(d.n), rng.randint(3, d.n))
    yield "empty", ()
    yield "single", rng.sample(range(d.n), 1)
    yield "quadruple", rng.sample(range(d.n), 4)


def test_every_ordered_triple_matches_the_predicate(sample):
    _, d = sample
    N = crossing_masks(d)
    for key, want in predicate_masks(d, range(d.n)).items():
        assert N(*key) == want, key


def test_an_order_restricts_and_relabels_the_masks(sample):
    name, d = sample
    for kind, order in mask_orders(d, random.Random(name)):
        order = tuple(order)
        N = crossing_masks(d, order)
        for key, want in predicate_masks(d, order).items():
            assert N(*key) == want, (kind, key)


def test_the_kernel_matches_the_predicate_at_large_n(entry):
    # 300 sampled triples, and a triple (a, b, c) for each of up to 300
    # listed crossing pairs ab, cw, whose mask must show w; each mask
    # against every other vertex
    d = entry.large()
    assert d.n >= 256
    f = entry.predicate(d)
    rng = random.Random(d.model)
    order = rng.sample(range(d.n), d.n)
    at = {v: p for p, v in enumerate(order)}
    N = crossing_masks(d, order)
    triples = [(*rng.sample(range(d.n), 3), None) for _ in range(300)]
    listed = entry.large_crossings()
    for pair in rng.sample(listed, min(300, len(listed))):
        (a, b), (c, w) = (rng.sample(e, 2) for e in rng.sample(pair, 2))
        triples.append((a, b, c, w))
    crossings = 0
    for a, b, c, w in triples:
        want = predicate_mask(f, order, a, b, c)
        assert N(a, b, c) == want, (a, b, c)
        assert w is None or want >> at[w] & 1, (a, b, c, w)
        crossings += bin(want).count("1")
    assert crossings >= 100


# the K4 rule: for four vertices in an order (a, b, c, d), s_x says whether
# the rotation at x lists the other three in their cyclic order in (a, b,
# c, d); the sign pattern (s_a, s_b, s_c) names the one pairing that
# crosses, or none
PAIRINGS = {"ab|cd": ((0, 1), (2, 3)), "ac|bd": ((0, 2), (1, 3)), "ad|bc": ((0, 3), (1, 2))}


def k4_crossing(s):
    """The pairing of (a, b, c, d) that crosses by the rule, or None."""
    sa, sb, sc, _ = s
    if sa == sc != sb:
        return None
    if sa != sb and sa != sc:
        return "ab|cd"
    return "ac|bd" if sa == sb == sc else "ad|bc"


def test_the_rotations_decide_each_k4_by_the_closed_form_rule(entry):
    # a second reference predicate: every K4 of every sample with rotations,
    # in a seeded random order, has an even number of true signs, and the
    # rule's pairing is the one that cross() reports, the other two not
    checked = 0
    for name, d in entry.samples.items():
        if d.model == "explicit" and d.rotations is None:
            continue
        rots, rng = models.rotations_of(d), random.Random(name)
        for quad in itertools.combinations(range(d.n), 4):
            quad = rng.sample(quad, 4)
            s = tuple(cyclic_equal([u for u in rots[x] if u in quad],
                                   [u for u in quad if u != x]) for x in quad)
            assert sum(s) % 2 == 0, (name, quad, s)
            want = k4_crossing(s)
            for pairing, ((i, j), (k, l)) in PAIRINGS.items():
                got = cross(d, (quad[i], quad[j]), (quad[k], quad[l]))
                assert got == (pairing == want), (name, quad, s, pairing)
            checked += 1
    assert checked > 0


def test_the_star_is_three_kernel_reads(entry):
    for d in entry.samples.values():
        for seed in range(3):
            assert_star_reads_the_pairs(models.shuffled_view(d, seed), seed)


def test_an_anchor_out_of_range_is_named(entry):
    # before any rotation is read, so also where none is stored
    for name, d in entry.samples.items():
        for v0 in (-1, d.n, 999):
            with pytest.raises(InvalidSelection) as info:
                anchored_view(d, v0)
            assert str(info.value) == f"anchor {v0} out of range", name


def test_stored_rotations_do_not_move_the_gap(entry):
    # the order is cut from the drawn rotation: stored rotations that start
    # at another germ give the same order, and one that is not a cyclic
    # reading of the drawn one at v0 is refused (an explicit drawing's
    # stored rotations are its drawn ones, so its anchor order is named)
    for name, d in entry.samples.items():
        for ad in models.anchored_views(d):
            v0, rots = ad.v0, models.rotations_of(d)
            shifted = dataclasses.replace(d, rotations=tuple(r[1:] + r[:1] for r in rots))
            assert anchored_view(shifted, v0).order == ad.order, name
            r = rots[v0]
            swapped = rots[:v0] + ((r[1], r[0]) + r[2:],) + rots[v0 + 1:]
            with pytest.raises(InvalidSelection, match=f"rotation at (vertex {v0} is not|v0)"):
                dataclasses.replace(d, rotations=swapped)


def test_rotations_follow_the_colors_at_every_certified_anchor(entry):
    for d in entry.samples.values():
        for ad in models.anchored_views(d):
            assert cyclic_equal(ad.order[::-1], rotation_at(d, ad.v0))
            assert_rotations_follow_the_colors(ad)


def test_a_restriction_stacks_the_source_kernel_rows(entry):
    # row c of the int of edge (a, b) of a restriction to vs is the source
    # kernel's N(vs[a], vs[b], vs[c]) over vs; rows a and b are 0
    for name, d in entry.samples.items():
        rng = random.Random(name)
        for k in (2, 3, min(5, d.n), d.n - 2, d.n):
            vs = rng.sample(range(d.n), k)
            bits = induced_subdrawing(d, vs).crossings.bits
            N = crossing_masks(d, vs)
            full = (1 << k) - 1
            for x, (a, b) in zip(bits, itertools.combinations(range(k), 2)):
                assert x >> k * k == 0
                rows = [x >> c * k & full for c in range(k)]
                assert rows[a] == rows[b] == 0, (name, vs, a, b)
                for c in set(range(k)) - {a, b}:
                    assert rows[c] == N(vs[a], vs[b], vs[c]), (name, vs, a, b, c)


def test_an_arc_swept_over_the_whole_turn_ends_at_its_vertices(entry):
    # the arcs the SVG renderer draws; straight edges end there by construction
    for d in entry.samples.values():
        model = MODELS[d.model]
        if model.turn is None:
            continue
        pos = model.positions(d)
        for u, w in itertools.combinations(range(d.n), 2):
            xs, ys = model.arc(d, pos, u, w, model.turn)
            ends = sorted([(xs[0], ys[0]), (xs[-1], ys[-1])])
            for got, want in zip(ends, sorted([pos[u], pos[w]])):
                assert math.dist(got, want) < 1e-9, (d.model, d.n, u, w)


def test_documents_round_trip_byte_for_byte(entry):
    for name, d in entry.samples.items():
        text = encode_drawing(d)
        back = decode_drawing(text)
        assert back == d, name
        assert encode_drawing(back) == text, name


# -- exact answers and tables under relabelling ---------------------------------
#
# every exact answer depends only on which pairs cross, so it does not move
# under a relabelling and does not grow under a restriction; a pruning rule
# that reads labels shows here, on every family


def exact_answers(d):
    """(kind, witness) of the convex, twisted and plane-path optima of d."""
    return [(CONVEX, max_pattern_exact(d, CONVEX).witness),
            (TWISTED, max_pattern_exact(d, TWISTED).witness),
            (PLANE_PATH, longest_plane_path_exact(d).witness)]


def test_exact_answers_do_not_move_under_relabelling(entry):
    # three seeded relabellings keep every optimum; a restriction to n - 2
    # vertices raises none, and its witnesses, mapped through the
    # selection, are certificates on the drawing
    for name, d in entry.samples.items():
        if d.n > 14:
            continue
        rng = random.Random(name)
        sizes = [len(witness) for _, witness in exact_answers(d)]
        for _ in range(3):
            relabelled = induced_subdrawing(d, rng.sample(range(d.n), d.n))
            assert [len(w) for _, w in exact_answers(relabelled)] == sizes, name
        vs = rng.sample(range(d.n), d.n - 2)
        for size, (kind, witness) in zip(sizes, exact_answers(induced_subdrawing(d, vs))):
            assert len(witness) <= size, (name, kind, vs)
            mapped = Certificate(kind, tuple(vs[v] for v in witness))
            assert verify_certificate(d, mapped).ok, (name, kind, vs, witness)


@pytest.mark.parametrize("what", ["chi", "phi"])
def test_tables_of_a_view_are_those_of_its_anchored_restriction(entry, tmp_path, what):
    # `tables` reads the canonical anchored view; the explicit restriction
    # to it, anchored at 0 in the identity order, writes the same bytes
    for name, d in entry.samples.items():
        if not entry.certified(d):
            continue
        tables = []
        for key, source in ("view", d), ("restriction", models.anchored_restriction(d)):
            doc, out = tmp_path / f"{key}.cstg", tmp_path / f"{key}.csv"
            save_drawing(source, str(doc))
            assert dispatch(["tables", what, str(doc), "--out", str(out)]) == 0, (name, key)
            tables.append(out.read_bytes())
        assert tables[0] == tables[1], name
