"""Stored rotations and anchors: on a geometric drawing the model is the
only source of a drawing's rotation system and anchored order, so a stored
copy must be the model's; on an anchored explicit drawing the rotations
must agree with the crossings with the anchor edges.  Both are checked
once, when the drawing is built."""

import dataclasses
import json
import random

import pytest
from helpers import assert_rotations_follow_the_colors
from models import REGISTRY, anchored_restriction, anchored_views, rotations_of

from cstg import codec
from cstg.cli import dispatch
from cstg.drawing import Drawing
from cstg.errors import AnchorUnavailable, DegenerateInput, InvalidSelection, ValidationError
from cstg.generators import (
    anchored_view,
    gen_convex,
    gen_halfcircle,
    gen_horton,
    gen_straightline,
    gen_twisted,
    rotation_at,
)
from cstg.planepath import theta

DRAWINGS = {
    "convex 12": gen_convex(12),
    "twisted 12": gen_twisted(12),
    "half-circle 12 seed 1": gen_halfcircle(12, seed=1),
    "horton 16": gen_straightline(gen_horton(4)),
}


@pytest.fixture(params=sorted(DRAWINGS))
def d(request):
    return DRAWINGS[request.param]


def payload(d):
    """The keywords that build a bare copy of d."""
    return dict(n=d.n, model=d.model, signs=d.signs, points=d.points)


def reversed_at(d, v):
    """d's drawn rotations with the one at v reversed."""
    rots = rotations_of(d)
    return rots[:v] + (rots[v][::-1],) + rots[v + 1:]


class TestStoredRotations:
    def test_a_reversed_rotation_is_refused_and_named(self, d):
        v = 5 if anchored_view(d).v0 != 5 else 6
        message = f"rotation at vertex {v} is not the drawn one"
        with pytest.raises(InvalidSelection) as info:
            Drawing(**payload(d), rotations=reversed_at(d, v))
        assert str(info.value) == message
        doc = json.loads(codec.encode_drawing(d))
        doc["rotations"] = [list(r) for r in reversed_at(d, v)]
        with pytest.raises(ValidationError) as info:
            codec.decode_drawing(json.dumps(doc))
        assert str(info.value) == message

    def test_a_stored_anchor_at_another_gap_is_refused(self, d):
        ad = anchored_view(d)
        v0, order = ad.v0, ad.order
        with pytest.raises(InvalidSelection, match="cut at another gap"):
            Drawing(**payload(d), anchor=(v0, order[1:] + order[:1]))

    def test_the_drawn_order_is_accepted_where_the_model_certifies(self, d):
        certifies = REGISTRY[d.model].certified(d)
        for v0 in range(d.n):
            if v0 not in certifies:
                with pytest.raises(AnchorUnavailable):
                    anchored_view(d, v0)
                others = tuple(u for u in range(d.n) if u != v0)
                with pytest.raises(AnchorUnavailable):
                    Drawing(**payload(d), anchor=(v0, others))
                continue
            order = anchored_view(d, v0).order
            carrier = Drawing(**payload(d), anchor=(v0, order))
            assert anchored_view(carrier, v0).order == order

    def test_stored_copies_read_as_the_bare_drawing(self, d, tmp_path, capsys):
        ad = anchored_view(d)
        carrier = Drawing(**payload(d), rotations=rotations_of(d), anchor=(ad.v0, ad.order))
        assert [rotation_at(carrier, v) for v in range(d.n)] == list(rotations_of(d))
        stored = anchored_view(carrier)
        assert (stored.v0, stored.order) == (ad.v0, ad.order)
        assert [theta(stored, i) for i in range(1, d.n)] == [theta(ad, i) for i in range(1, d.n)]
        text = codec.encode_drawing(carrier)
        assert codec.encode_drawing(codec.decode_drawing(text)) == text
        tables = {}
        for name, doc in (("bare", codec.encode_drawing(d)), ("stored", text)):
            path = tmp_path / f"{name}.cstg"
            path.write_text(doc)
            for kind in ("phi", "chi"):
                out = tmp_path / f"{name}.{kind}.csv"
                assert dispatch(["tables", kind, str(path), "--out", str(out)]) == 0
                tables[name, kind] = out.read_bytes()
        capsys.readouterr()
        for kind in ("phi", "chi"):
            assert tables["stored", kind] == tables["bare", kind]

    def test_a_shifted_stored_rotation_reads_from_the_model_germ(self, d):
        shifted = tuple(r[1:] + r[:1] for r in rotations_of(d))
        carrier = dataclasses.replace(d, rotations=shifted)
        assert rotations_of(carrier) == rotations_of(d)


@pytest.mark.parametrize("family", ["convex", "twisted"])
@pytest.mark.parametrize("argv", [
    ["verify", "{}", "--self"],
    ["extract", "planepath", "{}", "--m-override", "2"],
    ["extract", "pattern", "{}", "--m1", "3", "--m2", "3"],
])
def test_cli_refuses_a_reversed_rotation_at_the_boundary(family, argv, tmp_path, capsys):
    d = gen_convex(12) if family == "convex" else gen_twisted(12)
    doc = json.loads(codec.encode_drawing(d))
    doc["rotations"] = [list(r) for r in reversed_at(d, 5)]
    path = tmp_path / "bad.cstg"
    path.write_text(json.dumps(doc))
    code = dispatch([str(path) if arg == "{}" else arg for arg in argv])
    err = capsys.readouterr().err
    assert code == 3
    assert err == "invalid input: ValidationError: rotation at vertex 5 is not the drawn one\n"


@pytest.mark.parametrize("kwargs, message", [
    (dict(n=6, model="twisted", anchor=(0, (1, 2, 3, 4, 5))),
     "stored anchor at v0 0: only the outermost spiral vertex is certified on the unbounded cell"),
    (dict(n=4, model="halfcircle", signs="UUUUUU", anchor=(1, (0, 2, 3))),
     "stored anchor at v0 1: only the leftmost vertex is certified on the unbounded cell"),
    (dict(n=4, model="points", points=((0, 0), (4, 0), (0, 4), (1, 1)), anchor=(3, (0, 1, 2))),
     "stored anchor at v0 3: point 3 is not a hull vertex"),
], ids=["twisted", "half-circle", "points"])
def test_an_uncertified_stored_anchor_is_named(kwargs, message):
    # the model's refusal, said of the stored anchor, at construction and
    # at decode
    with pytest.raises(AnchorUnavailable) as info:
        Drawing(**kwargs)
    assert str(info.value) == message
    bare = {key: value for key, value in kwargs.items() if key != "anchor"}
    doc = json.loads(codec.encode_drawing(Drawing(**bare)))
    v0, order = kwargs["anchor"]
    doc["anchor"] = {"order": list(order), "v0": v0}
    with pytest.raises(ValidationError) as info:
        codec.decode_drawing(json.dumps(doc))
    assert str(info.value) == message


def random_point_sets(count):
    """``count`` drawings on 6 to 12 random integer points in general position."""
    rng = random.Random(5)
    while count:
        try:
            d = gen_straightline(rng.sample([(x, y) for x in range(40) for y in range(40)],
                                            rng.randint(6, 12)))
        except DegenerateInput:
            continue
        count -= 1
        yield d


RULE_FAMILIES = {
    "convex": [gen_convex(n) for n in range(4, 13)],
    "twisted": [gen_twisted(n) for n in range(4, 13)],
    "half-circle": [gen_halfcircle(n, seed=s) for n in (5, 8, 11, 14) for s in range(10)],
    "points": [gen_straightline(gen_horton(k)) for k in (2, 3, 4)] + list(random_point_sets(20)),
}


def mirror(x):
    """The mirror image of the anchored explicit drawing x: every rotation
    and the anchored order reversed."""
    v0, order = x.anchor
    return Drawing(n=x.n, model="explicit", crossings=x.crossings,
                   rotations=tuple(rot[::-1] for rot in x.rotations), anchor=(v0, order[::-1]))


class TestAnchoredRotationRule:
    @pytest.mark.parametrize("family", sorted(RULE_FAMILIES))
    def test_anchored_restrictions_and_their_mirrors_are_accepted(self, family):
        # each constructs, so the constructor's check agrees, and the rule
        # holds on the stored rotations read back: x's are d's drawn ones
        for d in RULE_FAMILIES[family]:
            for ad in anchored_views(d):
                x = anchored_restriction(d, ad.v0)
                for y in (x, mirror(x)):
                    assert_rotations_follow_the_colors(anchored_view(y))

    @pytest.mark.parametrize("name, d", [
        ("half-circle 11 seed 3", gen_halfcircle(11, seed=3)),
        ("horton 16", gen_straightline(gen_horton(4))),
    ], ids=["half-circle 11 seed 3", "horton 16"])
    def test_two_neighbours_swapped_are_named(self, name, d):
        # swapping two germs that follow each other in the reading after
        # the anchor edge changes the order of that pair alone
        x = anchored_restriction(d)
        rng = random.Random(name)
        for _ in range(20):
            v = rng.randrange(1, x.n)
            rot = x.rotations[v]
            cut = rot.index(0)
            read = rot[cut + 1:] + rot[:cut]
            i = rng.randrange(len(read) - 1)
            swapped = read[:i] + (read[i + 1], read[i]) + read[i + 2:]
            rotations = x.rotations[:v] + ((0,) + swapped,) + x.rotations[v + 1:]
            with pytest.raises(InvalidSelection) as info:
                dataclasses.replace(x, rotations=rotations)
            assert str(info.value) == (
                f"rotation at vertex {v} puts {read[i + 1]} before {read[i]}, "
                "against its crossings with the anchor edges")
