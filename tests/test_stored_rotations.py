"""Stored rotations and anchors on geometric drawings: the model is the only
source of a drawing's rotation system and anchored order, so a stored copy
must be the model's and is checked once, when the drawing is built."""

import dataclasses
import json

import pytest

from cstg import codec
from cstg.cli import dispatch
from cstg.drawing import Drawing
from cstg.errors import AnchorUnavailable, InvalidSelection, ValidationError
from cstg.generators import (
    anchored_order,
    anchored_view,
    canonical_anchor,
    gen_convex,
    gen_halfcircle,
    gen_horton,
    gen_straightline,
    gen_twisted,
    rotation_at,
    rotations_of,
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


def reversed_at(d, v):
    """d's drawn rotations with the one at v reversed."""
    rots = rotations_of(d)
    return rots[:v] + (rots[v][::-1],) + rots[v + 1:]


def certified(d):
    """The vertices the model certifies on the unbounded cell."""
    if d.model == "convex":
        return set(range(d.n))
    if d.model == "points":
        return hull_vertices(d.points)
    return {canonical_anchor(d)}


class TestStoredRotations:
    def test_a_reversed_rotation_is_refused_and_named(self, d):
        v = 5 if canonical_anchor(d) != 5 else 6
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
        v0 = canonical_anchor(d)
        order = anchored_order(d, v0)
        with pytest.raises(InvalidSelection, match="cut at another gap"):
            Drawing(**payload(d), anchor=(v0, order[1:] + order[:1]))

    def test_the_drawn_order_is_accepted_where_the_model_certifies(self, d):
        certifies = certified(d)
        for v0 in range(d.n):
            if v0 not in certifies:
                with pytest.raises(AnchorUnavailable):
                    anchored_order(d, v0)
                others = tuple(u for u in range(d.n) if u != v0)
                with pytest.raises(AnchorUnavailable):
                    Drawing(**payload(d), anchor=(v0, others))
                continue
            order = anchored_order(d, v0)
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
