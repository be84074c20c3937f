"""Canonical serialization: round trips, determinism, validation."""

import dataclasses
import functools
import itertools
import json
import random
import re
import tracemalloc

import pytest
from helpers import BOUNDARY, independent_pairs
from models import random_explicit, rotations_of

from cstg import codec, drawing
from cstg.chromatics import validate_observation
from cstg.codec import (
    decode_certificate,
    decode_drawing,
    encode_certificate,
    encode_drawing,
)
from cstg.drawing import (
    CONVEX,
    EXPLICIT_N_CAP,
    TWISTED,
    Certificate,
    Drawing,
    cross,
    crossing_pairs,
    edge_index,
    induced_subdrawing,
    verify_certificate,
)
from cstg.errors import (
    CstgError,
    DegenerateInput,
    InvalidSelection,
    InvalidSigns,
    ParseError,
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


def corpus():
    yield gen_convex(6)
    yield gen_twisted(9)
    yield gen_halfcircle(8, seed=11)
    yield gen_straightline(gen_horton(3))
    d = gen_halfcircle(7, seed=5)
    ad = anchored_view(d)
    explicit = induced_subdrawing(d, range(7))
    yield Drawing(
        n=7,
        model="explicit",
        crossings=explicit.crossings,
        rotations=rotations_of(d),
        anchor=(ad.v0, ad.order),
    )


class TestRoundTrip:
    def test_two_encodes_are_byte_identical(self):
        for d in corpus():
            assert encode_drawing(d) == encode_drawing(d)

    def test_decoded_drawing_answers_same_queries(self):
        for d in corpus():
            back = decode_drawing(encode_drawing(d))
            for e1, e2 in independent_pairs(d.n):
                assert cross(back, e1, e2) == cross(d, e1, e2)

    def test_certificate_round_trip(self):
        cert = Certificate(CONVEX, (4, 1, 7, 2))
        assert decode_certificate(encode_certificate(cert)) == cert

    def test_certificate_file_round_trip(self, tmp_path):
        # the CLI writes through its own writer; the codec's file pair stays
        # for library callers
        cert, path = Certificate(CONVEX, (4, 1, 7, 2)), tmp_path / "c.json"
        codec.save_certificate(cert, str(path))
        assert path.read_text() == encode_certificate(cert)
        assert codec.load_certificate(str(path)) == cert


class TestGoldenDocuments:
    def test_convex_document_bytes(self):
        assert encode_drawing(gen_convex(4)) == '{"format":"cstg-1","model":"convex","n":4}\n'

    def test_halfcircle_document_bytes(self):
        d = Drawing(n=3, model="halfcircle", signs="ULU")
        assert encode_drawing(d) == (
            '{"format":"cstg-1","model":"halfcircle","n":3,'
            '"params":{"signs":"ULU"}}\n'
        )

    def test_explicit_document_bytes(self):
        # the one crossing of the convex 4-gon: edge ranks (0,2) and (1,3)
        explicit = induced_subdrawing(gen_convex(4), range(4))
        assert encode_drawing(dataclasses.replace(explicit, rotations=None)) == (
            '{"crossings":[[1,4]],"format":"cstg-1","model":"explicit","n":4}\n'
        )

    def test_points_document_bytes(self):
        d = gen_straightline([(0, 0), (5, -2), (1, 3)])
        assert encode_drawing(d) == (
            '{"format":"cstg-1","model":"points","n":3,'
            '"params":{"points":[[0,0],[5,-2],[1,3]]}}\n'
        )

    def test_explicit_document_with_rotations_and_anchor_bytes(self):
        explicit = induced_subdrawing(gen_convex(4), range(4))
        d = dataclasses.replace(explicit, anchor=(0, (3, 2, 1)))
        assert encode_drawing(d) == (
            '{"anchor":{"order":[3,2,1],"v0":0},"crossings":[[1,4]],'
            '"format":"cstg-1","model":"explicit","n":4,'
            '"rotations":[[1,2,3],[2,3,0],[3,0,1],[0,1,2]]}\n'
        )

    def test_certificate_document_bytes(self):
        cert = Certificate(CONVEX, (2, 0, 1))
        assert encode_certificate(cert) == '{"kind":"convex","vertices":[2,0,1]}\n'


class TestValidation:
    def test_adjacent_crossing_pair_rejected(self):
        n = 4
        r1 = edge_index(0, 1, n)
        r2 = edge_index(1, 2, n)
        doc = (
            '{"crossings":[[%d,%d]],"format":"cstg-1","model":"explicit","n":4}'
            % (r1, r2)
        )
        with pytest.raises(ValidationError, match="share a vertex"):
            decode_drawing(doc)

    def test_several_bad_entries_name_the_smallest(self):
        # the table's entries are checked in rank order, not document order:
        # [9, 8] comes first in the document, [0, 1] is the smallest pair
        doc = (
            '{"crossings":[[9,8],[3,99],[0,1],[2,6]],'
            '"format":"cstg-1","model":"explicit","n":5}'
        )
        with pytest.raises(ValidationError) as info:
            decode_drawing(doc)
        assert str(info.value) == (
            "crossing pair [0, 1] joins edges (0,1) and (0,2) which share a vertex"
        )

    def test_reversed_entry_is_read_as_written(self):
        # [4, 1] is not sorted into [1, 4]: it names edges (1,3) and (0,2)
        # out of rank order, also next to its sorted twin
        for crossings in ("[[4,1]]", "[[4,1],[1,4]]"):
            doc = (
                '{"crossings":%s,"format":"cstg-1","model":"explicit","n":4}'
                % crossings
            )
            with pytest.raises(ValidationError) as info:
                decode_drawing(doc)
            assert str(info.value) == (
                "crossing pair [4, 1] joins edges (1,3) and (0,2) out of rank order"
            )

    def test_repeated_entry_is_a_parse_error(self):
        doc = (
            '{"crossings":[[1,4],[2,5],[1,4]],'
            '"format":"cstg-1","model":"explicit","n":5}'
        )
        with pytest.raises(ParseError) as info:
            decode_drawing(doc)
        assert str(info.value) == "field 'crossings': entry [1, 4] is repeated"

    @pytest.mark.parametrize("crossings, extra", [
        ("[[4,1],[2,5],[4,1]]", ""),
        ("[[0,1],[0,1]]", ""),
        ("[[1,4],[1,4]]", ',"rotations":[[1,2,3],[0,2,3],[0,1,3],[0,1,1]]'),
        ("[[1,4],[1,4]]", ',"rotations":[[1,2,3]]'),
        ("[[1,4],[1,4]]", ',"anchor":{"order":[1,2],"v0":0}'),
        ("[[1,4],[1,4]]", ',"params":{}'),
    ], ids=["stray", "shared vertex", "bad rotation", "short rotations", "bad anchor",
            "params"])
    def test_a_repeated_entry_is_named_first(self, crossings, extra):
        # the repeat is named before the stray entry itself, and before a
        # later field's parse or invariant error
        doc = '{"crossings":%s,"format":"cstg-1","model":"explicit","n":4%s}' % (
            crossings, extra)
        with pytest.raises(ParseError) as info:
            decode_drawing(doc)
        entry = json.loads(crossings)[0]
        assert str(info.value) == f"field 'crossings': entry {entry} is repeated"

    def test_reversed_table_does_not_decode_to_another_drawing(self):
        # the table {(4, 1)} is refused when the drawing is built, and its
        # document fails at decode instead of meaning {(1, 4)}
        with pytest.raises(ValidationError, match="out of rank order"):
            Drawing(n=4, model="explicit", crossings=frozenset({(4, 1)}))
        doc = '{"crossings":[[4,1]],"format":"cstg-1","model":"explicit","n":4}\n'
        with pytest.raises(ValidationError, match="out of rank order"):
            decode_drawing(doc)

    def test_explicit_over_cap_rejected_before_decoding(self):
        # the size check comes before any per-rank work, so a short document
        # naming a huge n fails at once instead of building C(n,2) entries
        n = 1000000
        one_pair = "[[%d,%d]]" % (edge_index(0, 1, n), edge_index(2, 3, n))
        for crossings in ("[]", one_pair):
            doc = (
                '{"crossings":%s,"format":"cstg-1","model":"explicit","n":%d}'
                % (crossings, n)
            )
            with pytest.raises(SizeLimit, match="capped at n=256"):
                decode_drawing(doc)

    def test_bad_format_tag(self):
        with pytest.raises(ParseError):
            decode_drawing('{"format":"nope","model":"convex","n":4}')

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError, match="line"):
            decode_drawing("{not json")

    def test_sign_vector_length(self):
        with pytest.raises(ValidationError):
            decode_drawing(
                '{"format":"cstg-1","model":"halfcircle","n":4,"params":{"signs":"UL"}}'
            )

    def test_collinear_points_rejected(self):
        with pytest.raises(ValidationError):
            decode_drawing(
                '{"format":"cstg-1","model":"points","n":3,'
                '"params":{"points":[[0,0],[1,1],[2,2]]}}'
            )

    def test_bad_rotation_rejected(self):
        with pytest.raises(ValidationError):
            decode_drawing(
                '{"format":"cstg-1","model":"convex","n":3,'
                '"rotations":[[1,2],[0,2],[0,0]]}'
            )

    def test_anchor_must_match_rotations(self):
        # ccw rotation (1,2,3) at v0: clockwise readings are the cyclic cuts
        # of (3,2,1); the ascending order (1,2,3) is none of them
        doc = (
            '{"anchor":{"order":[1,2,3],"v0":0},"crossings":[],'
            '"format":"cstg-1","model":"explicit","n":4,'
            '"rotations":[[1,2,3],[0,2,3],[0,1,3],[0,1,2]]}'
        )
        with pytest.raises(ValidationError, match="clockwise"):
            decode_drawing(doc)

    def test_anchor_cyclic_cut_accepted(self):
        # edge (0,2) crosses (1,3), as the rotations at 1 and 3 require
        doc = (
            '{"anchor":{"order":[1,3,2],"v0":0},"crossings":[[1,4]],'
            '"format":"cstg-1","model":"explicit","n":4,'
            '"rotations":[[1,2,3],[0,2,3],[0,1,3],[0,1,2]]}'
        )
        d = decode_drawing(doc)
        assert d.anchor == (0, (1, 3, 2))

    def test_unknown_field_rejected(self):
        with pytest.raises(ParseError):
            decode_drawing('{"format":"cstg-1","model":"convex","n":4,"zzz":1}')

    def test_fields_for_the_wrong_model_rejected(self):
        with pytest.raises(ParseError, match="params"):
            decode_drawing('{"format":"cstg-1","model":"convex","n":4,"params":{}}')
        with pytest.raises(ParseError, match="crossings"):
            decode_drawing('{"crossings":[],"format":"cstg-1","model":"twisted","n":4}')

    def test_rotation_members_must_be_integers(self):
        # sorting [1, "a"] used to escape as a TypeError
        with pytest.raises(ParseError, match="'rotations'"):
            decode_drawing(
                '{"format":"cstg-1","model":"convex","n":3,'
                '"rotations":[[1,"a"],[0,2],[0,1]]}'
            )

    @pytest.mark.parametrize("point", ["[0.9,0]", '["0","0"]', "[true,0]"])
    def test_point_coordinates_must_be_integers(self, point):
        # each used to decode silently as (0, 0)
        doc = (
            '{"format":"cstg-1","model":"points","n":3,'
            '"params":{"points":[%s,[5,1],[2,7]]}}' % point
        )
        with pytest.raises(ParseError, match="'params.points'"):
            decode_drawing(doc)

    def test_booleans_are_not_vertices(self):
        # true used to pass as vertex 1 and be encoded back as true
        with pytest.raises(ParseError, match="'anchor.v0'"):
            decode_drawing(
                '{"anchor":{"order":[0,2],"v0":true},"format":"cstg-1",'
                '"model":"convex","n":3}'
            )
        with pytest.raises(ParseError, match="'anchor.order'"):
            decode_drawing(
                '{"anchor":{"order":[false,2],"v0":1},"format":"cstg-1",'
                '"model":"convex","n":3}'
            )
        with pytest.raises(ParseError, match="'vertices'"):
            decode_certificate('{"kind":"convex","vertices":[true,0]}')
        with pytest.raises(ParseError, match="'crossings'"):
            decode_drawing(
                '{"crossings":[[true,5]],"format":"cstg-1","model":"explicit","n":4}'
            )
        with pytest.raises(ParseError, match="'n'"):
            decode_drawing('{"format":"cstg-1","model":"convex","n":4.0}')

    def test_bad_certificate_kind(self):
        with pytest.raises(ValidationError):
            decode_certificate('{"kind":"zigzag","vertices":[0,1]}')

    @pytest.mark.parametrize(
        "decode, text, message",
        [
            (decode_drawing, "[]", "document is not an object"),
            (decode_drawing, '{"format":"cstg-1","model":"convex"}', "field 'n' missing"),
            (
                decode_drawing,
                '{"format":"cstg-1","model":"halfcircle","n":4}',
                "field 'params.signs' missing for halfcircle model",
            ),
            (
                decode_drawing,
                '{"format":"cstg-1","model":"points","n":3,'
                '"params":{"points":[[0,0],[1,2,3],[2,7]]}}',
                "field 'params.points': [1, 2, 3] is not a pair",
            ),
            (
                decode_drawing,
                '{"crossings":[],"format":"cstg-1","model":"explicit","n":4,"params":{}}',
                "explicit model takes no 'params'",
            ),
            (
                decode_drawing,
                '{"crossings":{},"format":"cstg-1","model":"explicit","n":4}',
                "field 'crossings' must be a list of rank pairs",
            ),
            (
                decode_drawing,
                '{"crossings":[[1,2,3]],"format":"cstg-1","model":"explicit","n":4}',
                "field 'crossings': entry [1, 2, 3] is not a pair of integers",
            ),
            (
                decode_drawing,
                '{"format":"cstg-1","model":"convex","n":3,"rotations":[[1,2],[0,2]]}',
                "field 'rotations' must hold one list per vertex",
            ),
            (
                decode_drawing,
                '{"format":"cstg-1","model":"convex","n":3,"rotations":[[1,2],[0,2],5]}',
                "rotation at vertex 2 is not a list",
            ),
            (
                decode_drawing,
                '{"anchor":{"v0":0},"format":"cstg-1","model":"convex","n":3}',
                "field 'anchor' must carry 'v0' and 'order'",
            ),
            (
                decode_drawing,
                '{"anchor":{"order":5,"v0":0},"format":"cstg-1","model":"convex","n":3}',
                "field 'anchor.order' must be a list",
            ),
            (
                decode_certificate,
                '{"kind":"convex",',
                "line 1, column 18: Expecting property name enclosed in double quotes",
            ),
            (
                decode_certificate,
                '{"kind":"convex"}',
                "certificate document must carry 'kind' and 'vertices'",
            ),
            (
                decode_certificate,
                '{"kind":"convex","vertices":5}',
                "field 'vertices' must be a list",
            ),
        ],
        ids=[
            "not-an-object", "no-n", "halfcircle-without-signs", "point-triple",
            "explicit-with-params", "crossings-not-a-list", "crossing-triple",
            "rotations-too-few", "rotation-not-a-list", "anchor-without-order",
            "anchor-order-not-a-list", "certificate-bad-json",
            "certificate-without-vertices", "certificate-vertices-not-a-list",
        ],
    )
    def test_parse_error_messages(self, decode, text, message):
        with pytest.raises(ParseError) as info:
            decode(text)
        assert str(info.value) == message


# -- one home for the drawing invariants ---------------------------------------

ROTATIONS4 = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))

# (id, Drawing keywords, error at Drawing(...), its message,
#  the same input as a document, error at decode, its message)
# A document that is well-formed JSON of the right shape fails at decode
# with ValidationError and Drawing's message verbatim; one whose shape or
# integer types are wrong fails earlier, with ParseError naming the field.
INVALID = [
    (
        "collinear points",
        dict(n=3, model="points", points=((0, 0), (1, 1), (2, 2))),
        DegenerateInput,
        "collinear triple (0,1,2)",
        '{"format":"cstg-1","model":"points","n":3,'
        '"params":{"points":[[0,0],[1,1],[2,2]]}}',
        ValidationError,
        "collinear triple (0,1,2)",
    ),
    (
        "duplicate point",
        dict(n=3, model="points", points=((0, 0), (1, 2), (0, 0))),
        DegenerateInput,
        "duplicate point (0, 0) at indices 0 and 2",
        '{"format":"cstg-1","model":"points","n":3,'
        '"params":{"points":[[0,0],[1,2],[0,0]]}}',
        ValidationError,
        "duplicate point (0, 0) at indices 0 and 2",
    ),
    (
        "float point",
        dict(n=3, model="points", points=((0.5, 0), (5, 1), (2, 7))),
        InvalidSelection,
        "point 0 (0.5, 0) is not a pair of integers",
        '{"format":"cstg-1","model":"points","n":3,'
        '"params":{"points":[[0.5,0],[5,1],[2,7]]}}',
        ParseError,
        "field 'params.points': 0.5 is not an integer",
    ),
    (
        "short point list",
        dict(n=5, model="points", points=((0, 0),)),
        InvalidSelection,
        "points must be a tuple of n=5 integer pairs",
        '{"format":"cstg-1","model":"points","n":5,"params":{"points":[[0,0]]}}',
        ParseError,
        "field 'params.points' must list n integer pairs",
    ),
    (
        "explicit without crossings",
        dict(n=4, model="explicit"),
        InvalidSelection,
        "an explicit drawing needs a crossings table",
        '{"format":"cstg-1","model":"explicit","n":4}',
        ParseError,
        "field 'crossings' missing for explicit model",
    ),
    (
        "payload for another model",
        dict(n=4, model="convex", signs="UUUUUU"),
        InvalidSelection,
        "a convex drawing takes no signs",
        '{"format":"cstg-1","model":"convex","n":4,"params":{"signs":"UUUUUU"}}',
        ParseError,
        "convex model takes no 'params'",
    ),
    (
        "anchor v0 out of range",
        dict(n=4, model="convex", anchor=(9, (1, 2, 3))),
        InvalidSelection,
        "anchor v0 9 out of range",
        '{"anchor":{"order":[1,2,3],"v0":9},"format":"cstg-1","model":"convex","n":4}',
        ValidationError,
        "anchor v0 9 out of range",
    ),
    (
        "anchor against rotations",
        # ccw rotation (1,2,3) at v0: its clockwise readings are the cyclic
        # cuts of (3,2,1), and the ascending order is none of them
        dict(n=4, model="explicit", crossings=frozenset(), rotations=ROTATIONS4,
             anchor=(0, (1, 2, 3))),
        InvalidSelection,
        "anchor order is not a clockwise reading of the rotation at v0",
        '{"anchor":{"order":[1,2,3],"v0":0},"crossings":[],"format":"cstg-1",'
        '"model":"explicit","n":4,"rotations":[[1,2,3],[0,2,3],[0,1,3],[0,1,2]]}',
        ValidationError,
        "anchor order is not a clockwise reading of the rotation at v0",
    ),
    (
        "n below 2",
        dict(n=1, model="convex"),
        InvalidSelection,
        "drawing n must be at least 2, got 1",
        '{"format":"cstg-1","model":"convex","n":1}',
        ValidationError,
        "drawing n must be at least 2, got 1",
    ),
    (
        "short sign vector",
        dict(n=4, model="halfcircle", signs="UL"),
        InvalidSigns,
        "sign vector length 2, expected C(4,2)=6",
        '{"format":"cstg-1","model":"halfcircle","n":4,"params":{"signs":"UL"}}',
        ValidationError,
        "sign vector length 2, expected C(4,2)=6",
    ),
    (
        "rotation not a permutation",
        dict(n=3, model="convex", rotations=((1, 2), (0, 2), (0, 0))),
        InvalidSelection,
        "rotation at vertex 2 is not a permutation of the others",
        '{"format":"cstg-1","model":"convex","n":3,"rotations":[[1,2],[0,2],[0,0]]}',
        ValidationError,
        "rotation at vertex 2 is not a permutation of the others",
    ),
]


@pytest.mark.parametrize(
    "kwargs, error, message, doc, doc_error, doc_message",
    [row[1:] for row in INVALID],
    ids=[row[0] for row in INVALID],
)
class TestInvalidInputTable:
    def test_rejected_at_construction(self, kwargs, error, message, doc, doc_error,
                                      doc_message):
        with pytest.raises(error) as info:
            Drawing(**kwargs)
        assert str(info.value) == message

    def test_document_rejected_at_decode(self, kwargs, error, message, doc, doc_error,
                                         doc_message):
        with pytest.raises(doc_error) as info:
            decode_drawing(doc)
        assert type(info.value) is doc_error
        assert str(info.value) == doc_message


def round_trip_candidates(rng):
    """Drawing keywords on every model; the random ones often break an
    invariant (a collinear triple, an anchor against the rotations)."""
    for n in (2, 3, 7, 12):
        yield dict(n=n, model="convex")
        yield dict(n=n, model="twisted")
    yield dict(n=5, model="convex", signs="U" * 10)
    yield dict(n=5, model="twisted", points=tuple((v, v * v) for v in range(5)))
    for seed in range(6):
        d = gen_halfcircle(9, seed=seed)
        ad = anchored_view(d)
        yield dict(n=9, model="halfcircle", signs=d.signs)
        yield dict(n=9, model="halfcircle", signs=d.signs, rotations=rotations_of(d),
                   anchor=(ad.v0, ad.order))
    for k in range(1, 6):
        pts = tuple(gen_horton(k))
        yield dict(n=len(pts), model="points", points=pts)
    for _ in range(60):
        n = rng.randint(2, 7)
        pts = tuple((rng.randrange(6), rng.randrange(6)) for _ in range(n))
        yield dict(n=n, model="points", points=pts)
        yield dict(n=n, model="points", points=pts, anchor=(0, tuple(range(1, n))))
    for seed in range(20):
        source = gen_halfcircle(11, seed=seed) if seed % 2 else gen_twisted(11)
        vs = rng.sample(range(11), rng.randint(2, 11))
        x = induced_subdrawing(source, vs)
        m = len(vs)
        v0 = rng.randrange(m)
        order = [u for u in range(m) if u != v0]
        if seed % 3:
            clockwise = x.rotations[v0][::-1]
            cut = rng.randrange(m - 1)
            order = clockwise[cut:] + clockwise[:cut]
        else:
            rng.shuffle(order)
        yield dict(n=m, model="explicit", crossings=x.crossings, rotations=x.rotations,
                   anchor=(v0, tuple(order)))
        yield dict(n=m, model="explicit", crossings=x.crossings, anchor=(v0, tuple(order)))


class TestRoundTripProperty:
    def test_decode_inverts_encode_on_every_drawing_that_constructs(self):
        built = rejected = 0
        for kwargs in round_trip_candidates(random.Random(1313)):
            try:
                d = Drawing(**kwargs)
            except CstgError:
                rejected += 1
                continue
            built += 1
            assert decode_drawing(encode_drawing(d)) == d, kwargs
        # both sides of the property are exercised
        assert built >= 60 and rejected >= 20, (built, rejected)


def canonical(doc) -> str:
    """A document as the codec writes it, for documents built by hand."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


class TestExplicitTables:
    def test_shuffled_entries_give_the_same_bits(self):
        rng = random.Random(2531)
        order = list(range(14))
        rng.shuffle(order)
        for x in (
            induced_subdrawing(gen_twisted(12), range(12)),
            induced_subdrawing(gen_halfcircle(14, seed=3), order),
        ):
            text = encode_drawing(x)
            doc = json.loads(text)
            rng.shuffle(doc["crossings"])
            d = decode_drawing(canonical(doc))
            assert d == x
            # the bitsets do not depend on the order of the entries: the
            # document's, the restriction's and the hand-built set's agree,
            # and all three encode to the same bytes
            entries = frozenset(tuple(entry) for entry in doc["crossings"])
            by_set = Drawing(n=d.n, model="explicit", crossings=entries, rotations=d.rotations)
            assert d.crossings.bits == x.crossings.bits == by_set.crossings.bits
            assert encode_drawing(d) == encode_drawing(by_set) == text
            for kind in (CONVEX, TWISTED):
                cert = Certificate(kind, tuple(range(d.n)))
                assert verify_certificate(d, cert) == verify_certificate(by_set, cert)
                assert verify_certificate(d, cert) == verify_certificate(x, cert)
            # a stray entry is named wherever the document puts it: the
            # smallest of [5, 2] (out of rank order) and [0, 1] (edges (0,1)
            # and (0,2) share vertex 0)
            for at in (0, len(doc["crossings"]) // 2, len(doc["crossings"])):
                bad = dict(doc, crossings=doc["crossings"][:at] + [[5, 2], [0, 1]]
                           + doc["crossings"][at:])
                with pytest.raises(ValidationError) as info:
                    decode_drawing(canonical(bad))
                assert str(info.value) == (
                    "crossing pair [0, 1] joins edges (0,1) and (0,2) which share a vertex"
                )

    def test_a_boolean_rank_is_not_integer(self):
        doc = '{"crossings":[[1,4],[true,3]],"format":"cstg-1","model":"explicit","n":4}'
        with pytest.raises(ParseError) as info:
            decode_drawing(doc)
        assert str(info.value) == "field 'crossings': entry [True, 3] is not a pair of integers"

    def test_drawing_invariants_come_before_the_entries(self):
        # vertex 3's rotation repeats 1, and [0, 1] joins edges that share
        # vertex 0: the drawing's own check speaks first
        doc = (
            '{"crossings":[[0,1]],"format":"cstg-1","model":"explicit","n":4,'
            '"rotations":[[1,2,3],[0,2,3],[0,1,3],[0,1,1]]}'
        )
        with pytest.raises(ValidationError) as info:
            decode_drawing(doc)
        assert str(info.value) == "rotation at vertex 3 is not a permutation of the others"

    @pytest.mark.parametrize("n", [4, EXPLICIT_N_CAP])
    def test_empty_table_decodes(self, n):
        text = '{"crossings":[],"format":"cstg-1","model":"explicit","n":%d}\n' % n
        d = decode_drawing(text)
        assert list(crossing_pairs(d)) == []
        assert d.crossings.bits == [0] * (n * (n - 1) // 2)
        assert not cross(d, (0, 2), (1, 3))
        assert encode_drawing(d) == text

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_empty_small_table_round_trips(self, n):
        # two and three vertices have no independent pair at all
        text = '{"crossings":[],"format":"cstg-1","model":"explicit","n":%d}\n' % n
        d = decode_drawing(text)
        assert list(crossing_pairs(d)) == []
        assert encode_drawing(d) == text
        assert encode_drawing(Drawing(n=n, model="explicit", crossings=())) == text

    def test_encoding_equals_the_sorted_list_form(self):
        rng = random.Random(2533)
        for n in (4, 9, 16, 23):
            d = random_explicit(rng, n, density=0.4)
            old = {"crossings": sorted(list(p) for p in crossing_pairs(d)),
                   "format": "cstg-1", "model": "explicit", "n": n}
            assert encode_drawing(d) == canonical(old)
            # entries out of rank order or range are refused when the
            # drawing is built, the smallest named
            with pytest.raises(ValidationError) as info:
                Drawing(n=n, model="explicit",
                        crossings=[*crossing_pairs(d), (9, 2), (-1, 40)])
            assert str(info.value) == f"crossing ranks [-1, 40] out of range for n={n}"

    def test_a_replace_copy_keeps_the_table(self, monkeypatch):
        # dataclasses.replace passes the table view on as it is, so a copy
        # of a decoded drawing or of an anchored restriction builds nothing:
        # it holds the same table, encodes to the same bytes and validates
        # as its source
        d = gen_halfcircle(16, seed=3)
        ad = anchored_view(d)
        carrier = Drawing(n=16, model="halfcircle", signs=d.signs, anchor=(ad.v0, ad.order))
        x = induced_subdrawing(carrier, (ad.v0,) + ad.order)
        assert x.anchor == (0, tuple(range(1, 16)))
        sources = (x, decode_drawing(encode_drawing(x)))

        def refuse(*args):
            raise AssertionError("a dataclasses.replace copy built its table again")

        monkeypatch.setattr(drawing, "_crossing_bits", refuse)
        for source in sources:
            copy = dataclasses.replace(source, anchor=(0, tuple(range(1, 16))))
            assert copy.crossings is source.crossings
            assert encode_drawing(copy) == encode_drawing(source)
            report = validate_observation(anchored_view(source))
            assert report.ok and validate_observation(anchored_view(copy)) == report


class TestDocumentBoundary:
    @pytest.mark.parametrize("decode, text, message", [row[1:] for row in BOUNDARY],
                             ids=[row[0] for row in BOUNDARY])
    def test_is_a_parse_error(self, decode, text, message):
        with pytest.raises(ParseError) as info:
            decode(text)
        assert str(info.value) == message

    def test_a_key_given_once_per_object_is_no_repeat(self):
        # the same key in two different objects is not a repeat
        doc = '{"anchor":{"order":[3,2,1],"v0":0},"format":"cstg-1","model":"convex","n":4}'
        assert decode_drawing(doc).anchor == (0, (3, 2, 1))

    @pytest.mark.parametrize("text, where", [
        ('{"anchor":{"extra":5,"order":[1,2,3],"v0":0},"crossings":[[0,5]],'
         '"format":"cstg-1","model":"explicit","n":4}', "anchor"),
        ('{"format":"cstg-1","model":"halfcircle","n":3,"params":{"extra":[1],"signs":"UUU"}}',
         "params"),
    ], ids=["anchor", "params"])
    def test_an_unknown_key_in_a_nested_object_is_a_parse_error(self, text, where,
                                                                 monkeypatch):
        # read, such a key would be lost, and encode(decode(x)) != x; the
        # compact text (a table on the flat route), a padded copy and the
        # general parse alone all refuse it by name
        padded = text.replace("],[", "], [").replace(",", ", ")
        if where == "anchor":
            assert type(codec._parse_drawing(text)["crossings"]) is drawing._Ranks
            assert type(codec._parse_drawing(padded)["crossings"]) is list
        message = f"unknown fields ['extra'] in '{where}'"
        for route in (codec._parse_drawing, codec._parse):
            monkeypatch.setattr(codec, "_parse_drawing", route)
            for doc in (text, padded):
                with pytest.raises(ParseError) as info:
                    decode_drawing(doc)
                assert str(info.value) == message
        assert decode_drawing(text.replace('"extra":5,', "").replace('"extra":[1],', ""))


# -- the crossing table as one flat run of ranks --------------------------------
#
# decode_drawing reads a table written as encode_drawing writes it,
# "crossings":[[r1,r2],...], as one flat JSON array of ranks, and any other
# text through the general parse.  Each document below decodes the same from
# its compact text (mostly that route) and from a padded copy (always the
# general parse): the same Drawing, or the same error.  A JSON syntax error
# names a position, which the padding moves, so there only the text after
# the position is compared; on the compact text itself the recognised route
# must agree with the general parse word for word.

_AT = re.compile(r"^line \d+, column \d+: ")


def _outcome(text):
    try:
        return decode_drawing(text)
    except CstgError as exc:
        return type(exc), str(exc)


def _unplaced(outcome):
    if isinstance(outcome, tuple):
        return outcome[0], _AT.sub("", outcome[1])
    return outcome


def _with_table(doc, entries) -> str:
    """The canonical text of doc with its crossing table written from entries,
    pairs of rank tokens given as text."""
    table = "[" + ",".join(f"[{a},{b}]" for a, b in entries) + "]"
    return canonical(dict(doc, crossings="@")).replace('"crossings":"@"',
                                                       '"crossings":' + table, 1)


def _documents(seed):
    """(id, text, message or None): a seeded set of explicit documents and
    mutants; message is the exact error of a mutant in the last group."""
    rng = random.Random(seed)
    bases = [random_explicit(rng, n, density=rng.choice((0.1, 0.4))) for n in (4, 6, 9)]
    bases.append(list(corpus())[-1])  # stored rotations and anchor
    for n in (2, 3, 4):
        text = '{"crossings":[],"format":"cstg-1","model":"explicit","n":%d}' % n
        yield f"empty n={n}", text, None
    for b, d in enumerate(bases):
        text = encode_drawing(d)
        doc = json.loads(text)
        n, edges = d.n, list(itertools.combinations(range(d.n), 2))
        m = len(edges)
        entries = [[str(r1), str(r2)] for r1, r2 in doc["crossings"]]
        yield f"{b} as written", text, None
        if not entries:
            continue

        def at_random(entry):
            out = [list(e) for e in entries]
            out.insert(rng.randrange(len(out) + 1), entry)
            return _with_table(doc, out)

        for token in ("01", "-1", "1.0", "1e0", "true", "1" * 5001):
            out = [list(e) for e in entries]
            out[rng.randrange(len(out))][rng.randrange(2)] = token
            yield f"{b} rank {token[:8]}", _with_table(doc, out), None
        anchor = doc.get("anchor", {"order": list(range(1, n)), "v0": 0})
        nested = dict(anchor, crossings=doc["crossings"])
        yield f"{b} nested table", canonical(dict(doc, anchor=nested)), None
        yield f"{b} NaN n", text.replace('"n":%d' % n, '"n":NaN', 1), None
        nan_v0 = canonical(dict(doc, anchor=dict(anchor, v0="@"))).replace('"@"', "NaN")
        yield f"{b} NaN v0", nan_v0, None
        yield f"{b} repeated n", text.replace('"n":%d' % n, '"n":%d,"n":%d' % (n, n), 1), None
        table = json.dumps(doc["crossings"], separators=(",", ":"))
        for first in ("[]", table):
            yield (f"{b} repeated table {first[:2]}",
                   text.replace('{"crossings":', '{"crossings":%s,"crossings":' % first, 1), None)
        table_end = text.index("]]") + 2
        for cut in (rng.randrange(1, table_end), rng.randrange(table_end, len(text))):
            yield f"{b} cut at {cut}", text[:cut], None
        # the last group: today's exact messages
        r = rng.randrange(m)
        stray = [str(r), str(m + rng.randrange(5))]
        yield (f"{b} stray", at_random(stray),
               f"crossing ranks [{r}, {stray[1]}] out of range for n={n}")
        r1, r2 = map(int, rng.choice(entries))
        (i, j), (k, l) = edges[r2], edges[r1]
        yield (f"{b} reversed", at_random([str(r2), str(r1)]),
               f"crossing pair [{r2}, {r1}] joins edges ({i},{j}) and ({k},{l}) out of rank order")
        a = rng.randrange(n - 2)
        r1, r2 = edges.index((a, a + 1)), edges.index((a, a + 2))
        yield (f"{b} adjacent", at_random([str(r1), str(r2)]),
               f"crossing pair [{r1}, {r2}] joins edges ({a},{a + 1}) and ({a},{a + 2}) "
               "which share a vertex")
        entry = rng.choice(entries)
        yield (f"{b} repeated entry", at_random(entry),
               f"field 'crossings': entry [{entry[0]}, {entry[1]}] is repeated")


class TestFlatRanks:
    @pytest.mark.parametrize("seed", [3, 47, 2711])
    def test_compact_and_padded_texts_decode_the_same(self, seed, monkeypatch):
        documents = list(_documents(seed))

        def refuse(*args):
            raise AssertionError("a decoded table took the hand-built pair check")

        monkeypatch.setattr(drawing, "_flat_ranks", refuse)
        outcomes = []
        for name, text, message in documents:
            padded = text.replace(",", ", ").replace(":", " : ")
            compact = _outcome(text)
            outcomes.append(compact)
            assert _unplaced(_outcome(padded)) == _unplaced(compact), name
            if message is not None:
                assert compact == (ParseError if "repeated" in message else ValidationError,
                                   message), name
            elif name.endswith("as written"):
                assert encode_drawing(compact) == text, name
        # the same compact texts through the general parse alone
        monkeypatch.setattr(codec, "_parse_drawing", codec._parse)
        for (name, text, _), compact in zip(documents, outcomes):
            assert _outcome(text) == compact, name

    def test_a_table_as_written_is_read_as_flat_ranks(self):
        for d in (induced_subdrawing(gen_twisted(12), range(12)), list(corpus())[-1]):
            text = encode_drawing(d)
            assert type(codec._parse_drawing(text)["crossings"]) is drawing._Ranks
            # a space or an indented copy takes the general parse
            for other in (text.replace("],[", "], ["), json.dumps(json.loads(text), indent=1)):
                assert type(codec._parse_drawing(other)["crossings"]) is list
                assert decode_drawing(other) == decode_drawing(text) == d


# -- a table read a piece at a time ---------------------------------------------
#
# decode_drawing parses a table as written a piece of about codec._PIECE
# characters at a time, each cut at an entry boundary "],[", and folds each
# piece into the rows before it reads the next.  Below the pieces are a few
# entries long, so every table spans many of them; each expected message is
# the one the table gives when it is parsed whole.

SHORT_PIECE = 16  # two or three entries of x12, one or two of T48


@functools.lru_cache(maxsize=None)
def _twisted_text(n):
    """The document of the explicit restriction of twisted n to all its vertices."""
    return encode_drawing(induced_subdrawing(gen_twisted(n), range(n)))


def _with_entries(text, first=None, last=None):
    """text with the first and the last entry of its table written as given,
    ranks as text ("62,66")."""
    table, end = text.index("[[") + 2, text.index("]]")
    at = text.rindex("],[", 0, end) + 3
    if last is not None:
        text = text[:at] + last + text[end:]
    if first is not None:
        text = text[:table] + first + text[text.index("],[", table):]
    return text


class TestTablePieces:
    @pytest.mark.parametrize("n", [12, 48])
    def test_short_pieces_decode_to_the_same_rows(self, n, monkeypatch):
        d = induced_subdrawing(gen_twisted(n), range(n))
        text = _twisted_text(n)
        monkeypatch.setattr(codec, "_PIECE", SHORT_PIECE)
        start, end = text.index("[[") + 2, text.index("]]")
        runs = list(codec._runs(text, start, end))
        assert len(runs) > len(json.loads(text)["crossings"]) // 4
        decoded = decode_drawing(text)
        assert decoded.crossings == d.crossings
        assert encode_drawing(decoded) == text

    def test_a_cut_at_exactly_the_piece_length(self, monkeypatch):
        # the first boundary starts exactly _PIECE characters into the table,
        # so the first piece is the first entry; one character more, and it
        # takes the second entry too
        text = _twisted_text(12)
        start, end = text.index("[[") + 2, text.index("]]")
        boundary = text.index("],[", start) - start
        entries = json.loads(text)["crossings"]
        for piece, first in ((boundary - 1, 1), (boundary, 1), (boundary + 1, 2)):
            monkeypatch.setattr(codec, "_PIECE", piece)
            assert next(codec._runs(text, start, end)) == sum(entries[:first], [])
            assert encode_drawing(decode_drawing(text)) == text
        for piece in range(1, 40):
            monkeypatch.setattr(codec, "_PIECE", piece)
            assert encode_drawing(decode_drawing(text)) == text, piece

    @pytest.mark.parametrize("n, first, last, message", [
        (48, None, "1124,1128", "crossing ranks [1124, 1128] out of range for n=48"),
        (12, None, "62,66", "crossing ranks [62, 66] out of range for n=12"),
        (12, None, "63,62",
         "crossing pair [63, 62] joins edges (9,10) and (8,11) out of rank order"),
        (12, None, "0,1",
         "crossing pair [0, 1] joins edges (0,1) and (0,2) which share a vertex"),
        # two bad entries, the smaller one in the last piece
        (12, "60,70", "2,1",
         "crossing pair [2, 1] joins edges (0,3) and (0,2) which share a vertex"),
    ], ids=["T48 range", "range", "order", "shared", "two bad"])
    def test_a_bad_entry_in_the_last_piece_is_named(self, n, first, last, message,
                                                    monkeypatch):
        text = _with_entries(_twisted_text(n), first, last)
        monkeypatch.setattr(codec, "_PIECE", SHORT_PIECE)
        with pytest.raises(ValidationError) as info:
            decode_drawing(text)
        assert str(info.value) == message

    def test_an_entry_repeated_across_pieces_is_named(self, monkeypatch):
        # the first entry, [2,11], again after the last
        text = _with_entries(_twisted_text(12), last="62,63],[2,11")
        monkeypatch.setattr(codec, "_PIECE", SHORT_PIECE)
        with pytest.raises(ParseError) as info:
            decode_drawing(text)
        assert str(info.value) == "field 'crossings': entry [2, 11] is repeated"

    @pytest.mark.parametrize("n, last, message", [
        (12, "062,63", "line 1, column 3849: Expecting ',' delimiter"),
        (12, ",63", "line 1, column 3848: Expecting value"),
        (48, "01124,1125", "line 1, column 1935578: Expecting ',' delimiter"),
    ], ids=["leading zero", "empty rank", "T48 leading zero"])
    def test_a_rank_json_refuses_in_the_last_piece_is_a_general_parse_error(
            self, n, last, message, monkeypatch):
        text = _with_entries(_twisted_text(n), last=last)
        monkeypatch.setattr(codec, "_PIECE", SHORT_PIECE)
        with pytest.raises(ParseError) as info:
            decode_drawing(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("n, error, message", [
        (-10 ** 9, ValidationError, "drawing n must be at least 2, got -1000000000"),
        (10 ** 6, SizeLimit, "explicit backend capped at n=256, got 1000000"),
    ], ids=["negative", "past the cap"])
    def test_a_table_over_an_n_no_drawing_takes_folds_no_rows(self, n, error, message):
        # rows over such an n would not fit in memory; the drawing refuses n
        # before it reads the table, on either route
        for table in ("[[0,5]]", "[ [0,5] ]"):
            text = '{"crossings":%s,"format":"cstg-1","model":"explicit","n":%d}\n' % (table, n)
            with pytest.raises(error) as info:
                decode_drawing(text)
            assert str(info.value) == message

    @pytest.mark.parametrize("seed", [3, 47])
    def test_short_pieces_decode_as_one_piece(self, seed, monkeypatch):
        documents = list(_documents(seed))
        whole = [_outcome(text) for _, text, _ in documents]
        monkeypatch.setattr(codec, "_PIECE", SHORT_PIECE)
        for (name, text, _), outcome in zip(documents, whole):
            assert _outcome(text) == outcome, name

    def test_decoding_holds_less_than_twice_the_text(self):
        # the table's ranks are never all alive at once: parsed whole, T48's
        # 389,160 ints peaked at about 8 times its 1.9 MB of text
        text = _twisted_text(48)
        decode_drawing(text)  # the rank grid of n = 48, cached once per process
        tracemalloc.start()
        try:
            decode_drawing(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * len(text)

    def test_encoding_holds_less_than_two_and_a_quarter_times_the_text(self):
        # the edges' row strings and the text they are joined into: about
        # 2.1 times T48's 1.9 MB of text, with no string alive per entry
        d = induced_subdrawing(gen_twisted(48), range(48))
        text = encode_drawing(d)  # the rank grid of n = 48, cached once per process
        tracemalloc.start()
        try:
            assert encode_drawing(d) == text
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * len(text)
