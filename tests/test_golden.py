"""Byte identity of the CLI outputs: sha256 digests of the CSV tables and
of an extraction's report and certificate, fixed before the anchor-crossing
mask kernel replaced per-triple crossing queries; of oracle witnesses, and
of an explicit document's round trip, fixed before the oracles' candidate
masks and the codec's rank table; of oracle reports, whose node counts are
those of the pattern search that ticks once per consistent extension and
prunes on the popcount of its candidate mask; of `verify` on C48/T48
certificates, fixed before certificate checks read crossing masks."""

import hashlib

import pytest

from cstg.cli import EXIT_OK, dispatch
from cstg.codec import decode_drawing, encode_certificate, encode_drawing
from cstg.drawing import CONVEX, TWISTED, Certificate, induced_subdrawing
from cstg.generators import gen_convex, gen_twisted

DRAWINGS = {
    "halfcircle-40-3": ["--family", "halfcircle", "--n", "40", "--seed", "3"],
    "halfcircle-18-5": ["--family", "halfcircle", "--n", "18", "--seed", "5"],
    "horton-32": ["--family", "horton", "--n", "32"],
}

TABLES = {
    ("halfcircle-40-3", "chi"): "8f8d95f8a2d42b90c539959b90d1659313e121ce9e66f9e5a032576d3800b7bc",
    ("halfcircle-40-3", "phi"): "30affd702a4db02a0f812103173157c6d58424e5e35fca4fd3084fa0cc631105",
    ("horton-32", "chi"): "6e045e087d3ccc3efd801de7772a73518bfe1a3b9e68eca8e37304088f4fc7a6",
    ("horton-32", "phi"): "7aa3ce312f59cff1754612ea966acdd95ae9dd9c8addca3e7686cfc80a2a8e92",
}

# extract pattern on halfcircle-40-3: --m1 3 --m2 3 ends twisted through a
# phi witness, --m1 4 --m2 4 ends convex through the class games
EXTRACTIONS = {
    "3": (
        "bee64430f23f117ac7595bee58914846f50c4c186b485525adb8401a4b711698",
        "7ca74d5500388ae8eb97203bd24cb093ccc5a9339d641c6a9d1d1689d31945e7",
    ),
    "4": (
        "2274fce1f24e3abe9a57894f94d61470c408f792cb59da3ea981a0da47f47bc5",
        "a6b9e89bda4c6c824e6cb5bae602d90366a28ae28d16a533f4c772663507b19b",
    ),
}

# oracle on halfcircle-18-5: exit code, report and witness document (None:
# an exhausted search writes no witness); the twisted search expands 16,155
# nodes, so the 20,000-node budget finishes with the unbudgeted report
ORACLES = {
    ("maxconvex",): (
        EXIT_OK,
        "c76327c939dec695ff1b8ca740b178a55f8e85cd8da3b99117d8e793715c41c0",
        "bdf96ba4774978e4677bef7ebf5606d1a48ef89a0d8a796734d731680aab2d46",
    ),
    ("maxtwisted", "--budget-nodes", "20000"): (
        EXIT_OK,
        "0810743b10982ee5d56b5d0135b9130b989f9bd9caaf2f0f04bd10d94589526d",
        "32ecfe40c5b8a14c5d435356409332064de346b9fdf2b6fd04a7a93929ae74ef",
    ),
    ("maxtwisted",): (
        EXIT_OK,
        "0810743b10982ee5d56b5d0135b9130b989f9bd9caaf2f0f04bd10d94589526d",
        "32ecfe40c5b8a14c5d435356409332064de346b9fdf2b6fd04a7a93929ae74ef",
    ),
}

# encode(decode(.)) of the explicit restriction of gen_convex(12) to itself
EXPLICIT_ROUND_TRIP = "233d9c36a2d9336000d0f005133d7f8acda0cfdb58b0db5951a12acfb2384f0d"

# verify: exit code, stdout and stderr for a certificate on a drawing
SWAPPED_C48 = Certificate(CONVEX, (1, 0, *range(2, 48)))
VERIFIES = {
    "C48 swapped, implicit convex": (
        lambda: gen_convex(48),
        SWAPPED_C48,
        "f60115d1342d4bb887eac5842b15415d4a9b69277cbdac4a382392a1f87d9c76",
    ),
    "C48 swapped, explicit convex": (
        lambda: induced_subdrawing(gen_convex(48), range(48)),
        SWAPPED_C48,
        "f60115d1342d4bb887eac5842b15415d4a9b69277cbdac4a382392a1f87d9c76",
    ),
    "T48, explicit twisted": (
        lambda: induced_subdrawing(gen_twisted(48), range(48)),
        Certificate(TWISTED, tuple(range(48))),
        "c4ff8cff1c3484eee49fc93796f48151db46fef0ade4efb88a5516f5373c8c31",
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def generate(tmp_path, capsys, key):
    path = tmp_path / f"{key}.json"
    assert dispatch(["generate", *DRAWINGS[key], "--out", str(path)]) == 0
    capsys.readouterr()
    return path


@pytest.mark.parametrize("key,what", sorted(TABLES))
def test_table_digest(tmp_path, capsys, key, what):
    drawing = generate(tmp_path, capsys, key)
    out = tmp_path / f"{what}.csv"
    assert dispatch(["tables", what, str(drawing), "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == TABLES[(key, what)]


@pytest.mark.parametrize("m", sorted(EXTRACTIONS))
def test_extract_pattern_digest(tmp_path, capsys, m):
    drawing = generate(tmp_path, capsys, "halfcircle-40-3")
    cert = tmp_path / "cert.json"
    code = dispatch(["extract", "pattern", str(drawing), "--m1", m, "--m2", m, "--out", str(cert)])
    report = capsys.readouterr().out
    assert code == 0
    assert (sha256(report.encode()), sha256(cert.read_bytes())) == EXTRACTIONS[m]


@pytest.mark.parametrize("argv", sorted(ORACLES))
def test_oracle_digest(tmp_path, capsys, argv):
    drawing = generate(tmp_path, capsys, "halfcircle-18-5")
    witness = tmp_path / "witness.json"
    code = dispatch(["oracle", argv[0], str(drawing), *argv[1:], "--out", str(witness)])
    report = capsys.readouterr().out
    digest = sha256(witness.read_bytes()) if witness.exists() else None
    assert (code, sha256(report.encode()), digest) == ORACLES[argv]


def test_explicit_round_trip_digest():
    doc = encode_drawing(induced_subdrawing(gen_convex(12), range(12)))
    assert sha256(encode_drawing(decode_drawing(doc)).encode()) == EXPLICIT_ROUND_TRIP


@pytest.mark.parametrize("name", sorted(VERIFIES))
def test_verify_digest(tmp_path, capsys, name):
    make_drawing, cert, want = VERIFIES[name]
    drawing = tmp_path / "drawing.json"
    drawing.write_text(encode_drawing(make_drawing()))
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(encode_certificate(cert))
    code = dispatch(["verify", str(drawing), str(cert_path)])
    captured = capsys.readouterr()
    assert sha256(f"{code}\n{captured.out}\n{captured.err}".encode()) == want
