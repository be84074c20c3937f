"""Byte identity of the CLI outputs: sha256 digests of the CSV tables and
of an extraction's report and certificate, fixed before the anchor-crossing
mask kernel replaced per-triple crossing queries; of oracle witnesses, and
of an explicit document's round trip, fixed before the oracles' candidate
masks and the codec's rank table; of oracle reports, whose node counts are
those of the pattern search that ticks once per consistent extension and
prunes on the popcount of its candidate mask (convex) or on a greedy
colouring of it (twisted); of `verify` on C48/T48
certificates, fixed before certificate checks read crossing masks; of
`render` with and without a certificate overlay, and of the numeric rotation
oracle, fixed before the arcs were sampled through one parametrisation; of
the C48/T48 explicit documents, fixed before explicit tables were held as
rank bitsets; of a `bench` CSV, fixed before its trials were run inline."""

import hashlib

import pytest
from helpers import numeric_rotation_oracle

from cstg.cli import EXIT_OK, dispatch
from cstg.codec import decode_drawing, encode_certificate, encode_drawing
from cstg.drawing import (
    CONVEX,
    PLANE_BIPARTITE,
    PLANE_PATH,
    TWISTED,
    Certificate,
    induced_subdrawing,
)
from cstg.generators import gen_convex, gen_halfcircle, gen_twisted

DRAWINGS = {
    "halfcircle-40-3": ["--family", "halfcircle", "--n", "40", "--seed", "3"],
    "halfcircle-18-5": ["--family", "halfcircle", "--n", "18", "--seed", "5"],
    "halfcircle-22-5": ["--family", "halfcircle", "--n", "22", "--seed", "5"],
    "horton-32": ["--family", "horton", "--n", "32"],
    "twisted-12": ["--family", "twisted", "--n", "12"],
    "twisted-16": ["--family", "twisted", "--n", "16"],
    "convex-12": ["--family", "convex", "--n", "12"],
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
# an exhausted search writes no witness); the twisted search expands 687
# nodes, so the 20,000-node budget finishes with the unbudgeted report
ORACLES = {
    ("maxconvex",): (
        EXIT_OK,
        "a839f04cd06e067121fb14c9bb8fe6933f98763da6b0a318526595c2319a2a8c",
        "bdf96ba4774978e4677bef7ebf5606d1a48ef89a0d8a796734d731680aab2d46",
    ),
    ("maxtwisted", "--budget-nodes", "20000"): (
        EXIT_OK,
        "7c31e16fe772869496bbf845fcf32fb2c569015f6e58a0b456784e59e47ed954",
        "c12e376211eb45626d781c97f74cdfc837b9969c1d6ebc563acd0ba86868bf43",
    ),
    ("maxtwisted",): (
        EXIT_OK,
        "7c31e16fe772869496bbf845fcf32fb2c569015f6e58a0b456784e59e47ed954",
        "c12e376211eb45626d781c97f74cdfc837b9969c1d6ebc563acd0ba86868bf43",
    ),
}

# bench --n 12 --trials 8 --seed 3 --m1 3 --m2 3: the CSV
BENCH_CSV = "43a6b1dc2bb0c2b63c23561ce90599229a35fcb50530d47265486177df32c5ab"

# encode(decode(.)) of the explicit restriction of gen_convex(12) to itself
EXPLICIT_ROUND_TRIP = "233d9c36a2d9336000d0f005133d7f8acda0cfdb58b0db5951a12acfb2384f0d"

# encode of the explicit restriction of convex 48 and twisted 48 to
# themselves: 194,580 entries each
EXPLICIT_48 = {
    "convex": (gen_convex, "825688817476d9626d76f3a81ed5cc78660b8975a799dfb9d2866efb869de4de"),
    "twisted": (gen_twisted, "241fce23420dea0fb65ade56dbf48517777876ef4894678560f9e6288ce2cbc2"),
}

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

# render: the SVG digest without an overlay, then with the certificate as one;
# half-circle 22 (its plane path at m_override=16) and twisted 16 are the
# largest renders of the oracle benchmark, fixed before each edge was
# formatted with one call from shared y-sequences
RENDERS = {
    "halfcircle-18-5": (
        Certificate(PLANE_PATH, (0, 17, 3, 9, 12)),
        "15434ebaa9922b512e71456cb2c2282cc7c4f113978631cbf5bf660af470fad5",
        "5de50858e83d2fadfb5f982a71a783f7f3f3074acfd719561faae0df39e50066",
    ),
    "halfcircle-22-5": (
        Certificate(PLANE_PATH, (21, 19, 17, 12, 7)),
        "50fc6b2dab4fe487c934b3ad2a961fc793f5460d9dcd7e9560a104f0a4aa51c8",
        "a03437ff95915961055e239ce81a7830a3390450512926f287b532b878e39bf6",
    ),
    "twisted-12": (
        Certificate(TWISTED, tuple(range(12))),
        "4f268ddd139dad7591f8872f02ee90cc308ff42259f4c443e0d5ab032abd2657",
        "2af88e004e329bc8d6c59aa3689a3fe9d0b95362e8b9793d92a9de8018d0e891",
    ),
    "twisted-16": (
        Certificate(TWISTED, tuple(range(16))),
        "0a4ddf48de7ff5d9ff1d9554f286f409fc130f77a0f6b45eb6cf54cdd45fba4a",
        "4a31982988e8ea2f59763c60cb3c5e31913cc0178418e1d88bcc54fa5d029f12",
    ),
    "convex-12": (
        Certificate(CONVEX, (0, 2, 5, 7, 11)),
        "018dc47c46ca155dcfb1d0536ed4050388aa0ea30d83db16fa9af89611438815",
        "621ca0fb38b8eef478227981b83ce08d0186ffed2bcd28e47bf8db871ec6a0f1",
    ),
    "horton-32": (
        Certificate(PLANE_BIPARTITE, (0, 31, 4, 9, 20)),
        "a8b4baf498468dbff7e25e7ce33c18559a354e91baf50d34166b0ac77f7fb85a",
        "2e35b36964aa9d8d446a05b6ac5d2962149740a597f7838e842d1937a488cde9",
    ),
}

# repr of the rotation system the numeric germ-sampling oracle recovers
ROTATION_ORACLE = {
    "halfcircle-12-5": (
        lambda: gen_halfcircle(12, seed=5),
        "ca3c1d67f80a3bbeab6a23911c6bace19c7407ab53662a0e7369b21a74672e9e",
    ),
    "twisted-12": (
        lambda: gen_twisted(12),
        "8f31440e1193cef8da1ae41424189f19ad0189587d097a97c8995467ff5d43c9",
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


def test_bench_digest(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    argv = ["--n", "12", "--trials", "8", "--seed", "3", "--m1", "3", "--m2", "3"]
    assert dispatch(["bench", *argv, "--out", str(out)]) == EXIT_OK
    assert sha256(out.read_bytes()) == BENCH_CSV


def test_explicit_round_trip_digest():
    doc = encode_drawing(induced_subdrawing(gen_convex(12), range(12)))
    assert sha256(encode_drawing(decode_drawing(doc)).encode()) == EXPLICIT_ROUND_TRIP


@pytest.mark.parametrize("name", sorted(EXPLICIT_48))
def test_explicit_48_digest(name):
    make_drawing, want = EXPLICIT_48[name]
    doc = encode_drawing(induced_subdrawing(make_drawing(48), range(48)))
    assert sha256(doc.encode()) == want


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


@pytest.mark.parametrize("key", sorted(RENDERS))
def test_render_digest(tmp_path, capsys, key):
    cert, plain, overlaid = RENDERS[key]
    drawing = generate(tmp_path, capsys, key)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(encode_certificate(cert))
    digests = []
    for extra in ([], ["--overlay", str(cert_path)]):
        out = tmp_path / "drawing.svg"
        assert dispatch(["render", str(drawing), "--out", str(out), *extra]) == EXIT_OK
        digests.append(sha256(out.read_bytes()))
    assert tuple(digests) == (plain, overlaid)


@pytest.mark.parametrize("name", sorted(ROTATION_ORACLE))
def test_rotation_oracle_digest(name):
    make_drawing, want = ROTATION_ORACLE[name]
    assert sha256(repr(numeric_rotation_oracle(make_drawing())).encode()) == want
