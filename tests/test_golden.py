"""Byte identity of the chromatics outputs: sha256 digests of the CSV
tables and of an extraction's report and certificate, fixed before the
anchor-crossing mask kernel replaced per-triple crossing queries."""

import hashlib

import pytest

from cstg.cli import dispatch

DRAWINGS = {
    "halfcircle-40-3": ["--family", "halfcircle", "--n", "40", "--seed", "3"],
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
