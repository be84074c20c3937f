"""Acceptance suite: one test per criterion, each printing a pass line with
its elapsed time (run with ``pytest tests/test_acceptance.py -v -s``).

The headline guarantees of the underlying theory are asymptotic and far out
of desk-scale reach, so acceptance rests on exact small-scale laws, oracle
equivalence, and runtime invariants never firing.
"""

import math
import random
import time
from contextlib import contextmanager

import numpy as np
from helpers import (
    check_transitive_completion,
    class_masks,
    independent_pairs,
    numeric_rotation_oracle,
    random_tree_adjacency,
    spiral_cross,
)
from models import mirrored_twisted_view, rotations_of

from cstg.chromatics import validate_observation
from cstg.cli import dispatch
from cstg.codec import decode_drawing, encode_drawing
from cstg.drawing import (
    CONVEX,
    TWISTED,
    Certificate,
    check_plane_edges,
    cross,
    cyclic_equal,
    induced_subdrawing,
    verify_certificate,
)
from cstg.extraction import embed_tree, extract_pattern, guaranteed_m, required_n
from cstg.generators import (
    anchored_view,
    gen_convex,
    gen_halfcircle,
    gen_horton,
    gen_straightline,
    gen_twisted,
)
from cstg.oracles import longest_plane_path_exact, max_pattern_exact
from cstg.planepath import extract_plane_path
from cstg.ramsey import adversarial_painter, naive_builder, run_game


@contextmanager
def criterion(number, budget_seconds, description):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.1f}s"
    )
    print(f"PASS criterion {number:02d}: {description} ({elapsed:.1f}s < {budget_seconds}s)")


def corpus_32():
    for seed in range(200):
        yield anchored_view(gen_halfcircle(32, seed=seed))
    yield anchored_view(gen_straightline(gen_horton(4)))


def test_criterion_01_observation():
    with criterion(1, 30, "all triples color inside {000,001,010,100}"):
        for ad in corpus_32():
            report = validate_observation(ad)
            assert report.ok, report.violation


def test_criterion_02_transitivity():
    with criterion(2, 60, "100/001 classes transitive on every 4-tuple"):
        # the half-circle and Horton drawings hold no 2-chain in either
        # class; twisted has them in 001 and its mirror in 100, where the
        # class is complete on the whole window
        corpus = [(ad, None) for ad in corpus_32()]
        corpus += [(anchored_view(gen_twisted(16)), "001"), (mirrored_twisted_view(16), "100")]
        for ad, complete in corpus:
            window = list(range(1, ad.n))
            for color in ("100", "001"):
                report = check_transitive_completion(ad.n, class_masks(ad, color), window)
                assert report.ok, (color, report)
                assert report.completion_checked == (color == complete), (color, report)


def _twisted_sweep_m200():
    # all independent edge pairs at m=200; the default radii are 1..m, so
    # every smaller m is the restriction of this sweep to lower indices
    m = 200
    idx = np.arange(m, dtype=np.int32)
    gi, gj = np.meshgrid(idx, idx, indexing="ij")
    mask = gi < gj
    ei = gi[mask]
    ej = gj[mask]
    radii = np.arange(1, m + 1, dtype=np.int32)
    total = 0
    edges = len(ei)
    chunk = 600
    for start in range(0, edges, chunk):
        stop = min(edges, start + chunk)
        i1 = ei[start:stop][:, None]
        j1 = ej[start:stop][:, None]
        i2 = ei[None, start:]
        j2 = ej[None, start:]
        later = (i1 < i2) | ((i1 == i2) & (j1 < j2))
        indep = later & (i2 != i1) & (i2 != j1) & (j2 != i1) & (j2 != j1)
        # geometric route: radius differences at the two sweep ends
        u = radii[i1] - radii[i2]
        v = radii[j1] - radii[j2]
        spiral = (u * v) < 0
        # index route: one interval strictly nested in the other
        nested = ((i1 < i2) & (j2 < j1)) | ((i2 < i1) & (j1 < j2))
        assert not np.any((spiral != nested) & indep)
        total += int(np.count_nonzero(indep))
    assert total == 3 * math.comb(200, 4)  # three pairings per 4-subset


def _convex_sweep_n64():
    # exact orientation predicate on the parabola (i, i^2), whose hull order
    # is 0..n-1, against the interleaving rule; covers all n <= 64
    n = 64
    idx = np.arange(n, dtype=np.int64)
    gi, gj = np.meshgrid(idx, idx, indexing="ij")
    mask = gi < gj
    ei = gi[mask]
    ej = gj[mask]
    xs = idx
    ys = idx * idx

    def orient(a, b, c):
        return np.sign(
            (xs[b] - xs[a]) * (ys[c] - ys[a]) - (ys[b] - ys[a]) * (xs[c] - xs[a])
        )

    edges = len(ei)
    chunk = 150
    for start in range(0, edges, chunk):
        stop = min(edges, start + chunk)
        i1 = ei[start:stop][:, None]
        j1 = ej[start:stop][:, None]
        i2 = ei[None, :]
        j2 = ej[None, :]
        later = (i1 < i2) | ((i1 == i2) & (j1 < j2))
        indep = later & (i2 != i1) & (i2 != j1) & (j2 != i1) & (j2 != j1)
        segments = (
            (orient(i1, j1, i2) * orient(i1, j1, j2) < 0)
            & (orient(i2, j2, i1) * orient(i2, j2, j1) < 0)
        )
        interleave = ((i1 < i2) & (i2 < j1) & (j1 < j2)) | (
            (i2 < i1) & (i1 < j2) & (j2 < j1)
        )
        assert not np.any((segments != interleave) & indep)


def test_criterion_03_generator_ground_truth():
    with criterion(3, 30, "twisted spiral == index rule (m<=200); convex == interleaving"):
        _twisted_sweep_m200()
        _convex_sweep_n64()
        # scalar library routes on a small size, exhaustively
        d = gen_twisted(24)
        radii = tuple(range(1, 25))
        for e1, e2 in independent_pairs(24):
            assert cross(d, e1, e2) == spiral_cross(radii, e1, e2)


def test_criterion_04_extraction_canonical():
    with criterion(4, 10, "convex(64)->C8 and twisted(33)->T16, verified"):
        t0 = time.monotonic()
        out = extract_pattern(anchored_view(gen_convex(64)), 8, 8)
        assert time.monotonic() - t0 < 5
        assert out.stats.outcome == "convex"
        assert len(out.certificate.vertices) == 8
        assert verify_certificate(gen_convex(64), out.certificate).ok

        t0 = time.monotonic()
        out = extract_pattern(anchored_view(gen_twisted(33)), 4, 16)
        assert time.monotonic() - t0 < 5
        assert out.stats.outcome == "twisted"
        assert len(out.certificate.vertices) == 16
        assert verify_certificate(gen_twisted(33), out.certificate).ok


def test_criterion_05_oracle_dominance():
    with criterion(5, 600, "extraction never beats the exact oracles (50 drawings)"):
        produced = 0
        for seed in range(50):
            d = gen_halfcircle(12, seed=seed)
            ad = anchored_view(d)
            oracle_cache = {}
            for targets in ((3, 3), (4, 4)):
                out = extract_pattern(ad, *targets)
                if out.certificate is None:
                    continue
                produced += 1
                kind = out.certificate.kind
                if kind not in oracle_cache:
                    oracle_cache[kind] = max_pattern_exact(d, kind).size
                assert len(out.certificate.vertices) <= oracle_cache[kind]
            best_path = longest_plane_path_exact(d).size
            for kwargs in ({}, {"m_override": 2}):
                path_out = extract_plane_path(ad, **kwargs)
                assert path_out.vertex_count <= best_path
        assert produced >= 50  # the comparisons were not vacuous


def test_criterion_06_twisted_convex_separation():
    with criterion(6, 60, "max convex pattern inside twisted(8) is exactly 4"):
        result = max_pattern_exact(gen_twisted(8), CONVEX)
        assert result.exact
        assert result.size == 4
        assert verify_certificate(
            gen_twisted(8), Certificate(CONVEX, result.witness)
        ).ok


def test_criterion_07_plane_path_soundness():
    with criterion(7, 300, "plane paths verify; twisted(256) reaches 16 vertices"):
        for seed in range(20):
            d = gen_halfcircle(1024, seed=seed)
            ad = anchored_view(d)
            out = extract_plane_path(ad, m_override=16)
            assert verify_certificate(d, out.path).ok
            if out.bipartite is not None:
                assert verify_certificate(d, out.bipartite).ok
        d = gen_twisted(256)
        out = extract_plane_path(anchored_view(d), m_override=16)
        assert out.vertex_count >= 16
        assert verify_certificate(d, out.path).ok


def test_criterion_08_online_ramsey_bound():
    with criterion(8, 10, "monochromatic monotone 5-path within 136 edges"):
        cap = math.comb((5 - 1) ** 2 + 1, 2)
        assert cap == 136
        transcript = run_game(5, naive_builder(), adversarial_painter(), budget=cap)
        assert transcript.total_edges <= cap
        assert len(transcript.witness) == 5
        reference = 5**2 * math.log2(5)
        print(
            f"  measured edges: {transcript.total_edges} "
            f"(asymptotic reference m^2 log2 m = {reference:.1f})"
        )


def test_criterion_09_threshold_arithmetic():
    with criterion(9, 5, "exponent 144 at (2,2); guaranteed_m boundaries"):
        report = required_n(2, 2)
        assert report.formula_exponent == 144.0
        assert report.chain_exponent <= 144.0
        assert guaranteed_m(2**145) == 2
        assert guaranteed_m(2**144) == 1


def test_criterion_10_tree_embedding():
    with criterion(10, 30, "100 random trees embed plane into C16 and T16"):
        rng = random.Random(2024)
        for _ in range(100):
            k = rng.randint(2, 16)
            adj = random_tree_adjacency(rng, k)
            for kind, gen in ((CONVEX, gen_convex), (TWISTED, gen_twisted)):
                emb = embed_tree(kind, 16, adj)
                assert check_plane_edges(gen(16), emb.edges) is None


def test_criterion_11_determinism_and_codec(tmp_path, capsys):
    with criterion(11, 10, "byte-identical reruns; encode/decode identity"):
        def run(*argv):
            assert dispatch(list(argv)) in (0, 4)
            capsys.readouterr()

        pairs = []
        for tag, argv in {
            "gen": ["generate", "--family", "halfcircle", "--n", "20", "--seed", "9"],
            "bench": ["bench", "--n", "10", "--trials", "4", "--seed", "1",
                      "--m1", "3", "--m2", "3"],
        }.items():
            for attempt in ("a", "b"):
                out = tmp_path / f"{tag}-{attempt}"
                run(*argv, "--out", str(out))
                pairs.append(out)
        drawing = tmp_path / "gen-a"
        for attempt in ("a", "b"):
            run("render", str(drawing), "--out", str(tmp_path / f"svg-{attempt}"))
            run("tables", "chi", str(drawing), "--out", str(tmp_path / f"chi-{attempt}"))
            run("extract", "pattern", str(drawing), "--m1", "3", "--m2", "3",
                "--out", str(tmp_path / f"cert-{attempt}"))
        for tag in ("gen", "bench", "svg", "chi", "cert"):
            a = tmp_path / f"{tag}-a"
            b = tmp_path / f"{tag}-b"
            assert a.read_bytes() == b.read_bytes(), tag

        corpus = [
            gen_convex(6),
            gen_twisted(9),
            gen_halfcircle(8, seed=11),
            gen_straightline(gen_horton(3)),
            induced_subdrawing(gen_halfcircle(7, seed=5), range(7)),
        ]
        for d in corpus:
            text = encode_drawing(d)
            assert encode_drawing(decode_drawing(text)) == text


def test_criterion_12_rotation_validation():
    with criterion(12, 60, "analytic rotations equal numeric germ sampling"):
        jobs = [gen_convex(n) for n in range(3, 17)]
        jobs += [gen_twisted(m) for m in range(3, 17)]
        jobs += [gen_halfcircle(16, seed=s) for s in range(50)]
        for d in jobs:
            numeric = numeric_rotation_oracle(d)
            analytic = rotations_of(d)
            for v in range(d.n):
                assert cyclic_equal(numeric[v], analytic[v]), (d.model, v)
