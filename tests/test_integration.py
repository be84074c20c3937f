"""Cross-module runs at moderate scale: every certificate re-verified,
internal assertions armed throughout."""

from collections import Counter

import pytest
from helpers import assert_step_shares, assert_wedges_uniform, run
from models import mirrored_twisted_view

from cstg import codec, drawing
from cstg.chromatics import ChiCache
from cstg.drawing import CertificateReport, verify_certificate
from cstg.errors import InternalInvariantBroken
from cstg.extraction import extract_pattern
from cstg.generators import (
    anchored_view,
    gen_convex,
    gen_halfcircle,
    gen_horton,
    gen_straightline,
    gen_twisted,
)
from cstg.planepath import extract_plane_path


class TestExtractionStress:
    def test_halfcircle_sweep_all_verified(self):
        outcomes = Counter()
        for seed in range(30):
            d = gen_halfcircle(48, seed=seed)
            ad = anchored_view(d)
            cache = ChiCache(ad)
            for targets in ((4, 4), (5, 5), (4, 8)):
                out = extract_pattern(ad, *targets, chi_cache=cache)
                outcomes[out.stats.outcome] += 1
                if out.certificate is not None:
                    assert verify_certificate(d, out.certificate).ok
                    want = targets[0] if out.certificate.kind == "convex" else targets[1]
                    assert len(out.certificate.vertices) == want
        # at this size most runs find a pattern; none may break invariants
        assert outcomes["convex"] + outcomes["twisted"] >= 60

    def test_mirrored_twisted_uses_the_100_component(self):
        # chi == 100 everywhere, so the other phi component must fire
        ad = mirrored_twisted_view(20)
        out = extract_pattern(ad, 3, 8)
        assert out.stats.outcome == "twisted"
        assert len(out.certificate.vertices) == 8
        assert verify_certificate(ad.base, out.certificate).ok

    def test_horton_straightline_full_stack(self):
        d = gen_straightline(gen_horton(5))  # 32 points, exact predicates
        ad = anchored_view(d)
        out = extract_pattern(ad, 4, 4)
        assert out.certificate is not None
        assert verify_certificate(d, out.certificate).ok
        path = extract_plane_path(ad, m_override=2)
        assert verify_certificate(d, path.path).ok


class TestPlanePathStress:
    def test_halfcircle_deep_decreasing_branch(self):
        # the longest increasing theta runs sit near n/4, so m^2 = 100
        # stays safely above them and forces the inductive branch
        hit = 0
        for seed in range(6):
            d = gen_halfcircle(200, seed=seed)
            ad = anchored_view(d)
            out = extract_plane_path(ad, m_override=10)
            assert verify_certificate(d, out.path).ok
            if out.stats.branch == "decreasing":
                hit += 1
                assert out.vertex_count >= 3
        assert hit > 0

    def test_twisted_full_run_with_wedge_assertions(self):
        d = gen_twisted(96)
        ad = anchored_view(d)
        out = extract_plane_path(ad, m_override=6)
        assert out.stats.branch == "decreasing"
        assert out.vertex_count == 95  # candidate pool shrinks by one per step
        assert verify_certificate(d, out.path).ok
        assert_step_shares(out.stats)
        assert_wedges_uniform(ad, out)

    def test_increasing_branch_star_and_path_both_verify(self):
        for seed in range(6):
            d = gen_halfcircle(150, seed=seed)
            ad = anchored_view(d)
            out = extract_plane_path(ad, m_override=3, path_target=6)
            if out.stats.branch != "increasing":
                continue
            assert len(out.bipartite.vertices) == 2 + 9
            assert verify_certificate(d, out.bipartite).ok
            assert verify_certificate(d, out.path).ok
            assert out.vertex_count >= 2


def fail_kind(monkeypatch, kind):
    """verify_certificate fails every certificate of ``kind`` with the
    failure "injected" and checks the others as before."""
    def verify(d, c):
        if c.kind == kind:
            return CertificateReport(ok=False, kind=kind, checked=0, failure="injected")
        return verify_certificate(d, c)

    monkeypatch.setattr(drawing, "verify_certificate", verify)


class TestCertificateGate:
    """Every certificate the library hands out, and the oracle witness the
    CLI writes, passes verify_certificate first or raises."""

    @pytest.mark.parametrize("kind, d, m1, m2", [
        ("convex", gen_convex(12), 4, 4),
        ("twisted", gen_twisted(12), 6, 6),
    ])
    def test_pattern_exit_raises(self, monkeypatch, kind, d, m1, m2):
        ad = anchored_view(d)
        assert extract_pattern(ad, m1, m2).stats.outcome == kind
        fail_kind(monkeypatch, kind)
        with pytest.raises(InternalInvariantBroken) as info:
            extract_pattern(ad, m1, m2)
        assert str(info.value) == f"{kind} certificate failed: injected"

    @pytest.mark.parametrize("kind, m, branch", [
        ("plane_path", None, "trivial"),
        ("plane_bipartite", 2, "increasing"),  # the star, before its path
        ("plane_path", 2, "increasing"),
        ("plane_path", 16, "decreasing"),
    ])
    def test_plane_path_exit_raises(self, monkeypatch, kind, m, branch):
        ad = anchored_view(gen_halfcircle(64, seed=1))
        assert extract_plane_path(ad, m_override=m).stats.branch == branch
        fail_kind(monkeypatch, kind)
        with pytest.raises(InternalInvariantBroken) as info:
            extract_plane_path(ad, m_override=m)
        assert str(info.value) == f"{kind} certificate failed: injected"

    @pytest.mark.parametrize("kind, d, argv", [
        ("convex", gen_convex(12), ["extract", "pattern", "--m1", "4", "--m2", "4"]),
        ("plane_path", gen_halfcircle(64, seed=1), ["extract", "planepath", "--m-override", "16"]),
        ("convex", gen_twisted(12), ["oracle", "maxconvex"]),
    ])
    def test_cli_exit_writes_nothing(self, tmp_path, capsys, monkeypatch, kind, d, argv):
        path = tmp_path / "d.cstg"
        codec.save_drawing(d, str(path))
        command = argv[:2] + [str(path)] + argv[2:]
        out = tmp_path / "cert.json"
        assert run(capsys, *command, "--out", str(out))[0] == 0
        out.unlink()
        fail_kind(monkeypatch, kind)
        code, _, err = run(capsys, *command, "--out", str(out))
        assert (code, err) == (
            3, f"invalid input: InternalInvariantBroken: {kind} certificate failed: injected\n"
        )
        assert not out.exists()
