"""Cross-module runs at moderate scale: every certificate re-verified,
internal assertions armed throughout."""

from collections import Counter

from cstg.chromatics import ChiCache
from cstg.drawing import Drawing, induced_subdrawing, verify_certificate
from cstg.extraction import extract_pattern
from cstg.generators import (
    anchored_view,
    gen_halfcircle,
    gen_horton,
    gen_straightline,
    gen_twisted,
    rotations_of,
)
from cstg.planepath import extract_plane_path


def mirrored_twisted_view(m):
    base = induced_subdrawing(gen_twisted(m), range(m))
    rots = tuple(tuple(reversed(r)) for r in rotations_of(gen_twisted(m)))
    d = Drawing(
        n=m,
        model="explicit",
        crossings=base.crossings,
        rotations=rots,
        anchor=(m - 1, tuple(range(m - 1))),
    )
    return anchored_view(d)


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
