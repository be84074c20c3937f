"""The SVG renderer against its per-point reference.

``svg.render_svg`` formats each distinct y column once into a template and
fills it per edge; ``helpers.reference_render_svg`` formats every point on
its own.  The two must give the same text on every model with geometry,
with and without a certificate overlay: the registry samples, seeded
half-circle drawings at n 2-30 (where arcs share y columns) and twisted
drawings at n 2-24 (where they do not).
"""

import math
import random
from itertools import combinations

import pytest
from helpers import reference_render_svg
from models import SAMPLES

from cstg.drawing import MODELS, PLANE_PATH, TWISTED, Certificate
from cstg.generators import gen_halfcircle, gen_twisted
from cstg.svg import render_svg


def _shuffled_path(d, seed):
    # edges listed both ways round, so the overlay reads (u, v) with u > v too
    order = list(range(d.n))
    random.Random(seed).shuffle(order)
    return Certificate(PLANE_PATH, tuple(order))


def _cases():
    for name, d in SAMPLES.items():
        if d.model != "explicit":  # the one model with no geometry
            yield name, d, _shuffled_path(d, name)
    for n in range(2, 31):
        d = gen_halfcircle(n, seed=n)
        yield f"halfcircle {n} seed {n}", d, _shuffled_path(d, n)
    for n in range(2, 25):
        yield f"twisted {n}", gen_twisted(n), Certificate(TWISTED, tuple(range(n)))


CASES = list(_cases())


@pytest.mark.parametrize("overlaid", [False, True], ids=["plain", "overlay"])
@pytest.mark.parametrize("name,d,cert", CASES, ids=[name for name, _, _ in CASES])
def test_render_matches_the_per_point_reference(name, d, cert, overlaid):
    overlay = cert if overlaid else None
    assert render_svg(d, overlay) == reference_render_svg(d, overlay)


def test_half_circle_arcs_of_one_span_and_side_share_their_y_column():
    # the input property the templates rest on: 2(n-1) columns for C(n,2) arcs
    d = gen_halfcircle(22, seed=5)
    model = MODELS[d.model]
    pos = model.positions(d)
    pairs = list(combinations(range(d.n), 2))
    columns = {model.arc(d, pos, i, j, model.turn)[1] for i, j in pairs}
    spans_and_sides = {(j - i, d.signs[k]) for k, (i, j) in enumerate(pairs)}
    assert len(columns) == len(spans_and_sides) <= 2 * (d.n - 1)


# each arc model's samples as it sampled them point by point: the sweeps of a
# whole arc, and the angle of a sweep
SWEEPS = {
    "twisted": ([t / 96 for t in range(97)], lambda s: 2 * math.pi * s),
    "halfcircle": ([math.pi * t / 96 for t in range(97)], lambda th: th),
}


@pytest.mark.parametrize("model", sorted(m for m in MODELS if MODELS[m].turn is not None))
def test_the_trig_table_holds_the_doubles_of_fresh_calls(model):
    # the renderer reads the whole turn, the germ sampler one-sample tables
    sweeps, angle = SWEEPS[model]
    rows = [(s, math.cos(angle(s)), math.sin(angle(s))) for s in sweeps]
    m = MODELS[model]
    assert m.turn == tuple(zip(*rows))
    for s, cos, sin in rows:
        assert m.samples([s]) == ((s,), (cos,), (sin,))
