"""Complete simple topological graphs at desk scale.

Exact generators for the convex, twisted, half-circle, and straight-line
families; triple/pair colorings and the online-game extraction pipeline for
convex/twisted sub-patterns; plane path construction; brute-force oracles;
canonical serialization; a deterministic CLI with SVG rendering.
"""

from .chromatics import (
    ChiCache,
    PhiValue,
    phi_table,
    validate_observation,
)
from .codec import (
    decode_certificate,
    decode_drawing,
    encode_certificate,
    encode_drawing,
)
from .drawing import (
    CONVEX,
    PLANE_BIPARTITE,
    PLANE_PATH,
    TWISTED,
    AnchoredDrawing,
    Certificate,
    Drawing,
    cross,
    edge_index,
    induced_subdrawing,
    verify_certificate,
)
from .extraction import (
    embed_tree,
    extract_pattern,
    guaranteed_m,
    naive_r_bound,
    paper_r_bound,
    required_n,
)
from .generators import (
    anchored_view,
    gen_convex,
    gen_halfcircle,
    gen_horton,
    gen_straightline,
    gen_twisted,
)
from .oracles import (
    OracleBudget,
    longest_plane_path_exact,
    max_pattern_exact,
)
from .planepath import extract_plane_path, find_plane_k2m2, theta
from .ramsey import (
    GameState,
    GameTranscript,
    adversarial_painter,
    naive_builder,
    run_game,
)
from .svg import render_svg

__version__ = "0.1.0"

__all__ = [
    "AnchoredDrawing",
    "Certificate",
    "ChiCache",
    "CONVEX",
    "Drawing",
    "GameState",
    "GameTranscript",
    "OracleBudget",
    "PLANE_BIPARTITE",
    "PLANE_PATH",
    "PhiValue",
    "TWISTED",
    "adversarial_painter",
    "anchored_view",
    "cross",
    "decode_certificate",
    "decode_drawing",
    "edge_index",
    "embed_tree",
    "encode_certificate",
    "encode_drawing",
    "extract_pattern",
    "extract_plane_path",
    "find_plane_k2m2",
    "gen_convex",
    "gen_halfcircle",
    "gen_horton",
    "gen_straightline",
    "gen_twisted",
    "guaranteed_m",
    "induced_subdrawing",
    "longest_plane_path_exact",
    "max_pattern_exact",
    "naive_builder",
    "naive_r_bound",
    "paper_r_bound",
    "phi_table",
    "render_svg",
    "required_n",
    "run_game",
    "theta",
    "validate_observation",
    "verify_certificate",
]
