"""Exact tooling for k-fan-crossing free graph drawings."""

from .model import (
    AbstractDrawing,
    CrossingRelation,
    FanWitness,
    Graph,
    InputError,
    StraightLineDrawing,
    from_json_dict,
    load,
    save,
    to_json_dict,
    validate_crossings,
    validate_graph,
)
from .crossings import (
    SimplicityError,
    SimplicityReport,
    compute_crossings,
    find_k_fans,
    is_k_fan_free,
    validate_simplicity,
)
from .star import (
    InconclusiveError,
    SearchResult,
    StarConfig,
    bound_b,
    classify_vertices,
    max_arrows,
    verify_base_cases,
)
from .decompose import (
    DecompositionReport,
    FaceAudit,
    arrowize,
    audit,
    audit_abstract,
    maximal_plane_subgraph,
    trace_faces,
)
from .constructions import (
    ConstructionError,
    gen_grid,
    gen_kq_subdivision,
    gen_quad_extremal,
    gen_straight_extremal,
    gen_tri_plus_dual,
)
from .bounds import (
    BoundReport,
    check_graph_against_bounds,
    exact_extremal_k2,
    nonexistence_argument,
    upper_bound,
)

__version__ = "0.1.0"
