"""Exact max-plus linear algebra: tropical polytopes, idempotents,
regularity and projectivity, with cross-validating brute-force oracles."""

from .algebra import (
    ProjectivityReport,
    RankReport,
    RegularityReport,
    REASON_DIMENSION_MISMATCH,
    REASON_NOT_MIN_PLUS_CONVEX,
    REASON_PROJECTIVE,
    canonical_projection,
    greens_h,
    greens_l,
    greens_r,
    infimum_matrix,
    is_idempotent,
    is_projective,
    metric_closure,
    rank_report,
    recover_idempotent,
    regularity_witness,
    same_span,
)
from .cells import (
    CellComplex,
    DEFAULT_MAX_TUPLES,
    Face,
    cell_complex,
    covector,
    covector_leq,
    descend_to_singletons,
    pure_dimension,
    tropical_dimension,
)
from .errors import (
    DimensionMismatch,
    EmptyPolytope,
    MalformedDocument,
    NonFiniteEntries,
    NotAnIdempotentColumnSpace,
    NotFullRank,
    NotIdempotent,
    NotMember,
    NotSquare,
    OutputLimitExceeded,
    PositiveCycle,
    ScaleLimitExceeded,
    TropicalError,
)
from .polytopes import (
    EmbeddingReport,
    Polytope,
    canonical_point,
    column_space,
    row_space,
)
from .semiring import (
    BOTTOM,
    Matrix,
    as_entry,
    as_vector,
    double_residual,
    format_entry,
    left_residual,
    parse_entry,
    right_residual,
    vec_leq,
    vec_max,
    vec_min,
    vec_scale,
)
from .svgplot import render_polytope_svg

__version__ = "0.1.0"
