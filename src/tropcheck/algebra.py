"""Idempotency, von Neumann regularity, projectivity and the rank family.

Projectivity is decided by the order route: equal generator and dual
dimension and a min-plus closed minimal embedding (`is_min_plus_convex`),
whose infimum matrix is then the witness idempotent (see `is_projective`).
"""

from __future__ import annotations

from typing import NamedTuple

from .cells import DEFAULT_MAX_TUPLES, tropical_dimension
from .errors import (
    DimensionMismatch,
    NonFiniteEntries,
    NotAnIdempotentColumnSpace,
    NotFullRank,
    NotIdempotent,
    NotSquare,
    PositiveCycle,
)
from .polytopes import EmbeddingReport, Polytope, column_space, row_space
from .semiring import BOTTOM, Matrix, _common, _product, as_vector, double_residual, right_residual

REASON_DIMENSION_MISMATCH = "dimension-mismatch"
REASON_NOT_MIN_PLUS_CONVEX = "not-min-plus-convex"
REASON_PROJECTIVE = "projective"


class RegularityReport(NamedTuple):
    """Verdict plus, when regular, a finite B with A @ B @ A = A."""

    regular: bool
    witness: Matrix | None


class ProjectivityReport(NamedTuple):
    projective: bool
    gendim: int
    dualdim: int
    reason: str
    idempotent: Matrix | None
    embedding: EmbeddingReport | None


class RankReport(NamedTuple):
    row_gen_rank: int
    col_gen_rank: int
    tropical_rank: int
    all_equal: bool


def is_idempotent(a: Matrix) -> bool:
    """Exact test of A @ A = A."""
    if not a.is_square:
        raise NotSquare("idempotency is defined for square matrices")
    x = a._ints()[1]
    return _product(x, x) == x


def regularity_witness(a: Matrix) -> RegularityReport:
    """Decide von Neumann regularity of a finite square matrix.

    The double residual B is the greatest X with A @ X @ A <= A, so A is
    regular exactly when equality holds there; B is finite by construction.
    """
    if not a.is_square:
        raise NotSquare("regularity is defined for square matrices")
    if not a.is_finite:
        raise NonFiniteEntries("regularity is decided for finite matrices")
    b = double_residual(a)
    _, (x, y) = _common(a._ints(), b._ints())
    regular = _product(_product(x, y), x) == x
    return RegularityReport(regular=regular, witness=b if regular else None)


def metric_closure(a: Matrix) -> Matrix:
    """Zero the diagonal and take all-pairs maximum path weights.

    Rejects matrices with a positive-weight cycle; otherwise the result
    equals the (n-1)-th power of the zero-diagonal matrix and is idempotent.
    """
    if not a.is_square:
        raise NotSquare("metric closure needs a square matrix")
    if not a.is_finite:
        raise NonFiniteEntries("metric closure needs a finite matrix")
    n = a.rows
    denom, x = a._ints()
    x = tuple(row[:i] + (0,) + row[i + 1 :] for i, row in enumerate(x))
    # square until walks of n steps are covered: no simple cycle is longer
    walk = 1
    while walk < n:
        x = _product(x, x)
        walk *= 2
    for i in range(n):
        if x[i][i] > 0:
            raise PositiveCycle(f"cycle of positive weight through index {i}")
    return Matrix._from_ints(denom, x)


def infimum_matrix(polytope: Polytope) -> Matrix:
    """The square matrix whose column i is the infimum of the points of the
    polytope with non-negative i-th coordinate.

    Entrywise M[j][i] = min over generators g of (g[j] - g[i]), which is the
    right residual G / G of the generator matrix by itself; the value does
    not depend on the choice of generating set and the diagonal is 0.
    """
    g = polytope.generator_matrix()
    return right_residual(g, g)


def same_span(p: Polytope, q: Polytope) -> bool:
    """Do two polytopes have the same point set?  Mutual membership of the
    canonical extremal generators decides it."""
    if p.ambient != q.ambient:
        raise DimensionMismatch("spans live in different ambient spaces")
    return q._holds(*p.extremals()._ints()) and p._holds(*q.extremals()._ints())


def is_projective(polytope: Polytope) -> ProjectivityReport:
    """Decide projectivity of the polytope as a max-plus module.

    Projective polytopes are exactly those with generator dimension equal
    to dual dimension whose minimal embedding's image P is the column space
    of an idempotent; the infimum matrix M = G/G is the only candidate.  M
    is idempotent: M_jj = 0 gives M @ M >= M, and a g with M_ji = g_j - g_i
    gives M_jk + M_ki <= (g_j - g_k) + (g_k - g_i) = M_ji.  P lies in its
    column space, as g_i + M_ji <= g_j, equal at j = i.  So the spans agree
    exactly when M's columns lie in P: the min-plus test.
    """
    gendim = polytope.generator_dimension()
    dualdim = polytope.dual_dimension()
    reason, idempotent, embedding = REASON_DIMENSION_MISMATCH, None, None
    if gendim == dualdim:
        embedding = polytope.embed_minimal()
        if embedding.embedded.is_min_plus_convex():
            reason, idempotent = REASON_PROJECTIVE, infimum_matrix(embedding.embedded)
        else:
            reason = REASON_NOT_MIN_PLUS_CONVEX
    return ProjectivityReport(
        projective=idempotent is not None,
        gendim=gendim,
        dualdim=dualdim,
        reason=reason,
        idempotent=idempotent,
        embedding=embedding,
    )


def recover_idempotent(polytope: Polytope) -> Matrix:
    """The unique idempotent matrix with the given full-rank column space.

    Requires generator dimension equal to the ambient dimension.  As in
    `is_projective`, the infimum matrix is that idempotent exactly when the
    polytope is min-plus convex, and no idempotent spans it otherwise.
    """
    if polytope.generator_dimension() != polytope.ambient:
        raise NotFullRank("recovery needs generator dimension equal to the ambient dimension")
    if not polytope.is_min_plus_convex():
        raise NotAnIdempotentColumnSpace("the infimum matrix spans a different polytope")
    return infimum_matrix(polytope)


def canonical_projection(e: Matrix, x):
    """Map x to E @ x, the least point of the column space dominating x.

    E must be idempotent of full column generator rank; x may contain
    -inf (e.g. a standard basis vector) but not be entirely -inf.
    """
    if not e.is_square:
        raise NotSquare("projection needs a square matrix")
    if not e.is_finite:
        raise NonFiniteEntries("projection needs a finite matrix")
    if not is_idempotent(e):
        raise NotIdempotent("projection is defined for idempotent matrices")
    if column_space(e).generator_dimension() != e.rows:
        raise NotFullRank("projection needs full column generator rank")
    x = as_vector(x, length=e.cols)
    if all(entry is BOTTOM for entry in x):
        raise ValueError("the all -inf vector has no projection")
    return e.apply(x)


def greens_r(a: Matrix, b: Matrix) -> bool:
    """Column spaces equal?"""
    if a.rows != b.rows:
        raise DimensionMismatch("column spaces live in different ambient spaces")
    return same_span(column_space(a), column_space(b))


def greens_l(a: Matrix, b: Matrix) -> bool:
    """Row spaces equal?"""
    if a.cols != b.cols:
        raise DimensionMismatch("row spaces live in different ambient spaces")
    return same_span(row_space(a), row_space(b))


def greens_h(a: Matrix, b: Matrix) -> bool:
    """Both row and column spaces equal?"""
    return greens_r(a, b) and greens_l(a, b)


def rank_report(a: Matrix, max_tuples: int = DEFAULT_MAX_TUPLES) -> RankReport:
    """Row and column generator ranks plus the tropical rank.

    The tropical rank is the tropical dimension of the row space, the rank
    of its extremal frame (`tropical_dimension`), with no cell walk; it
    never exceeds the generator ranks, and all three agree for regular
    matrices.
    """
    rows = row_space(a)
    cols = column_space(a)
    row_rank = rows.generator_dimension()
    col_rank = cols.generator_dimension()
    trop = tropical_dimension(rows, max_tuples)
    return RankReport(
        row_gen_rank=row_rank,
        col_gen_rank=col_rank,
        tropical_rank=trop,
        all_equal=row_rank == col_rank == trop,
    )
