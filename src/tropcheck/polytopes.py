"""Finitely generated max-plus convex sets (tropical polytopes) in FT^n.

A polytope is stored by a canonical generating set: every generator is
scaled so its maximum entry is 0, duplicates are removed and the list is
sorted, so equal generating sets compare equal bit for bit.  The set may
still contain redundant generators; `extremals()` removes every generator
that is a combination of the others, leaving the unique minimal generating
set up to scaling.

Membership is decided by the principal-solution test: x lies in the span
iff recombining the greatest admissible coefficients reproduces x exactly.

The stored form is the integer frame: the lcm of the canonical generators'
denominators and the generators multiplied through by it, as int tuples in
`generators` order (see `semiring` for why this is exact).  One internal
constructor, `_from_frame`, takes int rows over any common denominator to
that form in ints; `Polytope(points)` validates its points and goes
through it, and so do the derived polytopes (`extremals()`, `row_space()`,
`embed_minimal()`'s image, `column_space` and `row_space` of a `Matrix`).
Membership, extremal reduction and the min-plus convexity test run on
frames; a query point is lifted with the polytope to the lcm of both
denominators.  The extremal polytope has a frame of its own, over the lcm
of its own generators' denominators, and the cells read that one.
`Fraction`s are built only for what the API returns: the generators, on
first access, and the coefficients.
"""

from __future__ import annotations

from itertools import chain
from math import gcd
from typing import NamedTuple

from .errors import DimensionMismatch, EmptyPolytope, NonFiniteEntries
from .semiring import Matrix, _combine, _common, _fractions, _frame_of, _lift, _principal, _residual, as_vector


def canonical_point(values) -> tuple:
    """Scale a finite point so its maximum entry is 0 (projective normal form)."""
    v = as_vector(values, finite=True)
    top = max(v)
    if top == 0:
        return v
    return tuple(e - top for e in v)


def _shifted(row) -> tuple:
    """`canonical_point` of an int frame row: its maximum subtracted."""
    top = max(row)
    return row if top == 0 else tuple([e - top for e in row])


def _member(x, gens) -> bool:
    return _combine(_principal(x, gens), gens) == x


class Polytope:
    """A non-empty finitely generated submodule of FT^n."""

    # Derived objects are memoised on the instance.  Each is a pure function
    # of the frame, so a concurrent first computation writes an equal value
    # and sharing a polytope across threads stays safe.
    __slots__ = (
        "ambient", "_frame", "_generators", "_extremals", "_row_space",
        "_complex", "_covering", "_rank", "_min_plus_convex", "_embedding",
    )

    def __init__(self, points):
        pts = [as_vector(p, finite=True) for p in points]
        if not pts:
            raise EmptyPolytope("a polytope needs at least one generator")
        n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise DimensionMismatch("generators of mixed length")
        self._setup(n, *_frame_of(pts))

    @classmethod
    def _from_frame(cls, ambient: int, denom: int, rows) -> "Polytope":
        # internal: the polytope generated by int rows over a common
        # positive denominator, which need not be the lcm
        p = object.__new__(cls)
        p._setup(ambient, denom, rows)
        return p

    def _setup(self, ambient: int, denom: int, rows) -> None:
        # The canonical form in ints: each row's maximum subtracted, then
        # distinct rows in order.  Over one positive denominator the int
        # order is the Fraction order.  Dividing out the gcd leaves the
        # frame over the lcm of the canonical generators' denominators.
        rows = sorted(set(map(_shifted, rows)))
        g = gcd(denom, *chain.from_iterable(rows))
        if g != 1:
            denom //= g
            rows = [tuple([e // g for e in row]) for row in rows]
        self.ambient = ambient
        self._frame = (denom, tuple(rows))
        self._generators = None
        self._extremals = None
        self._row_space = None
        self._complex = None  # owned by cells.cell_complex
        self._covering = None  # owned by cells.pure_dimension
        self._rank = None  # owned by cells._rank
        self._min_plus_convex = None  # owned by is_min_plus_convex
        self._embedding = None  # owned by embed_minimal

    @property
    def generators(self) -> tuple:
        """The canonical generators as `Fraction` tuples, built on first use."""
        if self._generators is None:
            self._generators = _fractions(self._frame[1], self._frame[0])
        return self._generators

    def _ints(self):
        """The integer frame (denom, rows): the lcm of the generators'
        denominators and the generators multiplied through by it, as int
        tuples in `generators` order."""
        return self._frame

    # -- membership

    def _holds(self, denom, points) -> bool:
        """Do all the points, int rows over denom, lie in the span?"""
        _, (gens, points) = _common(self._ints(), (denom, points))
        return all(_member(x, gens) for x in points)

    def coefficients(self, x):
        """Principal coefficients of x over the generators, or None.

        When x is in the span, the returned lam satisfy
        max_t (lam_t + g_t) = x exactly, with each lam_t maximal.
        """
        x = as_vector(x, finite=True, length=self.ambient)
        denom, (gens, (point,)) = _common(self._ints(), _frame_of((x,)))
        lams = _principal(point, gens)
        if _combine(lams, gens) == point:
            return _fractions((lams,), denom)[0]
        return None

    def __contains__(self, x) -> bool:
        return self.coefficients(x) is not None

    # -- canonical minimal generators

    def extremals(self) -> "Polytope":
        """The unique minimal generating set: drop every redundant generator.

        A polytope whose generators are all extremal is its own extremal
        set."""
        if self._extremals is None:
            denom, rows = self._frame
            keep = list(range(len(rows)))
            i = 0
            while i < len(keep):
                k = keep.pop(i)
                if keep and _member(rows[k], [rows[j] for j in keep]):
                    continue  # combination of the others: discard
                keep.insert(i, k)
                i += 1
            if len(keep) == len(rows):
                ext = self
            else:
                ext = Polytope._from_frame(self.ambient, denom, [rows[k] for k in keep])
            ext._extremals = ext
            self._extremals = ext
        return self._extremals

    def generator_dimension(self) -> int:
        """Minimal number of generators under scaling and max."""
        return len(self.extremals()._frame[1])

    def generator_matrix(self) -> Matrix:
        """The matrix whose columns are the canonical extremal generators."""
        denom, rows = self.extremals()._frame
        return Matrix._from_ints(denom, tuple(zip(*rows)))

    def row_space(self) -> "Polytope":
        """Polytope generated by the rows of the canonical generator matrix."""
        if self._row_space is None:
            denom, rows = self.extremals()._frame
            self._row_space = Polytope._from_frame(len(rows), denom, tuple(zip(*rows)))
        return self._row_space

    def dual_dimension(self) -> int:
        """Minimal number of generators under scaling and greatest lower bound.

        Equals the generator dimension of the row space, and the least k
        such that the polytope embeds linearly into FT^k.
        """
        return self.row_space().generator_dimension()

    def embed_minimal(self) -> "EmbeddingReport":
        """Linearly embed into FT^k with k the dual dimension.

        Keeps one row of the generator matrix for each extremal point of
        the row space and restricts every generator to the kept rows; when
        that keeps every row, the image is `extremals()`.  Memoised.
        """
        if self._embedding is not None:
            return self._embedding
        denom, gens = self.extremals()._frame
        own, targets = self.row_space().extremals()._frame
        targets = _lift(targets, denom // own)  # own divides denom
        rows = list(map(_shifted, zip(*gens)))
        selection = []
        for target in targets:
            for p, row in enumerate(rows):
                if p not in selection and row == target:
                    selection.append(p)
                    break
        selection.sort()
        if len(selection) != len(targets):
            raise AssertionError("every extremal row must occur among the rows")
        embedded = self.extremals() if len(selection) == self.ambient else Polytope._from_frame(
            len(selection), denom, [tuple([g[p] for p in selection]) for g in gens])
        self._embedding = EmbeddingReport(
            target_dim=len(targets),
            embedded=embedded,
            row_selection=tuple(selection),
        )
        return self._embedding

    # -- order structure

    def is_min_plus_convex(self) -> bool:
        """Is the point set closed under componentwise minimum?

        The polytope P lies in the alcoved polytope Q = {x : x_j - x_i <=
        c_ij}, c_ij the largest g_j - g_i over the extremal generators g,
        and P is min-plus closed exactly when P = Q (`cells._walk_verdict`
        proves P = Q from closure; Q, cut out by difference bounds, is
        closed).  Q is the max-plus span of the columns of the infimum
        matrix, column i the point with x_i = 0 and x_j = -c_ji: any x in
        Q is the maximum over i of x_i plus column i.  So n membership
        tests of those columns decide closure.

        Memoised on `extremals()`, shared with a full-dimension image
        (`embed_minimal`): the purity verdict asks it first, and the
        caller's and `algebra.is_projective`'s questions are memo hits.
        """
        ext = self.extremals()
        if ext._min_plus_convex is None:
            ext._min_plus_convex = self._min_plus_closed()
        return ext._min_plus_convex

    def _min_plus_closed(self) -> bool:
        """`is_min_plus_convex` without the memo: is every column of the
        infimum matrix G/G a member?  On the extremal generators' frame
        those columns are the rows of the residual G^T \\ G^T, entry j of
        row i the least g_j - g_i."""
        gens = self.extremals()._ints()[1]
        return all(_member(x, gens) for x in _residual(gens, gens))

    # -- value semantics

    def __eq__(self, other):
        return (
            isinstance(other, Polytope)
            and self.ambient == other.ambient
            and self._frame == other._frame
        )

    def __hash__(self):
        return hash((self.ambient, self._frame))

    def __repr__(self):
        pts = ", ".join("(" + ",".join(str(e) for e in g) + ")" for g in self.generators)
        return f"Polytope[{pts}]"


class EmbeddingReport(NamedTuple):
    """A minimal linear embedding: the image lives in FT^target_dim."""

    target_dim: int
    embedded: Polytope
    row_selection: tuple


def column_space(a: Matrix) -> Polytope:
    """Polytope generated by the columns of a finite matrix."""
    if not a.is_finite:
        raise NonFiniteEntries("column spaces are taken for finite matrices")
    denom, rows = a._ints()
    return Polytope._from_frame(a.rows, denom, tuple(zip(*rows)))


def row_space(a: Matrix) -> Polytope:
    """Polytope generated by the rows of a finite matrix."""
    if not a.is_finite:
        raise NonFiniteEntries("row spaces are taken for finite matrices")
    denom, rows = a._ints()
    return Polytope._from_frame(a.cols, denom, rows)
