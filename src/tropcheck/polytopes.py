"""Finitely generated max-plus convex sets (tropical polytopes) in FT^n.

A polytope is stored by a canonical generating set: every generator is
scaled so its maximum entry is 0, duplicates are removed and the list is
sorted, so equal generating sets compare equal bit for bit.  The set may
still contain redundant generators; `extremals()` removes every generator
that is a combination of the others, leaving the unique minimal generating
set up to scaling.

Membership is decided by the principal-solution test: x lies in the span
iff recombining the greatest admissible coefficients reproduces x exactly.

Each polytope fills, on first use, one integer frame: the lcm of its
generators' denominators and the generators multiplied through by it, as
int tuples in `generators` order (see `semiring` for why this is exact).
Membership, extremal reduction and the min-plus convexity breakpoints run
on frames; a query point is lifted with the polytope to the lcm of both
denominators.  The extremal polytope has a frame of its own, over the lcm
of its own generators' denominators, and the cells read that one.
`Fraction`s are built only for what the API returns: the generators and
the coefficients.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DimensionMismatch, EmptyPolytope, NonFiniteEntries
from .semiring import Matrix, _combine, _common, _fractions, _frame_of, _lift, _principal, as_vector


def canonical_point(values) -> tuple:
    """Scale a finite point so its maximum entry is 0 (projective normal form)."""
    v = as_vector(values, finite=True)
    top = max(v)
    if top == 0:
        return v
    return tuple(e - top for e in v)


def _member(x, gens) -> bool:
    return _combine(_principal(x, gens), gens, len(x)) == x


class Polytope:
    """A non-empty finitely generated submodule of FT^n."""

    # Derived objects are memoised on the instance.  Each is a pure function
    # of the generators, so a concurrent first computation writes an equal
    # value and sharing a polytope across threads stays safe.
    __slots__ = ("ambient", "generators", "_frame", "_extremals", "_row_space", "_complex", "_covering")

    def __init__(self, points):
        pts = sorted({canonical_point(p) for p in points})
        if not pts:
            raise EmptyPolytope("a polytope needs at least one generator")
        n = len(pts[0])
        if any(len(p) != n for p in pts):
            raise DimensionMismatch("generators of mixed length")
        self._setup(n, tuple(pts))

    def _setup(self, ambient: int, generators: tuple) -> None:
        self.ambient = ambient
        self.generators = generators
        self._frame = None
        self._extremals = None
        self._row_space = None
        self._complex = None  # owned by cells.cell_complex
        self._covering = None  # owned by cells._verdict

    def _ints(self):
        """The integer frame (denom, rows): the lcm of the generators'
        denominators and the generators multiplied through by it, as int
        tuples in `generators` order.  Filled on first use."""
        if self._frame is None:
            self._frame = _frame_of(self.generators)
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
        if _combine(lams, gens, self.ambient) == point:
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
            rows = self._ints()[1]
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
                # a subset of sorted, distinct, canonical generators is one too
                ext = object.__new__(Polytope)
                ext._setup(self.ambient, tuple(self.generators[k] for k in keep))
            ext._extremals = ext
            self._extremals = ext
        return self._extremals

    def generator_dimension(self) -> int:
        """Minimal number of generators under scaling and max."""
        return len(self.extremals().generators)

    def generator_matrix(self) -> Matrix:
        """The matrix whose columns are the canonical extremal generators."""
        return Matrix.from_columns(self.extremals().generators)

    def row_space(self) -> "Polytope":
        """Polytope generated by the rows of the canonical generator matrix."""
        if self._row_space is None:
            self._row_space = Polytope(self.generator_matrix().entries)
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
        the row space and restricts every generator to the kept rows.
        """
        gens = self.extremals().generators
        rows = self.generator_matrix().entries
        targets = self.row_space().extremals().generators
        selection = []
        for target in targets:
            for p, row in enumerate(rows):
                if p not in selection and canonical_point(row) == target:
                    selection.append(p)
                    break
        selection.sort()
        if len(selection) != len(targets):
            raise AssertionError("every extremal row must occur among the rows")
        embedded = Polytope([tuple(g[p] for p in selection) for g in gens])
        return EmbeddingReport(
            target_dim=len(targets),
            embedded=embedded,
            row_selection=tuple(selection),
        )

    # -- order structure

    def is_min_plus_convex(self) -> bool:
        """Is the point set closed under componentwise minimum?

        Lattice distributivity reduces closure under min to pairs of scaled
        extremal generators, and on each interval between consecutive
        breakpoints t in {g_c - h_c} the vector min(g, t + h) is a max-plus
        combination of the interval endpoints; so checking every breakpoint
        for every ordered pair decides closure exactly.
        """
        denom, stored = self._ints()
        own, ext = self.extremals()._ints()
        gens = _lift(ext, denom // own)  # own divides denom
        for g in gens:
            for h in gens:
                for c in range(self.ambient):
                    t = g[c] - h[c]
                    w = tuple(min(gp, t + hp) for gp, hp in zip(g, h))
                    if not _member(w, stored):
                        return False
        return True

    # -- value semantics

    def __eq__(self, other):
        return (
            isinstance(other, Polytope)
            and self.ambient == other.ambient
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.ambient, self.generators))

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
    return Polytope([a.col(j) for j in range(a.cols)])


def row_space(a: Matrix) -> Polytope:
    """Polytope generated by the rows of a finite matrix."""
    if not a.is_finite:
        raise NonFiniteEntries("row spaces are taken for finite matrices")
    return Polytope(list(a.entries))
