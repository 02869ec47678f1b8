"""Exact arithmetic over the max-plus (tropical) semiring.

Scalars are arbitrary-precision rationals (`fractions.Fraction`) at the
API; the additive identity -inf is the separate singleton `BOTTOM`.  Tropical
addition is maximum and tropical multiplication is ordinary +, so 0 is the
multiplicative identity.  Everything here is exact: floats are rejected on
input, because the decisions taken downstream (idempotency, covector
cells, convexity) hinge on exact ties.

`BOTTOM` carries its own arithmetic: it is the least element under every
comparison, it absorbs +, and subtracting it from anything raises
`NonFiniteEntries`.  So `max`, `min`, + and - over entries need no case
for -inf, and the kernels below are written once for finite and infinite
data alike.

Vectors are plain tuples of entries; matrices are immutable `Matrix`
instances.  A vector or matrix is *finite* when it contains no BOTTOM;
operations whose contract needs finite input raise `NonFiniteEntries`
instead of silently propagating -inf.

`_combine` is the one max-plus product loop and `_principal` the one
residual loop: `Matrix.mul` and `left_residual` apply them row by row and
column by column, and membership in a polytope composes the two.

The kernels run on an integer frame.  Every operation they chain (max,
min, + and -) commutes with multiplying all entries by one positive
constant, so the computation over rows multiplied through by a common
denominator is the exact computation, scaled.  `_frame_of` takes rows of
rationals to (denom, int rows), BOTTOM staying BOTTOM; `_common` carries
frames to the lcm of their denominators; `_fractions` takes ints back.  A
`Matrix` fills its frame on first use, and products, residuals and the
checks on them run on it.  `Fraction`s are built only for what the API
returns: a result's `entries`, on first access.  `_tropical_rank` decides
the tropical rank of int rows, for the cells' verdict walk.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import sub

from .errors import DimensionMismatch, NonFiniteEntries, NotSquare


class _Bottom:
    """The -inf element: absorbing for +, neutral and smallest for max."""

    __slots__ = ()

    def __lt__(self, other):
        return other is not BOTTOM

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return other is BOTTOM

    def __eq__(self, other):
        return other is BOTTOM

    def __hash__(self):
        return hash("-inf")

    def __neg__(self):
        raise NonFiniteEntries("-inf has no additive inverse")

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if other is BOTTOM:
            raise NonFiniteEntries("-inf minus -inf is undefined")
        return self

    def __rsub__(self, other):
        raise NonFiniteEntries("-inf has no additive inverse")

    def __repr__(self):
        return "-inf"


BOTTOM = _Bottom()

_SCALAR_RE = re.compile(r"[+-]?\d+(/[1-9]\d*)?\Z", re.ASCII)


def parse_entry(text: str):
    """Parse the text scalar format: an optional sign, integer or p/q, or -inf."""
    if text == "-inf":
        return BOTTOM
    if not _SCALAR_RE.match(text):
        raise ValueError(f"not a scalar: {text!r} (expected integer, p/q or -inf)")
    return Fraction(text)


def format_entry(value) -> str:
    """Inverse of parse_entry; round-trips every entry bit-exactly."""
    if value is BOTTOM:
        return "-inf"
    return str(value)


def as_entry(value):
    """Coerce to an exact entry.  Floats are rejected: no rounding, ever."""
    if value is BOTTOM:
        return BOTTOM
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_entry(value)
    raise TypeError(f"exact entries only (int, Fraction, 'p/q', BOTTOM); got {type(value).__name__}")


def tadd(a, b):
    """Tropical sum: max(a, b), with BOTTOM the neutral element."""
    return max(as_entry(a), as_entry(b))


def tmul(a, b):
    """Tropical product: a + b, with BOTTOM absorbing."""
    return as_entry(a) + as_entry(b)


# ---------------------------------------------------------------------------
# vectors: plain tuples of entries


def as_vector(values, *, finite: bool = False, length: int | None = None):
    entries = tuple(as_entry(v) for v in values)
    if not entries:
        raise DimensionMismatch("vectors must have positive length")
    if length is not None and len(entries) != length:
        raise DimensionMismatch(f"expected a vector of length {length}, got {len(entries)}")
    if finite and any(e is BOTTOM for e in entries):
        raise NonFiniteEntries("a finite vector is required here")
    return entries


def _check_pair(x, y):
    if len(x) != len(y):
        raise DimensionMismatch(f"vector lengths differ: {len(x)} vs {len(y)}")


def vec_max(x, y):
    """Componentwise tropical sum (join)."""
    x, y = as_vector(x), as_vector(y)
    _check_pair(x, y)
    return tuple(max(a, b) for a, b in zip(x, y))


def vec_min(x, y):
    """Componentwise minimum (the lattice meet; not a semiring operation)."""
    x, y = as_vector(x), as_vector(y)
    _check_pair(x, y)
    return tuple(min(a, b) for a, b in zip(x, y))


def vec_leq(x, y) -> bool:
    """Componentwise partial order."""
    x, y = as_vector(x), as_vector(y)
    _check_pair(x, y)
    return all(a <= b for a, b in zip(x, y))


def vec_scale(lam, x):
    """Tropical scaling: add the finite scalar lam to every entry."""
    lam = as_entry(lam)
    if lam is BOTTOM:
        raise NonFiniteEntries("scaling requires a finite scalar")
    return tuple(lam + e for e in as_vector(x))


def _principal(x, gens):
    """Greatest lam with lam_t + g_t <= x for each t: lam_t = min_p (x_p - g_t[p]).

    The generators must be finite; BOTTOM entries of x propagate.
    """
    return tuple([min(map(sub, x, g)) for g in gens])


def _combine(lams, gens):
    """The max-plus combination max_t (lams[t] + gens[t]): the maximum of
    each column of the shifted rows.  `zip(*rows)` hands `max` a tuple
    even for one generator."""
    return tuple(map(max, zip(*[[lam + e for e in g] for lam, g in zip(lams, gens)])))


def _product(a, b):
    """Rows of the max-plus product of the rows a and b."""
    return tuple([_combine(row, b) for row in a])


def _residual(a, b):
    """Rows of the greatest X with a @ X <= b: column j of X is the
    principal solution of column j of b over the columns of a."""
    columns = tuple(zip(*a))
    return tuple(zip(*(_principal(x, columns) for x in zip(*b))))


def _transpose(rows):
    return tuple(zip(*rows))


def _tropical_rank(rows) -> int:
    """The tropical rank of finite int rows: the largest k with a k x k
    minor whose maximal permutation sum is attained by one permutation
    alone (a tropically nonsingular minor).

    Top-down from k = min(rows, cols), with the shorter side as rows.  For
    each k-row subset one pass over column masks carries, for every mask
    of i columns, the best sum assigning the subset's first i rows to them
    and how many assignments reach it, capped at 2.  A k-column mask
    reached once is a nonsingular minor, and the first one ends the search.
    """
    if len(rows) > len(rows[0]):
        rows = _transpose(rows)
    for k in range(len(rows), 0, -1):
        for subset in combinations(rows, k):
            level = {0: (0, 1)}
            for row in subset:
                nxt = {}
                for mask, (best, count) in level.items():
                    for j, e in enumerate(row):
                        if mask >> j & 1:
                            continue
                        key = mask | 1 << j
                        total = best + e
                        old = nxt.get(key)
                        if old is None or total > old[0]:
                            nxt[key] = (total, count)
                        elif total == old[0] and old[1] == 1:
                            nxt[key] = (total, 2)
                level = nxt
            if any(count == 1 for _, count in level.values()):
                return k
    return 0


# ---------------------------------------------------------------------------
# integer frames


def _frame_of(rows):
    """(denom, ints): the lcm of the entries' denominators and the rows
    multiplied through by it, as int tuples; BOTTOM stays BOTTOM."""
    denom = lcm(*{e.denominator for row in rows for e in row if e is not BOTTOM})
    if denom == 1:
        return 1, tuple(tuple(e if e is BOTTOM else e.numerator for e in row) for row in rows)
    return denom, tuple(
        tuple(e if e is BOTTOM else e.numerator * (denom // e.denominator) for e in row)
        for row in rows
    )


def _lift(rows, factor):
    """Frame rows carried to a denominator `factor` times larger."""
    if factor == 1:
        return rows
    return tuple(tuple(e if e is BOTTOM else e * factor for e in row) for row in rows)


def _common(*frames):
    """(denom, rows of each frame): the frames carried to the lcm of their
    denominators."""
    denom = lcm(*(d for d, _ in frames))
    return denom, [_lift(rows, denom // d) for d, rows in frames]


def _fractions(rows, denom):
    """The frame rows of ints over denom as `Fraction` entries; BOTTOM
    stays BOTTOM, and a value repeated across the rows is built once."""
    built = {}
    out = []
    for row in rows:
        entries = []
        for v in row:
            x = built.get(v)
            if x is None:
                x = built[v] = v if v is BOTTOM else Fraction(v, denom)
            entries.append(x)
        out.append(tuple(entries))
    return tuple(out)


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Immutable dense matrix over the tropical semiring.

    The product is (A@B)[i][j] = max_k (A[i][k] + B[k][j]); BOTTOM entries
    drop out of the maximum and an all-BOTTOM term row yields BOTTOM.
    """

    __slots__ = ("rows", "cols", "_entries", "_frame")

    def __init__(self, rows):
        data = tuple(tuple(as_entry(e) for e in row) for row in rows)
        if not data or not data[0]:
            raise DimensionMismatch("a matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise DimensionMismatch("all rows must have the same length")
        self.rows = len(data)
        self.cols = width
        self._entries = data
        self._frame = None

    @classmethod
    def _raw(cls, data: tuple) -> "Matrix":
        # internal: entries are already validated tuples of entries
        m = object.__new__(cls)
        m.rows = len(data)
        m.cols = len(data[0])
        m._entries = data
        m._frame = None
        return m

    @classmethod
    def _from_ints(cls, denom, rows) -> "Matrix":
        # internal: the matrix of a frame computed by the kernels, which
        # keeps that frame; denom is a common denominator, not always the
        # lcm, and the entries are built on first access
        m = object.__new__(cls)
        m.rows = len(rows)
        m.cols = len(rows[0])
        m._entries = None
        m._frame = (denom, rows)
        return m

    @property
    def entries(self) -> tuple:
        """The entries as rows of `Fraction`s and BOTTOM, built on first use."""
        if self._entries is None:
            self._entries = _fractions(self._frame[1], self._frame[0])
        return self._entries

    def _ints(self):
        """The integer frame (denom, rows), filled on first use."""
        if self._frame is None:
            self._frame = _frame_of(self.entries)
        return self._frame

    @classmethod
    def from_columns(cls, columns) -> "Matrix":
        cols = [as_vector(c) for c in columns]
        if not cols:
            raise DimensionMismatch("a matrix needs at least one column")
        if len({len(c) for c in cols}) != 1:
            raise DimensionMismatch("all columns must have the same length")
        return cls._raw(tuple(zip(*cols)))

    # -- basic structure

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_finite(self) -> bool:
        # read whichever form is built; BOTTOM is BOTTOM in both
        rows = self._entries if self._entries is not None else self._frame[1]
        return all(e is not BOTTOM for row in rows for e in row)

    def row(self, i: int):
        return self.entries[i]

    def col(self, j: int):
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix._raw(tuple(zip(*self.entries)))

    # -- algebra

    def mul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise DimensionMismatch(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        denom, (a, b) = _common(self._ints(), other._ints())
        return Matrix._from_ints(denom, _product(a, b))

    __matmul__ = mul

    def apply(self, x):
        """Act on a column vector: (A x)[i] = max_k (A[i][k] + x[k])."""
        x = as_vector(x, length=self.cols)
        return self.mul(Matrix._raw(tuple((e,) for e in x))).col(0)

    def left_apply(self, x):
        """Act on a row vector: (x A)[j] = max_k (x[k] + A[k][j])."""
        x = as_vector(x, length=self.rows)
        return Matrix._raw((x,)).mul(self).row(0)

    # -- value semantics

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(format_entry(e) for e in row) for row in self.entries)
        return f"Matrix[{body}]"


# ---------------------------------------------------------------------------
# residuation: greatest solutions of one-sided inequalities


def left_residual(a: Matrix, b: Matrix) -> Matrix:
    """Greatest X with a @ X <= b, entrywise (a\\b)[i][j] = min_k (b[k][j] - a[k][i]).

    The left factor must be finite; b may contain BOTTOM, which then
    propagates into the corresponding minima.
    """
    if a.rows != b.rows:
        raise DimensionMismatch("left residual needs matching row counts")
    if not a.is_finite:
        raise NonFiniteEntries("the left factor of a residual must be finite")
    denom, (x, y) = _common(a._ints(), b._ints())
    return Matrix._from_ints(denom, _residual(x, y))


def right_residual(b: Matrix, a: Matrix) -> Matrix:
    """Greatest X with X @ a <= b, entrywise (b/a)[i][j] = min_l (b[i][l] - a[j][l]).

    Transposition turns X @ a <= b into a^T @ X^T <= b^T, so this is the
    transpose of the left residual a^T \\ b^T.
    """
    if a.cols != b.cols:
        raise DimensionMismatch("right residual needs matching column counts")
    if not a.is_finite:
        raise NonFiniteEntries("the divisor of a residual must be finite")
    denom, (x, y) = _common(b._ints(), a._ints())
    return Matrix._from_ints(denom, _right_residual(x, y))


def _right_residual(b, a):
    """Rows of the greatest X with X @ a <= b, for rows of one frame."""
    return _transpose(_residual(_transpose(a), _transpose(b)))


def double_residual(a: Matrix) -> Matrix:
    """Greatest X with a @ X @ a <= a: B[i][j] = min_{k,l} (a[k][l] - a[k][i] - a[j][l]).

    Computed as a \\ (a / a): the greatest X with a @ X <= a / a, which is
    exactly the greatest X with a @ X @ a <= a.  For finite square a the
    result is finite, which makes it the canonical regularity witness
    candidate.
    """
    if not a.is_square:
        raise NotSquare("the double residual needs a square matrix")
    if not a.is_finite:
        raise NonFiniteEntries("the double residual needs a finite matrix")
    denom, x = a._ints()
    return Matrix._from_ints(denom, _residual(x, _right_residual(x, x)))
