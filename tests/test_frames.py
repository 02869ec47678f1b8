"""The integer frames against the Fraction routes they replaced.

Membership, extremal reduction, min-plus convexity, same_span, the infimum
matrix, the max-plus product and the residuals now run the kernels on ints
over a common denominator, and a polytope is built from and stored as its
frame.  The references below are those routes as they ran on `Fraction`
entries, kept as oracles: the same `_principal` and `_combine` kernels fed
with the rationals themselves, and the canonical form taken point by point.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcheck import (
    BOTTOM,
    DimensionMismatch,
    EmptyPolytope,
    Matrix,
    NonFiniteEntries,
    Polytope,
    canonical_point,
    column_space,
    double_residual,
    infimum_matrix,
    is_idempotent,
    left_residual,
    right_residual,
    row_space,
    same_span,
)
from tropcheck.oracles import minplus_sampling_refuter, random_idempotent, random_point
from tropcheck.polytopes import _member
from tropcheck.semiring import _combine, _fractions, _frame_of, _principal

# -- the replaced Fraction routes


def ref_member(x, gens):
    return _combine(_principal(x, gens), gens) == x


def ref_coefficients(p, x):
    lams = _principal(x, p.generators)
    return lams if _combine(lams, p.generators) == x else None


def ref_canonical(points):
    """The generators `Polytope.__init__` stored before the frame was the
    stored form: each point's canonical form, distinct, sorted."""
    pts = tuple(sorted({canonical_point(p) for p in points}))
    if not pts:
        raise EmptyPolytope("a polytope needs at least one generator")
    if any(len(p) != len(pts[0]) for p in pts):
        raise DimensionMismatch("generators of mixed length")
    return pts


def ref_extremals(p):
    return ref_reduce(p.generators)


def ref_reduce(generators):
    gens = list(generators)
    i = 0
    while i < len(gens):
        g = gens.pop(i)
        if gens and ref_member(g, gens):
            continue
        gens.insert(i, g)
        i += 1
    return tuple(gens)


def ref_embedding(p):
    """`embed_minimal` on Fractions: (kept rows, embedded generators)."""
    gens = ref_extremals(p)
    rows = tuple(zip(*gens))
    selection = []
    for target in ref_reduce(ref_canonical(rows)):
        kept = (k for k, row in enumerate(rows) if k not in selection and canonical_point(row) == target)
        selection.append(next(kept))
    selection.sort()
    return tuple(selection), ref_canonical([tuple(g[q] for q in selection) for g in gens])


def ref_min_plus_convex(p):
    gens = ref_extremals(p)
    for g in gens:
        for h in gens:
            for c in range(p.ambient):
                t = g[c] - h[c]
                w = tuple(min(gp, t + hp) for gp, hp in zip(g, h))
                if not ref_member(w, p.generators):
                    return False
    return True


def ref_same_span(p, q):
    return all(ref_coefficients(q, g) is not None for g in ref_extremals(p)) and all(
        ref_coefficients(p, g) is not None for g in ref_extremals(q)
    )


def ref_product(a, b):
    return tuple(_combine(row, b) for row in a)


def ref_left_residual(a, b):
    columns = tuple(zip(*a))
    return tuple(zip(*(_principal(x, columns) for x in zip(*b))))


def ref_right_residual(b, a):
    t = lambda rows: tuple(zip(*rows))  # noqa: E731
    return t(ref_left_residual(t(a), t(b)))


def ref_infimum(p):
    g = tuple(zip(*ref_extremals(p)))
    return ref_right_residual(g, g)


def ref_double_residual(a):
    return ref_left_residual(a, ref_right_residual(a, a))


def typed(rows):
    """Entries with their types: an int where a Fraction was would change
    the bytes of `json.dumps(default=str)`."""
    return tuple(tuple((type(e).__name__, e) for e in row) for row in rows)


# -- strategies: denominators {1, 2, 3, 7} and up to 10^17

_denominators = st.one_of(st.sampled_from((1, 2, 3, 7)), st.integers(1, 10**17))
_rationals = st.builds(Fraction, st.integers(-20, 20), _denominators)
_matrix_entries = st.one_of(_rationals, _rationals, _rationals, st.just(BOTTOM))


@st.composite
def _polytopes(draw, max_n=4, max_m=5):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, max_m))
    return Polytope([tuple(draw(_rationals) for _ in range(n)) for _ in range(m)])


@st.composite
def _matrices(draw, entries, rows=None, cols=None):
    rows = rows or draw(st.integers(1, 4))
    cols = cols or draw(st.integers(1, 4))
    return Matrix([[draw(entries) for _ in range(cols)] for _ in range(rows)])


def _queries(p, seed):
    """Members and near misses of p: random points, each also nudged."""
    rng = random.Random(seed)
    for _ in range(4):
        x = random_point(p, rng=rng)
        yield x
        yield tuple(v + Fraction(rng.randint(-3, 3), rng.choice((1, 2, 10**17))) for v in x)


# -- polytopes


@settings(max_examples=150, deadline=None)
@given(_polytopes(), st.integers(0, 10**6))
def test_membership_matches_the_fraction_route(p, seed):
    denom, gens = p._ints()
    for x in _queries(p, seed):
        got = p.coefficients(x)
        assert got == ref_coefficients(p, x)
        assert got is None or all(type(v) is Fraction for v in got)
        assert (x in p) == (got is not None)
        # the kernel composition itself, on a point of the polytope's own frame
        xd, (xi,) = _frame_of((x,))
        if denom % xd == 0:
            assert _member(tuple(v * (denom // xd) for v in xi), gens) == ref_member(x, p.generators)


@settings(max_examples=150, deadline=None)
@given(_polytopes(), st.integers(0, 10**6))
def test_extremals_and_convexity_match_the_fraction_route(p, seed):
    ext = p.extremals()
    assert ext.generators == ref_extremals(p)
    assert all(type(e) is Fraction for g in ext.generators for e in g)
    assert ext.extremals() is ext
    assert p.is_min_plus_convex() == ref_min_plus_convex(p)
    # a polytope with a redundant generator more, and one with a generator less
    x = random_point(p, seed=seed)
    for q in (Polytope([*p.generators, x]), Polytope([*p.generators[1:], x])):
        assert same_span(p, q) == ref_same_span(p, q)
        assert same_span(q, p) == ref_same_span(q, p)


@settings(max_examples=100, deadline=None)
@given(_polytopes(), st.integers(0, 10**6))
def test_sampled_points_match_the_fraction_route(p, seed):
    # the same draws as max-plus combinations over Fractions
    rng, ref = random.Random(seed), random.Random(seed)
    for _ in range(3):
        lams = [Fraction(ref.randint(-5, 5)) for _ in p.generators]
        want = _combine(lams, p.generators)
        got = random_point(p, rng=rng)
        assert typed([got]) == typed([want])
    pair = minplus_sampling_refuter(p, 20, seed=seed)
    if pair is not None:
        x, y = pair
        assert ref_coefficients(p, x) is not None and ref_coefficients(p, y) is not None
        assert ref_coefficients(p, tuple(map(min, x, y))) is None


@settings(max_examples=100, deadline=None)
@given(_polytopes())
def test_infimum_matrix_matches_the_fraction_route(p):
    assert typed(infimum_matrix(p).entries) == typed(ref_infimum(p))


# -- matrices, BOTTOM included


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_products_and_residuals_match_the_fraction_route(data):
    a = data.draw(_matrices(_matrix_entries))
    b = data.draw(_matrices(_matrix_entries, rows=a.cols))
    assert typed(a.mul(b).entries) == typed(ref_product(a.entries, b.entries))
    if a.is_square:
        assert is_idempotent(a) == (ref_product(a.entries, a.entries) == a.entries)
    finite = data.draw(_matrices(_rationals, rows=a.rows))
    assert typed(left_residual(finite, a).entries) == typed(ref_left_residual(finite.entries, a.entries))
    square = data.draw(_matrices(_rationals, a.cols, a.cols))
    assert typed(right_residual(a, square).entries) == typed(ref_right_residual(a.entries, square.entries))
    assert typed(double_residual(square).entries) == typed(ref_double_residual(square.entries))


def _assert_lazy(m):
    # a kernel result holds its frame alone until `entries` is read: finite,
    # equal and hashed alike before and after, and built as `_fractions`
    assert m._entries is None
    denom, rows = m._ints()
    finite = m.is_finite
    assert m._entries is None
    twin = Matrix(_fractions(rows, denom))
    assert m == twin and hash(m) == hash(twin)
    assert m.entries == _fractions(rows, denom)
    assert typed(m.entries) == typed(twin.entries)
    assert m.is_finite == finite == twin.is_finite
    assert m.entries is m.entries


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_kernel_results_build_their_entries_on_first_access(data):
    a = data.draw(_matrices(_matrix_entries))
    b = data.draw(_matrices(_matrix_entries, rows=a.cols))
    finite = data.draw(_matrices(_rationals, rows=a.rows))
    square = data.draw(_matrices(_rationals, a.cols, a.cols))
    p = data.draw(_polytopes())
    for m in (
        a.mul(b),
        left_residual(finite, a),
        right_residual(a, square),
        double_residual(square),
        p.generator_matrix(),
        infimum_matrix(p),
    ):
        _assert_lazy(m)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.integers(0, 10**6), _denominators)
def test_idempotency_check_matches_the_fraction_route_on_idempotents(n, seed, den):
    # random idempotents, divided by a denominator: A @ A == A must hold on
    # both routes, and fail on both once one entry moves up
    e = random_idempotent(n, seed=seed, spread=5)
    a = Matrix([[v / den for v in row] for row in e.entries])
    assert is_idempotent(a) and ref_product(a.entries, a.entries) == a.entries
    bumped = Matrix([[v + (i == 0 and j == n - 1) for j, v in enumerate(row)] for i, row in enumerate(a.entries)])
    assert is_idempotent(bumped) == (ref_product(bumped.entries, bumped.entries) == bumped.entries)


# -- construction: the frame is the stored form


_scaled = st.builds(lambda v: v * 10**15, st.integers(-20, 20))
_small_rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 7))
_mixed = st.one_of(st.integers(-20, 20), _small_rationals, _scaled)


@st.composite
def _point_lists(draw, max_n=4, max_m=5):
    """Integer, rational (denominators up to 7), 10^15-scaled or mixed
    points, repeats and translates included."""
    values = draw(st.sampled_from((st.integers(-20, 20), _small_rationals, _scaled, _mixed)))
    n = draw(st.integers(1, max_n))
    points = [tuple(draw(values) for _ in range(n)) for _ in range(draw(st.integers(1, max_m)))]
    if draw(st.booleans()):
        shift = draw(values)
        points.append(tuple(v + shift for v in draw(st.sampled_from(points))))
    return points


def _assert_framed(q):
    assert q._ints() == _frame_of(q.generators)
    assert all(type(e) is Fraction for g in q.generators for e in g)


@settings(max_examples=200, deadline=None)
@given(_point_lists())
def test_construction_matches_the_fraction_route(points):
    p = Polytope(points)
    assert p.generators == ref_canonical(points)
    assert p == Polytope(p.generators) and hash(p) == hash(Polytope(p.generators))
    ext = p.extremals()
    assert ext.generators == ref_extremals(p)
    rows = p.row_space()
    assert rows.generators == ref_canonical(zip(*ext.generators))
    embedding = p.embed_minimal()
    selection, embedded = ref_embedding(p)
    assert embedding.row_selection == selection
    assert embedding.embedded.generators == embedded
    inf = infimum_matrix(p)
    assert column_space(inf).generators == ref_canonical(zip(*inf.entries))
    for q in (p, ext, rows, rows.extremals(), embedding.embedded, column_space(inf)):
        _assert_framed(q)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_matrix_spaces_match_the_fraction_route(data):
    # frames of kernel results are over a common denominator, not always the lcm
    a = data.draw(_matrices(_rationals))
    b = data.draw(_matrices(_rationals, rows=a.cols))
    for m in (a, a.mul(b), right_residual(a, a)):
        assert column_space(m).generators == ref_canonical(zip(*m.entries))
        assert row_space(m).generators == ref_canonical(m.entries)
        _assert_framed(column_space(m))
        _assert_framed(row_space(m))


@pytest.mark.parametrize(
    "points",
    [
        [],
        [(0, 1), (0, 1, 2)],
        [(0, 1, 2), (1, 2)],
        [(0, BOTTOM)],
        [(0, 1.5)],
        [(True, 0)],
        [(0, 1), (0, 0.5)],
        [()],
    ],
)
def test_construction_errors_are_unchanged(points):
    with pytest.raises(Exception) as want:
        ref_canonical(points)
    with pytest.raises(want.type) as got:
        Polytope(points)
    assert str(got.value) == str(want.value)
    assert want.type in (EmptyPolytope, DimensionMismatch, NonFiniteEntries, TypeError)
