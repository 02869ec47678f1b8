import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcheck import (
    BOTTOM,
    DimensionMismatch,
    Matrix,
    NonFiniteEntries,
    Polytope,
    as_entry,
    double_residual,
    format_entry,
    infimum_matrix,
    left_residual,
    parse_entry,
    right_residual,
    vec_leq,
    vec_max,
    vec_min,
    vec_scale,
)
from tropcheck.oracles import random_point, random_polytope, tropical_rank_oracle
from tropcheck.semiring import _combine, _frame_of, _principal, _product, _tropical_rank, tadd, tmul

finite = st.fractions(min_value=-50, max_value=50, max_denominator=20)
entries = st.one_of(st.just(BOTTOM), finite)


def rand_matrix(rng, rows, cols, lo=-9, hi=9):
    return Matrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def _leq(a, b):
    # the entrywise order on matrices of one shape
    assert (a.rows, a.cols) == (b.rows, b.cols)
    return all(x <= y for ra, rb in zip(a.entries, b.entries) for x, y in zip(ra, rb))


# -- scalar operations


def test_tadd_tmul_basics():
    assert tadd(2, 5) == 5
    assert tmul(2, 5) == 7
    assert tmul(BOTTOM, 3) is BOTTOM
    assert tmul(3, BOTTOM) is BOTTOM
    assert tadd(BOTTOM, 3) == 3
    assert tadd(Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 2)


@given(entries)
def test_tadd_idempotent(a):
    assert tadd(a, a) == a


@given(entries, entries)
def test_commutativity(a, b):
    assert tadd(a, b) == tadd(b, a)
    assert tmul(a, b) == tmul(b, a)


@given(entries, entries, entries)
def test_associativity_and_distributivity(a, b, c):
    assert tadd(tadd(a, b), c) == tadd(a, tadd(b, c))
    assert tmul(tmul(a, b), c) == tmul(a, tmul(b, c))
    assert tmul(a, tadd(b, c)) == tadd(tmul(a, b), tmul(a, c))


@given(entries)
def test_bottom_is_neutral_and_absorbing(a):
    assert tadd(BOTTOM, a) == a
    assert tmul(BOTTOM, a) is BOTTOM


@given(finite)
def test_bottom_scalar_arithmetic(x):
    assert BOTTOM + x is BOTTOM
    assert x + BOTTOM is BOTTOM
    assert BOTTOM + BOTTOM is BOTTOM
    assert BOTTOM - x is BOTTOM
    with pytest.raises(NonFiniteEntries):
        x - BOTTOM
    with pytest.raises(NonFiniteEntries):
        BOTTOM - BOTTOM


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        as_entry(0.5)
    with pytest.raises(TypeError):
        as_entry(True)


@given(st.one_of(st.just(BOTTOM), st.fractions(max_denominator=10**6)))
def test_text_round_trip(a):
    assert parse_entry(format_entry(a)) == a


@pytest.mark.parametrize("bad", ["", "1.5", "3/0", "1/-2", "inf", "- inf", "+ 3"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_entry(bad)


# -- vectors


def test_vector_ops():
    assert vec_min((0, 3), (1, 1)) == (0, 1)
    assert vec_leq((0, 1), (0, 1))
    assert not vec_leq((0, 2), (0, 1))
    assert vec_scale(2, (0, -3)) == (2, -1)
    assert vec_max((0, -3), (-1, 0)) == (0, 0)
    assert vec_scale(1, (BOTTOM, 0)) == (BOTTOM, 1)
    with pytest.raises(DimensionMismatch):
        vec_min((0, 1), (0, 1, 2))
    with pytest.raises(NonFiniteEntries):
        vec_scale(BOTTOM, (0, 1))


# -- matrices


def test_matrix_product_fixed_points(golden_idempotent):
    a = Matrix([[0, -3], [0, 0]])
    assert a.mul(a) == a
    j = Matrix([[0, 0], [0, 0]])
    assert j.mul(j) == j
    assert golden_idempotent.mul(golden_idempotent) == golden_idempotent


def test_matrix_shapes_and_errors():
    with pytest.raises(DimensionMismatch):
        Matrix([[0, 1], [2]])
    with pytest.raises(DimensionMismatch):
        Matrix([[0, 1]]).mul(Matrix([[0, 1]]))
    with pytest.raises(DimensionMismatch):
        Matrix([])


def test_matrix_with_bottom_entries():
    a = Matrix([[0, BOTTOM], [BOTTOM, 0]])
    assert not a.is_finite
    assert a.mul(a) == a
    assert a.apply((0, BOTTOM)) == (0, BOTTOM)


def test_order_preservation_of_the_action():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n)
        x = tuple(rng.randint(-9, 9) for _ in range(n))
        y = vec_max(x, tuple(rng.randint(-9, 9) for _ in range(n)))
        assert vec_leq(x, y)
        assert vec_leq(a.apply(x), a.apply(y))
        assert vec_leq(a.left_apply(x), a.left_apply(y))


# -- residuation


def test_left_residual_single_column():
    a = Matrix([[0], [0]])
    b = Matrix([[1], [2]])
    assert left_residual(a, b) == Matrix([[1]])


def test_residual_identities():
    rng = random.Random(2)
    for _ in range(300):
        a = rand_matrix(rng, 3, 3)
        r = left_residual(a, a)
        assert _leq(a.mul(r), a)
        assert all(r.entries[i][i] == 0 for i in range(3))
        assert r.mul(r) == r


def test_galois_connection():
    # a @ x <= b  iff  x <= a \ b, on random instances
    rng = random.Random(3)
    for _ in range(300):
        a = rand_matrix(rng, 3, 2)
        x = rand_matrix(rng, 2, 2)
        b = rand_matrix(rng, 3, 2)
        assert _leq(a.mul(x), b) == _leq(x, left_residual(a, b))


def test_principal_solution_property():
    rng = random.Random(4)
    for _ in range(300):
        a = rand_matrix(rng, 3, 3)
        y = rand_matrix(rng, 3, 1)
        b = a.mul(y)
        assert a.mul(left_residual(a, b)) == b


def test_right_residual_bound():
    rng = random.Random(5)
    for _ in range(200):
        a = rand_matrix(rng, 2, 3)
        b = rand_matrix(rng, 2, 3)
        x = right_residual(b, a)
        assert _leq(x.mul(a), b)


def test_double_residual_fixed_cases(golden_idempotent):
    assert double_residual(Matrix([[0]])) == Matrix([[0]])
    e = golden_idempotent
    b = double_residual(e)
    assert e.mul(b).mul(e) == e


def test_double_residual_bound_randomised():
    rng = random.Random(6)
    for _ in range(1000):
        a = rand_matrix(rng, 3, 3)
        b = double_residual(a)
        assert b.is_finite
        assert _leq(a.mul(b).mul(a), a)


# -- composed kernels against the entrywise formulas they replace


def _ref_min(terms):
    terms = list(terms)
    return BOTTOM if any(t is BOTTOM for t in terms) else min(terms)


def _ref_max(terms):
    terms = [t for t in terms if t is not BOTTOM]
    return max(terms) if terms else BOTTOM


def _ref_sub(b, a):
    return BOTTOM if b is BOTTOM else b - a


def _ref_add(a, b):
    return BOTTOM if a is BOTTOM or b is BOTTOM else a + b


@st.composite
def _matrix(draw, rows, cols, cells):
    return Matrix([[draw(cells) for _ in range(cols)] for _ in range(rows)])


dims = st.integers(min_value=1, max_value=4)


@given(st.data(), dims, dims, dims)
def test_residuals_match_entrywise_formulas(data, r, k, c):
    a = data.draw(_matrix(r, k, finite))
    b = data.draw(_matrix(r, c, entries))
    expected = [
        [_ref_min(_ref_sub(b.entries[p][j], a.entries[p][i]) for p in range(r)) for j in range(c)]
        for i in range(k)
    ]
    assert left_residual(a, b) == Matrix(expected)

    d = data.draw(_matrix(c, k, finite))
    b = data.draw(_matrix(r, k, entries))
    expected = [
        [_ref_min(_ref_sub(b.entries[i][l], d.entries[j][l]) for l in range(k)) for j in range(c)]
        for i in range(r)
    ]
    assert right_residual(b, d) == Matrix(expected)


@given(st.data(), dims)
def test_double_residual_matches_entrywise_formula(data, n):
    a = data.draw(_matrix(n, n, finite))
    e = a.entries
    expected = [
        [
            min(e[k][l] - e[k][i] - e[j][l] for k in range(n) for l in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    assert double_residual(a) == Matrix(expected)


@given(st.data(), dims, dims)
def test_actions_match_entrywise_formulas(data, r, c):
    a = data.draw(_matrix(r, c, entries))
    x = tuple(data.draw(entries) for _ in range(c))
    y = tuple(data.draw(entries) for _ in range(r))
    assert a.apply(x) == tuple(
        _ref_max(_ref_add(a.entries[i][k], x[k]) for k in range(c)) for i in range(r)
    )
    assert a.left_apply(y) == tuple(
        _ref_max(_ref_add(y[k], a.entries[k][j]) for k in range(r)) for j in range(c)
    )


@given(st.data(), dims, dims, dims)
def test_product_matches_entrywise_formula(data, r, k, c):
    a = data.draw(_matrix(r, k, entries))
    b = data.draw(_matrix(k, c, entries))
    expected = [
        [_ref_max(_ref_add(a.entries[i][t], b.entries[t][j]) for t in range(k)) for j in range(c)]
        for i in range(r)
    ]
    assert a.mul(b) == Matrix(expected)


@given(st.data(), dims, dims)
def test_infimum_matrix_matches_entrywise_formula(data, n, m):
    p = Polytope([tuple(data.draw(finite) for _ in range(n)) for _ in range(m)])
    gens = p.extremals().generators
    expected = [[min(g[j] - g[i] for g in gens) for i in range(n)] for j in range(n)]
    assert infimum_matrix(p) == Matrix(expected)


# -- the kernels against the generator-expression loops they replaced


def ref_principal(x, gens):
    return tuple(min(xp - gp for xp, gp in zip(x, g)) for g in gens)


def ref_combine(lams, gens, n):
    return tuple(max(lams[t] + gens[t][p] for t in range(len(gens))) for p in range(n))


_ints = st.integers(-10**18, 10**18)
_int_entries = st.one_of(_ints, _ints, _ints, st.just(BOTTOM))


@st.composite
def _int_frame(draw, values, n=None, m=None):
    """m int rows of length n: one coordinate and one row drawn often."""
    n = n or draw(st.sampled_from((1, 1, 2, 3, 5)))
    m = m or draw(st.sampled_from((1, 1, 2, 4, 6)))
    return tuple(tuple(draw(values) for _ in range(n)) for _ in range(m))


@given(st.data())
def test_kernels_match_the_generator_expression_loops(data):
    gens = data.draw(_int_frame(_ints))
    n, m = len(gens[0]), len(gens)
    # BOTTOM in x propagates into the principal solution
    x = data.draw(_int_frame(_int_entries, n=n, m=1))[0]
    assert _principal(x, gens) == ref_principal(x, gens)
    # BOTTOM in the coefficients and in the right factor drops out of the max
    lams = data.draw(_int_frame(_int_entries, n=m, m=1))[0]
    right = data.draw(_int_frame(_int_entries, n=n, m=m))
    assert _combine(lams, right) == ref_combine(lams, right, n)
    left = data.draw(_int_frame(_int_entries, n=m))
    assert _product(left, right) == tuple(ref_combine(row, right, n) for row in left)


def test_one_generator_and_one_coordinate():
    # `max` must get each column as a tuple: max(3) or max(BOTTOM) would raise
    assert _combine((3,), ((1, -2),)) == ref_combine((3,), ((1, -2),), 2) == (4, 1)
    assert _combine((BOTTOM,), ((1, -2),)) == (BOTTOM, BOTTOM)
    assert _combine((0, BOTTOM), ((5,), (7,))) == ref_combine((0, BOTTOM), ((5,), (7,)), 1) == (5,)
    assert _combine((2,), ((BOTTOM,),)) == (BOTTOM,)
    assert _principal((BOTTOM,), ((4,),)) == ref_principal((BOTTOM,), ((4,),)) == (BOTTOM,)
    assert _principal((3, 1), ((0, 0),)) == (1,)


# -- the tropical rank against the permutation oracle


@st.composite
def _rank_rows(draw):
    """Tie-heavy int rows up to 5x5, one row or one column drawn often, or
    points of a polytope with fewer generators than rows, whose rank is low."""
    rows = draw(st.sampled_from((1, 1, 2, 3, 4, 5)))
    cols = draw(st.sampled_from((1, 1, 2, 3, 4, 5)))
    if draw(st.booleans()):
        return tuple(tuple(draw(st.integers(-2, 2)) for _ in range(cols)) for _ in range(rows))
    rng = random.Random(draw(st.integers(0, 10**6)))
    hull = random_polytope(cols, draw(st.integers(1, 3)), rng=rng, lo=-3, hi=3, max_den=2)
    return _frame_of([random_point(hull, rng=rng, lo=-2, hi=2) for _ in range(rows)])[1]


@settings(max_examples=400, deadline=None)
@given(_rank_rows())
def test_tropical_rank_matches_the_permutation_oracle(rows):
    rank = _tropical_rank(rows)
    assert rank == tropical_rank_oracle(Matrix(rows))
    assert rank == _tropical_rank(tuple(zip(*rows)))


def test_tropical_rank_examples():
    assert _tropical_rank(((0, 0), (0, 0))) == 1
    assert _tropical_rank(((0, 0), (0, 1))) == 2
    assert _tropical_rank(((7,),)) == 1
    assert _tropical_rank(((0, -1, -2, -3),)) == 1
    # two generators in high ambient dimension: one pass over small masks
    assert _tropical_rank(((0,) * 22, (0,) * 21 + (-1,))) == 2
    # the all-equal 6x6 minor and all its 2x2 minors are singular
    assert _tropical_rank(((3,) * 6,) * 6) == 1
