import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcheck import (
    BOTTOM,
    Matrix,
    NonFiniteEntries,
    NotAnIdempotentColumnSpace,
    NotFullRank,
    NotIdempotent,
    NotSquare,
    Polytope,
    PositiveCycle,
    REASON_DIMENSION_MISMATCH,
    REASON_NOT_MIN_PLUS_CONVEX,
    REASON_PROJECTIVE,
    EmbeddingReport,
    ProjectivityReport,
    canonical_projection,
    column_space,
    greens_h,
    greens_l,
    greens_r,
    infimum_matrix,
    is_idempotent,
    is_projective,
    metric_closure,
    pure_dimension,
    rank_report,
    recover_idempotent,
    regularity_witness,
    row_space,
    same_span,
    vec_leq,
    vec_scale,
)
from tropcheck.oracles import (
    random_idempotent,
    random_matrix,
    random_point,
    random_polytope,
    tropical_rank_oracle,
)


# -- idempotency


def test_is_idempotent_cases(golden_idempotent):
    assert is_idempotent(golden_idempotent)
    assert is_idempotent(Matrix([[0, 0, 0]] * 3))
    assert is_idempotent(Matrix([[0]]))
    assert not is_idempotent(Matrix([[1]]))
    assert not is_idempotent(Matrix([[Fraction(-1, 2)]]))
    with pytest.raises(NotSquare):
        is_idempotent(Matrix([[0, 1]]))


# -- regularity


def test_golden_matrix_is_regular(golden_idempotent):
    report = regularity_witness(golden_idempotent)
    assert report.regular
    w = report.witness
    assert w is not None and w.is_finite
    assert golden_idempotent.mul(w).mul(golden_idempotent) == golden_idempotent


def test_two_by_two_sample_is_regular():
    rng = random.Random(30)
    for _ in range(100):
        a = random_matrix(2, 2, rng=rng, lo=-6, hi=6, max_den=3)
        assert regularity_witness(a).regular


def test_rank_gap_matrix_is_not_regular(rank_gap_matrix):
    assert not regularity_witness(rank_gap_matrix).regular


def test_non_regular_three_by_three(spike_polytope):
    # columns spanning the non-pure spike polytope: not regular, and the
    # column/row space projectivity verdicts agree with that
    a = Matrix.from_columns(spike_polytope.generators)
    assert not regularity_witness(a).regular
    assert not is_projective(column_space(a)).projective
    assert not is_projective(row_space(a)).projective


def test_regularity_matches_projectivity_of_both_spaces():
    rng = random.Random(31)
    for _ in range(120):
        n = rng.randint(1, 3)
        a = random_matrix(n, n, rng=rng)
        regular = regularity_witness(a).regular
        assert regular == is_projective(column_space(a)).projective
        assert regular == is_projective(row_space(a)).projective


def test_regular_spaces_have_pure_generator_dimension():
    rng = random.Random(32)
    for _ in range(40):
        n = rng.randint(1, 3)
        a = random_matrix(n, n, rng=rng)
        regular = regularity_witness(a).regular
        rows, cols = row_space(a), column_space(a)
        geometric = (
            pure_dimension(rows) == (True, rows.generator_dimension())
            and pure_dimension(cols) == (True, cols.generator_dimension())
            and rows.generator_dimension() == cols.generator_dimension()
        )
        assert regular == geometric


def test_regularity_errors():
    with pytest.raises(NotSquare):
        regularity_witness(Matrix([[0, 1]]))
    with pytest.raises(NonFiniteEntries):
        regularity_witness(Matrix([[0, BOTTOM], [0, 0]]))


# -- metric closure


def test_metric_closure_cases():
    a = Matrix([[0, -1], [-2, 0]])
    c = metric_closure(a)
    assert is_idempotent(c)
    assert c == a
    j = Matrix([[0, 0], [0, 0]])
    assert metric_closure(j) == j
    rng = random.Random(33)
    for _ in range(60):
        n = rng.randint(1, 4)
        raw = Matrix([[0 if i == j else rng.randint(-5, 0) for j in range(n)] for i in range(n)])
        closed = metric_closure(raw)
        assert is_idempotent(closed)
        assert metric_closure(closed) == closed


def test_metric_closure_rejects_positive_cycles():
    with pytest.raises(PositiveCycle):
        metric_closure(Matrix([[0, 1], [1, 0]]))
    # the diagonal is zeroed before the cycle check
    assert metric_closure(Matrix([[5]])) == Matrix([[0]])
    # a positive entry is fine as long as every cycle stays non-positive
    assert metric_closure(Matrix([[0, 3], [-4, 0]])) == Matrix([[0, 3], [-4, 0]])


def _floyd_warshall_closure(a: Matrix) -> Matrix:
    """The Fraction Floyd-Warshall route `metric_closure` replaced, kept as
    its oracle: raises PositiveCycle where some diagonal entry ends positive."""
    n = a.rows
    dist = [[Fraction(0) if i == j else a.entries[i][j] for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                dist[i][j] = max(dist[i][j], dist[i][k] + dist[k][j])
    if any(dist[i][i] > 0 for i in range(n)):
        raise PositiveCycle("cycle of positive weight")
    return Matrix(dist)


@st.composite
def _square_matrices(draw):
    n = draw(st.integers(1, 6))
    entry = st.builds(Fraction, st.integers(-12, 4), st.sampled_from((1, 2, 3, 7)))
    return Matrix([[draw(entry) for _ in range(n)] for _ in range(n)])


@settings(max_examples=300, deadline=None)
@given(_square_matrices())
def test_metric_closure_matches_floyd_warshall(a):
    # equal closures, or PositiveCycle on both routes; the index the
    # message names may differ, as the routes meet a cycle in another order
    try:
        expected = _floyd_warshall_closure(a)
    except PositiveCycle:
        with pytest.raises(PositiveCycle):
            metric_closure(a)
    else:
        assert metric_closure(a) == expected


# -- the infimum matrix and projectivity


def test_infimum_matrix_recovers_golden(golden_idempotent):
    assert infimum_matrix(column_space(golden_idempotent)) == golden_idempotent


def test_infimum_matrix_small_cases():
    assert infimum_matrix(Polytope([(-7,)])) == Matrix([[0]])
    j = Matrix([[0, 0], [0, 0]])
    assert infimum_matrix(column_space(j)) == j


def test_projectivity_of_golden(golden_idempotent):
    report = is_projective(column_space(golden_idempotent))
    assert report.projective
    assert report.reason == REASON_PROJECTIVE
    assert report.gendim == report.dualdim == 3
    assert report.idempotent == golden_idempotent
    assert report.embedding.row_selection == (0, 1, 2)


def test_every_plane_polytope_is_projective():
    rng = random.Random(34)
    for _ in range(80):
        p = random_polytope(2, rng.randint(1, 4), rng=rng)
        assert is_projective(p).projective


def test_non_projective_reasons(tripod_polytope, wide_polytope, spike_polytope):
    tri = is_projective(tripod_polytope)
    assert not tri.projective and tri.reason == REASON_NOT_MIN_PLUS_CONVEX
    assert tri.idempotent is None
    wide = is_projective(wide_polytope)
    assert not wide.projective and wide.reason == REASON_DIMENSION_MISMATCH
    assert (wide.gendim, wide.dualdim) == (4, 3)
    spike = is_projective(spike_polytope)
    assert not spike.projective and spike.reason == REASON_NOT_MIN_PLUS_CONVEX


def test_projectivity_matches_min_plus_convexity_at_full_dimension():
    rng = random.Random(35)
    seen = 0
    while seen < 60:
        n = rng.randint(1, 4)
        p = random_polytope(n, n, rng=rng)
        if p.generator_dimension() != n or p.dual_dimension() != n:
            continue
        seen += 1
        assert is_projective(p).projective == p.is_min_plus_convex()


# -- recovery of the unique idempotent


def test_recover_golden(golden_idempotent):
    assert recover_idempotent(column_space(golden_idempotent)) == golden_idempotent


def test_recover_random_full_rank_idempotents():
    rng = random.Random(36)
    for _ in range(80):
        e = random_idempotent(rng.randint(1, 4), rng=rng, full_rank=True)
        assert recover_idempotent(column_space(e)) == e


def test_recover_rejects_non_idempotent_spaces(spike_polytope, wide_polytope):
    with pytest.raises(NotAnIdempotentColumnSpace):
        recover_idempotent(spike_polytope)
    with pytest.raises(NotFullRank):
        recover_idempotent(wide_polytope)


# -- the synthesize route, kept as the reference for the order route
#
# Build the infimum matrix of the minimal embedding's image and accept when
# it is an idempotent whose column space is that image.  `is_projective`'s
# docstring proves the idempotency test never fails and the span test is
# the min-plus test; here the two routes meet on seeded polytopes.


def _ref_synthesize(polytope):
    """The infimum matrix of the polytope and why it fails to be an idempotent
    with the polytope as its column space, or None when it is one."""
    candidate = infimum_matrix(polytope)
    if not is_idempotent(candidate):
        return candidate, "the infimum matrix is not idempotent"
    if not same_span(column_space(candidate), polytope):
        return candidate, "the infimum matrix spans a different polytope"
    return candidate, None


def _ref_is_projective(polytope):
    """`is_projective` by synthesize-and-verify, on an image rebuilt from the
    `Fraction` generators of a fresh copy of the polytope."""
    fresh = Polytope(polytope.generators)
    gendim, dualdim = fresh.generator_dimension(), fresh.dual_dimension()
    if gendim != dualdim:
        return ProjectivityReport(False, gendim, dualdim, REASON_DIMENSION_MISMATCH, None, None)
    sel = fresh.embed_minimal().row_selection
    image = Polytope([tuple(g[p] for p in sel) for g in fresh.extremals().generators])
    embedding = EmbeddingReport(target_dim=dualdim, embedded=image, row_selection=sel)
    candidate, problem = _ref_synthesize(image)
    if problem is not None:
        return ProjectivityReport(False, gendim, dualdim, REASON_NOT_MIN_PLUS_CONVEX, None, embedding)
    return ProjectivityReport(True, gendim, dualdim, REASON_PROJECTIVE, candidate, embedding)


def _ref_recover_idempotent(polytope):
    if polytope.generator_dimension() != polytope.ambient:
        raise NotFullRank("recovery needs generator dimension equal to the ambient dimension")
    candidate, problem = _ref_synthesize(polytope)
    if problem is not None:
        raise NotAnIdempotentColumnSpace(problem)
    return candidate


def _outcome(f, p):
    try:
        return f(p)
    except (NotFullRank, NotAnIdempotentColumnSpace) as exc:
        return type(exc), str(exc)


def _projectivity_corpus(rng):
    """Per shape (n, m) with n, m in 1..6: integer and rational (denominators
    up to 3) random polytopes and m points of the hull of fewer than n
    random points; then column spaces of full-rank and lower-rank
    idempotents, n in 1..6."""
    for n in range(1, 7):
        for m in range(1, 7):
            for _ in range(20):
                yield random_polytope(n, m, rng=rng, lo=-4, hi=4)
                yield random_polytope(n, m, rng=rng, lo=-4, hi=4, max_den=3)
                hull = random_polytope(n, rng.randint(1, max(1, n - 1)), rng=rng, max_den=rng.choice((1, 3)))
                yield Polytope([random_point(hull, rng=rng) for _ in range(m)])
    for n in range(1, 7):
        for full_rank in (True, False):
            for _ in range(30):
                yield column_space(random_idempotent(n, rng=rng, full_rank=full_rank, spread=5))


def test_order_route_matches_the_synthesize_route():
    tally = {REASON_PROJECTIVE: 0, REASON_NOT_MIN_PLUS_CONVEX: 0, REASON_DIMENSION_MISMATCH: 0}
    recovered = refused = 0
    for p in _projectivity_corpus(random.Random(44)):
        report = is_projective(p)
        assert report == _ref_is_projective(p), p
        tally[report.reason] += 1
        got = _outcome(recover_idempotent, p)
        assert got == _outcome(_ref_recover_idempotent, Polytope(p.generators)), p
        recovered += isinstance(got, Matrix)
        refused += not isinstance(got, Matrix) and got[0] is NotAnIdempotentColumnSpace
    assert sum(tally.values()) >= 2500
    assert min(tally.values()) >= 200, tally
    assert recovered >= 500 and refused >= 100, (recovered, refused)


# -- canonical projection


def test_projection_fixes_members(golden_idempotent):
    p = column_space(golden_idempotent)
    rng = random.Random(37)
    for _ in range(30):
        x = random_point(p, rng=rng)
        assert canonical_projection(golden_idempotent, x) == x


def test_projection_of_basis_vectors_gives_columns(golden_idempotent):
    n = golden_idempotent.rows
    for i in range(n):
        e_i = tuple(0 if j == i else BOTTOM for j in range(n))
        assert canonical_projection(golden_idempotent, e_i) == golden_idempotent.col(i)


def test_projection_is_least_dominating_point():
    rng = random.Random(38)
    for _ in range(60):
        n = rng.randint(1, 4)
        e = random_idempotent(n, rng=rng, full_rank=True)
        space = column_space(e)
        x = tuple(rng.randint(-5, 5) for _ in range(n))
        ex = canonical_projection(e, x)
        assert vec_leq(x, ex) and ex in space
        for _ in range(40):
            z = random_point(space, rng=rng)
            shift = max(xv - zv for xv, zv in zip(x, z))
            dominating = vec_scale(shift, z)
            assert vec_leq(ex, dominating)


def test_projection_errors(golden_idempotent):
    with pytest.raises(NotIdempotent):
        canonical_projection(Matrix([[0, 1], [1, 0]]), (0, 0))
    with pytest.raises(NotFullRank):
        canonical_projection(Matrix([[0, 0], [0, 0]]), (0, 0))
    with pytest.raises(ValueError):
        canonical_projection(golden_idempotent, (BOTTOM, BOTTOM, BOTTOM))


# -- Green's relations


def test_greens_relations(golden_idempotent):
    e = golden_idempotent
    assert greens_r(e, e) and greens_l(e, e) and greens_h(e, e)
    permuted = Matrix.from_columns([e.col(2), e.col(0), e.col(1)])
    assert greens_r(e, permuted)
    square = e.mul(e)
    assert greens_r(e, square) and greens_l(e, square) and greens_h(e, square)
    other = Matrix([[0, 0, 0]] * 3)
    assert not greens_r(e, other)


def test_unique_idempotent_per_full_rank_column_space():
    rng = random.Random(39)
    for _ in range(40):
        e = random_idempotent(rng.randint(1, 4), rng=rng, full_rank=True)
        f = random_idempotent(e.rows, rng=rng, full_rank=True)
        if greens_r(e, f):
            assert e == f


# -- ranks


def test_rank_report_cases(golden_idempotent, rank_gap_matrix):
    assert rank_report(golden_idempotent) == rank_report(golden_idempotent)
    r = rank_report(golden_idempotent)
    assert (r.row_gen_rank, r.col_gen_rank, r.tropical_rank, r.all_equal) == (3, 3, 3, True)
    z = rank_report(Matrix([[0, 0, 0]] * 3))
    assert (z.row_gen_rank, z.col_gen_rank, z.tropical_rank, z.all_equal) == (1, 1, 1, True)
    gap = rank_report(rank_gap_matrix)
    assert (gap.row_gen_rank, gap.col_gen_rank) == (4, 3)
    assert not gap.all_equal


def test_tropical_rank_never_exceeds_generator_ranks():
    rng = random.Random(40)
    for _ in range(60):
        a = random_matrix(rng.randint(1, 4), rng.randint(1, 4), rng=rng)
        r = rank_report(a)
        assert r.tropical_rank <= min(r.row_gen_rank, r.col_gen_rank)
        assert r.tropical_rank == tropical_rank_oracle(a)


def test_full_rank_regularity_matches_min_plus_convexity():
    rng = random.Random(41)
    seen = 0
    while seen < 50:
        n = rng.randint(1, 4)
        a = random_matrix(n, n, rng=rng)
        r = rank_report(a)
        if r.row_gen_rank != n or r.col_gen_rank != n:
            continue
        seen += 1
        regular = regularity_witness(a).regular
        assert regular == column_space(a).is_min_plus_convex()
        assert regular == row_space(a).is_min_plus_convex()


def test_idempotent_extremal_columns_carry_zero_diagonals():
    rng = random.Random(42)
    from tropcheck.polytopes import canonical_point

    for _ in range(80):
        e = random_idempotent(rng.randint(1, 4), rng=rng)
        cols = [e.col(j) for j in range(e.rows)]
        for g in column_space(e).extremals().generators:
            assert any(
                canonical_point(c) == g and e.entries[j][j] == 0
                for j, c in enumerate(cols)
            )


def test_idempotent_action_inflates():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 4)
        e = random_idempotent(n, rng=rng, full_rank=True)
        x = tuple(rng.randint(-5, 5) for _ in range(n))
        assert vec_leq(x, e.apply(x))
        assert vec_leq(x, e.left_apply(x))


def test_positive_entry_idempotents_behave_identically():
    # conjugated idempotents carry positive entries; convexity of both
    # spaces, inflation of the action and zero-diagonal extremal column
    # representatives all still hold
    from tropcheck.polytopes import canonical_point

    rng = random.Random(44)
    for _ in range(60):
        n = rng.randint(1, 4)
        e = random_idempotent(n, rng=rng, spread=4)
        assert is_idempotent(e)
        space = column_space(e)
        cols = [e.col(j) for j in range(n)]
        for g in space.extremals().generators:
            assert any(
                canonical_point(c) == g and e.entries[j][j] == 0
                for j, c in enumerate(cols)
            )
        full = random_idempotent(n, rng=rng, full_rank=True, spread=4)
        fspace = column_space(full)
        assert fspace.is_min_plus_convex()
        assert row_space(full).is_min_plus_convex()
        x = tuple(rng.randint(-5, 5) for _ in range(n))
        assert vec_leq(x, full.apply(x))
        assert vec_leq(x, full.left_apply(x))
