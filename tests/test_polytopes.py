import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcheck import (
    DimensionMismatch,
    EmptyPolytope,
    Matrix,
    NonFiniteEntries,
    Polytope,
    column_space,
    row_space,
    vec_max,
    vec_min,
    vec_scale,
)
from tropcheck.oracles import minplus_sampling_refuter, random_idempotent, random_point, random_polytope
from tropcheck.polytopes import _member


def grid_witness(x, gens, lo=-6, hi=6, step=Fraction(1, 2)):
    """Exhaustive coefficient search; independent of the residuation test."""
    values = []
    v = Fraction(lo)
    while v <= hi:
        values.append(v)
        v += step
    n = len(x)
    for lams in itertools.product(values, repeat=len(gens)):
        combo = tuple(max(lams[t] + gens[t][p] for t in range(len(gens))) for p in range(n))
        if combo == tuple(map(Fraction, x)):
            return lams
    return None


# -- construction and canonical form


def test_canonical_form_and_equality():
    p = Polytope([(1, 1), (3, 0), (-2, -2)])
    q = Polytope([(0, -3), (0, 0)])
    assert p == q
    assert p.generators == ((0, -3), (0, 0))
    assert all(max(g) == 0 for g in p.generators)


def test_construction_errors():
    with pytest.raises(EmptyPolytope):
        Polytope([])
    with pytest.raises(DimensionMismatch):
        Polytope([(0, 1), (0, 1, 2)])
    from tropcheck import BOTTOM

    with pytest.raises(NonFiniteEntries):
        Polytope([(0, BOTTOM)])


# -- membership


def test_generators_are_members():
    p = Polytope([(0, -1, -4), (2, 0, 0)])
    for g in p.generators:
        lams = p.coefficients(g)
        assert lams is not None
        assert max(lams) == 0  # the generator picks out itself


def test_membership_two_generators():
    p = Polytope([(0, 0), (0, -3)])
    assert p.generators == ((0, -3), (0, 0))
    lams = p.coefficients((0, -1))
    assert lams == (0, -1)
    assert grid_witness((0, -1), p.generators) is not None
    assert (0, -4) not in p
    assert grid_witness((0, -4), p.generators, step=Fraction(1, 2)) is None


def test_membership_of_golden_spaces(golden_idempotent):
    # (0,0,1) is a scaled column combination, but escapes the row space
    cols = column_space(golden_idempotent)
    rows = row_space(golden_idempotent)
    assert (0, 0, 1) in cols
    assert grid_witness((0, 0, 1), cols.generators, step=1) is not None
    assert (0, 0, 1) not in rows
    assert grid_witness((0, 0, 1), rows.generators, step=Fraction(1, 2)) is None


def test_membership_witness_recomposes_exactly():
    rng = random.Random(10)
    for _ in range(200):
        p = random_polytope(rng.randint(1, 4), rng.randint(1, 4), rng=rng)
        x = random_point(p, rng=rng)
        lams = p.coefficients(x)
        assert lams is not None
        combo = p.generators[0]
        combo = vec_scale(lams[0], p.generators[0])
        for lam, g in zip(lams[1:], p.generators[1:]):
            combo = vec_max(combo, vec_scale(lam, g))
        assert combo == x


# -- extremal generators


def test_redundant_generator_is_dropped():
    p = Polytope([(0, 0), (0, -3), (0, -1)])
    assert p.extremals().generators == ((0, -3), (0, 0))


def test_extremal_reduction_is_idempotent(golden_idempotent):
    p = column_space(golden_idempotent)
    ext = p.extremals()
    assert ext.extremals() == ext
    assert len(ext.generators) == 3  # all three columns are extremal


def test_extremal_set_is_order_independent():
    rng = random.Random(11)
    for _ in range(100):
        pts = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(4)]
        base = Polytope(pts).extremals()
        shuffled = pts[:]
        rng.shuffle(shuffled)
        assert Polytope(shuffled).extremals() == base


def test_generator_dimension_cases(golden_idempotent):
    assert column_space(golden_idempotent).generator_dimension() == 3
    assert Polytope([(0, -2, -7)]).generator_dimension() == 1
    assert column_space(Matrix([[0] * 3] * 3)).generator_dimension() == 1


# -- row space and dual dimension


def test_row_space_of_symmetric_matrix():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randint(1, 4)
        half = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        sym = Matrix([[half[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
        p = column_space(sym)
        assert p.row_space().extremals() == p.extremals().row_space().extremals()
        assert row_space(sym) == column_space(sym)


def test_row_space_single_generator():
    p = Polytope([(0, -2)])
    rs = p.row_space()
    assert rs.ambient == 1
    assert rs.generators == ((0,),)


def test_dual_dimension_cases(golden_idempotent, wide_polytope):
    assert column_space(golden_idempotent).dual_dimension() == 3
    assert Polytope([(0, -1, -2)]).dual_dimension() == 1
    assert wide_polytope.generator_dimension() == 4
    assert wide_polytope.dual_dimension() == 3


def test_dual_dimension_ignores_redundant_generators():
    rng = random.Random(13)
    for _ in range(100):
        p = random_polytope(rng.randint(1, 4), rng.randint(1, 4), rng=rng)
        base = p.dual_dimension()
        padded = Polytope(list(p.generators) + [random_point(p, rng=rng) for _ in range(2)])
        assert padded.dual_dimension() == base


# -- minimal embedding


def test_embedding_is_identity_like_at_full_dual_dimension(golden_idempotent):
    p = column_space(golden_idempotent)
    report = p.embed_minimal()
    assert report.target_dim == 3
    assert report.row_selection == (0, 1, 2)
    assert report.embedded == p.extremals()


def test_embedding_drops_duplicate_row(golden_idempotent):
    stacked = Matrix(list(golden_idempotent.entries) + [golden_idempotent.entries[2]])
    p = column_space(stacked)
    report = p.embed_minimal()
    assert report.target_dim == 3
    assert len(report.row_selection) == 3
    assert report.embedded == column_space(golden_idempotent).extremals()


def test_embedding_self_consistency():
    rng = random.Random(14)
    for _ in range(500):
        p = random_polytope(rng.randint(1, 4), rng.randint(1, 4), rng=rng)
        k = p.dual_dimension()
        report = p.embed_minimal()
        assert report.target_dim == k
        assert report.embedded.ambient == k
        assert report.embedded.generator_dimension() == p.generator_dimension()
        assert report.embedded.dual_dimension() == k


# -- min-plus convexity


def test_min_plus_convex_cases(golden_idempotent, spike_polytope):
    assert column_space(golden_idempotent).is_min_plus_convex()
    assert not spike_polytope.is_min_plus_convex()
    assert Polytope([(0, -2, 5)]).is_min_plus_convex()


def test_plane_polytopes_are_always_min_plus_convex():
    # in ambient dimension 2 every polytope is projective, and the full- and
    # deficient-rank cases alike are closed under minimum; any False here
    # would expose a breakpoint bug
    rng = random.Random(17)
    for _ in range(200):
        p = random_polytope(2, rng.randint(1, 5), rng=rng, max_den=2)
        assert p.is_min_plus_convex()


def test_tripod_is_refuted(tripod_polytope):
    assert not tripod_polytope.is_min_plus_convex()
    pair = minplus_sampling_refuter(tripod_polytope, 5000, seed=18)
    assert pair is not None
    x, y = pair
    assert vec_min(x, y) not in tripod_polytope


def test_breakpoint_test_agrees_with_sampling():
    rng = random.Random(15)
    for _ in range(30):
        p = random_polytope(rng.randint(1, 4), rng.randint(1, 4), rng=rng)
        if p.is_min_plus_convex():
            assert minplus_sampling_refuter(p, 1000, rng=rng) is None
        else:
            pair = minplus_sampling_refuter(p, 3000, rng=rng)
            if pair is not None:
                x, y = pair
                assert x in p and y in p and vec_min(x, y) not in p


def _breakpoints_closed(p):
    # the test `is_min_plus_convex` ran before it read the infimum matrix:
    # lattice distributivity reduces closure under min to pairs of scaled
    # extremal generators, and on each interval between consecutive
    # breakpoints t in {g_c - h_c} the vector min(g, t + h) is a max-plus
    # combination of the interval endpoints, so every breakpoint of every
    # ordered pair, m(m - 1)n membership tests, decides closure
    gens = p.extremals()._ints()[1]
    for g in gens:
        for h in gens:
            for c in range(p.ambient):
                t = g[c] - h[c]
                if not _member(tuple(min(gp, t + hp) for gp, hp in zip(g, h)), gens):
                    return False
    return True


@st.composite
def _convexity_cases(draw):
    # tie-heavy integers, rationals, idempotent column spaces (always
    # closed), and a few points of one of those (often not)
    rng = random.Random(draw(st.integers(0, 10**6)))
    n = rng.randint(1, 6)
    kind = draw(st.sampled_from(["ints", "rationals", "idempotent", "points"]))
    if kind == "ints":
        return Polytope([[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(1, 6))])
    if kind == "rationals":
        return random_polytope(n, rng.randint(1, 6), rng=rng, max_den=7)
    space = column_space(random_idempotent(n, rng=rng, full_rank=rng.random() < 0.5, spread=3))
    if kind == "idempotent":
        return space
    return Polytope([random_point(space, rng=rng) for _ in range(rng.randint(1, 6))])


@settings(max_examples=300, deadline=None)
@given(_convexity_cases())
def test_infimum_columns_decide_min_plus_convexity_as_the_breakpoints_do(p):
    assert Polytope(p.generators)._min_plus_closed() == _breakpoints_closed(p)


def test_points_stay_in_the_generator_box():
    rng = random.Random(16)
    for _ in range(100):
        p = random_polytope(rng.randint(1, 4), rng.randint(1, 4), rng=rng)
        low = min(e for g in p.generators for e in g)
        x = random_point(p, rng=rng)
        shifted = vec_scale(-max(x), x)
        assert all(low <= e <= 0 for e in shifted)
