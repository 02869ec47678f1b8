import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcheck import (
    Matrix,
    NotIdempotent,
    NotMember,
    Polytope,
    ScaleLimitExceeded,
    cell_complex,
    column_space,
    covector,
    covector_leq,
    descend_to_singletons,
    is_projective,
    pure_dimension,
    rank_report,
    regularity_witness,
    row_space,
    tropical_dimension,
)
from tropcheck import cells
from tropcheck.cells import (
    _INF,
    _UNIT,
    _feasible_masks,
    _fresh,
    _has_larger,
    _scaled,
    argmin_profile,
    covector_dimension,
    realize_profile,
)
from tropcheck.cli import main
from tropcheck.oracles import random_idempotent, random_matrix, random_point, random_polytope
from tropcheck.polytopes import canonical_point

from support import idempotent_corpus


# -- covectors


def test_generator_has_full_own_component():
    p = Polytope([(0, -1, -4), (2, 0, 0), (0, 0, -2)])
    gens = p.extremals().generators
    for i, g in enumerate(gens):
        cov = covector(g, p)
        assert all(i in cov[q] for q in range(p.ambient))


def test_second_column_covers(golden_idempotent):
    p = column_space(golden_idempotent)
    cov = covector(golden_idempotent.col(1), p)
    assert all(cov)


def test_zero_diagonal_columns_appear_in_their_own_component():
    # for an idempotent with zero diagonal, column j always shows up in the
    # covector component of coordinate j, for every member point
    rng = random.Random(20)
    for _ in range(60):
        e = random_idempotent(rng.randint(1, 4), rng=rng, full_rank=True)
        p = column_space(e)
        gens = p.extremals().generators
        slot = {canonical_point(e.col(j)): j for j in range(e.rows)}
        x = random_point(p, rng=rng)
        cov = covector(x, p)
        for i, g in enumerate(gens):
            assert i in cov[slot[g]]


# the frozenset route that cells._argmin_masks and cells._cover_bits
# replaced, kept as the oracle for the masks


def _argmin_profile(x, gens):
    out = []
    for g in gens:
        diffs = [xq - gq for xq, gq in zip(x, g)]
        low = min(diffs)
        out.append(frozenset(q for q, d in enumerate(diffs) if d == low))
    return tuple(out)


def _profile_covector(profile, n: int):
    return tuple(frozenset(i for i, a in enumerate(profile) if p in a) for p in range(n))


def _assert_matches_the_set_route(x, p):
    expected = _argmin_profile(x, p.extremals().generators)
    assert argmin_profile(x, p) == expected
    assert covector(x, p) == _profile_covector(expected, p.ambient)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_argmin_sets_match_the_set_route_on_tie_heavy_points(data):
    # entries in [-2, 2] over {1, 2}: most points tie somewhere
    entry = _rationals(st.integers(-2, 2), (1, 2))
    p = data.draw(_polytopes(5, 5, entry))
    _assert_matches_the_set_route(tuple(data.draw(entry) for _ in range(p.ambient)), p)


def test_argmin_sets_match_the_set_route_on_face_witnesses():
    for p in _pinned_polytopes():
        for face in cell_complex(p).faces:
            _assert_matches_the_set_route(face.witness, p)


def test_covector_dimension_examples():
    f = frozenset
    assert covector_dimension((f({0}), f({1}), f({2}))) == 3
    assert covector_dimension((f({0}), f({0}), f({0}))) == 1
    assert covector_dimension((f({0, 1}), f({1}), f({2}))) == 2
    assert covector_dimension((f({0}), f({2}), f({2}))) == 2


# -- profile feasibility


def test_single_generator_full_profile():
    p = Polytope([(0, -2, -5)])
    w = realize_profile([frozenset({0, 1, 2})], p)
    assert w is not None
    assert argmin_profile(w, p) == (frozenset({0, 1, 2}),)
    # the generator itself realises the same profile
    assert argmin_profile((0, -2, -5), p) == (frozenset({0, 1, 2}),)


def test_diagonal_profile_of_golden(golden_idempotent):
    p = column_space(golden_idempotent)
    gens = p.extremals().generators
    slot = {g: j for j, g in ((j, canonical_point(golden_idempotent.col(j))) for j in range(3))}
    profile = [frozenset({slot[g]}) for g in gens]
    w = realize_profile(profile, p)
    assert w is not None
    assert argmin_profile(w, p) == tuple(profile)


def test_contradictory_profile_is_infeasible():
    p = Polytope([(0, 0), (0, -2)])
    assert p.generators == ((0, -2), (0, 0))
    # generator (0,-2) with both coordinates tied pins x0 = x1 + 2, while
    # generator (0,0) with argmin {0} demands x0 < x1: an immediate cycle
    assert realize_profile([frozenset({0, 1}), frozenset({0})], p) is None
    # flipping the strict demand to {1} is consistent: x1 < x0
    assert realize_profile([frozenset({0, 1}), frozenset({1})], p) is not None


def test_profile_validation():
    p = Polytope([(0, 0)])
    with pytest.raises(ValueError):
        realize_profile([frozenset()], p)
    with pytest.raises(ValueError):
        realize_profile([frozenset({5})], p)


# -- star insertion against the edge-by-edge reference


def _insert_star(dist, n, units, mask):
    # one argmin set into a closure: the star step, then the O(n^2) pass the
    # walk runs only for the children it enters; None when infeasible.
    # Through the module, so that a counter on cells._star sees it
    step = cells._star(dist, n, units, mask)
    if step is None:
        return None
    into, out, tight = step
    return cells._close(dist, n, into, out) if tight else dist


def _ref_edges_for(vi, members, n):
    # constraint x_u - x_w <= c becomes edge (w, u, c); strict edges pay one
    # strictness unit.  Equalities inside the argmin set are chained through
    # the lowest member; one strict edge per outside coordinate suffices.
    ordered = sorted(members)
    rep = ordered[0]
    edges = []
    for b in ordered[1:]:
        c = (vi[rep] - vi[b]) * _UNIT
        edges.append((b, rep, c))
        edges.append((rep, b, -c))
    for q in range(n):
        if q not in members:
            edges.append((q, rep, (vi[rep] - vi[q]) * _UNIT - 1))
    return edges


def _ref_insert_edges(dist, n, edges):
    # one Floyd-Warshall relaxation per edge, stopping at the first
    # negative diagonal entry
    cur = dist
    owned = False
    for w, u, c in edges:
        if c >= cur[w * n + u]:
            continue
        if not owned:
            cur = cur[:]
            owned = True
        urow = u * n
        for s in range(n):
            dsw = cur[s * n + w]
            if dsw >= _INF:
                continue
            head = dsw + c
            base = s * n
            for t in range(n):
                dut = cur[urow + t]
                if dut >= _INF:
                    continue
                cand = head + dut
                if cand < cur[base + t]:
                    if s == t and cand < 0:
                        return None
                    cur[base + t] = cand
    return cur


def _rationals(numerators, denominators):
    return st.builds(Fraction, numerators, st.sampled_from(denominators))


@st.composite
def _polytopes(draw, max_n, max_m, entry, least=1):
    n = draw(st.integers(least, max_n))
    m = draw(st.integers(least, max_m))
    return Polytope([tuple(draw(entry) for _ in range(n)) for _ in range(m)])


@settings(max_examples=200, deadline=None)
@given(
    _polytopes(5, 4, _rationals(st.integers(-20, 20), (1, 2, 3, 7))),
    st.lists(st.integers(-40, 40), min_size=5, max_size=5),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 31), st.booleans()), min_size=1, max_size=8),
)
def test_star_insertion_matches_edge_by_edge(p, point, steps):
    # a step takes generator i with either a random mask or the argmin set
    # of one fixed point, so that long feasible sequences occur as well
    n = p.ambient
    scaled = p.extremals()._ints()[1]
    units = _scaled(p)[0]
    ref = new = _fresh(n)
    for i, bits, follow in steps:
        vi = scaled[i % len(scaled)]
        if follow:
            diffs = [point[q] - vi[q] for q in range(n)]
            members = frozenset(q for q in range(n) if diffs[q] == min(diffs))
        else:
            members = frozenset(q for q in range(n) if bits >> q & 1) or frozenset({bits % n})
        ref = _ref_insert_edges(ref, n, _ref_edges_for(vi, members, n))
        new = _insert_star(new, n, units[i % len(units)], sum(1 << q for q in members))
        assert new == ref
        if ref is None:
            break


# -- closed-form argmin masks against probing every mask


def _ref_feasible_masks(dist, n, ui):
    # the probing loop the closed form replaced: one star insertion per mask
    return [mask for mask in range(1, 1 << n) if _insert_star(dist, n, ui, mask) is not None]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        _polytopes(5, 4, _rationals(st.integers(-20, 20), (1, 2, 3, 7))),
        _polytopes(5, 4, _rationals(st.integers(-2, 2), (1, 2, 3, 7))),
    ),
    st.lists(st.integers(0, 10**6), min_size=4, max_size=4),
    st.integers(0, 31),
)
def test_closed_form_masks_match_probing(p, picks, room):
    # walk one random feasible DFS prefix, comparing the mask lists at
    # every node on the way; a room keeps exactly the masks inside it
    n = p.ambient
    dist = _fresh(n)
    for ui, pick in zip(_scaled(p)[0], picks):
        masks = _feasible_masks(dist, n, ui)
        assert masks == _ref_feasible_masks(dist, n, ui)
        assert _feasible_masks(dist, n, ui, room) == [mask for mask in masks if mask & ~room == 0]
        mask = masks[pick % len(masks)]
        dist = _insert_star(dist, n, ui, mask)
        assert dist is not None


# -- the cell complex


def test_golden_complex_shape(golden_idempotent):
    report = cell_complex(column_space(golden_idempotent))
    assert report.tropical_dim == 3
    assert report.pure
    covering = report.covering_faces()
    assert len(covering) == 7  # a triangle: one area, three edges, three corners
    dims = sorted(f.dim for f in covering)
    assert dims == [1, 1, 1, 2, 2, 2, 3]


def test_generic_segment_in_the_plane():
    report = cell_complex(Polytope([(0, 0), (0, -3)]))
    assert report.tropical_dim == 2
    assert report.pure
    assert len(report.covering_faces()) == 3


def test_spike_is_not_pure(spike_polytope):
    pure, dim = pure_dimension(spike_polytope)
    assert (pure, dim) == (False, 3)


def test_tripod_is_a_pure_line(tripod_polytope):
    pure, dim = pure_dimension(tripod_polytope)
    assert (pure, dim) == (True, 2)


def test_every_witness_realises_its_covector():
    rng = random.Random(21)
    for _ in range(20):
        p = random_polytope(rng.randint(1, 3), rng.randint(1, 3), rng=rng)
        for face in cell_complex(p).faces:
            assert covector(face.witness, p) == face.covector
            assert face.dim == covector_dimension(face.covector)
            assert face.covering == all(face.covector)


def _covector_dimension_oracle(cov):
    # union-find over the coordinate graph: p and q joined when their
    # covector components share a generator
    n = len(cov)
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for p in range(n):
        for q in range(p + 1, n):
            if cov[p] & cov[q]:
                ra, rb = find(p), find(q)
                if ra != rb:
                    parent[ra] = rb
    return sum(1 for a in range(n) if find(a) == a)


def test_face_bookkeeping_matches_the_covector_route():
    # dims, covectors and witnesses come from argmin bitmasks; recompute
    # them from the witness point on every face by the set route, up to n = 5
    rng = random.Random(30)
    for k in range(24):
        lo, hi = (-2, 2) if k % 2 else (-20, 20)
        p = random_polytope(rng.randint(1, 5), rng.randint(1, 4), rng=rng, lo=lo, hi=hi, max_den=1 + k % 7)
        gens = p.extremals().generators
        for face in cell_complex(p).faces:
            assert _profile_covector(_argmin_profile(face.witness, gens), p.ambient) == face.covector
            assert face.dim == _covector_dimension_oracle(face.covector)
            assert face.covering == all(face.covector)


# sha256 over repr(cell_complex(p)) of _pinned_polytopes(), as first computed
# by the probing enumeration: faster enumerations must not move a byte
PINNED_COMPLEXES = "be4d4cb2b08f8b2c0186a058bd917a3df1ff78c5afda2d60896d278a24e0eaae"


def _pinned_polytopes():
    rng = random.Random(20261018)
    for k in range(60):
        n, m = rng.randint(1, 5), rng.randint(1, 4)
        lo, hi = (-2, 2) if k % 3 == 0 else (-20, 20)
        dens = (1,) if k % 4 == 0 else (1, 2, 3, 5, 7)
        yield Polytope(
            [tuple(Fraction(rng.randint(lo, hi), rng.choice(dens)) for _ in range(n)) for _ in range(m)]
        )


def test_complex_bytes_are_pinned():
    digest = hashlib.sha256()
    for p in _pinned_polytopes():
        digest.update(repr(cell_complex(p)).encode())
    assert digest.hexdigest() == PINNED_COMPLEXES


def test_grid_profiles_are_all_enumerated():
    # every argmin profile observed on a coarse rational grid must show up
    # in the enumerated complex with a matching witness
    rng = random.Random(28)
    for _ in range(12):
        n = rng.randint(2, 3)
        p = random_polytope(n, rng.randint(1, 3), rng=rng, lo=-3, hi=3)
        enumerated = {tuple(f.covector) for f in cell_complex(p).faces}
        step = Fraction(1, 2)
        values = [step * k for k in range(-8, 9)]
        seen = set()
        if n == 2:
            grid = ((a, b) for a in values for b in values)
        else:
            grid = ((a, b, c) for a in values for b in values for c in values)
        for x in grid:
            seen.add(covector(x, p))
        assert seen <= enumerated


def test_scale_limit_is_enforced():
    p = random_polytope(3, 3, seed=22)
    with pytest.raises(ScaleLimitExceeded):
        cell_complex(p, max_tuples=10)


def test_complex_is_memoised_per_instance_and_guard_still_applies():
    p = random_polytope(3, 3, seed=22)
    first = cell_complex(p)
    with pytest.raises(ScaleLimitExceeded):
        cell_complex(p, max_tuples=10)
    assert cell_complex(p) is first
    twin = random_polytope(3, 3, seed=22)
    assert twin is not p and twin == p
    assert cell_complex(twin) == first


def test_overflowing_bounds_known_defect():
    # the spike fixture scaled by 10^15: its scaled bounds exceed 2^62, and
    # a bound the walk mistook for "no bound" would leave a decoded witness
    # off its profile; both routes must answer
    s = 10**15
    gens = [(0, 0, 0), (5 * s, -2 * s, 0), (5 * s, 5 * s, 0)]
    report = cell_complex(Polytope(gens))
    assert (report.pure, report.tropical_dim) == (False, 3)
    assert pure_dimension(Polytope(gens)) == (False, 3)


# -- the verdict walk against the full complex


@st.composite
def _idempotent_spaces(draw):
    # column spaces of idempotents are projective, hence pure: the walk
    # runs to its end on them
    rng = random.Random(draw(st.integers(0, 10**6)))
    e = random_idempotent(draw(st.integers(1, 5)), rng=rng, full_rank=draw(st.booleans()), spread=3)
    return column_space(e)


@st.composite
def _thin_polytopes(draw):
    # up to five points of a polytope with fewer generators: their tropical
    # dimension is below min(n, m), so no leaf of that dimension appears
    rng = random.Random(draw(st.integers(0, 10**6)))
    n = draw(st.integers(2, 5))
    k = draw(st.integers(1, 3))
    hull = random_polytope(n, k, rng=rng, lo=-6, hi=6)
    return Polytope([random_point(hull, rng=rng, lo=-3, hi=3) for _ in range(draw(st.integers(k + 1, 5)))])


def _purity_oracle(faces):
    # the covector-inclusion rule _compute_complex used before both routes
    # settled purity on packed profile keys: every covering cell lies in
    # the closure of a covering cell of the largest dimension
    covering = [f for f in faces if f.covering]
    top = max(f.dim for f in covering)
    top_cells = [f.covector for f in covering if f.dim == top]
    return all(any(covector_leq(t, f.covector) for t in top_cells) for f in covering), top


# The verdict walk before it read its top dimension from the tropical rank,
# kept as a reference: the top is min(n, m), lower leaves wait in `pending`
# until a leaf of that dimension appears, and that first top leaf re-checks
# them.


def _ref_walk_verdict(polytope):
    n = polytope.ambient
    units, lifted, _ = _scaled(polytope)
    m = len(units)
    top = min(n, m)
    keys = [[] for _ in range(top + 1)]
    pending = []

    def certifies(acc, key, dim):
        if any(cells._in_closure(key, keys[d]) for d in range(dim + 1, top + 1)):
            return False
        return not _has_larger(units, n, acc)

    def leaf(acc, colmin):
        cells._witness(colmin, lifted, acc)
        dim = cells._mask_dimension(acc, n)
        key = cells._key(acc, n)
        keys[dim].append(key)
        if dim == top:
            return len(keys[top]) == 1 and any(certifies(*p) for p in pending)
        if keys[top]:
            return certifies(acc, key, dim)
        pending.append((acc, key, dim))
        return False

    if cells._walk(units, n, leaf, [(1 << n) - 1] * m, True):
        return False, top
    return cells._settle(keys)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(
        _polytopes(5, 4, _rationals(st.integers(-20, 20), (1, 2, 3, 7))),
        _polytopes(5, 4, _rationals(st.integers(-2, 2), (1, 2, 3, 7))),
        _polytopes(5, 5, _rationals(st.integers(-1, 1), (1, 2, 3, 7))),
        _idempotent_spaces(),
        _thin_polytopes(),
    )
)
def test_covering_walk_matches_the_full_complex(p):
    # tie-heavy entries give cells of every dimension, impure ones stop the
    # walk early, idempotent column spaces and thin polytopes run it to the
    # end; (5, 5) lies past the nominal profile bound, so that is lifted
    fresh, twin = Polytope(p.generators), Polytope(p.generators)
    verdict = pure_dimension(fresh, 10**30)
    assert fresh._complex is None  # the verdict walk answered, not the full one
    full = cell_complex(p, 10**30)
    assert (full.pure, full.tropical_dim) == _purity_oracle(full.faces)
    assert verdict == (full.pure, full.tropical_dim)
    assert verdict == _ref_walk_verdict(Polytope(p.generators))
    assert tropical_dimension(twin, 10**30) == full.tropical_dim


def _profile(face, m, n):
    return tuple(sum(1 << q for q in range(n) if i in face.covector[q]) for i in range(m))


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(
        _polytopes(4, 4, _rationals(st.integers(-2, 2), (1, 2, 3, 7))),
        _polytopes(4, 4, _rationals(st.integers(-20, 20), (1, 2, 3, 7))),
    )
)
def test_has_larger_finds_exactly_the_covering_cells_strictly_inside(p):
    n = p.ambient
    m = len(p.extremals().generators)
    profiles = [_profile(f, m, n) for f in cell_complex(p).covering_faces()]
    units = _scaled(p)[0]
    for acc in profiles:
        inside = any(t != acc and all(a & ~b == 0 for a, b in zip(t, acc)) for t in profiles)
        assert _has_larger(units, n, acc) == inside


def test_impure_verdict_stops_before_the_last_covering_cell(monkeypatch):
    # a (5, 4) polytope, impure of dimension 4: the walk stops at an
    # impurity certificate, so it decodes fewer witnesses than there are
    # covering cells
    gens = random_polytope(5, 4, seed=5, lo=-20, hi=20).generators
    full = cell_complex(Polytope(gens))
    assert (full.pure, full.tropical_dim) == (False, 4)
    calls = []
    real = cells._witness

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cells, "_witness", counted)
    assert pure_dimension(Polytope(gens)) == (False, 4)
    assert 0 < len(calls) < len(full.covering_faces())


def _full_walks(monkeypatch):
    """Patch `cells._walk` to record each walk over every profile, the
    full room, that the verdict starts; returns the list it appends to."""
    full = []
    real = cells._walk

    def walk(units, n, leaf, room, covering, floor=0):
        if room == [(1 << n) - 1] * len(units):
            full.append(len(units))
        return real(units, n, leaf, room, covering, floor)

    monkeypatch.setattr(cells, "_walk", walk)
    return full


def test_a_room_certificate_skips_the_full_walk(monkeypatch):
    # the generator (-6, 0, -9) lies in the closure of no 3-dimensional
    # cell: its room walk finds no top leaf, and its least leaf certifies
    # impurity before any walk over every profile
    p = Polytope([[0, 0, 0], [0, -2, -1], [-6, 0, -9]])
    full = cell_complex(Polytope(p.generators))
    walks = _full_walks(monkeypatch)
    assert pure_dimension(p) == (full.pure, full.tropical_dim) == (False, 3)
    assert walks == []


def test_an_empty_room_certifies_impurity(monkeypatch):
    # each impurity verdict of the room pass comes from a room whose walk,
    # floored at the rank, found no top leaf.  Unfloored, that room still
    # holds none, and its least leaf lies in the closure of no other
    # covering cell: `_has_larger`, the certificate the pass once asked
    # for, stays the oracle
    rooms = []
    real = cells._walk

    def walk(units, n, leaf, room, covering, floor=0):
        found = real(units, n, leaf, room, covering, floor)
        if floor:
            rooms.append((units, n, room, floor, found))
        return found

    monkeypatch.setattr(cells, "_walk", walk)
    certified = 0
    for s in range(40):
        full = cell_complex(random_polytope(5, 4, seed=s))
        rooms.clear()
        assert pure_dimension(random_polytope(5, 4, seed=s)) == (full.pure, full.tropical_dim)
        if full.pure or rooms[-1][4]:
            continue
        units, n, room, top, _ = rooms[-1]
        leaves = []
        real(units, n, lambda acc, colmin: leaves.append(acc), room, True)
        assert all(cells._mask_dimension(acc, n) < top for acc in leaves)
        least = min(leaves, key=lambda acc: sum(a.bit_count() for a in acc))
        assert not _has_larger(units, n, least)
        certified += 1
    assert certified
def test_the_rank_is_taken_once_per_polytope(monkeypatch):
    # the verdict walk and `tropical_dimension` share the memoised rank of
    # the extremal frame, and the memo survives the guard
    taken = []
    real = cells._tropical_rank
    monkeypatch.setattr(cells, "_tropical_rank", lambda rows: taken.append(rows) or real(rows))
    p = random_polytope(4, 4, seed=3)
    full = cell_complex(Polytope(p.generators))
    taken.clear()
    assert pure_dimension(p) == (full.pure, full.tropical_dim)
    assert tropical_dimension(p) == full.tropical_dim
    with pytest.raises(ScaleLimitExceeded):
        tropical_dimension(p, max_tuples=10)
    assert taken == [p.extremals()._ints()[1]]
    assert p._rank == full.tropical_dim


def test_covering_summary_is_memoised_and_guard_still_applies(monkeypatch):
    p = random_polytope(3, 3, seed=22)
    full = cell_complex(random_polytope(3, 3, seed=22))
    assert pure_dimension(p) == (full.pure, full.tropical_dim)
    assert p._complex is None
    assert p._covering == (full.pure, full.tropical_dim)
    first = p._covering
    for route in (pure_dimension, tropical_dimension):
        with pytest.raises(ScaleLimitExceeded):
            route(p, max_tuples=10)
    assert tropical_dimension(p) == full.tropical_dim
    assert p._covering is first
    # with the full complex memoised first, purity still comes from the walk
    q = random_polytope(3, 3, seed=22)
    cell_complex(q)
    walked = []
    real = cells._walk_verdict
    monkeypatch.setattr(cells, "_walk_verdict", lambda poly: walked.append(poly) or real(poly))
    assert pure_dimension(q) == (full.pure, full.tropical_dim)
    assert walked == [q]


def test_the_rank_route_answers_without_the_walk(monkeypatch):
    # tropical_dimension and rank_report read the tropical rank off the
    # extremal frame: with the walk disabled they still answer, agree with
    # the full complex built beforehand on equal inputs, and keep the guard
    rng = random.Random(17)
    shapes = [(3, 3), (4, 4), (4, 5), (5, 3)]
    polytopes = [random_polytope(n, m, seed=s) for s, (n, m) in enumerate(shapes)]
    polytopes.append(column_space(random_idempotent(4, rng=rng, full_rank=True, spread=3)))
    matrices = [random_matrix(4, rng.randint(4, 5), rng=rng) for _ in range(4)]
    dims = [cell_complex(Polytope(p.generators)).tropical_dim for p in polytopes]
    ranks = [cell_complex(row_space(a)).tropical_dim for a in matrices]

    def no_walk(*args):
        raise AssertionError("the walk was called")

    monkeypatch.setattr(cells, "_walk", no_walk)
    for p, dim in zip(polytopes, dims):
        assert tropical_dimension(p) == dim
        with pytest.raises(ScaleLimitExceeded):
            tropical_dimension(p, max_tuples=10)
    for a, rank in zip(matrices, ranks):
        assert rank_report(a).tropical_rank == rank
        with pytest.raises(ScaleLimitExceeded):
            rank_report(a, max_tuples=10)
    # the patch reaches the walk: purity still needs it
    with pytest.raises(AssertionError, match="the walk was called"):
        pure_dimension(polytopes[0])


def _full_route(p):
    report = cell_complex(p)
    return report.pure, report.tropical_dim


def _mixed_magnitude_generators():
    # scaled bounds far past 2^62: the overflow repro above; one huge entry
    # among small ones, where a walk that lost a bound would answer
    # (True, 2); then (4, 4) polytopes built like the benchmark's
    # mixed-magnitude instances: entries in [-20, 20] scaled by 10^15, or
    # divided by denominators near 10^13
    s = 10**15
    yield [(0, 0, 0), (5 * s, -2 * s, 0), (5 * s, 5 * s, 0)]
    yield [(-18, -3, -13, 7), (-15, -8 * s, -19, 11)]
    rng = random.Random(31)
    for _ in range(6):
        gens = [[rng.randint(-20, 20) for _ in range(4)] for _ in range(4)]
        yield [[e * 10**15 for e in g] for g in gens]
        dens = [10**13 + rng.randint(1, 10**6) for _ in gens]
        yield [[Fraction(e, d) for e in g] for g, d in zip(gens, dens)]


def test_covering_route_fails_exactly_where_the_full_complex_does():
    # at any magnitude the verdict walk, its two-phase reference and the
    # full complex all answer, and agree; a raise on any route fails the test
    for gens in _mixed_magnitude_generators():
        verdict = pure_dimension(Polytope(gens))
        assert verdict == _full_route(Polytope(gens)) == _ref_walk_verdict(Polytope(gens))


# -- the cross-checks against the tropical rank


def test_a_rank_one_short_fails_the_cross_check(monkeypatch):
    # on pure polytopes every lower cell lies in the closure of a top cell,
    # so no certificate stops the walk before it meets a leaf above the rank
    real = cells._tropical_rank
    monkeypatch.setattr(cells, "_tropical_rank", lambda rows: real(rows) - 1)
    rng = random.Random(16)
    for n in (2, 3, 4):
        p = column_space(random_idempotent(n, rng=rng, full_rank=True, spread=3))
        assert cell_complex(p).pure
        with pytest.raises(AssertionError, match="higher dimension than the tropical rank"):
            pure_dimension(Polytope(p.generators))


def test_a_finished_walk_below_the_rank_fails_the_cross_check(monkeypatch):
    # with the rank one too high, every room reporting a top leaf, no
    # polytrope certificate (this polytope is min-plus convex) and every
    # lower leaf held inside a larger cell, the full walk finishes and
    # settles on a dimension below the rank
    real = cells._tropical_rank
    monkeypatch.setattr(cells, "_tropical_rank", lambda rows: real(rows) + 1)
    real_walk = cells._walk
    monkeypatch.setattr(
        cells, "_walk", lambda units, n, leaf, room, covering, floor=0: floor > 0 or real_walk(units, n, leaf, room, covering)
    )
    monkeypatch.setattr(cells, "_polytrope", lambda polytope: None)
    monkeypatch.setattr(cells, "_has_larger", lambda units, n, masks: True)
    p = random_polytope(4, 4, seed=5)
    with pytest.raises(AssertionError, match="covering cells' dimension differs from the tropical rank"):
        pure_dimension(p)


# -- the walk against the fixed-order reference
#
# The walk before fail-first order and carried dead masks: generators in
# index order, a full closure for every child, and a node dropped when
# `_ref_stranded`, recomputed from its closure, finds an uncovered
# coordinate dead for every remaining generator.  Leaves get the column
# minima of that closure.


def _ref_dead(dist, n, v):
    # the dead coordinates of `_feasible_masks`: some finite
    # dist[u][q] + v[u] - v[q] < 0
    return sum(
        1 << u
        for u in range(n)
        if any(d is not _INF and d + v[u] - v[q] < 0 for q, d in enumerate(dist[u * n:(u + 1) * n]))
    )


def _ref_stranded(dist, n, rest, uncovered):
    while uncovered:
        low = uncovered & -uncovered
        uncovered ^= low
        u = low.bit_length() - 1
        bounds = [(q, d) for q, d in enumerate(dist[u * n:(u + 1) * n]) if d is not _INF]
        if all(any(d + units[u] - units[q] < 0 for q, d in bounds) for units in rest):
            return True
    return False


def _ref_walk(units, n, leaf, room, covering, floor=0):
    # no floor: it visits every leaf the floored walk does, and more
    m = len(units)

    def walk(i, dist, acc, uncovered):
        if covering and _ref_stranded(dist, n, units[i:], uncovered):
            return False
        last = i + 1 == m
        for mask in _feasible_masks(dist, n, units[i], room[i]):
            if covering and last and uncovered & ~mask:
                continue
            nxt = _insert_star(dist, n, units[i], mask)
            assert nxt is not None
            if last:
                if leaf(acc + (mask,), [min(nxt[a::n]) for a in range(n)]):
                    return True
            elif walk(i + 1, nxt, acc + (mask,), uncovered & ~mask):
                return True
        return False

    return walk(0, _fresh(n), (), (1 << n) - 1)


def _leaves(walk, p, room, covering):
    # (profile, witness numerators) of every leaf, sorted, so that order
    # does not count and a leaf visited twice does
    n = p.ambient
    units, lifted, _ = _scaled(p)
    found = []

    def leaf(masks, colmin):
        found.append((masks, cells._witness(colmin, lifted, masks)))
        return False

    walk(units, n, leaf, room, covering)
    return sorted(found)


# tie-heavy, rational, and integer entries scaled by 10^15, up to (5, 5);
# the last two start from three coordinates and generators
_walk_polytopes = st.one_of(
    _polytopes(5, 5, _rationals(st.integers(-2, 2), (1, 2))),
    _polytopes(5, 5, _rationals(st.integers(-20, 20), (1, 2, 3, 7)), least=3),
    _polytopes(5, 5, st.integers(-20, 20).map(lambda e: e * 10**15), least=3),
)


@settings(max_examples=60, deadline=None)
@given(_walk_polytopes)
def test_walk_visits_the_leaves_of_the_fixed_order_reference(p):
    # the full complex, the covering walk, and room-restricted covering
    # walks as `_has_larger` runs them, on the masks of covering leaves
    n = p.ambient
    m = len(p.extremals().generators)
    full = [(1 << n) - 1] * m
    assert _leaves(cells._walk, p, full, False) == _leaves(_ref_walk, p, full, False)
    covering = _leaves(_ref_walk, p, full, True)
    assert _leaves(cells._walk, p, full, True) == covering
    for masks, _ in covering[::7]:
        assert _leaves(cells._walk, p, masks, True) == _leaves(_ref_walk, p, masks, True)


@st.composite
def _idempotent_spaces_to_six(draw):
    rng = random.Random(draw(st.integers(0, 10**6)))
    e = random_idempotent(draw(st.integers(2, 6)), rng=rng, full_rank=draw(st.booleans()), spread=3)
    return column_space(e)


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        _polytopes(6, 6, st.integers(-3, 3), least=2),
        _polytopes(6, 6, _rationals(st.integers(-20, 20), (1, 2, 3, 7)), least=2),
        _idempotent_spaces_to_six(),
    )
)
def test_the_floor_drops_only_leaves_below_it(p):
    # in every generator's room, the walk floored at the rank visits the
    # unfloored walk's leaves less some below the rank, so it finds a top
    # leaf exactly when the unfloored walk does
    n = p.ambient
    units = _scaled(p)[0]
    top = cells._rank(p)
    for g in units:
        room = list(cells._argmin_masks(g, units))
        leaves = {}
        for floor in (0, top):
            leaves[floor] = []
            cells._walk(units, n, lambda acc, colmin: leaves[floor].append(acc), room, True, floor)
        kept = sorted(leaves[top])
        dropped = sorted(set(leaves[0]) - set(kept))
        assert kept == sorted(set(kept)) and set(kept) <= set(leaves[0])
        assert all(cells._mask_dimension(acc, n) < top for acc in dropped)

        def is_top(acc, colmin):
            return cells._mask_dimension(acc, n) == top

        assert cells._walk(units, n, is_top, room, True, top) == cells._walk(units, n, is_top, room, True)


@settings(max_examples=60, deadline=None)
@given(_walk_polytopes)
def test_carried_dead_masks_match_the_closure(p):
    # below the root, every node the covering walk enters got its dead
    # masks from `_carry`, right after the star step that made it; they
    # must equal the `_feasible_masks` rule on the node's closure.  Children
    # the walk then drops are checked too
    n = p.ambient
    units = _scaled(p)[0]
    m = len(units)
    steps = []
    checked = []

    def star(dist, *args):
        steps.append((dist, real_star(dist, *args)))
        return steps[-1][1]

    def carry(dead, gens, into, out):
        below = real_carry(dead, gens, into, out)
        dist, (_, _, tight) = steps[-1]
        child = cells._close(dist, n, into, out) if tight else dist
        assert below == [_ref_dead(child, n, v) for v in gens]
        checked.append(below)
        return below

    real_star, real_carry = cells._star, cells._carry
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cells, "_star", star)
        patch.setattr(cells, "_carry", carry)
        cells._walk(units, n, lambda masks, colmin: False, [(1 << n) - 1] * m, True)
        if m > 1:
            assert checked


def test_verdict_walk_makes_fewer_stars_than_the_reference(monkeypatch):
    # the verdict, its room walks and `_has_larger` sub-walks included, on
    # forty (5, 4) polytopes: the walk's star steps against the reference's
    # insertions.  The counts are deterministic, and the ceilings are this
    # walk's own, so a change that re-inflates it fails here: index order
    # takes 2665 stars, and entering the children the dead masks drop, 1627
    # closures; waiting for a leaf of dimension min(n, m) instead of
    # reading the top from the tropical rank, 2466 stars and 586 closures;
    # the full walk alone, with no room pass first, 1577 and 422; a room
    # pass that walks every subtree and asks `_has_larger` of a room with
    # no top leaf, 840 and 358
    calls = {"_star": 0, "_close": 0}

    def counted(name):
        real = getattr(cells, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(cells, name, call)

    def run(walk):
        monkeypatch.setattr(cells, "_walk", walk)
        calls.update(_star=0, _close=0)
        verdicts = [pure_dimension(random_polytope(5, 4, seed=s)) for s in range(40)]
        return verdicts, calls["_star"], calls["_close"]

    counted("_star")
    counted("_close")
    real_walk = cells._walk
    verdicts, stars, closures = run(real_walk)
    reference, insertions, _ = run(_ref_walk)
    assert verdicts == reference
    assert stars < insertions
    assert stars <= 571
    assert closures <= 245


def test_pure_verdicts_make_few_stars(monkeypatch):
    # five column spaces per (n, full rank) for n = 4, 5, 6, all pure: the
    # room pass finds a top leaf in every room and the polytrope
    # certificate answers, so no full walk runs.  The counts are
    # deterministic and the ceilings are the walk's own; with the full
    # walk after the room pass the same groups took 627, 505, 1949, 1183,
    # 6062 and 1512 stars
    rng = random.Random(21)
    groups = [
        [column_space(random_idempotent(n, rng=rng, full_rank=full_rank, spread=5)) for _ in range(5)]
        for n in (4, 5, 6)
        for full_rank in (True, False)
    ]
    stars = [0]
    real = cells._star

    def counted(*args):
        stars[0] += 1
        return real(*args)

    monkeypatch.setattr(cells, "_star", counted)
    counts = []
    for group in groups:
        stars[0] = 0
        assert all(pure_dimension(p, 10**30)[0] for p in group)
        counts.append(stars[0])
    for count, ceiling in zip(counts, [91, 86, 153, 150, 213, 185]):
        assert count <= ceiling


# -- the polytrope certificates


def _lifted(gens, rng, extra):
    """The generators with `extra` coordinates x_p = max_q(a_q + x_q)
    appended, random a, then the coordinates shuffled: each new coordinate
    is a max-plus function of the old ones, so the polytope is a copy of
    the span of `gens` that need not be min-plus convex itself."""
    k = len(gens[0])
    lifts = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(extra)]
    rows = [tuple(g) + tuple(max(a + x for a, x in zip(row, g)) for row in lifts) for g in gens]
    perm = list(range(k + extra))
    rng.shuffle(perm)
    return Polytope([tuple(g[j] for j in perm) for g in rows])


def _polytropes():
    """Idempotent column spaces, full rank and lower rank, for n = 2 to 6,
    and projective polytopes lifted to extra coordinates."""
    rng = random.Random(29)
    spaces = [
        column_space(random_idempotent(n, rng=rng, full_rank=full_rank, spread=3))
        for n in range(2, 7)
        for full_rank in (True, False)
    ]
    lifted = [
        _lifted(column_space(random_idempotent(k, rng=rng, full_rank=k % 2 == 0, spread=3)).generators, rng, extra)
        for k in (2, 3, 4)
        for extra in (1, 2)
    ]
    return spaces + lifted


def test_polytrope_certificates_answer_without_the_full_walk(monkeypatch):
    # the verdict equals the full complex's, and no walk over every
    # profile runs: each room has its top leaf, and the polytope or its
    # minimal embedding is min-plus convex
    cases = _polytropes()
    fulls = [cell_complex(Polytope(p.generators), 10**30) for p in cases]
    expected = [(full.pure, full.tropical_dim) for full in fulls]
    assert all(pure for pure, _ in expected)
    # some lifted polytope is not min-plus convex itself: its image is
    assert any(not Polytope(p.generators).is_min_plus_convex() for p in cases)
    real = cells._walk

    def walk(units, n, leaf, room, covering, floor=0):
        if room == [(1 << n) - 1] * len(units):
            raise AssertionError("the full walk was reached")
        return real(units, n, leaf, room, covering, floor)

    monkeypatch.setattr(cells, "_walk", walk)
    assert [pure_dimension(Polytope(p.generators), 10**30) for p in cases] == expected


def test_a_class_count_off_by_one_fails_the_cross_check(monkeypatch):
    real = cells._alcove_dimension
    for shift in (1, -1):
        monkeypatch.setattr(cells, "_alcove_dimension", lambda p, shift=shift: real(p) + shift)
        for p in _polytropes()[::3]:
            with pytest.raises(AssertionError, match="polytrope's dimension differs from the tropical rank"):
                pure_dimension(Polytope(p.generators), 10**30)


def test_the_min_plus_test_runs_once_per_polytope(monkeypatch, tmp_path):
    # pure_dimension asks it first, and is_min_plus_convex and the
    # `polytope` subcommand then read the memo; a polytope that is not
    # min-plus convex itself adds its minimal embedding's image, once
    tested = []
    real = Polytope._min_plus_closed
    monkeypatch.setattr(Polytope, "_min_plus_closed", lambda p: tested.append(p) or real(p))
    for p in _polytropes():
        tested.clear()
        fresh = Polytope(p.generators)
        assert pure_dimension(fresh, 10**30)[0]
        convex = fresh.is_min_plus_convex()
        assert fresh.is_min_plus_convex() == convex
        assert len(tested) == (1 if convex else 2)
        assert tested[0] is fresh
        assert convex or tested[1] is not fresh
    doc = tmp_path / "p.json"
    doc.write_text(json.dumps({"ambient": 2, "generators": [[0, -1], [-2, 0]]}), encoding="utf-8")
    tested.clear()
    assert main(["polytope", "--input", str(doc), "--output", str(tmp_path / "out")]) == 0
    assert len(tested) == 1


# -- invariance under translation, positive integer scaling and permutation
#
# Mixed magnitudes up to 10^30 over denominators up to 10^17, as for the
# frame-served verdicts below. At least three coordinates and generators, so
# that most examples keep a (3, 3) shape or larger after extremal reduction.

_mixed = st.builds(
    Fraction,
    st.one_of(st.integers(-20, 20), st.integers(-(10**30), 10**30)),
    st.one_of(st.sampled_from((1, 2, 3, 7)), st.integers(1, 10**17)),
)
_invariance_polytopes = _polytopes(4, 4, _mixed, least=3)


def _assert_invariant(p, image, perm):
    """`image` maps points of p to points of q (new coordinate k is old
    coordinate perm[k]); cells, purity, dimension and the projectivity
    verdict must correspond."""
    q = Polytope([image(g) for g in p.generators])
    old_gens = p.extremals().generators
    new_gens = q.extremals().generators
    assert len(new_gens) == len(old_gens)
    index = [new_gens.index(canonical_point(image(g))) for g in old_gens]
    before, after = cell_complex(p), cell_complex(q)

    def key(cov, dim, covering):
        return tuple(tuple(sorted(c)) for c in cov), dim, covering

    expected = sorted(
        key([frozenset(index[i] for i in f.covector[perm[k]]) for k in range(len(perm))], f.dim, f.covering)
        for f in before.faces
    )
    assert sorted(key(f.covector, f.dim, f.covering) for f in after.faces) == expected
    assert (after.pure, after.tropical_dim) == (before.pure, before.tropical_dim)
    assert is_projective(q).projective == is_projective(p).projective


@settings(max_examples=40, deadline=None)
@given(_invariance_polytopes, st.data())
def test_cells_invariant_under_translation(p, data):
    shift = [data.draw(_mixed) for _ in range(p.ambient)]
    _assert_invariant(p, lambda x: tuple(a + d for a, d in zip(x, shift)), range(p.ambient))


@settings(max_examples=40, deadline=None)
@given(_invariance_polytopes, st.integers(1, 1000))
def test_cells_invariant_under_positive_scaling(p, k):
    _assert_invariant(p, lambda x: tuple(k * a for a in x), range(p.ambient))


@settings(max_examples=40, deadline=None)
@given(_invariance_polytopes, st.randoms(use_true_random=False))
def test_cells_invariant_under_permutation(p, rng):
    perm = list(range(p.ambient))
    rng.shuffle(perm)
    _assert_invariant(p, lambda x: tuple(x[j] for j in perm), perm)


# -- the frame-served verdicts under the same three maps
#
# Membership, generator and dual dimension, min-plus convexity, projectivity
# and regularity run on integer frames, with the same mixed magnitudes:
# large lcms.


@st.composite
def _mixed_cases(draw):
    """A polytope with points to query (members and near misses), and a
    square matrix: random, or a scaled idempotent, which is regular.  One
    polytope in three is a scaled idempotent column space, pure, so that
    its verdict comes from the polytrope certificates at large lcms."""
    n = draw(st.integers(1, 4))
    rng = random.Random(draw(st.integers(0, 10**6)))
    if draw(st.integers(0, 2)):
        p = Polytope([tuple(draw(_mixed) for _ in range(n)) for _ in range(draw(st.integers(1, 4)))])
    else:
        e = random_idempotent(n, rng=rng, full_rank=draw(st.booleans()), spread=5)
        scale = draw(_mixed.filter(lambda v: v > 0))
        p = column_space(Matrix([[v * scale for v in row] for row in e.entries]))
    points = []
    for _ in range(3):
        x = random_point(p, rng=rng)
        points += [x, tuple(v + draw(_mixed) * (q == 0) for q, v in enumerate(x))]
    k = draw(st.integers(1, 4))
    if draw(st.booleans()):
        a = Matrix([[draw(_mixed) for _ in range(k)] for _ in range(k)])
    else:
        e = random_idempotent(k, rng=rng, spread=5)
        scale = draw(_mixed.filter(lambda v: v > 0))
        a = Matrix([[v * scale for v in row] for row in e.entries])
    return p, points, a


def _frame_verdicts(p, points, a):
    return (
        [x in p for x in points],
        p.generator_dimension(),
        p.dual_dimension(),
        p.is_min_plus_convex(),
        is_projective(p).projective,
        regularity_witness(a).regular,
        tropical_dimension(p),
        pure_dimension(p),
        rank_report(a),
    )


def _assert_frame_invariant(case, image, matrix_image):
    """`image` maps points; `matrix_image` maps the matrix to one with the
    same regularity verdict."""
    p, points, a = case
    q = Polytope([image(g) for g in p.generators])
    moved = _frame_verdicts(q, [image(x) for x in points], matrix_image(a))
    assert moved == _frame_verdicts(p, points, a)


@settings(max_examples=40, deadline=None)
@given(_mixed_cases(), st.data())
def test_frame_verdicts_invariant_under_translation(case, data):
    # a polytope moves by a vector; a matrix by diagonal matrices on either
    # side: D1 A D2 is regular exactly when A is
    p, _, a = case
    shift = [data.draw(_mixed) for _ in range(p.ambient)]
    rows = [data.draw(_mixed) for _ in range(a.rows)]
    cols = [data.draw(_mixed) for _ in range(a.cols)]
    _assert_frame_invariant(
        case,
        lambda x: tuple(v + d for v, d in zip(x, shift)),
        lambda m: Matrix([[v + r + c for v, c in zip(row, cols)] for row, r in zip(m.entries, rows)]),
    )


@settings(max_examples=40, deadline=None)
@given(_mixed_cases(), st.integers(1, 10**6))
def test_frame_verdicts_invariant_under_positive_scaling(case, k):
    _assert_frame_invariant(
        case,
        lambda x: tuple(k * v for v in x),
        lambda m: Matrix([[k * v for v in row] for row in m.entries]),
    )


@settings(max_examples=40, deadline=None)
@given(_mixed_cases(), st.randoms(use_true_random=False))
def test_frame_verdicts_invariant_under_permutation(case, rng):
    p, _, a = case
    perm = list(range(p.ambient))
    rng.shuffle(perm)
    rows, cols = list(range(a.rows)), list(range(a.cols))
    rng.shuffle(rows)
    rng.shuffle(cols)
    _assert_frame_invariant(
        case,
        lambda x: tuple(x[j] for j in perm),
        lambda m: Matrix([[m.entries[i][j] for j in cols] for i in rows]),
    )


def test_tropical_dimension_cases(golden_idempotent):
    assert tropical_dimension(column_space(golden_idempotent)) == 3
    assert tropical_dimension(Polytope([(0, -1, -2, 4)])) == 1
    assert pure_dimension(Polytope([(0,), (-2,)])) == (True, 1)


def test_row_and_column_space_dimensions_agree():
    rng = random.Random(23)
    for _ in range(60):
        a = random_matrix(rng.randint(1, 4), rng.randint(1, 4), rng=rng)
        assert tropical_dimension(row_space(a)) == tropical_dimension(column_space(a))


def test_rational_generators_are_handled_exactly():
    p = Polytope([(Fraction(1, 2), 0, 0), (0, Fraction(-1, 3), Fraction(2, 7))])
    report = cell_complex(p)
    assert report.tropical_dim == 2
    for face in report.faces:
        assert covector(face.witness, p) == face.covector


def test_at_most_one_top_cell_when_few_generators():
    rng = random.Random(24)
    for _ in range(80):
        n = rng.randint(1, 4)
        p = random_polytope(n, rng.randint(1, n), rng=rng)
        tops = [f for f in cell_complex(p).faces if f.covering and f.dim == n]
        assert len(tops) <= 1


def test_idempotent_relation_inequalities():
    # distinct zero-diagonal extremal columns i, j of an idempotent satisfy
    # col_j[i] <= col_j[k] - col_i[k] for all k, strictly at k = j
    rng = random.Random(25)
    for _ in range(80):
        e = random_idempotent(rng.randint(2, 4), rng=rng, full_rank=True)
        n = e.rows
        cols = [e.col(j) for j in range(n)]
        for i in range(n):
            for j in range(n):
                if i == j or canonical_point(cols[i]) == canonical_point(cols[j]):
                    continue
                for k in range(n):
                    bound = cols[j][k] - cols[i][k]
                    assert cols[j][i] <= bound
                    if k == j:
                        assert cols[j][i] < bound


def test_pure_dimension_equals_rank_for_idempotents():
    rng = random.Random(26)
    for _ in range(60):
        e = random_idempotent(rng.randint(1, 4), rng=rng)
        space = column_space(e)
        assert pure_dimension(space) == (True, space.generator_dimension())


# -- descent to singleton covectors


def test_descent_keeps_singleton_points(golden_idempotent):
    x = (0, 1, 2)  # realises the diagonal all-singleton cell
    assert descend_to_singletons(golden_idempotent, x) == tuple(map(Fraction, x))


def test_descent_from_the_top_corner(golden_idempotent):
    p = column_space(golden_idempotent)
    x = (0, 0, 0)
    y = descend_to_singletons(golden_idempotent, x)
    cov = covector(y, p)
    assert all(len(c) == 1 for c in cov)
    assert covector_leq(cov, covector(x, p))
    assert y in p


def test_descent_randomised_postconditions():
    rng = random.Random(27)
    for _ in range(100):
        e = random_idempotent(rng.randint(1, 4), rng=rng, full_rank=bool(rng.getrandbits(1)))
        p = column_space(e)
        x = random_point(p, rng=rng)
        y = descend_to_singletons(e, x)
        cov = covector(y, p)
        assert all(len(c) == 1 for c in cov)
        assert covector_leq(cov, covector(x, p))
        assert y in p


def test_conjugated_idempotents_keep_all_structure():
    # diagonal conjugation reaches idempotents with positive entries, which
    # the plain closure sampler never produces; all the structural facts
    # must survive the change of coordinates
    rng = random.Random(29)
    from tropcheck import is_idempotent, recover_idempotent

    for _ in range(60):
        n = rng.randint(1, 4)
        e = random_idempotent(n, rng=rng, full_rank=True, spread=4)
        assert is_idempotent(e)
        assert all(e.entries[i][i] == 0 for i in range(n))
        space = column_space(e)
        assert space.generator_dimension() == n
        assert recover_idempotent(space) == e
        assert pure_dimension(space) == (True, n)
        x = random_point(space, rng=rng)
        y = descend_to_singletons(e, x)
        cov = covector(y, space)
        assert all(len(c) == 1 for c in cov)
        assert covector_leq(cov, covector(x, space))


# sha256 over repr(descend_to_singletons(e, x)) of _descents(), as first
# computed by the frozenset covector route: the mask route must not move a byte
PINNED_DESCENTS = "73b0dc91bbe8ffbed58bb7bd63c9e90f543804d4eb3daae5327f2e4bb8c4bde2"


def test_descent_bytes_are_pinned():
    digest = hashlib.sha256()
    rng = random.Random(32)
    for full_rank in (False, True):
        for e in idempotent_corpus(32 + full_rank, 60, max_n=5, full_rank=full_rank):
            x = random_point(column_space(e), rng=rng)
            digest.update(repr(descend_to_singletons(e, x)).encode())
    assert digest.hexdigest() == PINNED_DESCENTS


def test_descent_rejects_bad_input(golden_idempotent):
    with pytest.raises(NotIdempotent):
        descend_to_singletons(Matrix([[0, 1], [1, 0]]), (0, 0))
    with pytest.raises(NotMember):
        descend_to_singletons(golden_idempotent, (0, 0, 5))
