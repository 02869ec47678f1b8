"""Seeded random corpora, brute-force oracles, and cross-validation suites.

Every generator takes a seed (or a shared `random.Random`) and is fully
reproducible.  Entries default to small integers: integer data makes ties
common, which is exactly the hard case for the exact cell combinatorics.

The suites pit independently implemented routes against each other (the
algebraic projectivity pipeline vs the geometric cell computation, the
residuation rank vs the permanent-style submatrix oracle, and so on) and
report any disagreement; an empty failure list is the pass condition.
Each suite is a generator body registered by `_suite`, which owns the
rest: the `SUITES` entry, the `random.Random(seed)` the body draws its
instances from, the failure list and the summary.
"""

from __future__ import annotations

import inspect
import itertools
import random
from fractions import Fraction

from .algebra import (
    infimum_matrix,
    is_projective,
    rank_report,
    recover_idempotent,
    regularity_witness,
    metric_closure,
    same_span,
)
from .cells import covector, covector_leq, cell_complex, descend_to_singletons, pure_dimension
from .errors import NonFiniteEntries, ScaleLimitExceeded
from .polytopes import Polytope, _member, canonical_point, column_space, row_space
from .semiring import Matrix, _combine, _fractions, vec_leq, vec_scale


# ---------------------------------------------------------------------------
# random generation


def _rng(seed, rng=None):
    """The random.Random to draw from: `rng` when given, else `seed` itself
    when it is one, else a new one seeded with it."""
    if rng is not None:
        return rng
    return seed if isinstance(seed, random.Random) else random.Random(seed)


def random_entry(rng, lo: int = -5, hi: int = 5, max_den: int = 1) -> Fraction:
    den = rng.randint(1, max_den) if max_den > 1 else 1
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_vector(n: int, *, seed=None, rng=None, lo=-5, hi=5, max_den=1):
    rng = _rng(seed, rng)
    return tuple(random_entry(rng, lo, hi, max_den) for _ in range(n))


def random_matrix(rows: int, cols: int, *, seed=None, rng=None, lo=-5, hi=5, max_den=1) -> Matrix:
    rng = _rng(seed, rng)
    return Matrix._raw(
        tuple(tuple(random_entry(rng, lo, hi, max_den) for _ in range(cols)) for _ in range(rows))
    )


def random_polytope(n: int, m: int, *, seed=None, rng=None, lo=-5, hi=5, max_den=1) -> Polytope:
    rng = _rng(seed, rng)
    return Polytope([random_vector(n, rng=rng, lo=lo, hi=hi, max_den=max_den) for _ in range(m)])


def random_idempotent(n: int, *, seed=None, rng=None, lo=-5, full_rank=False, spread=0) -> Matrix:
    """Metric closure of a random zero-diagonal matrix with non-positive
    off-diagonal entries; strictly negative entries force full rank.

    With spread > 0 the result is conjugated by a random diagonal
    (entry (i, j) shifted by d_i - d_j), which preserves idempotency, the
    zero diagonal and the rank while producing positive entries; every
    zero-diagonal idempotent arises this way from a non-positive one.
    """
    rng = _rng(seed, rng)
    hi = -1 if full_rank else 0
    rows = []
    for i in range(n):
        rows.append(
            tuple(
                Fraction(0) if i == j else random_entry(rng, lo, hi)
                for j in range(n)
            )
        )
    closed = metric_closure(Matrix._raw(tuple(rows)))
    if not spread:
        return closed
    d = [rng.randint(-spread, spread) for _ in range(n)]
    return Matrix._raw(
        tuple(
            tuple(closed.entries[i][j] + d[i] - d[j] for j in range(n))
            for i in range(n)
        )
    )


def random_point(polytope: Polytope, *, seed=None, rng=None, lo=-5, hi=5):
    """A random point of the polytope: a max-plus combination of generators."""
    rng = _rng(seed, rng)
    denom = polytope._ints()[0]
    return _fractions((_random_ints(polytope, rng, lo, hi),), denom)[0]


def _random_ints(polytope: Polytope, rng, lo=-5, hi=5):
    """`random_point` as ints over the polytope's frame, from the same draws:
    coefficients random_entry(rng, lo, hi), integers, times the denominator."""
    denom, gens = polytope._ints()
    lams = [rng.randint(lo, hi) * denom for _ in gens]
    return _combine(lams, gens)


def polytope_corpus(seed, count: int, max_n=4, max_m=4, lo=-5, hi=5) -> tuple:
    """`count` random polytopes; `seed` is an int or a random.Random."""
    rng = _rng(seed)
    return tuple(
        random_polytope(rng.randint(1, max_n), rng.randint(1, max_m), rng=rng, lo=lo, hi=hi)
        for _ in range(count)
    )


def regular_corpus(seed, count: int, max_n=4, lo=-3, hi=3) -> tuple:
    """Regular square matrices: metric closures plus instances found by
    random search, in alternation; `seed` is an int or a random.Random."""
    rng = _rng(seed)
    instances = []
    while len(instances) < count:
        n = rng.randint(1, max_n)
        if len(instances) % 2 == 0:
            instances.append(random_idempotent(n, rng=rng, lo=lo))
            continue
        found = None
        for _ in range(200):
            candidate = random_matrix(n, n, rng=rng, lo=lo, hi=hi)
            if regularity_witness(candidate).regular:
                found = candidate
                break
        instances.append(found if found is not None else random_idempotent(n, rng=rng, lo=lo))
    return tuple(instances)


# ---------------------------------------------------------------------------
# brute-force oracles


# largest square submatrix whose permutations the rank oracle enumerates
_RANK_ORACLE_LIMIT = 5
# random draws full_dimension_polytope makes before giving up
_FULL_DIMENSION_ATTEMPTS = 500


def tropical_rank_oracle(a: Matrix) -> int:
    """Largest r with an r x r submatrix whose optimal permutation is unique.

    The optimum is the maximal tropical permutation sum; uniqueness is
    decided by enumerating all permutations, so this is independent of
    both routes it cross-checks: the top-down rank routine behind
    `rank_report` and the dimension of the cell complex.
    """
    if not a.is_finite:
        raise NonFiniteEntries("the rank oracle works on finite matrices")
    top = min(a.rows, a.cols)
    if top > _RANK_ORACLE_LIMIT:
        raise ScaleLimitExceeded(
            f"rank oracle enumerates permutations only up to size {_RANK_ORACLE_LIMIT}"
        )
    for r in range(top, 0, -1):
        for rows in itertools.combinations(range(a.rows), r):
            for cols in itertools.combinations(range(a.cols), r):
                best = None
                hits = 0
                for perm in itertools.permutations(range(r)):
                    total = sum(a.entries[rows[i]][cols[perm[i]]] for i in range(r))
                    if best is None or total > best:
                        best, hits = total, 1
                    elif total == best:
                        hits += 1
                if hits == 1:
                    return r
    return 0


def minplus_sampling_refuter(polytope: Polytope, samples: int = 1000, *, seed=None, rng=None):
    """Search for two points of the polytope whose minimum escapes it.

    One-sided: returns a counterexample pair or None.  Any returned pair is
    re-verified against membership before being reported.
    """
    rng = _rng(seed, rng)
    denom, gens = polytope._ints()
    for _ in range(samples):
        x = _random_ints(polytope, rng)
        y = _random_ints(polytope, rng)
        if not _member(tuple(map(min, x, y)), gens):
            if not _member(x, gens) or not _member(y, gens):
                raise AssertionError("sampled points must belong to the polytope")
            return _fractions((x, y), denom)
    return None


# ---------------------------------------------------------------------------
# cross-validation suites


def _poly_doc(p: Polytope):
    return [[str(e) for e in g] for g in p.generators]


def _mat_doc(a: Matrix):
    return [[str(e) for e in row] for row in a.entries]


SUITES = {}


def _suite(name: str):
    """Register a suite body under `name`.

    The registered function takes (seed=0, count=200, n=4, m=4) and the
    body's own keywords.  It calls body(random.Random(seed), count, n,
    ...), passing `m` only to a body that declares it, and returns
    {"suite": name, "instances": count, "failures": [...]}, the failures
    being what the body yields, one dict per failing instance.
    """

    def register(body):
        takes_m = "m" in inspect.signature(body).parameters

        def run(seed=0, count=200, n=4, m=4, **options):
            if takes_m:
                options["m"] = m
            failures = list(body(random.Random(seed), count, n, **options))
            return {"suite": name, "instances": count, "failures": failures}

        run.__name__ = run.__qualname__ = body.__name__
        run.__doc__ = body.__doc__
        SUITES[name] = run
        return run

    return register


@_suite("projectivity-geometry")
def suite_projectivity_geometry(rng, count, n, m):
    """Algebraic projectivity vs pure dimension = generator = dual dimension,
    with the verdict checked against the full cell complex of an equal
    polytope, the walk the polytrope certificates stand in for."""
    for p in polytope_corpus(rng, count, max_n=n, max_m=m):
        algebraic = is_projective(p).projective
        pure, dim = pure_dimension(p)
        full = cell_complex(Polytope(p.generators))
        geometric = pure and dim == p.generator_dimension() == p.dual_dimension()
        if algebraic != geometric or (pure, dim) != (full.pure, full.tropical_dim):
            yield {
                "generators": _poly_doc(p),
                "algebraic": algebraic,
                "geometric": geometric,
                "cells": {"pure": full.pure, "tropical_dim": full.tropical_dim},
            }


def full_dimension_polytope(rng, n: int, lo=-5, hi=5) -> Polytope:
    """A polytope in FT^n with generator and dual dimension both n."""
    for _ in range(_FULL_DIMENSION_ATTEMPTS):
        p = random_polytope(n, n, rng=rng, lo=lo, hi=hi)
        if p.generator_dimension() == n and p.dual_dimension() == n:
            return p
    raise AssertionError(f"no full-dimension polytope found in {_FULL_DIMENSION_ATTEMPTS} draws")


@_suite("projectivity-order")
def suite_projectivity_order(rng, count, n, refute_samples=200):
    """Projectivity (the order route) vs the span route on full-dimension
    polytopes: does the infimum matrix span the polytope (`same_span`)?  The
    sampling refuter checks the convex verdicts for soundness."""
    for _ in range(count):
        p = full_dimension_polytope(rng, rng.randint(1, n))
        projective = is_projective(p).projective
        convex = same_span(column_space(infimum_matrix(p)), p)
        if projective != convex:
            yield {"generators": _poly_doc(p), "projective": projective, "min_plus_convex": convex}
        elif convex and minplus_sampling_refuter(p, refute_samples, rng=rng) is not None:
            yield {"generators": _poly_doc(p), "problem": "refuted a convex verdict"}


@_suite("rank-equality")
def suite_rank_equality(rng, count, n):
    """On regular matrices all three ranks agree, and the tropical rank
    matches the permutation-uniqueness oracle and the dimension of the row
    space's cell complex."""
    for a in regular_corpus(rng, count, max_n=n):
        report = rank_report(a)
        oracle = tropical_rank_oracle(a)
        geometric = cell_complex(row_space(a)).tropical_dim
        if not report.all_equal or not report.tropical_rank == oracle == geometric:
            yield {"matrix": _mat_doc(a), "report": report._asdict(), "oracle": oracle, "cells": geometric}


@_suite("idempotent-column-space")
def suite_idempotent_column_space(rng, count, n, dominate_samples=100):
    """Structure of full-rank idempotent column spaces: zero-diagonal
    extremal columns, inflation, min-plus convexity of both spaces, least
    dominating point, exact recovery, and pure dimension equal to rank."""
    for _ in range(count):
        k = rng.randint(1, n)
        e = random_idempotent(k, rng=rng, full_rank=True)
        space = column_space(e)
        problems = []

        cols = [e.col(j) for j in range(k)]
        for g in space.extremals().generators:
            if not any(
                canonical_point(cols[j]) == g and e.entries[j][j] == 0 for j in range(k)
            ):
                problems.append("extremal point without a zero-diagonal column")

        for _ in range(3):
            x = random_vector(k, rng=rng)
            if not vec_leq(x, e.apply(x)) or not vec_leq(x, e.left_apply(x)):
                problems.append("idempotent action failed to dominate the argument")

        if not space.is_min_plus_convex() or not row_space(e).is_min_plus_convex():
            problems.append("full-rank idempotent spaces must be min-plus convex")

        x = random_vector(k, rng=rng)
        projected = e.apply(x)
        if projected not in space or not vec_leq(x, projected):
            problems.append("projection must land in the span above the argument")
        for _ in range(dominate_samples):
            z = random_point(space, rng=rng)
            shift = max(xv - zv for xv, zv in zip(x, z))
            dominating = vec_scale(shift, z)
            if not vec_leq(projected, dominating):
                problems.append("found a dominating point below the projection")
                break

        if recover_idempotent(space) != e:
            problems.append("recovery did not reproduce the idempotent bit-exactly")

        if pure_dimension(space) != (True, k):
            problems.append("pure dimension must equal the rank")

        if problems:
            yield {"matrix": _mat_doc(e), "problems": problems}


@_suite("singleton-descent")
def suite_singleton_descent(rng, count, n):
    """The descent returns a member with an all-singleton covector
    contained in the covector of the start point."""
    for _ in range(count):
        k = rng.randint(1, n)
        e = random_idempotent(k, rng=rng, full_rank=bool(rng.getrandbits(1)))
        space = column_space(e)
        x = random_point(space, rng=rng)
        problems = []
        y = descend_to_singletons(e, x)
        cov_y = covector(y, space)
        if any(len(c) != 1 for c in cov_y):
            problems.append("covector of the result is not all singletons")
        if not covector_leq(cov_y, covector(x, space)):
            problems.append("covector of the result is not contained in the start covector")
        if y not in space:
            problems.append("result left the column space")
        if problems:
            yield {"matrix": _mat_doc(e), "point": [str(v) for v in x], "problems": problems}


@_suite("top-cell")
def suite_top_cell(rng, count, n):
    """A polytope in FT^n with at most n generators has at most one cell of
    dimension n."""
    for _ in range(count):
        k = rng.randint(1, n)
        p = random_polytope(k, rng.randint(1, k), rng=rng)
        tops = [f for f in cell_complex(p).faces if f.covering and f.dim == k]
        if len(tops) > 1:
            yield {"generators": _poly_doc(p), "top_cells": len(tops)}


@_suite("rank-oracle")
def suite_rank_oracle(rng, count, n, m):
    """On arbitrary matrices the tropical rank of `rank_report` agrees with
    the permutation-uniqueness oracle and with the dimension of the row
    space's cell complex."""
    for _ in range(count):
        a = random_matrix(rng.randint(1, n), rng.randint(1, m), rng=rng)
        computed = rank_report(a).tropical_rank
        oracle = tropical_rank_oracle(a)
        geometric = cell_complex(row_space(a)).tropical_dim
        if not computed == oracle == geometric:
            yield {"matrix": _mat_doc(a), "computed": computed, "oracle": oracle, "cells": geometric}


def run_suite(name: str, *, seed=0, count=200, n=4, m=4) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](seed=seed, count=count, n=n, m=m)
