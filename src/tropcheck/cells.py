"""Covector decomposition of a tropical polytope: cells, dimension, purity.

Relative to the canonical extremal generators g_0..g_{m-1} of a polytope,
each point x of FT^n has a covector: for every coordinate p the set

    S_p = { i : x_p - g_i[p] <= x_q - g_i[q] for all q }

of generators able to reach x_p in a maximising combination.  The regions
of constant covector tile FT^n into finitely many cells; the cells whose
covector has no empty component are exactly the ones lying inside the
polytope.  The affine dimension of a cell is the number of connected
components of the graph on coordinates that joins p and q whenever S_p and
S_q intersect.

Cells are enumerated through per-generator argmin profiles
A_i = argmin_q (x_q - g_i[q]) rather than covectors: fixing a profile
turns the cell into a pure difference-constraint system (equalities inside
each A_i, strict inequalities out of it), decided exactly by
negative-cycle detection with lexicographic (value, strict-count) weights.
A depth-first search over profiles prunes infeasible prefixes, which cuts
the nominal (2^n - 1)^m candidate grid down to the realizable cells while
visiting exactly the same feasible set.

The search runs on exact Python ints, the integer frame of the extremal
polytope (its generators over the lcm of their own denominators), with
argmin sets as bitmasks over the coordinates.  At a node with closure
dist, the masks generator i can take are read off in closed form.  Shift
the closure into the coordinates y_a = x_a - v_a of the scaled generator
v: D[u][q] = dist[u][q] + (v_u - v_q) * _UNIT bounds y_q - y_u.  Call u
dead when some D[u][q] < 0 and let need[u] = {q : D[u][q] <= 0}.  Then S
is feasible iff no member of S is dead and need[u] lies inside S for every
u in S.  Proof: every new constraint touches the lowest member r of S, so
a new negative cycle runs r -> u in S (free), then a closed path u -> q
(cost D[u][q]), then q -> r (free when q is in S, one strictness unit when
it is not).  One pass over the subsets of the live coordinates lists the
feasible masks.  Each is one star step at r, `_star`: with into[s] and
out[t] the best bounds s -> r and r -> t, read off the scaled generator
and the mask, each new closure entry is min(dist[s][t], into[s] + out[t]).
The O(n^2) pass writing them, `_close`, runs only for a child the walk
enters; a leaf needs only its closure's column minima, min(colmin[t],
min(into) + out[t]) from its parent's.  Covectors, dimensions and covering
flags come from the masks; each cell's witness is decoded from the column
minima as integer numerators over the common scale 4 * _UNIT * denom, its
argmin masks are recomputed in ints and compared with the cell's own, and
it becomes a tuple of Fractions only on the Face.

Argmin sets have one representation and one route: `_argmin_masks` gives
a point's bitmask per generator, on ints or Fractions, and `_cover_bits`
transposes masks into the covector as one generator bitmask per
coordinate.  The witness re-check, the faces, `argmin_profile`,
`covector` and `descend_to_singletons` all go through them; frozensets
are built only for returned values.

One depth-first walk, `_walk`, serves the full complex and the verdict.
Purity asks only for the verdict (pure, dim), and the walk pruned to
covering cells settles it, often early.  Its nodes carry
the dead mask of each generator still to place: u turns dead for v when
into[u] + v_u + min_q(out[q] - v_q) < 0, O(n) per generator (`_carry`).
Dead stays dead, as closure entries only fall, so a child leaving a
coordinate uncovered and dead for every generator still to place is
dropped before its closure, or its star step if the parent's masks show
it.  It branches next on the generator with the fewest live coordinates
in its room, the lowest index on a tie (fail-first, Haralick-Elliott);
masks stay indexed by generator, so leaves and witnesses do not depend on
it.  The full complex keeps index order.  Profiles ordered by inclusion,
mask by mask, give the face order (Develin-Sturmfels): a profile inside
another is the type of a cell whose closure holds the other's.  The
tropical dimension is the tropical rank of the generator matrix
(Develin-Santos-Sturmfels), so `tropical_dimension` reads it off
`_tropical_rank`, memoised on the polytope, and never walks.  The walk for
purity takes that rank as its top dimension, so the first covering leaf
below it that lies in the closure of no other covering cell proves the
polytope impure and stops the walk.  Whether a larger cell's closure
holds a point needs no second walk: near a point with argmin masks A_i
the polytope is the point plus the max-plus span of the 0/-inf
indicators of the A_i, so its local dimension there, the largest
dimension of a covering cell whose closure holds the point, is a
function of the masks, `_local_profile`.  A room pass reads it first at
each extremal generator, off the generator's own argmin masks; a pure
polytope has the rank as its local dimension everywhere, so a generator
below it proves impurity.  The lemma also gives a point of a cell of
that dimension next to the generator, whose argmin masks are re-checked.
When every generator has the rank, a polytope that is min-plus convex, or
whose minimal embedding is, is a polytrope (Joswig-Kulas): classically
convex, hence pure, with its dimension read off the generators, which
must equal the rank.  Only the pure polytopes no such certificate
answers take the full walk.  Leaves are packed as keys
sum(mask_i << n*i), on which "t inside f" reads t & ~f == 0; every
leaf's witness is still decoded and re-checked.  The full complex records
the keys of its covering faces too, and both settle (pure, dim) on them
in one place, `_settle`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import and_, itemgetter, or_
from typing import NamedTuple

from .errors import (
    DimensionMismatch,
    NonFiniteEntries,
    NotIdempotent,
    NotMember,
    NotSquare,
    ScaleLimitExceeded,
)
from .polytopes import Polytope, _member, canonical_point, column_space
from .semiring import Matrix, _principal, _tropical_rank, as_vector, vec_max, vec_scale

DEFAULT_MAX_TUPLES = 10**7

# encoded weights: value * _UNIT - strict_count, compared as plain ints.
# Simple paths and cycles carry fewer than _UNIT strict edges, so the
# encoding is exactly the lexicographic (value, strict-count) order.
_UNIT = 1024
# "no bound": tested by identity before every sum, so none forms it; ints compare with inf exactly
_INF = float("inf")


# ---------------------------------------------------------------------------
# covectors


def _argmin_masks(x, gens):
    """One bitmask per generator g: the coordinates q where x_q - g_q is
    least.  The only argmin loop; x and gens are ints or Fractions alike."""
    out = []
    for g in gens:
        diffs = [a - b for a, b in zip(x, g)]
        low = min(diffs)
        bits = 0
        for q, d in enumerate(diffs):
            if d == low:
                bits |= 1 << q
        out.append(bits)
    return tuple(out)


def _cover_bits(masks, n):
    """The transpose of argmin masks: for each coordinate p, the bitmask of
    the generators whose mask holds p, which is the covector as bits."""
    cov = [0] * n
    for i, a in enumerate(masks):
        while a:
            low = a & -a
            cov[low.bit_length() - 1] |= 1 << i
            a ^= low
    return cov


def _bit_set(bits):
    """The set of positions of a bitmask."""
    return frozenset(q for q in range(bits.bit_length()) if bits >> q & 1)


def argmin_profile(x, polytope: Polytope):
    """Per-generator argmin sets of x - g_i, indexed like the canonical generators."""
    x = as_vector(x, finite=True, length=polytope.ambient)
    return tuple(map(_bit_set, _argmin_masks(x, polytope.extremals().generators)))


def covector(x, polytope: Polytope):
    """The covector of x relative to the canonical extremal generators."""
    x = as_vector(x, finite=True, length=polytope.ambient)
    masks = _argmin_masks(x, polytope.extremals().generators)
    return tuple(map(_bit_set, _cover_bits(masks, polytope.ambient)))


def covector_leq(s, t) -> bool:
    """Componentwise set inclusion of covectors."""
    if len(s) != len(t):
        raise DimensionMismatch("covectors of different lengths")
    return all(a <= b for a, b in zip(s, t))


def covector_dimension(cov) -> int:
    """Affine dimension of the cell: components of the coordinate graph."""
    bits = [sum(1 << i for i in c) for c in cov]
    masks = [a for a in _cover_bits(bits, max(bits, default=0).bit_length()) if a]
    return _mask_dimension(masks, len(cov))


# ---------------------------------------------------------------------------
# exact feasibility of an argmin profile


def _scaled(polytope: Polytope):
    """The canonical extremal generators as ints over their own common
    denominator (the frame of `polytope.extremals()`) times _UNIT; the same
    ints lifted to the witness scale 4 * _UNIT * denom; and that scale."""
    denom, scaled = polytope.extremals()._ints()
    units = [[_UNIT * v for v in g] for g in scaled]
    return units, [[4 * v for v in g] for g in units], 4 * _UNIT * denom


def _fresh(n):
    dist = [_INF] * (n * n)
    for a in range(n):
        dist[a * n + a] = 0
    return dist


def _star(dist, n, units, mask):
    """The star step of one argmin set on a closed bound matrix.

    A bound x_b - x_a <= c is an edge a -> b of cost c; strict edges pay
    one strictness unit.  With r the lowest member of `mask` and `units`
    the generator scaled by _UNIT, every other member q gives the pair
    q -> r, r -> q at +-(units[r] - units[q]) and every outside q the
    strict edge q -> r, so each edge touches r.  A new shortest path
    s -> t then runs through r once: its cost is into[s] + out[t], the
    best ways into and out of r that end or start with at most one new
    edge.  A negative cycle also runs through r, so it shows in out alone:
    as out[r] < 0, or as out[q] + c < 0 for an edge (q, c) into r.
    Entries that are _INF are no bound.  Returns (into, out, tight), tight
    when a new edge tightened a bound, or None when the system is infeasible.
    """
    low = mask & -mask
    rep = low.bit_length() - 1
    base = units[rep]
    out = dist[rep * n:(rep + 1) * n]
    tight = False
    rest = mask ^ low
    while rest:
        low = rest & -rest
        rest ^= low
        u = low.bit_length() - 1
        c = units[u] - base
        if c >= out[u]:
            continue
        tight = True
        for t, d in enumerate(dist[u * n:(u + 1) * n]):
            if d is not _INF and c + d < out[t]:
                out[t] = c + d
    if out[rep] < 0:
        return None
    into = dist[rep::n]
    for w, b in enumerate(out):
        if w == rep:
            continue
        c = base - units[w] if mask >> w & 1 else base - units[w] - 1
        if b is not _INF and b + c < 0:
            return None
        if c >= into[w]:
            continue
        tight = True
        for s, d in enumerate(dist[w::n]):
            if d is not _INF and d + c < into[s]:
                into[s] = d + c
    return into, out, tight


def _close(dist, n, into, out):
    """The closure after a star step: min(dist[s][t], into[s] + out[t])."""
    heads = [(t, b) for t, b in enumerate(out) if b is not _INF]
    cur = dist[:]
    for s, a in enumerate(into):
        if a is _INF:
            continue
        row = s * n
        for t, b in heads:
            if a + b < cur[row + t]:
                cur[row + t] = a + b
    return cur


def _carry(dead, gens, into, out):
    """The dead masks, by the rule of `_feasible_masks`, of the generators
    `gens` (scaled by _UNIT) after a star step, from theirs before it."""
    heads = [(q, b) for q, b in enumerate(out) if b is not _INF]
    tails = [(u, a) for u, a in enumerate(into) if a is not _INF]
    below = []
    for bits, v in zip(dead, gens):
        low = min([b - v[q] for q, b in heads])
        for u, a in tails:
            if a + v[u] + low < 0:
                bits |= 1 << u
        below.append(bits)
    return below


def _feasible_masks(dist, n, units, room=-1):
    """Every argmin mask inside `room` a generator can take on top of a
    closed bound matrix, in increasing order, by the closed-form rule of
    the module docstring: no member of S is dead and need[u] lies inside S
    for each u in S, with D[u][q] = dist[u][q] + units[u] - units[q].

    `units` is the generator scaled by _UNIT.  Entries that are _INF are
    no bound.  A mask holding a dead coordinate is never feasible; only the
    rows inside `room` are read, and only submasks of its live coordinates.
    """
    need = [0] * n
    dead = 0
    for u in range(n):
        if not room >> u & 1:
            continue
        row = dist[u * n:(u + 1) * n]
        base = units[u]
        bits = 0
        for q in range(n):
            d = row[q]
            if d is not _INF:
                d += base - units[q]
                if d <= 0:
                    if d < 0:
                        dead |= 1 << u
                        break
                    bits |= 1 << q
        need[u] = bits
    # hull[mask] is the union of need over the members of mask; the live
    # submasks come in increasing order, so mask ^ low is always done
    live = ((1 << n) - 1) & room & ~dead
    hull = [0] * (1 << n)
    found = []
    mask = (-live) & live
    while mask:
        low = mask & -mask
        hull[mask] = hull[mask ^ low] | need[low.bit_length() - 1]
        if hull[mask] == mask:
            found.append(mask)
        mask = (mask - live) & live
    return found


def _recheck(point, gens, masks):
    """An AssertionError unless the argmin bitmasks of `point` relative to
    `gens`, on one integer scale, are exactly `masks`."""
    if _argmin_masks(point, gens) != tuple(masks):
        raise AssertionError("cell witness failed to realise its own profile")


def _witness(colmin, lifted, masks):
    """Decode the column minima of a closure into the integer numerators,
    over the scale 4 * _UNIT * denom, of a point whose argmin bitmasks are
    exactly `masks`; `_recheck` raises if they are not.

    Potentials from the closure satisfy every non-strict bound; strict
    bounds are realised by an epsilon of 1 / scale, small enough that one
    scaled unit of slack always dominates the strictness correction.  The
    point is built as integer numerators over scale = 4 * _UNIT * denom and
    checked against the generators lifted to the same scale; multiplying
    both by a positive constant leaves every argmin set unchanged.
    """
    nums = []
    for best in colmin:
        c = -((-best) // _UNIT)
        nums.append(4 * _UNIT * c - (c * _UNIT - best))
    _recheck(nums, lifted, masks)
    return nums


def realize_profile(profile, polytope: Polytope):
    """A point whose argmin profile is exactly `profile`, or None.

    The profile must assign a non-empty set of coordinates to each
    canonical extremal generator.
    """
    gens = polytope.extremals().generators
    n = polytope.ambient
    sets = tuple(frozenset(a) for a in profile)
    if len(sets) != len(gens):
        raise DimensionMismatch(f"profile has {len(sets)} components for {len(gens)} generators")
    for a in sets:
        if not a:
            raise ValueError("profile components must be non-empty")
        if any(not 0 <= q < n for q in a):
            raise ValueError("profile coordinate out of range")
    units, lifted, scale = _scaled(polytope)
    masks = tuple(sum(1 << q for q in a) for a in sets)
    dist = _fresh(n)
    for ui, mask in zip(units, masks):
        step = _star(dist, n, ui, mask)
        if step is None:
            return None
        dist = _close(dist, n, step[0], step[1])
    return tuple(Fraction(v, scale) for v in _witness([min(dist[a::n]) for a in range(n)], lifted, masks))


# ---------------------------------------------------------------------------
# the cell complex


class Face(NamedTuple):
    """One cell: its covector, a point realising it exactly, its dimension."""

    covector: tuple
    witness: tuple
    dim: int
    covering: bool


class CellComplex(NamedTuple):
    """Every cell of the covector decomposition, as `cell_complex` finds
    them, with the tropical dimension and purity they give."""

    faces: tuple
    tropical_dim: int
    pure: bool

    def covering_faces(self):
        return [f for f in self.faces if f.covering]


def _check_scale(polytope: Polytope, max_tuples: int) -> None:
    """The nominal bound on the (2^n - 1)^m argmin-profile grid."""
    nominal = (2**polytope.ambient - 1) ** polytope.generator_dimension()
    if nominal > max_tuples:
        raise ScaleLimitExceeded(f"{nominal} candidate profiles exceed the bound of {max_tuples}")


def cell_complex(polytope: Polytope, max_tuples: int = DEFAULT_MAX_TUPLES) -> CellComplex:
    """Enumerate every realizable cell of the covector decomposition.

    Covering cells (no empty covector component) are exactly the cells
    meeting the polytope; the tropical dimension is their maximal
    dimension, and the complex is pure when every covering cell sits
    inside a covering cell of maximal dimension.

    The bound is checked on every call; the complex itself is computed
    once per polytope instance and memoised on it.
    """
    _check_scale(polytope, max_tuples)
    if polytope._complex is None:
        polytope._complex = _compute_complex(polytope)
    return polytope._complex


def _merge(parts, a):
    """The components `parts`, disjoint bitmasks, with mask a added: the
    parts a meets merge with it into one."""
    rest = []
    for b in parts:
        if a & b:
            a |= b
        else:
            rest.append(b)
    rest.append(a)
    return rest


def _mask_dimension(masks, n):
    """covector_dimension on argmin bitmasks: coordinates p and q share a
    generator exactly when some mask holds both, so the components are the
    overlapping masks merged, plus one per coordinate no mask holds."""
    parts = reduce(_merge, masks, [])
    return len(parts) + n - sum(b.bit_count() for b in parts)


def _local_profile(masks, n):
    """The local dimension of the polytope at a point x whose argmin masks
    `masks` cover every coordinate, and a cell of that dimension whose
    closure holds x: (k, z, profile), with x + eps * z in that cell for
    every small eps > 0 and `profile` its argmin masks.

    Near x the polytope is x plus the max-plus span of the 0/-inf
    indicators of the masks (`_walk_verdict`), so a point x + z has
    z_p = max over the masks A holding p of mu_A.  Where the mu_A are
    distinct, z is linear in mu, and its rank counts the masks that hold a
    coordinate no mask of larger mu holds.  So k is the largest number of
    masks that can be listed so that each holds a coordinate none before
    it holds.  Only the union of a listing decides which masks can extend
    it, so a DP over unions, in increasing order, finds the longest
    listing; it ends at the union of all masks.  Giving its masks heights
    k, ..., 1 in order, z_p is the height of the first one holding p.  The
    coordinates of height h are those the h-th last mask added, which that
    mask holds whole, and every mask's argmin of z lies in one height, so
    the argmin profile of x + eps * z has exactly k components.
    """
    full = (1 << n) - 1
    distinct = list(dict.fromkeys(masks))
    longest = [-1] * (1 << n)
    longest[0] = 0
    before = [0] * (1 << n)
    for u in range(full):
        if longest[u] < 0:
            continue
        k = longest[u] + 1
        for a in distinct:
            w = u | a
            if w != u and longest[w] < k:
                longest[w] = k
                before[w] = u
    # walk the longest listing back from the full union: the h-th last
    # mask added gets height h on the coordinates it added
    z = [0] * n
    levels = []
    u = full
    while u:
        level = u & ~before[u]
        u = before[u]
        levels.append(level)
        while level:
            low = level & -level
            z[low.bit_length() - 1] = len(levels)
            level ^= low
    profile = []
    for a in masks:
        for level in levels:
            if a & level:
                profile.append(a & level)
                break
    return len(levels), z, tuple(profile)


def _walk(units, n, leaf, room, covering) -> bool:
    """The depth-first search over the argmin profiles of the generators
    `units` (ints scaled by _UNIT), which the full complex and the verdict
    share.

    It visits the feasible profiles whose i-th mask lies inside room[i]
    and calls leaf(masks, colmin) at each, with the column minima of the
    leaf's closure.  With `covering` it visits covering leaves only, in
    fail-first order, pruned by the dead masks it carries (module
    docstring); without, it takes the generators in index order.  It
    stops at the first leaf for which `leaf` returns true, and returns
    whether it stopped.
    """
    acc = [0] * len(units)

    def walk(dist, colmin, rest, dead, uncovered):
        lives = [(room[j] & ~bits).bit_count() for j, bits in zip(rest, dead)] if covering else [0]
        k = lives.index(min(lives))
        j, v, gone = rest[k], units[rest[k]], dead[k]
        rest, dead = rest[:k] + rest[k + 1:], dead[:k] + dead[k + 1:]
        gens = [units[q] for q in rest]
        doomed = reduce(and_, dead, uncovered)
        for mask in _feasible_masks(dist, n, v, room[j] & ~gone):
            left = uncovered & ~mask
            if covering and left & doomed:
                continue
            step = _star(dist, n, v, mask)
            if step is None:
                raise AssertionError("a feasible argmin mask made the cell system infeasible")
            into, out, tight = step
            below = dead
            if covering and rest:
                below = _carry(dead, gens, into, out)
                if reduce(and_, below, left):
                    continue
            acc[j] = mask
            low = min(into)
            cols = [c if b is _INF or low + b >= c else low + b for c, b in zip(colmin, out)]
            if not rest:
                if leaf(tuple(acc), cols):
                    return True
            elif walk(_close(dist, n, into, out) if tight else dist, cols, rest, below, left):
                return True
        return False

    return walk(_fresh(n), [0] * n, tuple(range(len(units))), (0,) * len(units), (1 << n) - 1)


def _key(masks, n) -> int:
    """A profile packed into one int, mask i at bits n*i and up: profile t
    lies inside profile f, mask by mask, iff _key(t) & ~_key(f) == 0."""
    return sum(mask << (n * i) for i, mask in enumerate(masks))


def _in_closure(key, keys) -> bool:
    """Does the cell of the packed profile `key` lie in the closure of a
    cell of `keys`: is one of their profiles inside key, mask by mask?"""
    return any(t & ~key == 0 for t in keys)


def _settle(keys_by_dim):
    """(pure, dim) from the packed keys of covering cells, one list per
    dimension: dim is the largest dimension holding a cell, and the
    complex is pure when every lower cell lies in the closure of one of
    that dimension.  Profile inclusion mask by mask is covector inclusion
    transposed, so this is the Develin-Sturmfels face order."""
    dim = max((d for d, keys in enumerate(keys_by_dim) if keys), default=None)
    if dim is None:
        raise AssertionError("a non-empty polytope always has covering cells")
    return all(_in_closure(k, keys_by_dim[dim]) for d in range(dim) for k in keys_by_dim[d]), dim


def _compute_complex(polytope: Polytope) -> CellComplex:
    """Walk every argmin profile and build a Face for each leaf."""
    n = polytope.ambient
    units, lifted, scale = _scaled(polytope)
    m = len(units)
    full = (1 << n) - 1
    members = [_bit_set(bits) for bits in range(1 << m)]
    # faces sort by covector, each component taken as its sorted tuple of
    # generators; rank[bits] is the place of that tuple among all of them
    rank = [0] * (1 << m)
    for k, bits in enumerate(sorted(range(1 << m), key=lambda bits: sorted(members[bits]))):
        rank[bits] = k
    values = {}  # witness numerator -> Fraction; coordinates repeat across cells
    keyed = []
    keys = [[] for _ in range(n + 1)]

    def add(acc, colmin):
        nums = _witness(colmin, lifted, acc)
        cov = _cover_bits(acc, n)
        witness = []
        for v in nums:
            x = values.get(v)
            if x is None:
                x = values[v] = Fraction(v, scale)
            witness.append(x)
        face = Face(
            covector=tuple(members[bits] for bits in cov),
            witness=tuple(witness),
            dim=_mask_dimension(acc, n),
            covering=all(cov),
        )
        if face.covering:
            keys[face.dim].append(_key(acc, n))
        keyed.append((tuple(rank[bits] for bits in cov), face))

    _walk(units, n, add, [full] * m, False)

    pure, top = _settle(keys)
    keyed.sort(key=itemgetter(0))
    return CellComplex(faces=tuple(face for _, face in keyed), tropical_dim=top, pure=pure)


def _local_dimension(g, units, n) -> int:
    """The local dimension of the polytope at its extremal generator g,
    from g's argmin masks by `_local_profile`, checked at the point g + z
    (`_walk_verdict`): its argmin masks must be the profile returned, and
    cover every coordinate, so g + z lies in the polytope, in a cell of
    the profile's dimension whose closure holds g."""
    _, z, profile = _local_profile(_argmin_masks(g, units), n)
    _recheck([a + b for a, b in zip(g, z)], units, profile)
    if reduce(or_, profile) != (1 << n) - 1:
        raise AssertionError("a local profile left a coordinate uncovered")
    return _mask_dimension(profile, n)


def _rank(polytope: Polytope) -> int:
    """The tropical rank of the extremal frame, memoised on the polytope.
    The walk's generators are that frame times _UNIT, which leaves the
    rank unchanged, so the walk and `tropical_dimension` share it."""
    if polytope._rank is None:
        polytope._rank = _tropical_rank(polytope.extremals()._ints()[1])
    return polytope._rank


def _alcove_dimension(polytope: Polytope) -> int:
    """The dimension of the alcoved polytope Q = {x : x_j - x_i <= c_ij},
    with c_ij the largest g_j - g_i over the extremal generators g: the
    number of classes of i ~ j iff c_ij + c_ji = 0.  As c_ik <= c_ij + c_jk,
    x_j - x_i is fixed on Q exactly when i ~ j, so Q has one free
    coordinate per class.  c_ij + c_ji is the largest g_j - g_i less the
    least, zero exactly when coordinates i and j differ by a constant over
    the generators, so the classes are the distinct coordinate columns,
    each taken relative to its first entry."""
    rows = polytope.extremals()._ints()[1]
    return len({tuple([g[i] - rows[0][i] for g in rows]) for i in range(polytope.ambient)})


def _polytrope(polytope: Polytope):
    """The polytope, or else the image of its minimal embedding, when that
    one is min-plus convex (a polytrope); None when neither is."""
    if polytope.is_min_plus_convex():
        return polytope
    image = polytope.embed_minimal().embedded
    return image if image.is_min_plus_convex() else None


def _walk_verdict(polytope: Polytope):
    """(pure, tropical_dim) from the covering leaves of the pruned walk,
    which stops at the first impurity certificate (module docstring).

    The top dimension is the tropical rank of the generators.  Every
    certificate reads the local dimension of the polytope P at a point x:
    the largest dimension of a covering cell whose closure holds x.  P is
    pure exactly when that is the top dimension at every point of P, as
    the closure of a cell is a union of cells.

    The local cone lemma: let x lie in P with argmin masks A_i, one per
    extremal generator g_i, and let the spread of z, its largest entry
    less its least, be below every gap between the least x_q - g_i[q] and
    the next.  Then x + z lies in P exactly when z_p = max over the A_i
    holding p of min_{A_i} z, for every p; so near x, P is x plus the
    max-plus span of the 0/-inf indicators of the A_i (the local picture
    of the Develin-Sturmfels types), and the local dimension at x is a
    function of the masks alone, `_local_profile`.  Proof: the principal
    solution at x + z is lambda_i = min_q(x_q - g_i[q]) + min_{A_i} z,
    and x + z lies in P exactly when max_i(lambda_i + g_i[p]) = x_p + z_p
    at every p.  A generator whose A_i holds p gives x_p + min_{A_i} z
    there; any other gives x_p less its gap plus min_{A_i} z, below
    x_p + z_p as the spread of z is below the gap, so it never attains
    the max.

    A room pass runs first: at each extremal generator g, in index order,
    `_local_dimension` reads the local dimension off g's argmin masks.
    On the generators scaled by _UNIT every gap is at least _UNIT, more
    than the spread of the heights z, so the point g + z the lemma gives
    is checked exactly against its profile.  A local dimension above the
    rank fails the cross-check; one below it means g lies in the closure
    of no top cell, which certifies impurity.

    When every generator has the rank, a polytrope certificate comes
    next.  A max-plus polytope P that is also min-plus closed is the alcoved
    polytope Q = {x : x_j - x_i <= c_ij}, c_ij the largest g_j - g_i over
    the extremal generators g:
      - P lies in Q: at a max-plus combination x, the generator attaining
        x_j bounds x_j - x_i by its own g_j - g_i.
      - Q lies in P: for x in Q and each pair (i, k) take a point of P
        attaining c_ki, translated so that its coordinate i is x_i; its
        coordinate k is then at most x_k.  The minimum over k of these
        points lies in P (min-plus closed), equals x_i at i and lies below
        x, so x, the maximum of these minima over i, lies in P.
    Q is classically convex (a polytrope, Joswig-Kulas), and a cell
    decomposition of a convex set is pure: a maximal cell of lower
    dimension would hold a neighbourhood in P of its relative interior
    points.  Its dimension is `_alcove_dimension`.  The minimal embedding
    keeps one coordinate per extremal row of the generator matrix; every
    dropped row is a max-plus combination of kept ones, so on P each
    dropped coordinate is x_p = max_q(a_q + x_q) over kept q, and the
    restriction is a piecewise-linear homeomorphism of P onto its image.
    Local dimension, hence purity and dimension, is invariant under it,
    and projection commutes with min, so the image's test subsumes P's
    own; P's is asked first only because it is memoised for the caller.
    Either certificate answers (True, top), once the class count of the
    polytope that passed equals the rank: with the generators' local
    dimensions that checks the rank from both sides.  Impure polytopes
    never reach it.

    Otherwise the full walk runs.  Its leaves are kept as packed profile
    keys, one list per dimension, and each lower leaf certifies impurity
    unless a recorded larger cell's closure holds it or the local
    dimension at its cell, `_local_profile` on its masks, exceeds its own:
    a cell whose closure holds a point of the leaf's cell holds the whole
    cell.  Every leaf's witness is decoded and re-checked; a leaf above
    the rank, or a finished walk whose dimension is not the rank, fails
    the cross-check with an AssertionError.
    """
    n = polytope.ambient
    units, lifted, _ = _scaled(polytope)
    top = _rank(polytope)
    keys = [[] for _ in range(top + 1)]

    def held(dim):
        if dim > top:
            raise AssertionError("a covering cell is of higher dimension than the tropical rank")
        return dim

    for g in units:
        if held(_local_dimension(g, units, n)) < top:
            return False, top

    alcove = _polytrope(polytope)
    if alcove is not None:
        if _alcove_dimension(alcove) != top:
            raise AssertionError("the polytrope's dimension differs from the tropical rank")
        return True, top

    def leaf(acc, colmin):
        _witness(colmin, lifted, acc)
        dim = held(_mask_dimension(acc, n))
        key = _key(acc, n)
        keys[dim].append(key)
        if dim == top or any(_in_closure(key, keys[d]) for d in range(dim + 1, top + 1)):
            return False
        return _local_profile(acc, n)[0] <= dim

    if _walk(units, n, leaf, [(1 << n) - 1] * len(units), True):
        return False, top
    pure, dim = _settle(keys)
    if dim != top:
        raise AssertionError("the covering cells' dimension differs from the tropical rank")
    return pure, dim


def tropical_dimension(polytope: Polytope, max_tuples: int = DEFAULT_MAX_TUPLES) -> int:
    """Topological (affine) dimension of the polytope: the largest
    dimension of a covering cell.

    That is the tropical rank of the extremal generator matrix
    (Develin-Santos-Sturmfels), read off `_tropical_rank` on the integer
    frame of the extremal generators, with no walk, and memoised on the
    polytope beside the verdict; the bound applies as for `cell_complex`.
    """
    _check_scale(polytope, max_tuples)
    return _rank(polytope)


def pure_dimension(polytope: Polytope, max_tuples: int = DEFAULT_MAX_TUPLES):
    """(pure, dim): dim is the tropical dimension, pure whether every
    covering cell lies inside a covering cell of that dimension.

    The local cone lemma (`_walk_verdict`): near a point x of the polytope
    with argmin masks A_i, the polytope is x plus the max-plus span of the
    0/-inf indicators of the A_i, as the principal solution at x + z
    moves by min_{A_i} z and generators outside A_i cannot reach x_p.  So
    the local dimension at x, the largest dimension of a covering cell
    whose closure holds x, is read off the masks (`_local_profile`), and
    the polytope is pure exactly when it equals the tropical rank at every
    point.  One extremal generator whose local dimension falls short
    certifies impurity with no walk.  When every generator has the rank, a
    polytrope certificate (the polytope or its minimal embedding is
    min-plus convex) answers pure without the full walk; otherwise the
    walk over covering cells stops at the first cell below the rank whose
    local dimension is its own.  Memoised on the polytope; the bound
    applies as for `cell_complex`, on every call.
    """
    _check_scale(polytope, max_tuples)
    if polytope._covering is None:
        polytope._covering = _walk_verdict(polytope)
    return polytope._covering


# ---------------------------------------------------------------------------
# descent to an all-singleton cell inside an idempotent column space


def descend_to_singletons(e: Matrix, x):
    """From x in the column space of a finite idempotent, walk down to a
    point whose covector is a vector of singletons contained in that of x.

    Generators are the columns indexed by a set of unique extremal
    representatives with zero diagonal entries; every idempotent has such a
    set.  Each step picks a coordinate shared by two generators, bumps the
    coefficient of one of them by half the minimum positive slack, and
    strictly shrinks the set of shared triples, so at most |J|^2 * n steps
    are ever needed.
    """
    if not e.is_square:
        raise NotSquare("descent needs a square matrix")
    if not e.is_finite:
        raise NonFiniteEntries("descent needs a finite matrix")
    if e.mul(e) != e:
        raise NotIdempotent("descent needs an idempotent matrix")
    n = e.rows
    x = as_vector(x, finite=True, length=n)

    cols = [e.col(j) for j in range(n)]
    targets = column_space(e).extremals().generators
    picked = []
    for target in targets:
        j = next(
            (j for j in range(n) if e.entries[j][j] == 0 and canonical_point(cols[j]) == target),
            None,
        )
        if j is None:
            raise AssertionError("idempotents carry a zero-diagonal column for every extremal point")
        picked.append(j)
    picked.sort()
    gens = [cols[j] for j in picked]
    r = len(picked)

    if not _member(x, gens):
        raise NotMember("the point is not in the column space")

    z = x
    for _ in range(r * r * n + 1):
        lams = _principal(z, gens)
        shared = next((bits for bits in _cover_bits(_argmin_masks(z, gens), n) if bits & (bits - 1)), 0)
        if not shared:
            return z
        # the two lowest generators sharing the first shared coordinate
        i = (shared & -shared).bit_length() - 1
        shared &= shared - 1
        j = (shared & -shared).bit_length() - 1
        # orient the pair so that generator i undershoots z at j's own coordinate
        if not lams[i] + gens[i][picked[j]] < z[picked[j]]:
            i, j = j, i
            if not lams[i] + gens[i][picked[j]] < z[picked[j]]:
                raise AssertionError("one orientation always undershoots at the diagonal coordinate")
        slacks = [
            z[q] - (lams[k] + gens[k][q])
            for k in range(r)
            for q in range(n)
            if z[q] != lams[k] + gens[k][q]
        ]
        if not slacks:
            raise AssertionError("distinct extremal generators leave positive slack somewhere")
        eps = min(slacks) / 2
        bump = lams[i] + eps
        z = vec_max(z, vec_scale(bump, gens[i]))
    raise AssertionError("descent exceeded its iteration bound")
