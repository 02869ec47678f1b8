"""The largest polytope shapes each cells route handles within one second.

Usage, from the root of a checkout:

    python3 tools/frontier.py [--out FILE]

For every ambient dimension n from 3 to MAX_N, shapes (n, m) are tried
with m = 2, 3, ... up to MAX_M: five polytopes per shape, their m
generators drawn with `oracles.random_vector(n, lo=-20, hi=20)` from a
fresh `random.Random(5)`.
Each polytope is timed REPEATS = 3 times, on a `Polytope` built anew
each time so that no memo answers, and the median of the three is its
time: a single run slowed by the machine cannot move the frontier alone.
A shape is within the limit when every one of its five polytopes has a
median time under LIMIT_S seconds.
The first shape over the limit ends the row; a row that reaches MAX_M
reports it, as a lower bound.  Two routes are timed:
`cell_complex`, which enumerates every cell, and `pure_dimension`, which
walks the covering cells alone and stops at the first proof of impurity
(see `cells._walk_verdict`), so an impure shape may be answered long
before its covering cells are all listed.  Both are called with the nominal
`max_tuples` profile bound lifted (UNBOUNDED), so the clock alone decides.
At the default bound of 10^7 both refuse, with ScaleLimitExceeded, every
shape whose (2^n - 1)^m exceeds it: (5,5), (6,4), (7,4), (8,3) and up.

Beside each polytope's time goes its star count: the `cells._star` calls
(one star step per argmin mask the walk tries) of one more, untimed run of
the route on it, counted by wrapping `cells._star` here.  A count is
deterministic, and every polytope timed has one, so the column does not
depend on which polytope happened to be slowest.  Between two FRONTIER
files a changed count is changed work, and a time that moves without it is
per-step speed or machine noise.

A pure block follows the random rows, which it leaves unchanged: for
each n from 4 to MAX_N, from a fresh `random.Random(5)`, the column
spaces of five `oracles.random_idempotent(n, full_rank=True, spread=5)`
and then of five with `full_rank=False`.  Idempotent column spaces are
projective, hence pure, so the walk can stop at no impurity certificate;
the polytrope certificates of `cells._walk_verdict` answer them.  Each
gets the median time and the star count of `pure_dimension`, as above,
and a group stops at its first polytope over the limit.

Prints, per route, the frontier (for each n the largest m within the
limit), and the slowest pure polytope per n and rank kind; with --out the frontier and,
per shape, the median times in ms and the star counts, polytope by
polytope, go to a JSON file, with the pure block under "pure", the
Python version, CPU count and REPEATS.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from tropcheck import Polytope, cell_complex, cells, pure_dimension  # noqa: E402
from tropcheck.oracles import random_idempotent, random_vector  # noqa: E402

ROUTES = {"cell_complex": cell_complex, "pure_dimension": pure_dimension}
UNBOUNDED = 10**30  # the nominal profile bound would stop large shapes before the clock does
LIMIT_S = 1.0
REPEATS = 3
MAX_N = 8
MAX_M = 8


def star_count(route, gens) -> int:
    """The `cells._star` calls of one run of the route on a fresh polytope."""
    real = cells._star
    count = 0

    def counted(*args):
        nonlocal count
        count += 1
        return real(*args)

    cells._star = counted
    try:
        route(Polytope(gens), UNBOUNDED)
    finally:
        cells._star = real
    return count


def polytope_times(route, polytopes):
    """Median seconds and star count of each polytope, given by its
    generators, stopping at the first over the limit."""
    times = []
    stars = []
    for gens in polytopes:
        runs = []
        for _ in range(REPEATS):
            p = Polytope(gens)
            t0 = perf_counter()
            route(p, UNBOUNDED)
            runs.append(perf_counter() - t0)
        times.append(statistics.median(runs))
        stars.append(star_count(route, gens))
        if times[-1] >= LIMIT_S:
            break
    return times, stars


def shape_times(route, n: int, m: int):
    """`polytope_times` of the five random polytopes of one shape."""
    rng = random.Random(5)
    return polytope_times(route, [[random_vector(n, rng=rng, lo=-20, hi=20) for _ in range(m)] for _ in range(5)])


def pure_block() -> dict:
    """`pure_dimension` on the idempotent column spaces of the pure block,
    per n and rank kind: times in ms and star counts."""
    block = {}
    for n in range(4, MAX_N + 1):
        rng = random.Random(5)
        for kind, full_rank in (("full_rank", True), ("lower_rank", False)):
            spaces = [
                tuple(zip(*random_idempotent(n, rng=rng, full_rank=full_rank, spread=5).entries))
                for _ in range(5)
            ]
            times, stars = polytope_times(pure_dimension, spaces)
            block[f"{n},{kind}"] = {"times_ms": [round(t * 1e3, 1) for t in times], "stars": stars}
    return block


def frontier(route) -> dict:
    largest = {}
    times_ms = {}
    stars = {}
    for n in range(3, MAX_N + 1):
        for m in range(2, MAX_M + 1):
            times, stars[f"{n},{m}"] = shape_times(route, n, m)
            times_ms[f"{n},{m}"] = [round(t * 1e3, 1) for t in times]
            if max(times) >= LIMIT_S:
                break
            largest[n] = m
    return {"largest_m": largest, "times_ms": times_ms, "stars": stars}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    record = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "limit_s": LIMIT_S,
        "repeats": REPEATS,
        "routes": {},
    }
    for name, route in ROUTES.items():
        result = frontier(route)
        record["routes"][name] = result
        print(f"{name}: " + " ".join(f"({n},{m})" for n, m in result["largest_m"].items()), flush=True)
    record["pure"] = pure_block()
    print("pure slowest ms: " + " ".join(f"{key}:{max(row['times_ms'])}" for key, row in record["pure"].items()))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
