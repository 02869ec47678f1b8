"""Corpora and documents that only the tests build."""

import itertools
import random
from fractions import Fraction

from tropcheck import Matrix, Polytope
from tropcheck.documents import entry_to_json
from tropcheck.oracles import random_idempotent


def exhaustive_matrices(n: int, entry_set):
    """Every n x n matrix with entries drawn from the finite entry_set."""
    values = [Fraction(v) for v in entry_set]
    for combo in itertools.product(values, repeat=n * n):
        yield Matrix._raw(tuple(combo[i * n : (i + 1) * n] for i in range(n)))


def idempotent_corpus(seed: int, count: int, max_n=4, lo=-5, full_rank=False) -> tuple:
    rng = random.Random(seed)
    return tuple(
        random_idempotent(rng.randint(1, max_n), rng=rng, lo=lo, full_rank=full_rank)
        for _ in range(count)
    )


def polytope_to_document(p: Polytope) -> dict:
    return {
        "ambient": p.ambient,
        "generators": [[entry_to_json(e) for e in g] for g in p.generators],
    }
