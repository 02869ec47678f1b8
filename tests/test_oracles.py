import hashlib
import random

import pytest

from tropcheck import (
    Matrix,
    Polytope,
    ScaleLimitExceeded,
    cell_complex,
    column_space,
    is_idempotent,
    rank_report,
    tropical_dimension,
    row_space,
    vec_min,
)
from tropcheck import oracles
from tropcheck.oracles import (
    random_matrix,
    SUITES,
    minplus_sampling_refuter,
    polytope_corpus,
    random_idempotent,
    regular_corpus,
    run_suite,
    tropical_rank_oracle,
)

from support import exhaustive_matrices, idempotent_corpus


def test_exhaustive_matrix_count():
    mats = list(exhaustive_matrices(2, [-2, -1, 0, 1, 2]))
    assert len(mats) == 625
    assert len(set(mats)) == 625


def test_corpora_are_reproducible():
    a = polytope_corpus(99, 20)
    b = polytope_corpus(99, 20)
    assert a == b
    c = idempotent_corpus(7, 10)
    d = idempotent_corpus(7, 10)
    assert c == d
    assert regular_corpus(8, 10) == regular_corpus(8, 10)
    assert polytope_corpus(98, 20) != a


# sha256 of repr(polytope_corpus(99, 20)) and repr(regular_corpus(8, 10)),
# as first computed when the corpora were wrapped in a Corpus: the suites
# draw these streams, so they must not move
PINNED_CORPORA = (
    "267b9a9f040ca5df315479288fdfd43c8acb5661af557b3d295908b8b09924c0",
    "c8fcf87783f2061f3a59cc7dd6d614d2f12eb5de3b1b7442a70ae44e7e193f11",
)


def test_corpus_streams_are_pinned():
    digests = tuple(
        hashlib.sha256(repr(corpus).encode()).hexdigest()
        for corpus in (polytope_corpus(99, 20), regular_corpus(8, 10))
    )
    assert digests == PINNED_CORPORA
    # a corpus drawn from a random.Random is the one drawn from its seed
    assert polytope_corpus(random.Random(99), 20) == polytope_corpus(99, 20)


def test_random_idempotents_are_idempotent():
    rng = random.Random(50)
    for _ in range(50):
        n = rng.randint(1, 5)
        e = random_idempotent(n, rng=rng)
        assert is_idempotent(e)
        full = random_idempotent(n, rng=rng, full_rank=True)
        assert is_idempotent(full)
        assert column_space(full).generator_dimension() == n


def test_regular_corpus_members_are_regular():
    from tropcheck import regularity_witness

    corpus = regular_corpus(5, 30)
    assert all(regularity_witness(a).regular for a in corpus)


def test_rank_oracle_cases(golden_idempotent):
    assert tropical_rank_oracle(golden_idempotent) == 3
    assert tropical_rank_oracle(Matrix([[0, 0, 0]] * 3)) == 1
    assert tropical_rank_oracle(Matrix([[0, -1], [-1, 0]])) == 2
    with pytest.raises(ScaleLimitExceeded):
        tropical_rank_oracle(Matrix([[0] * 6] * 6))


def test_rank_oracle_agrees_with_cells():
    rng = random.Random(51)
    for _ in range(60):
        a = random_matrix(rng.randint(1, 4), rng.randint(1, 4), rng=rng)
        cells = cell_complex(row_space(a)).tropical_dim
        assert tropical_rank_oracle(a) == tropical_dimension(row_space(a)) == cells


def test_refuter_on_known_spaces(golden_idempotent, spike_polytope):
    assert minplus_sampling_refuter(column_space(golden_idempotent), 10**4, seed=1) is None
    pair = minplus_sampling_refuter(spike_polytope, 5000, seed=2)
    assert pair is not None
    x, y = pair
    assert x in spike_polytope and y in spike_polytope
    assert vec_min(x, y) not in spike_polytope
    assert minplus_sampling_refuter(Polytope([(0, -3, 1)]), 500, seed=3) is None


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_passes_at_small_scale(name):
    summary = run_suite(name, seed=123, count=25, n=4, m=4)
    assert summary["suite"] == name
    assert summary["instances"] >= 25
    assert summary["failures"] == []


def test_rank_equality_reports_a_disagreement_field_by_field(monkeypatch):
    monkeypatch.setattr(oracles, "tropical_rank_oracle", lambda a: -1)
    summary = run_suite("rank-equality", seed=8, count=6, n=3)
    corpus = regular_corpus(8, 6, max_n=3)
    assert len(summary["failures"]) == len(corpus)
    for a, failure in zip(corpus, summary["failures"]):
        report = rank_report(a)
        assert failure["oracle"] == -1
        assert failure["report"] == {
            "row_gen_rank": report.row_gen_rank,
            "col_gen_rank": report.col_gen_rank,
            "tropical_rank": report.tropical_rank,
            "all_equal": report.all_equal,
        }
        assert list(failure["report"]) == ["row_gen_rank", "col_gen_rank", "tropical_rank", "all_equal"]


def test_projectivity_geometry_checks_the_verdict_against_the_cells(monkeypatch):
    # a verdict that keeps algebraic and geometric projectivity agreeing on
    # the non-projective instances is still caught by the full complex
    monkeypatch.setattr(oracles, "pure_dimension", lambda p: (False, -1))
    summary = run_suite("projectivity-geometry", seed=9, count=8, n=3, m=3)
    corpus = polytope_corpus(9, 8, max_n=3, max_m=3)
    assert len(summary["failures"]) == len(corpus)
    for p, failure in zip(corpus, summary["failures"]):
        full = cell_complex(p)
        assert failure["geometric"] is False
        assert failure["cells"] == {"pure": full.pure, "tropical_dim": full.tropical_dim}


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("nope")
