"""The result records are typed tuples: named fields in a fixed order,
read-only, hashable by value, with the README's repr."""

import re
from pathlib import Path

import pytest

from tropcheck import (
    CellComplex,
    EmbeddingReport,
    Face,
    Matrix,
    ProjectivityReport,
    RankReport,
    RegularityReport,
    cell_complex,
    column_space,
    is_projective,
    rank_report,
    regularity_witness,
)

README = Path(__file__).resolve().parent.parent / "README.md"

# The README's library-tour matrix.
E_ROWS = [[0, -3, -3], [0, 0, -3], [0, 0, 0]]

FIELDS = {
    Face: ("covector", "witness", "dim", "covering"),
    CellComplex: ("faces", "tropical_dim", "pure"),
    RegularityReport: ("regular", "witness"),
    ProjectivityReport: ("projective", "gendim", "dualdim", "reason", "idempotent", "embedding"),
    RankReport: ("row_gen_rank", "col_gen_rank", "tropical_rank", "all_equal"),
    EmbeddingReport: ("target_dim", "embedded", "row_selection"),
}


def _records():
    """One record of each kind, computed afresh from new inputs on each call."""
    e = Matrix(E_ROWS)
    complex_ = cell_complex(column_space(e))
    projectivity = is_projective(column_space(e))
    return {
        Face: complex_.faces[-1],
        CellComplex: complex_,
        RegularityReport: regularity_witness(e),
        ProjectivityReport: projectivity,
        RankReport: rank_report(e),
        EmbeddingReport: projectivity.embedding,
    }


@pytest.mark.parametrize("kind", list(FIELDS), ids=lambda kind: kind.__name__)
def test_fields_keep_their_order(kind):
    assert kind._fields == FIELDS[kind]
    record = _records()[kind]
    assert type(record) is kind
    assert tuple(record) == tuple(getattr(record, name) for name in FIELDS[kind])


@pytest.mark.parametrize("kind", list(FIELDS), ids=lambda kind: kind.__name__)
def test_records_are_read_only(kind):
    record = _records()[kind]
    for name in FIELDS[kind]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("kind", list(FIELDS), ids=lambda kind: kind.__name__)
def test_equal_records_hash_equal(kind):
    first, second = _records()[kind], _records()[kind]
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)


def test_rank_report_repr_is_the_readme_line():
    line = re.search(r"^rank_report\(E\)  # (.*)$", README.read_text(encoding="utf-8"), re.M)
    assert line is not None
    assert repr(rank_report(Matrix(E_ROWS))) == line.group(1)


def test_records_unpack_and_compare_as_tuples():
    ranks = rank_report(Matrix(E_ROWS))
    row, col, tropical, all_equal = ranks
    assert (row, col, tropical, all_equal) == (3, 3, 3, True)
    assert ranks == (3, 3, 3, True)
    assert ranks[2] == ranks.tropical_rank
    complex_ = _records()[CellComplex]
    assert complex_.covering_faces() == [f for f in complex_.faces if f.covering]
