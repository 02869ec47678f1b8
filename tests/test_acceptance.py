"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
come.  Every check is exact rational arithmetic; every random corpus is
seeded and reproducible; runtime budgets are asserted where stated.
"""

import json
import re
import time

from tropcheck import (
    Matrix,
    column_space,
    is_idempotent,
    is_projective,
    rank_report,
    recover_idempotent,
    regularity_witness,
    row_space,
)
from tropcheck.cli import main
from tropcheck.oracles import (
    suite_idempotent_column_space,
    suite_projectivity_geometry,
    suite_projectivity_order,
    suite_rank_equality,
    suite_singleton_descent,
    suite_top_cell,
)

from support import exhaustive_matrices, polytope_to_document

GOLDEN = Matrix([[0, -3, -3], [0, 0, -3], [0, 0, 0]])


def _report(name: str, started: float, budget: float | None) -> None:
    elapsed = time.perf_counter() - started
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_golden_idempotent_fixture():
    started = time.perf_counter()
    assert is_idempotent(GOLDEN)
    assert regularity_witness(GOLDEN).regular
    ranks = rank_report(GOLDEN)
    assert (ranks.row_gen_rank, ranks.col_gen_rank, ranks.tropical_rank) == (3, 3, 3)
    assert ranks.all_equal
    verdict = is_projective(column_space(GOLDEN))
    assert verdict.projective
    assert verdict.idempotent == GOLDEN
    assert recover_idempotent(column_space(GOLDEN)) == GOLDEN
    _report("golden idempotent fixture", started, budget=1.0)


def test_criterion_2_exhaustive_2x2_regularity():
    started = time.perf_counter()
    checked = 0
    for a in exhaustive_matrices(2, [-2, -1, 0, 1, 2]):
        assert regularity_witness(a).regular, a
        assert is_projective(column_space(a)).projective, a
        checked += 1
    assert checked == 625
    _report("exhaustive 2x2 regularity", started, budget=5.0)


def test_criterion_3_projectivity_triangulation():
    started = time.perf_counter()
    summary = suite_projectivity_geometry(seed=1001, count=1000, n=4, m=4)
    assert summary["instances"] == 1000
    assert summary["failures"] == []
    _report("projectivity triangulation (algebraic vs geometric)", started, budget=60.0)


def test_criterion_4_order_equivalence():
    started = time.perf_counter()
    summary = suite_projectivity_order(seed=1002, count=300, n=4, refute_samples=200)
    assert summary["instances"] == 300
    assert summary["failures"] == []
    _report("projectivity vs min-plus convexity", started, budget=60.0)


def test_criterion_5_rank_equality_on_regulars():
    started = time.perf_counter()
    summary = suite_rank_equality(seed=1003, count=200, n=4)
    assert summary["instances"] == 200
    assert summary["failures"] == []
    _report("rank equality on regular matrices", started, budget=60.0)


def test_criterion_6_idempotent_column_space_properties():
    started = time.perf_counter()
    summary = suite_idempotent_column_space(seed=1004, count=200, n=4, dominate_samples=100)
    assert summary["instances"] == 200
    assert summary["failures"] == []
    _report("idempotent column-space properties", started, budget=60.0)


def test_criterion_7_singleton_descent():
    started = time.perf_counter()
    summary = suite_singleton_descent(seed=1005, count=500, n=4)
    assert summary["instances"] == 500
    assert summary["failures"] == []
    _report("descent to singleton covectors", started, budget=30.0)


def test_criterion_8_top_cell_uniqueness():
    started = time.perf_counter()
    summary = suite_top_cell(seed=1006, count=300, n=4)
    assert summary["instances"] == 300
    assert summary["failures"] == []
    _report("top-cell uniqueness", started, budget=None)


def test_criterion_9_plot_regression(tmp_path):
    started = time.perf_counter()
    doc = tmp_path / "rows.json"
    doc.write_text(json.dumps(polytope_to_document(row_space(GOLDEN))), encoding="utf-8")
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    assert main(["plot", "--input", str(doc), "--output", str(first)]) == 0
    assert main(["plot", "--input", str(doc), "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    dots = re.findall(
        r'<circle class="generator" cx="([-0-9.]+)" cy="([-0-9.]+)"', first.read_text()
    )
    assert len(dots) == 3
    coords = sorted((float(x), float(y)) for x, y in dots)
    ox, oy = coords[0]  # the (0,0) mark
    unit = 40.0
    expected = sorted(
        [(ox, oy), (ox + 3 * unit, oy), (ox + 3 * unit, oy - 3 * unit)]
    )
    assert coords == expected
    _report("plot regression for the triangle row space", started, budget=None)
