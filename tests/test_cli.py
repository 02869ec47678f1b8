import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcheck import BOTTOM, Matrix, cell_complex, column_space, is_projective, row_space
from tropcheck import cells as cells_module
from tropcheck import cli as cli_module
from tropcheck.cli import SUITE_NAMES, main
from tropcheck.documents import (
    MalformedDocument,
    matrix_from_document,
    matrix_to_document,
    polytope_from_document,
)
from tropcheck.oracles import SUITES, random_polytope

from support import polytope_to_document


def write_doc(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run_json(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main([*argv, "--format", "json", "--output", str(out)])
    return code, (json.loads(out.read_text()) if code == 0 else None)


@pytest.fixture
def golden_doc(tmp_path, golden_idempotent):
    return write_doc(tmp_path, "golden.json", matrix_to_document(golden_idempotent))


# -- documents


def test_matrix_document_round_trip():
    m = Matrix([[0, "1/2", BOTTOM], ["-7/3", 4, 0]])
    doc = matrix_to_document(m)
    assert doc["entries"][0][1] == "1/2"
    assert doc["entries"][0][2] == "-inf"
    assert doc["entries"][1][1] == 4
    assert matrix_from_document(json.loads(json.dumps(doc))) == m


def test_polytope_document_round_trip():
    p = random_polytope(3, 4, seed=60, max_den=4)
    doc = polytope_to_document(p)
    assert polytope_from_document(json.loads(json.dumps(doc))) == p


@pytest.mark.parametrize(
    "doc",
    [
        {"rows": 1, "cols": 1},
        {"rows": 1, "cols": 2, "entries": [[0]]},
        {"rows": 1, "cols": 1, "entries": [[0.5]]},
        {"rows": 1, "cols": 1, "entries": [[True]]},
        {"rows": 1, "cols": 1, "entries": [["1.5"]]},
        "not an object",
    ],
)
def test_malformed_matrix_documents(doc):
    with pytest.raises(MalformedDocument):
        matrix_from_document(doc)


def test_polytope_documents_must_be_finite():
    with pytest.raises(MalformedDocument):
        polytope_from_document({"ambient": 2, "generators": [["-inf", 0]]})


# -- analyze


def test_analyze_golden(tmp_path, golden_doc):
    code, payload = run_json(tmp_path, "analyze", "--input", golden_doc)
    assert code == 0
    assert payload["idempotent"] is True
    assert payload["regular"] is True
    assert payload["ranks"] == {"row": 3, "col": 3, "tropical": 3, "all_equal": True}
    assert payload["factor_rank_bounds"] == [3, 3]
    assert payload["row_space"] == {"generator_dimension": 3, "dual_dimension": 3}


def test_analyze_non_square_without_flag(tmp_path):
    doc = write_doc(tmp_path, "wide.json", matrix_to_document(Matrix([[0, 1, 2], [0, 0, 0]])))
    code, payload = run_json(tmp_path, "analyze", "--input", doc)
    assert code == 0
    assert payload["idempotent"] is None
    assert payload["regular"] is None
    assert payload["ranks"]["row"] <= 2


def test_analyze_non_square_with_regularity_flag(tmp_path):
    doc = write_doc(tmp_path, "wide.json", matrix_to_document(Matrix([[0, 1, 2], [0, 0, 0]])))
    assert main(["analyze", "--input", doc, "--regularity"]) == 3


def test_analyze_matrix_with_bottom(tmp_path):
    doc = write_doc(
        tmp_path, "bot.json", {"rows": 2, "cols": 2, "entries": [[0, "-inf"], [0, 0]]}
    )
    code, payload = run_json(tmp_path, "analyze", "--input", doc)
    assert code == 0
    assert payload["idempotent"] is True  # idempotency is decided over T
    assert payload["regular"] is None  # regularity needs finite entries
    assert payload["ranks"] is None


def test_analyze_malformed_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["analyze", "--input", str(bad)]) == 2
    missing = write_doc(tmp_path, "missing.json", {"rows": 1})
    assert main(["analyze", "--input", missing]) == 2


_UNBOUNDED = 10**30


@st.composite
def _rectangular_matrices(draw):
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entry = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3)))
    return Matrix([[draw(entry) for _ in range(m)] for _ in range(n)])


@settings(max_examples=100, deadline=None)
@given(_rectangular_matrices())
def test_analyze_space_dimensions_match_the_spaces(a):
    # analyze reads both spaces' dimensions off the two generator ranks and
    # the tropical rank off the verdict walk; the spaces and their full
    # cell complex are the oracle
    with tempfile.TemporaryDirectory() as tmp:
        source, out = Path(tmp) / "a.json", Path(tmp) / "out.json"
        source.write_text(json.dumps(matrix_to_document(a)), encoding="utf-8")
        argv = ["analyze", "--format", "json", "--max-tuples", str(_UNBOUNDED)]
        assert main([*argv, "--input", str(source), "--output", str(out)]) == 0
        payload = json.loads(out.read_text())
    rows, cols = row_space(a), column_space(a)
    for key, space in (("row_space", rows), ("column_space", cols)):
        assert payload[key] == {
            "generator_dimension": space.generator_dimension(),
            "dual_dimension": space.dual_dimension(),
        }
    assert payload["ranks"]["tropical"] == cell_complex(rows, _UNBOUNDED).tropical_dim


def test_unusable_paths_exit_two(tmp_path, capsys):
    doc = write_doc(tmp_path, "p.json", {"ambient": 2, "generators": [[0, -1]]})
    for argv, what in (
        (["polytope", "--input", str(tmp_path / "missing.json")], "cannot read --input"),
        (["polytope", "--input", str(tmp_path)], "cannot read --input"),
        (["polytope", "--input", doc, "--output", str(tmp_path / "no" / "x")], "cannot write --output"),
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"tropcheck: {what}: ")
        assert err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_unwritable_stdout_exits_two(tmp_path, unbuffered):
    # a full device fails the write itself when stdout is unbuffered, and the
    # flush when it is buffered; either way one line, and no second failure
    # at interpreter exit
    doc = write_doc(tmp_path, "p.json", {"ambient": 2, "generators": [[0, -1]]})
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "tropcheck.cli", "polytope", "--input", doc],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
        )
    assert proc.returncode == 2
    assert proc.stderr.startswith("tropcheck: cannot write output: [Errno 28] ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.skipif(
    not (os.path.exists("/dev/full") and os.path.isdir("/proc/self/fd")),
    reason="needs /dev/full and /proc/self/fd",
)
def test_unwritable_stdout_in_process_leaves_no_descriptor_open(tmp_path, capsys, monkeypatch):
    doc = write_doc(tmp_path, "p.json", {"ambient": 2, "generators": [[0, -1]]})
    with open("/dev/full", "w") as full:
        monkeypatch.setattr(sys, "stdout", full)
        before = len(os.listdir("/proc/self/fd"))
        code = main(["polytope", "--input", doc])
        after = len(os.listdir("/proc/self/fd"))
        full.write("more")
        full.flush()  # the descriptor now writes to os.devnull
        monkeypatch.undo()
    assert code == 2
    assert after == before
    assert capsys.readouterr().err.startswith("tropcheck: cannot write output: [Errno 28] ")


def test_deeply_nested_json_exits_two(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    assert main(["polytope", "--input", str(deep)]) == 2
    assert capsys.readouterr().err == "tropcheck: malformed input: invalid JSON: nested too deeply\n"


def test_non_utf8_input_exits_two(tmp_path, capsys):
    raw = tmp_path / "raw.json"
    raw.write_bytes(b"\xff\xfe{}")
    assert main(["polytope", "--input", str(raw)]) == 2
    assert capsys.readouterr().err.startswith("tropcheck: malformed input: input is not UTF-8 text: ")


def test_non_ascii_digits_exit_two(tmp_path, capsys):
    # "\u0661\u0662" is 12 in Arabic-Indic digits; the scalar format is ASCII
    for entry in ("\u0661\u0662", "1/\u0662"):
        doc = write_doc(tmp_path, "p.json", {"ambient": 2, "generators": [[entry, 0]]})
        assert main(["polytope", "--input", doc]) == 2
        err = capsys.readouterr().err
        assert err.startswith("tropcheck: malformed input: not a scalar: ")
        assert err.count("\n") == 1


def test_json_integer_past_the_digit_limit_exits_two(tmp_path, capsys):
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        pytest.skip("this interpreter has no int/str digit limit")
    huge = tmp_path / "huge.json"
    huge.write_text('{"ambient": 2, "generators": [[' + "7" * (limit + 700) + ", 0]]}", encoding="utf-8")
    assert main(["polytope", "--input", str(huge)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("tropcheck: malformed input: invalid JSON: ")
    assert err.count("\n") == 1
    assert sys.get_int_max_str_digits() == limit  # the process-wide limit is left alone


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["analyze"], "matrix"),
        (["analyze", "--regularity"], "matrix"),
        (["analyze", "--format", "json"], "matrix"),
        (["faces"], "polytope"),
        (["faces", "--format", "json"], "polytope"),
    ],
)
def test_output_numeral_past_the_digit_limit_exits_six(tmp_path, capsys, argv, doc):
    # two legal entries whose denominators are each below the limit; the
    # regularity witness and the face witnesses sit over their product
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        pytest.skip("this interpreter has no int/str digit limit")
    a, b = "1/" + "7" * 2499 + "1", "1/" + "3" * 2499 + "1"
    payload = (
        {"rows": 2, "cols": 2, "entries": [[a, 0], [0, b]]}
        if doc == "matrix"
        else {"ambient": 2, "generators": [[a, 0], [0, b]]}
    )
    out = tmp_path / "out.txt"
    code = main([*argv, "--input", write_doc(tmp_path, "big.json", payload), "--output", str(out)])
    assert code == 6
    err = capsys.readouterr().err
    assert err.startswith("tropcheck: output numeral too long: Exceeds the limit ")
    assert err.count("\n") == 1
    assert not out.exists()
    assert sys.get_int_max_str_digits() == limit


# -- polytope


def test_polytope_command_on_golden_columns(tmp_path, golden_idempotent):
    doc = write_doc(
        tmp_path, "cols.json", polytope_to_document(column_space(golden_idempotent))
    )
    code, payload = run_json(tmp_path, "polytope", "--input", doc)
    assert code == 0
    assert payload["gendim"] == 3
    assert payload["dualdim"] == 3
    assert payload["tropical_dim"] == 3
    assert payload["pure"] is True
    assert payload["min_plus_convex"] is True
    assert payload["projective"] is True
    assert Matrix(
        [[e for e in row] for row in payload["idempotent"]["entries"]]
    ) == golden_idempotent


def test_polytope_command_on_wide_fixture(tmp_path, wide_polytope):
    doc = write_doc(tmp_path, "wide.json", polytope_to_document(wide_polytope))
    code, payload = run_json(tmp_path, "polytope", "--input", doc)
    assert code == 0
    assert payload["gendim"] == 4
    assert payload["dualdim"] == 3
    assert payload["projective"] is False
    assert payload["reason"] == "dimension-mismatch"
    assert payload["idempotent"] is None


def test_plane_polytopes_are_projective(tmp_path):
    doc = write_doc(
        tmp_path, "plane.json", {"ambient": 2, "generators": [[0, 0], [0, -3]]}
    )
    code, payload = run_json(tmp_path, "polytope", "--input", doc)
    assert code == 0
    assert payload["projective"] is True


def test_scaled_bounds_past_two_to_the_62_get_an_answer(tmp_path):
    # the spike fixture scaled by 10^15: bounds far past any fixed-width
    # "no bound" marker get a verdict and the cells, not exit 5
    s = 10**15
    gens = [[0, 0, 0], [5 * s, -2 * s, 0], [5 * s, 5 * s, 0]]
    doc = write_doc(tmp_path, "big.json", {"ambient": 3, "generators": gens})
    code, payload = run_json(tmp_path, "polytope", "--input", doc)
    assert code == 0
    assert (payload["pure"], payload["tropical_dim"]) == (False, 3)
    code, _ = run_json(tmp_path, "faces", "--input", doc)
    assert code == 0


def test_polytope_scale_limit(tmp_path):
    doc = write_doc(tmp_path, "p.json", polytope_to_document(random_polytope(3, 3, seed=61)))
    assert main(["polytope", "--input", doc, "--max-tuples", "5"]) == 4


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_non_positive_max_tuples_exits_two(tmp_path, bound):
    doc = write_doc(tmp_path, "p.json", polytope_to_document(random_polytope(3, 3, seed=61)))
    with pytest.raises(SystemExit) as err:
        main(["polytope", "--input", doc, "--max-tuples", bound])
    assert err.value.code == 2


def test_cli_verdicts_match_library(tmp_path):
    for seed in range(62, 68):
        p = random_polytope(3, 3, seed=seed)
        doc = write_doc(tmp_path, f"p{seed}.json", polytope_to_document(p))
        code, payload = run_json(tmp_path, "polytope", "--input", doc)
        assert code == 0
        assert payload["projective"] == is_projective(p).projective
        assert payload["min_plus_convex"] == p.is_min_plus_convex()


# -- faces


def test_faces_command(tmp_path, golden_idempotent):
    space = column_space(golden_idempotent)
    doc = write_doc(tmp_path, "cols.json", polytope_to_document(space))
    code, payload = run_json(tmp_path, "faces", "--input", doc)
    assert code == 0
    report = cell_complex(space)
    assert len(payload) == len(report.faces)
    for entry, face in zip(payload, report.faces):
        assert entry["dim"] == face.dim
        assert entry["covering"] == face.covering
        assert [sorted(c) for c in face.covector] == entry["type"]


# -- plot


def test_plot_row_space_regression(tmp_path, golden_idempotent):
    doc = write_doc(tmp_path, "rows.json", polytope_to_document(row_space(golden_idempotent)))
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    assert main(["plot", "--input", doc, "--output", str(first)]) == 0
    assert main(["plot", "--input", doc, "--output", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    svg = first.read_text()
    dots = re.findall(r'<circle class="generator" cx="([-0-9.]+)" cy="([-0-9.]+)"', svg)
    assert len(dots) == 3
    coords = sorted((float(x), float(y)) for x, y in dots)
    ax, ay = coords[0]
    # projective marks (0,0), (3,0), (3,3) at 40 px per unit, y flipped
    assert coords == [(ax, ay), (ax + 120.0, ay - 120.0), (ax + 120.0, ay)]


def test_plot_needs_ambient_three(tmp_path):
    doc = write_doc(tmp_path, "p.json", {"ambient": 2, "generators": [[0, 0]]})
    assert main(["plot", "--input", doc, "--output", str(tmp_path / "x.svg")]) == 3


# -- oracle


def test_oracle_command(tmp_path):
    out = tmp_path / "suite.json"
    code = main(
        ["oracle", "top-cell", "--seed", "5", "--count", "10", "--output", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["suite"] == "top-cell"
    assert payload["instances"] == 10
    assert payload["failures"] == []


def test_oracle_command_writes_a_failing_instance(tmp_path, monkeypatch):
    monkeypatch.setattr("tropcheck.oracles.tropical_rank_oracle", lambda a: -1)
    out = tmp_path / "suite.json"
    code = main(
        ["oracle", "rank-equality", "--seed", "5", "--count", "2", "--n", "2", "--output", str(out)]
    )
    assert code == 0
    failures = json.loads(out.read_text())["failures"]
    assert len(failures) == 2
    for failure in failures:
        report = failure["report"]
        assert sorted(report) == ["all_equal", "col_gen_rank", "row_gen_rank", "tropical_rank"]
        assert failure["oracle"] == -1


def test_oracle_unknown_suite():
    with pytest.raises(SystemExit) as err:
        main(["oracle", "definitely-not-a-suite"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "flags",
    [["--n", "0"], ["--m", "0"], ["--count", "0"], ["--n", "-3"], ["--count", "-1"]],
)
def test_oracle_rejects_non_positive_sizes(flags):
    with pytest.raises(SystemExit) as err:
        main(["oracle", "top-cell", *flags])
    assert err.value.code == 2


def test_suite_names_match_the_oracles():
    assert SUITE_NAMES == tuple(sorted(SUITES))


# The oracles are needed by the oracle subcommand alone, and dataclasses (which
# imports inspect) by no module of the package; each would slow every process.
@pytest.mark.parametrize("module", ["tropcheck.oracles", "dataclasses"])
def test_importing_the_cli_leaves_the_oracles_unloaded(module):
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, tropcheck.cli; print({module!r} in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


# -- text rendering and the installed entry point


def test_text_format_mirrors_fields(tmp_path, golden_doc, capsys):
    code = main(["analyze", "--input", golden_doc, "--format", "text"])
    assert code == 0
    text = capsys.readouterr().out
    assert "idempotent: true" in text
    assert "regular: true" in text
    assert "tropical: 3" in text


POLYTOPE_TEXT = """\
ambient: 2
gendim: 2
dualdim: 2
tropical_dim: 2
pure: true
min_plus_convex: true
projective: true
reason: projective
idempotent:
  rows: 2
  cols: 2
  entries:
    - [0, -2]
    - [-1, 0]
"""

FACES_TEXT = """\
-
  type:
    - []
    - [0, 1]
  witness: [0, -4097/4096]
  dim: 2
  covering: false
-
  type:
    - [0, 1]
    - []
  witness: [-8193/4096, 0]
  dim: 2
  covering: false
-
  type:
    - [0, 1]
    - [0]
  witness: [-2, 0]
  dim: 1
  covering: true
-
  type:
    - [1]
    - [0]
  witness: [0, 0]
  dim: 2
  covering: true
-
  type:
    - [1]
    - [0, 1]
  witness: [0, -1]
  dim: 1
  covering: true
"""

ORACLE_TEXT = """\
suite: top-cell
instances: 3
failures: []
"""


def test_text_format_is_pinned(tmp_path, capsys):
    # nested dicts (polytope), lists of dicts holding empty lists (faces)
    # and an empty top-level list (oracle failures)
    doc = write_doc(tmp_path, "p.json", {"ambient": 2, "generators": [[0, -1], [-2, 0]]})
    for argv, expected in (
        (["polytope", "--input", doc], POLYTOPE_TEXT),
        (["faces", "--input", doc], FACES_TEXT),
        (["oracle", "top-cell", "--count", "3", "--format", "text"], ORACLE_TEXT),
    ):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


def test_internal_check_failure_exits_five(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("cell witness failed to realise its own profile")

    # `polytope` reads the covering cells, `faces` the full complex
    monkeypatch.setattr("tropcheck.cli.pure_dimension", broken)
    monkeypatch.setattr("tropcheck.cli.cell_complex", broken)
    doc = write_doc(tmp_path, "p.json", {"ambient": 2, "generators": [[0, -1], [-2, 0]]})
    for command in ("polytope", "faces"):
        assert main([command, "--input", doc]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tropcheck: internal check failed: cell witness failed")
        assert "input document" in captured.err


def _assert_internal_failure(capsys, argv, message):
    assert main(argv) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"tropcheck: internal check failed: {message}")
    assert "input document" in captured.err


def test_theorem_violations_exit_five(tmp_path, capsys, monkeypatch):
    # a projective plane polytope at full dimension: one route made to
    # contradict the others trips the theorem check before any output
    doc = write_doc(tmp_path, "p.json", {"ambient": 2, "generators": [[0, -1], [-2, 0]]})
    with monkeypatch.context() as patch:
        patch.setattr("tropcheck.cli.pure_dimension", lambda p, bound: (False, 2))
        _assert_internal_failure(capsys, ["polytope", "--input", doc], "projectivity disagrees with pure")
    with monkeypatch.context() as patch:
        patch.setattr("tropcheck.cli.pure_dimension", lambda p, bound: (True, 1))
        _assert_internal_failure(capsys, ["polytope", "--input", doc], "projectivity disagrees with pure")
    with monkeypatch.context() as patch:
        patch.setattr("tropcheck.polytopes.Polytope.is_min_plus_convex", lambda p: False)
        _assert_internal_failure(capsys, ["polytope", "--input", doc], "projectivity disagrees with min-plus")
    assert main(["polytope", "--input", doc]) == 0
    assert capsys.readouterr().out == POLYTOPE_TEXT


def test_regular_matrix_with_unequal_ranks_exits_five(tmp_path, golden_doc, capsys, monkeypatch):
    real = cli_module.rank_report

    def skewed(a, max_tuples):
        return real(a, max_tuples)._replace(all_equal=False)

    monkeypatch.setattr("tropcheck.cli.rank_report", skewed)
    _assert_internal_failure(capsys, ["analyze", "--input", golden_doc], "a regular matrix has unequal ranks")


def test_a_rank_one_short_exits_five(tmp_path, capsys, monkeypatch):
    # the pure plane polytope meets a leaf of dimension 2 above a rank of 1
    real = cells_module._tropical_rank
    monkeypatch.setattr(cells_module, "_tropical_rank", lambda rows: real(rows) - 1)
    doc = write_doc(tmp_path, "p.json", {"ambient": 2, "generators": [[0, -1], [-2, 0]]})
    _assert_internal_failure(capsys, ["polytope", "--input", doc], "a covering cell is of higher dimension")


def test_module_entry_point(tmp_path, golden_doc):
    proc = subprocess.run(
        [sys.executable, "-m", "tropcheck.cli", "analyze", "--input", golden_doc, "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["idempotent"] is True


# -- mutated documents for every subcommand that reads one
#
# The oracle subcommand reads no document.  Every mutation must exit 0 or with
# one line for a documented refusal; exit 5, an internal check failing, is a
# bug at any magnitude.

_BASE_DOCS = {
    "matrix": {"rows": 3, "cols": 3, "entries": [[0, -1, "1/2"], [-2, 0, 3], [1, "-inf", 0]]},
    "polytope": {"ambient": 3, "generators": [[0, -1, "1/2"], [-2, 0, 3], [1, 1, 0]]},
}
_COMMANDS = (
    (("analyze",), "matrix"),
    (("analyze", "--regularity"), "matrix"),
    (("polytope",), "polytope"),
    (("faces",), "polytope"),
    (("plot",), "polytope"),
)
_RAW = "@raw{}@"  # a placeholder for a JSON integer json.dumps cannot write


def _huge(digits):
    return st.one_of(
        st.just(_RAW.format(digits)),
        st.just("-" + "7" * digits),
        st.just("1/" + "3" * digits),
        st.just("9" * digits + "/7"),
    )


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**6), 10**6),
    st.builds(list),
    st.builds(dict),
    st.sampled_from(["-inf", "inf", "+inf", "nan", "", " 1", "1/0", "0/1", "-0", "1e3", "0x10"]),
    st.sampled_from(["\u0661\u0662", "1/\u0663", "\uff11", "\u00bd", "\u00b2", "\u0967"]),
    st.integers(20, 6000).flatmap(_huge),
)


@st.composite
def _mutated(draw, kind):
    """The base document of `kind` under one to three mutations: wrong
    types, ragged rows, huge and non-ASCII numerals, misplaced -inf and
    extra keys, as JSON text."""
    doc = json.loads(json.dumps(_BASE_DOCS[kind]))
    rows_key = "entries" if kind == "matrix" else "generators"
    for _ in range(draw(st.integers(1, 3))):
        if not isinstance(doc, dict):
            break
        rows = doc.get(rows_key)
        grid = isinstance(rows, list) and rows and all(isinstance(r, list) for r in rows)
        how = draw(st.sampled_from(["entry", "field", "drop", "extra", "ragged", "row", "whole"]))
        if how == "entry" and grid and all(rows):
            row = draw(st.sampled_from(rows))
            row[draw(st.integers(0, len(row) - 1))] = draw(_SCALARS)
        elif how == "field" and doc:
            doc[draw(st.sampled_from(sorted(doc)))] = draw(_SCALARS | st.builds(lambda: [[0, 0, 0]]))
        elif how == "drop" and doc:
            del doc[draw(st.sampled_from(sorted(doc)))]
        elif how == "extra":
            doc[draw(st.sampled_from(["extra", "ambient", "rows", "cols", ""]))] = draw(_SCALARS)
        elif how == "ragged" and grid:
            row = draw(st.sampled_from(rows))
            if row and draw(st.booleans()):
                row.pop()
            else:
                row.append(draw(_SCALARS))
        elif how == "row" and isinstance(rows, list) and rows:
            if draw(st.booleans()):
                rows.pop()
            else:
                rows.append(list(rows[0]) if isinstance(rows[0], list) else rows[0])
        elif how == "whole":
            doc = draw(_SCALARS | st.just(list(doc.values())))
    text = json.dumps(doc, ensure_ascii=draw(st.booleans()))
    text = re.sub(r'"@raw(\d+)@"', lambda match: "9" * int(match.group(1)), text)
    return text


@st.composite
def _cases(draw):
    argv, kind = draw(st.sampled_from(_COMMANDS))
    return list(argv), draw(_mutated(kind))


@settings(max_examples=200, deadline=None)
@given(_cases())
def test_mutated_documents_exit_with_a_documented_code(case):
    argv, text = case
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "doc.json"
        source.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with redirect_stderr(err):
            code = main([*argv, "--input", str(source), "--output", str(Path(tmp) / "out")])
    err = err.getvalue()
    if code == 0:
        assert err == ""
        return
    assert code in (2, 3, 4, 6)
    assert err.startswith("tropcheck: ") and err.endswith("\n") and err.count("\n") == 1
