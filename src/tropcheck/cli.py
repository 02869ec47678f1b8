"""The tropcheck command line tool.

Subcommands: analyze | polytope | faces | plot | oracle.  Exit codes are
operational only: 0 whatever the mathematical verdicts, 2 for malformed
input or arguments (including an --input path that cannot be read, an
--output path or a standard output that cannot be written, such as
/dev/full, input that is not UTF-8, JSON nested too deeply to parse, a JSON
integer past the interpreter's int/str digit limit, a numeral with
non-ASCII digits and a non-positive --max-tuples), 3 for an operation the
input shape does not support, 4 when an enumeration bound is exceeded, 5
when an internal consistency check fails (a defect in tropcheck; the
message asks for the input document), 6 when a result holds a numeral
longer than the interpreter's int/str digit limit, which tropcheck does not
raise (`documents.entry_to_json` turns every result entry into an output
numeral and reports it).
Verdicts live in the payload; --format picks JSON or a line-per-field text
rendering of the same data.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algebra import (
    infimum_matrix,
    is_idempotent,
    is_projective,
    rank_report,
    regularity_witness,
    same_span,
)
from .cells import DEFAULT_MAX_TUPLES, cell_complex, pure_dimension
from .documents import (
    entry_to_json,
    matrix_from_document,
    matrix_to_document,
    polytope_from_document,
)
from .errors import (
    DimensionMismatch,
    EmptyPolytope,
    MalformedDocument,
    NonFiniteEntries,
    NotFullRank,
    NotIdempotent,
    NotSquare,
    OutputLimitExceeded,
    ScaleLimitExceeded,
)
from .polytopes import column_space
from .svgplot import render_polytope_svg

EXIT_OK = 0
EXIT_MALFORMED = 2
EXIT_UNSUPPORTED = 3
EXIT_SCALE = 4
EXIT_INTERNAL = 5
EXIT_OUTPUT_LIMIT = 6

# sorted(oracles.SUITES), kept here so that building the parser does not
# import the oracles; only the oracle subcommand needs them
SUITE_NAMES = (
    "idempotent-column-space",
    "projectivity-geometry",
    "projectivity-order",
    "rank-equality",
    "rank-oracle",
    "singleton-descent",
    "top-cell",
)


class _UnusablePath(Exception):
    """An --input path that cannot be read, or an --output path or standard output
    that cannot be written."""


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _UnusablePath(f"cannot read --input: {exc}") from None


def _write_text(path: str, text: str) -> None:
    if path == "-":
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # as in the Python docs' note on SIGPIPE: point stdout at devnull,
            # so that the flush at interpreter exit cannot fail a second time
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise _UnusablePath(f"cannot write output: {exc}") from None
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise _UnusablePath(f"cannot write --output: {exc}") from None


def _load_json(path: str):
    try:
        text = _read_text(path)
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"input is not UTF-8 text: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise MalformedDocument("invalid JSON: nested too deeply") from None
    except ValueError as exc:  # an integer beyond the interpreter's int/str digit limit
        raise MalformedDocument(f"invalid JSON: {exc}") from None


def _is_scalar_list(value) -> bool:
    return isinstance(value, list) and all(not isinstance(v, (dict, list)) for v in value)


def _render_text(data, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(data, dict):
        items = [(f"{key}:", value) for key, value in data.items()]
    elif isinstance(data, list):
        items = [("-", value) for value in data]
    else:
        return f"{pad}{_render_scalar(data)}"
    lines = []
    for label, value in items:
        if isinstance(value, (dict, list)) and value and not _is_scalar_list(value):
            lines.append(f"{pad}{label}")
            lines.append(_render_text(value, indent + 1))
        else:
            lines.append(f"{pad}{label} {_render_scalar(value)}")
    return "\n".join(lines)


def _render_scalar(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, list):
        return "[" + ", ".join(_render_scalar(v) for v in value) + "]"
    if isinstance(value, dict) and not value:
        return "{}"
    return str(value)


def _emit(args, payload) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = _render_text(payload) + "\n"
    _write_text(args.output, text)


def _cmd_analyze(args) -> int:
    matrix = matrix_from_document(_load_json(args.input))
    square = matrix.is_square
    finite = matrix.is_finite
    if args.regularity and not square:
        raise NotSquare(f"regularity needs a square matrix, got {matrix.rows}x{matrix.cols}")
    if args.regularity and not finite:
        raise NonFiniteEntries("regularity needs a finite matrix")
    payload = {
        "rows": matrix.rows,
        "cols": matrix.cols,
        "idempotent": is_idempotent(matrix) if square else None,
        "regular": None,
        "witness": None,
        "ranks": None,
        "factor_rank_bounds": None,
        "row_space": None,
        "column_space": None,
    }
    if square and finite:
        report = regularity_witness(matrix)
        payload["regular"] = report.regular
        payload["witness"] = matrix_to_document(report.witness) if report.witness else None
    if finite:
        ranks = rank_report(matrix, max_tuples=args.max_tuples)
        payload["ranks"] = {
            "row": ranks.row_gen_rank,
            "col": ranks.col_gen_rank,
            "tropical": ranks.tropical_rank,
            "all_equal": ranks.all_equal,
        }
        payload["factor_rank_bounds"] = [
            ranks.tropical_rank,
            min(ranks.row_gen_rank, ranks.col_gen_rank),
        ]
        # A space's dual dimension is the generator rank of the row space of
        # its scaled extremal generators: the other space, translated by the
        # scaling and projected injectively, since each dropped coordinate is
        # a max-combination of the kept ones.
        payload["row_space"] = {
            "generator_dimension": ranks.row_gen_rank,
            "dual_dimension": ranks.col_gen_rank,
        }
        payload["column_space"] = {
            "generator_dimension": ranks.col_gen_rank,
            "dual_dimension": ranks.row_gen_rank,
        }
        # the rank notions coincide for a regular matrix
        if payload["regular"] and not ranks.all_equal:
            raise AssertionError("a regular matrix has unequal ranks")
    _emit(args, payload)
    return EXIT_OK


def _check_theorem(polytope, payload) -> None:
    """The source paper's theorem on the `polytope` payload, by routes apart
    from the min-plus test behind `projective`: at full generator and dual
    dimension, iff the infimum matrix spans the polytope (`same_span`); and
    iff pure with all three dimensions equal (cells).  Violations are defects."""
    projective, gendim, dualdim = payload["projective"], payload["gendim"], payload["dualdim"]
    full = gendim == dualdim == payload["ambient"]
    if full and projective != same_span(column_space(infimum_matrix(polytope)), polytope):
        raise AssertionError("projectivity disagrees with min-plus convexity at full dimension")
    if projective != (payload["pure"] and payload["tropical_dim"] == gendim == dualdim):
        raise AssertionError("projectivity disagrees with pure dimension")


def _cmd_polytope(args) -> int:
    polytope = polytope_from_document(_load_json(args.input))
    report = is_projective(polytope)
    pure, dim = pure_dimension(polytope, args.max_tuples)
    payload = {
        "ambient": polytope.ambient,
        "gendim": report.gendim,
        "dualdim": report.dualdim,
        "tropical_dim": dim,
        "pure": pure,
        "min_plus_convex": polytope.is_min_plus_convex(),
        "projective": report.projective,
        "reason": report.reason,
        "idempotent": matrix_to_document(report.idempotent) if report.idempotent else None,
    }
    _check_theorem(polytope, payload)
    _emit(args, payload)
    return EXIT_OK


def _cmd_faces(args) -> int:
    polytope = polytope_from_document(_load_json(args.input))
    complex_ = cell_complex(polytope, args.max_tuples)
    payload = [
        {
            "type": [sorted(c) for c in face.covector],
            "witness": [entry_to_json(v) for v in face.witness],
            "dim": face.dim,
            "covering": face.covering,
        }
        for face in complex_.faces
    ]
    _emit(args, payload)
    return EXIT_OK


def _cmd_plot(args) -> int:
    polytope = polytope_from_document(_load_json(args.input))
    svg = render_polytope_svg(polytope, max_tuples=args.max_tuples)
    _write_text(args.output, svg)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    from .oracles import run_suite

    summary = run_suite(args.suite, seed=args.seed, count=args.count, n=args.n, m=args.m)
    _emit(args, summary)
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropcheck",
        description="exact max-plus checks: idempotency, regularity, dimensions, projectivity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def io_flags(p):
        p.add_argument("--input", "-i", default="-", help="input JSON document (default stdin)")
        p.add_argument("--output", "-o", default="-", help="output path (default stdout)")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument(
            "--max-tuples",
            type=_positive_int,
            default=DEFAULT_MAX_TUPLES,
            help="bound on enumerated argmin profiles",
        )

    analyze = sub.add_parser("analyze", help="analyze a matrix document")
    io_flags(analyze)
    analyze.add_argument(
        "--regularity",
        action="store_true",
        help="insist on the regularity check (fails on non-square or non-finite input)",
    )
    analyze.set_defaults(func=_cmd_analyze)

    polytope = sub.add_parser("polytope", help="dimensions, convexity and projectivity of a polytope")
    io_flags(polytope)
    polytope.set_defaults(func=_cmd_polytope)

    faces = sub.add_parser("faces", help="enumerate the covector cells of a polytope")
    io_flags(faces)
    faces.set_defaults(func=_cmd_faces)

    plot = sub.add_parser("plot", help="deterministic SVG plot of a polytope in FT^3")
    io_flags(plot)
    plot.set_defaults(func=_cmd_plot)

    oracle = sub.add_parser("oracle", help="run a named cross-validation suite")
    oracle.add_argument("suite", choices=SUITE_NAMES)
    oracle.add_argument("--output", "-o", default="-")
    oracle.add_argument("--format", choices=("json", "text"), default="json")
    oracle.add_argument("--seed", type=int, default=0)
    oracle.add_argument("--count", type=_positive_int, default=100)
    oracle.add_argument("--n", type=_positive_int, default=4)
    oracle.add_argument("--m", type=_positive_int, default=4)
    oracle.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MalformedDocument as exc:
        print(f"tropcheck: malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except _UnusablePath as exc:
        print(f"tropcheck: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except ScaleLimitExceeded as exc:
        print(f"tropcheck: scale limit exceeded: {exc}", file=sys.stderr)
        return EXIT_SCALE
    except OutputLimitExceeded as exc:
        print(f"tropcheck: output numeral too long: {exc}", file=sys.stderr)
        return EXIT_OUTPUT_LIMIT
    except (
        DimensionMismatch,
        EmptyPolytope,
        NonFiniteEntries,
        NotFullRank,
        NotIdempotent,
        NotSquare,
    ) as exc:
        print(f"tropcheck: unsupported for this input shape: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except AssertionError as exc:
        print(
            f"tropcheck: internal check failed: {exc}; please report it with the input document",
            file=sys.stderr,
        )
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
