"""JSON documents for matrices and polytopes.

Entries are JSON integers or exact strings "p/q"; "-inf" is accepted in
matrix documents only (polytope generators must be finite).  Parsing and
serialising round-trip bit-exactly; floats are rejected outright.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import MalformedDocument, OutputLimitExceeded
from .polytopes import Polytope
from .semiring import BOTTOM, Matrix, parse_entry


def entry_to_json(value):
    """An entry as a JSON integer, "p/q" or "-inf": the one place where
    results become output numerals.

    Raises OutputLimitExceeded when a numeral of the entry is longer than
    the interpreter's int/str conversion limit, which is left as it is.
    """
    if value is BOTTOM:
        return "-inf"
    try:
        text = str(value)
    except ValueError as exc:
        raise OutputLimitExceeded(str(exc)) from None
    return int(value) if value.denominator == 1 else text


def entry_from_json(value, *, allow_bottom: bool):
    if isinstance(value, bool):
        raise MalformedDocument("booleans are not entries")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            parsed = parse_entry(value)
        except ValueError as exc:
            raise MalformedDocument(str(exc)) from None
        if parsed is BOTTOM and not allow_bottom:
            raise MalformedDocument("-inf is not allowed here")
        return parsed
    raise MalformedDocument(f"entries are integers or strings, got {type(value).__name__}")


def matrix_to_document(a: Matrix) -> dict:
    return {
        "rows": a.rows,
        "cols": a.cols,
        "entries": [[entry_to_json(e) for e in row] for row in a.entries],
    }


def matrix_from_document(doc) -> Matrix:
    if not isinstance(doc, dict):
        raise MalformedDocument("a matrix document is a JSON object")
    try:
        rows = doc["rows"]
        cols = doc["cols"]
        entries = doc["entries"]
    except KeyError as exc:
        raise MalformedDocument(f"missing field {exc.args[0]!r}") from None
    if not isinstance(rows, int) or not isinstance(cols, int) or isinstance(rows, bool) or isinstance(cols, bool):
        raise MalformedDocument("rows and cols must be integers")
    if not isinstance(entries, list) or len(entries) != rows:
        raise MalformedDocument(f"expected {rows} rows of entries")
    parsed = []
    for row in entries:
        if not isinstance(row, list) or len(row) != cols:
            raise MalformedDocument(f"every row must list {cols} entries")
        parsed.append(tuple(entry_from_json(e, allow_bottom=True) for e in row))
    if rows < 1 or cols < 1:
        raise MalformedDocument("matrices need at least one row and one column")
    return Matrix._raw(tuple(parsed))


def polytope_from_document(doc) -> Polytope:
    if not isinstance(doc, dict):
        raise MalformedDocument("a polytope document is a JSON object")
    try:
        ambient = doc["ambient"]
        generators = doc["generators"]
    except KeyError as exc:
        raise MalformedDocument(f"missing field {exc.args[0]!r}") from None
    if not isinstance(ambient, int) or isinstance(ambient, bool) or ambient < 1:
        raise MalformedDocument("ambient must be a positive integer")
    if not isinstance(generators, list) or not generators:
        raise MalformedDocument("generators must be a non-empty list")
    parsed = []
    for g in generators:
        if not isinstance(g, list) or len(g) != ambient:
            raise MalformedDocument(f"every generator must list {ambient} entries")
        parsed.append(tuple(entry_from_json(e, allow_bottom=False) for e in g))
    return Polytope(parsed)
