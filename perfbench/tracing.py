"""Layer spans recorded from outside the program.

`Tracer.install` replaces the public entry points of each tropcheck layer
with timing wrappers.  A function is replaced at every module that bound it
by name (`algebra` imports `tropical_dimension` from `cells`, `cli` imports
`is_projective` from `algebra`, and so on); a method is replaced on its
class.  Wrappers record a span only while an operation is open, so set-up
and the benchmark's own checks stay untraced.

A span is (id, parent id, operation id, name, start, end, attribute).  Spans
stay in memory until the run ends; a layer's self time is its span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name).  A dotted attribute is a method.
TARGETS = (
    ("tropcheck.semiring", "Matrix.mul", "semiring.mul"),
    ("tropcheck.semiring", "left_residual", "semiring.residual"),
    ("tropcheck.semiring", "right_residual", "semiring.residual"),
    ("tropcheck.semiring", "double_residual", "semiring.residual"),
    ("tropcheck.polytopes", "Polytope.coefficients", "polytopes.member"),
    ("tropcheck.polytopes", "Polytope.extremals", "polytopes.extremals"),
    ("tropcheck.polytopes", "Polytope.embed_minimal", "polytopes.embedding"),
    ("tropcheck.polytopes", "Polytope.is_min_plus_convex", "polytopes.min_plus_convex"),
    ("tropcheck.cells", "cell_complex", "cells.cell_complex"),
    ("tropcheck.cells", "pure_dimension", "cells.pure_dimension"),
    ("tropcheck.cells", "tropical_dimension", "cells.tropical_dimension"),
    ("tropcheck.algebra", "is_projective", "algebra.is_projective"),
    ("tropcheck.algebra", "is_idempotent", "algebra.is_idempotent"),
    ("tropcheck.algebra", "regularity_witness", "algebra.regularity_witness"),
    ("tropcheck.algebra", "rank_report", "algebra.rank_report"),
    ("tropcheck.algebra", "same_span", "algebra.same_span"),
    ("tropcheck.documents", "matrix_from_document", "documents.parse"),
    ("tropcheck.documents", "polytope_from_document", "documents.parse"),
    ("tropcheck.svgplot", "render_polytope_svg", "svgplot.render"),
    ("tropcheck.cli", "main", "cli.main"),
)

ROOT_SPAN = "op"
CELL_SHAPES = ((4, 4), (4, 5), (5, 4))
CLI_COMMANDS = ("analyze", "polytope", "faces", "plot")
SPANS_MARKER = "perfbench-spans "

# Every per-layer metric of the traced run, with its unit.  "/op" units are
# totals over the recorded operations divided by their number.  Shares and
# per-complex figures count cell complexes the operation had not yet asked
# for; the per-shape medians are of their durations.
LAYER_METRICS = (
    ("semiring.mul.calls", "calls/op"),
    ("semiring.mul.self_s", "s/op"),
    ("semiring.residual.calls", "calls/op"),
    ("semiring.residual.self_s", "s/op"),
    ("polytopes.member.calls", "calls/op"),
    ("polytopes.member.self_s", "s/op"),
    ("polytopes.member.true_share", "ratio"),
    ("polytopes.extremals.calls", "calls/op"),
    ("polytopes.extremals.self_s", "s/op"),
    ("polytopes.extremals.dropped", "gens/op"),
    ("polytopes.embedding.self_s", "s/op"),
    ("polytopes.min_plus_convex.calls", "calls/op"),
    ("polytopes.min_plus_convex.self_s", "s/op"),
    ("cells.cell_complex.calls", "calls/op"),
    ("cells.cell_complex.self_s", "s/op"),
    ("cells.cell_complex.repeat_share", "ratio"),
    ("cells.faces", "faces/complex"),
    ("cells.covering_share", "ratio"),
    *((f"cells.cell_complex_ms.n{n}m{m}", "ms") for n, m in CELL_SHAPES),
    ("algebra.is_projective.self_s", "s/op"),
    ("algebra.regularity_witness.self_s", "s/op"),
    ("algebra.rank_report.self_s", "s/op"),
    ("algebra.same_span.self_s", "s/op"),
    ("algebra.projective_share", "ratio"),
    ("algebra.regular_share", "ratio"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    *((f"cli.main_ms.{c}", "ms") for c in CLI_COMMANDS),
    ("documents.parse.self_s", "s/op"),
    ("svgplot.render.self_s", "s/op"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.seen_complexes = set()
        self._ids = itertools.count(1)

    # -- installation

    def install(self) -> list:
        """Wrap every target; returns the targets missing from this program."""
        missing = []
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner, _, method = attr.rpartition(".")
                holder = getattr(module, owner) if owner else module
                original = getattr(holder, method)
            except (ImportError, AttributeError):
                missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(original, name)
            if owner:
                for key, value in list(vars(holder).items()):
                    if value is original:  # also catches aliases such as __matmul__
                        setattr(holder, key, wrapped)
            else:
                _rebind(original, wrapped)
        return missing

    def _wrap(self, fn, name):
        tracer = self
        before, after = _OBSERVERS.get(name, (None, None))

        def traced(*args, **kwargs):
            stack = tracer.stack
            if not stack:
                return fn(*args, **kwargs)
            sid = next(tracer._ids)
            parent = stack[-1]
            pre = before(tracer, args) if before else None
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, tracer.op, name, start, end, "raised"))
                raise
            end = perf_counter()
            stack.pop()
            attr = after(args, result, pre) if after else None
            tracer.spans.append((sid, parent, tracer.op, name, start, end, attr))
            return result

        return traced

    # -- operations

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self.seen_complexes.clear()  # a repeat is a polytope this op already passed
        self.stack.append(next(self._ids))

    def end_op(self, start: float, end: float) -> None:
        sid = self.stack.pop()
        self.spans.append((sid, None, self.op, ROOT_SPAN, start, end, None))
        self.op = None

    def adopt_from(self, stderr: str) -> None:
        """Take over the spans a traced child process wrote to stderr, as
        children of the open operation."""
        for line in stderr.splitlines():
            if not line.startswith(SPANS_MARKER):
                continue
            child = json.loads(line[len(SPANS_MARKER):])
            parent = self.stack[-1]
            ids = {}
            for sid, _, _, _, _, _, _ in child:
                ids[sid] = next(self._ids)
            for sid, cparent, _, name, start, end, attr in child:
                self.spans.append(
                    (ids[sid], ids.get(cparent, parent), self.op, name, start, end, attr)
                )

    def finalize(self) -> None:
        """Reduce the cell complexes held by spans to face counts."""
        for i, span in enumerate(self.spans):
            if span[3] == "cells.cell_complex" and isinstance(span[6], list) and len(span[6]) == 4:
                repeat, n, m, complex_ = span[6]
                counts = [repeat, n, m, len(complex_.faces), sum(f.covering for f in complex_.faces)]
                self.spans[i] = span[:6] + (counts,)

    def dump(self) -> str:
        self.finalize()
        return json.dumps(self.spans)


def _rebind(original, wrapped) -> None:
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "tropcheck" or module_name.startswith("tropcheck.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapped)


def _seen_before(tracer, args):
    repeat = args[0] in tracer.seen_complexes
    tracer.seen_complexes.add(args[0])
    return repeat


def _complex(args, result, repeat):
    # reduced to counts by Tracer.finalize, out of the caller's self time
    return [repeat, args[0].ambient, len(args[0].generators), result]


def _extremals_cold(tracer, args):
    return getattr(args[0], "_extremals", None) is None


def _dropped(args, result, cold):
    return len(args[0].generators) - len(result.generators) if cold else 0


# span name -> (called before the call with the tracer and the arguments,
# called after it with the arguments, the result and what `before` returned)
_OBSERVERS = {
    "polytopes.member": (None, lambda args, result, _: result is not None),
    "polytopes.extremals": (_extremals_cold, _dropped),
    "cells.cell_complex": (_seen_before, _complex),
    "algebra.is_projective": (None, lambda args, result, _: result.projective),
    "algebra.regularity_witness": (None, lambda args, result, _: result.regular),
    "cli.main": (None, lambda args, result, _: args[0][0] if args and args[0] else None),
}


# ---------------------------------------------------------------------------
# summaries


def self_times(spans) -> dict:
    """Per span name: calls and total self seconds."""
    child = defaultdict(float)
    for sid, parent, _, _, start, end, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = defaultdict(lambda: [0, 0.0])
    for sid, _, _, name, start, end, _ in spans:
        entry = out[name]
        entry[0] += 1
        entry[1] += (end - start) - child[sid]
    return dict(out)


def _share(flags) -> float:
    flags = list(flags)
    return sum(flags) / len(flags) if flags else 0.0


def _median_ms(durations) -> float:
    return statistics.median(durations) * 1e3 if durations else 0.0


def layer_metrics(spans) -> dict:
    """The per-layer metrics computable from the spans alone; the harness
    adds the CLI start-up probes and the tracing overhead."""
    per = self_times(spans)
    ops = max(per.get(ROOT_SPAN, (0, 0.0))[0], 1)

    def calls(name):
        return per.get(name, (0, 0.0))[0] / ops

    def self_s(name):
        return per.get(name, (0, 0.0))[1] / ops

    by_name = defaultdict(list)
    for span in spans:
        by_name[span[3]].append(span)

    complexes = [s for s in by_name["cells.cell_complex"] if isinstance(s[6], list)]
    computed = [s for s in complexes if not s[6][0]]
    faces = sum(s[6][3] for s in computed)
    covering = sum(s[6][4] for s in computed)
    root = per.get(ROOT_SPAN, (0, 0.0))
    root_total = sum(s[5] - s[4] for s in by_name[ROOT_SPAN])

    values = {
        "semiring.mul.calls": calls("semiring.mul"),
        "semiring.mul.self_s": self_s("semiring.mul"),
        "semiring.residual.calls": calls("semiring.residual"),
        "semiring.residual.self_s": self_s("semiring.residual"),
        "polytopes.member.calls": calls("polytopes.member"),
        "polytopes.member.self_s": self_s("polytopes.member"),
        "polytopes.member.true_share": _share(s[6] for s in by_name["polytopes.member"] if s[6] != "raised"),
        "polytopes.extremals.calls": calls("polytopes.extremals"),
        "polytopes.extremals.self_s": self_s("polytopes.extremals"),
        "polytopes.extremals.dropped": sum(
            s[6] for s in by_name["polytopes.extremals"] if isinstance(s[6], int)
        ) / ops,
        "polytopes.embedding.self_s": self_s("polytopes.embedding"),
        "polytopes.min_plus_convex.calls": calls("polytopes.min_plus_convex"),
        "polytopes.min_plus_convex.self_s": self_s("polytopes.min_plus_convex"),
        "cells.cell_complex.calls": calls("cells.cell_complex"),
        "cells.cell_complex.self_s": self_s("cells.cell_complex"),
        "cells.cell_complex.repeat_share": _share(s[6][0] for s in complexes),
        "cells.faces": faces / len(computed) if computed else 0.0,
        "cells.covering_share": covering / faces if faces else 0.0,
        "algebra.is_projective.self_s": self_s("algebra.is_projective"),
        "algebra.regularity_witness.self_s": self_s("algebra.regularity_witness"),
        "algebra.rank_report.self_s": self_s("algebra.rank_report"),
        "algebra.same_span.self_s": self_s("algebra.same_span"),
        "algebra.projective_share": _share(
            s[6] for s in by_name["algebra.is_projective"] if s[6] != "raised"
        ),
        "algebra.regular_share": _share(
            s[6] for s in by_name["algebra.regularity_witness"] if s[6] != "raised"
        ),
        "documents.parse.self_s": self_s("documents.parse"),
        "svgplot.render.self_s": self_s("svgplot.render"),
        "trace.unattributed_share": root[1] / root_total if root_total else 0.0,
    }
    for n, m in CELL_SHAPES:
        values[f"cells.cell_complex_ms.n{n}m{m}"] = _median_ms(
            [s[5] - s[4] for s in computed if s[6][1:3] == [n, m]]
        )
    for command in CLI_COMMANDS:
        values[f"cli.main_ms.{command}"] = _median_ms(
            [s[5] - s[4] for s in by_name["cli.main"] if s[6] == command]
        )
    return values


def breakdown(spans) -> list:
    """(name, calls per op, self ms per op, share of op time), by self time."""
    per = self_times(spans)
    ops = per.get(ROOT_SPAN, (0, 0.0))[0]
    total = sum(s for _, s in per.values()) or 1.0
    rows = [(name, c / max(ops, 1), s * 1e3 / max(ops, 1), s / total) for name, (c, s) in per.items()]
    return sorted(rows, key=lambda r: -r[2])
