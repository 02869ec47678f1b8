"""The four benchmark workloads: seeded corpus, timed operation, independent
check and output encoding of each.

Every corpus is built during set-up from `tropcheck.oracles` generators and
holds plain tuples only.  Each operation constructs a fresh `Polytope` or
`Matrix` from those tuples, because the generation filters fill the
per-instance extremal cache and would otherwise move extremal reduction out
of the timed region.  Sizes stay inside the default `max_tuples` guard and
every call uses the default, which is what users run.

A check raises `Mismatch` when an output disagrees with a second route to
the same answer; the benchmark counts that operation as failed.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

from checkout import ROOT, program_env
from tropcheck import algebra, cells, oracles, polytopes, semiring, svgplot
from tropcheck.polytopes import Polytope
from tropcheck.semiring import Matrix

class Mismatch(Exception):
    """An output disagrees with the independent route to the same answer."""


class CliFailure(Exception):
    """A CLI subprocess exited with a non-zero code."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _maxplus(a, b):
    # Reference max-plus product of finite row tuples, kept apart from
    # Matrix.mul so that checks do not reuse the code they check.
    return tuple(tuple(max(x + y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def _text(value) -> str:
    return json.dumps(value, sort_keys=True, default=str)


def _json_entry(value):
    return int(value) if value.denominator == 1 else str(value)


def _matrix_doc(rows) -> dict:
    return {
        "rows": len(rows),
        "cols": len(rows[0]),
        "entries": [[_json_entry(e) for e in row] for row in rows],
    }


def _scale(vectors, factor):
    return tuple(tuple(e * factor for e in v) for v in vectors)


# ---------------------------------------------------------------------------
# polytope-verdicts: the full verdict of the `polytope` subcommand


@dataclass(frozen=True)
class VerdictItem:
    index: int  # position in the corpus
    generators: tuple
    kind: str  # "random", "idempotent", or "scaled"/"denominators" for mixed magnitude


class PolytopeVerdicts:
    """Cells DFS plus witness re-verification dominate; the mixed-magnitude
    share exercises the scaled bounds near the DFS sentinel, and the
    idempotent column spaces are projective, which runs the witness path.

    Every pass over the corpus translates it (see `variant`), so that each
    item is timed several times over a run without a cell-complex cache hit.
    """

    # (ambient n, generators m): (5, 4) four times in six, so that both the
    # latency median and p90 fall inside the (5, 4) group.  A quantile on a
    # boundary between groups swings with the machine and the seed.
    shapes = ((4, 4), (4, 5), (5, 4), (5, 4), (5, 4), (5, 4))
    # In every 24 instances, one is the column space of a full-rank 4 x 4
    # idempotent and one has mixed-magnitude entries (scaled and rational
    # ones alternate), both in (4, 4) slots.  The corpus is a whole number
    # of such cycles, so the shares are exact, and more than 100 items, so
    # that the latency p90 over items has ten beyond it.
    cycle = 24
    idempotent_offset = 0
    mixed_offset = 6

    def __init__(self):
        self._first = {}  # corpus index -> translation-invariant verdict

    def sizes(self, tiny: bool) -> dict:
        instances = 8 if tiny else 120
        return {
            "instances": instances,
            "shape_cycle": [list(s) for s in self.shapes],
            "entries": [-20, 20],
            "idempotent_instances": sum(self._kind_at(i) == "idempotent" for i in range(instances)),
            "mixed_instances": sum(self._mixed(i) for i in range(instances)),
            "mixed_shape": list(self.shapes[self.mixed_offset % len(self.shapes)]),
        }

    def _kind_at(self, i: int) -> str:
        if i % self.cycle == self.idempotent_offset:
            return "idempotent"
        if i % self.cycle == self.mixed_offset:
            return "scaled" if (i // self.cycle) % 2 == 0 else "denominators"
        return "random"

    def _mixed(self, i: int) -> bool:
        return self._kind_at(i) in ("scaled", "denominators")

    def cache_fill_ops(self, tiny: bool) -> int:
        """Operations until 257 distinct polytopes got a complex: then the
        256-entry cell-complex cache is full and the peak RSS includes it.

        Mixed-magnitude instances raise and leave nothing cached; every pass
        translates the corpus, so no complex is ever found in the cache.
        """
        instances = self.sizes(tiny)["instances"]
        if tiny:
            return instances
        ops = kept = 0
        while kept < 257:
            kept += not self._mixed(ops % instances)
            ops += 1
        return ops

    def variant(self, item: VerdictItem, k: int) -> VerdictItem:
        """The item for pass k: coordinate j of every generator plus k * j.

        A translation of FT^n is a max-plus (and min-plus) automorphism, so
        the verdict is the same as in pass 0, but the polytope is another
        one and the cell-complex cache never holds it.
        """
        if k == 0:
            return item
        gens = tuple(tuple(e + k * j for j, e in enumerate(g)) for g in item.generators)
        return VerdictItem(item.index, gens, item.kind)

    def build(self, seed: int, tiny: bool) -> list:
        rng = random.Random(seed)
        items = []
        for i in range(self.sizes(tiny)["instances"]):
            n, m = self.shapes[i % len(self.shapes)]
            kind = self._kind_at(i)
            if kind == "idempotent":
                e = oracles.random_idempotent(n, rng=rng, lo=-10, full_rank=True, spread=5)
                items.append(VerdictItem(i, tuple(zip(*e.entries)), kind))
                continue
            gens = tuple(oracles.random_vector(n, rng=rng, lo=-20, hi=20) for _ in range(m))
            if kind == "scaled":
                gens = _scale(gens, 10**15)
            elif kind == "denominators":
                dens = [10**13 + rng.randint(1, 10**6) for _ in gens]
                gens = tuple(tuple(e / d for e in g) for g, d in zip(gens, dens))
            items.append(VerdictItem(i, gens, kind))
        return items

    def op(self, item: VerdictItem):
        p = Polytope(item.generators)
        report = algebra.is_projective(p)
        pure, dim = cells.pure_dimension(p)
        return {
            "ambient": p.ambient,
            "gendim": report.gendim,
            "dualdim": report.dualdim,
            "projective": report.projective,
            "reason": report.reason,
            "idempotent": report.idempotent.entries if report.idempotent else None,
            "pure": pure,
            "pure_dim": dim,
            "tropical_dim": cells.tropical_dimension(p),
            "min_plus_convex": p.is_min_plus_convex(),
        }

    def check(self, item: VerdictItem, out) -> None:
        geometric = out["pure"] and out["pure_dim"] == out["gendim"] == out["dualdim"]
        _expect(out["projective"] == geometric, "algebraic and geometric projectivity differ")
        if item.kind == "idempotent":
            _expect(out["projective"], "an idempotent column space must be projective")
        if out["gendim"] == out["dualdim"] == out["ambient"]:
            _expect(
                out["projective"] == out["min_plus_convex"],
                "projectivity and min-plus convexity differ on a full-dimension polytope",
            )
        if out["projective"]:
            e = out["idempotent"]
            _expect(_maxplus(e, e) == e, "the projectivity witness is not idempotent")
        # the witness is conjugated by the translation; the rest is invariant
        invariant = {k: v for k, v in out.items() if k != "idempotent"}
        first = self._first.setdefault(item.index, invariant)
        _expect(invariant == first, "the verdict changed under a translation")

    encode = staticmethod(_text)


# ---------------------------------------------------------------------------
# order-membership: principal-solution membership and the order tests


@dataclass(frozen=True)
class MembershipItem:
    generators: tuple
    idempotent: tuple | None  # rows of E when the polytope is its column space
    pairs: tuple  # (x, y) points of the polytope; the queries are min(x, y)


class OrderMembership:
    """No cells: principal-solution membership and extremal reduction over
    Fraction.  Idempotent column spaces are projective, so the breakpoint
    scan runs in full; random full-dimension polytopes exit early."""

    dims = (4, 5, 6)
    queries = 16

    def sizes(self, tiny: bool) -> dict:
        return {
            "instances": 6 if tiny else 240,
            "ambient": list(self.dims),
            "queries_per_op": self.queries,
            "idempotent_share": 0.5,
            "rational_share": 0.25,
        }

    def build(self, seed: int, tiny: bool) -> list:
        rng = random.Random(seed)
        items = []
        for i in range(self.sizes(tiny)["instances"]):
            n = self.dims[i % len(self.dims)]
            factor = Fraction(1, rng.choice((2, 3, 7))) if (i // 6) % 4 == 3 else 1
            if (i // 3) % 2 == 0:
                e = oracles.random_idempotent(n, rng=rng, full_rank=True, spread=5)
                idempotent = _scale(e.entries, factor)
                gens = tuple(zip(*idempotent))
            else:
                idempotent = None
                p = oracles.full_dimension_polytope(rng, n, lo=-20, hi=20)
                gens = _scale(p.generators, factor)
            sample = Polytope(gens)
            pairs = tuple(
                (oracles.random_point(sample, rng=rng), oracles.random_point(sample, rng=rng))
                for _ in range(self.queries)
            )
            items.append(MembershipItem(gens, idempotent, pairs))
        return items

    def op(self, item: MembershipItem):
        p = Polytope(item.generators)
        report = algebra.is_projective(p)
        return {
            "projective": report.projective,
            "reason": report.reason,
            "min_plus_convex": p.is_min_plus_convex(),
            "members": [semiring.vec_min(x, y) in p for x, y in item.pairs],
        }

    def check(self, item: MembershipItem, out) -> None:
        _expect(
            out["projective"] == out["min_plus_convex"],
            "projectivity and min-plus convexity differ on a full-dimension polytope",
        )
        if item.idempotent is not None:
            _expect(out["projective"], "an idempotent column space must be projective")
            e = Matrix(item.idempotent)
        else:
            g = Matrix.from_columns(item.generators)
        for (x, y), member in zip(item.pairs, out["members"]):
            z = semiring.vec_min(x, y)
            if item.idempotent is not None:
                # the column space of an idempotent is exactly its fixed points
                expected = e.apply(z) == z
            else:
                # z is a member iff G (G \ z) = z, by the residual of semiring
                col = Matrix([(v,) for v in z])
                expected = g.mul(semiring.left_residual(g, col)) == col
            _expect(member == expected, "membership differs from the second route")
            if out["min_plus_convex"]:
                _expect(member, "a min-plus convex polytope must hold min(x, y)")

    encode = staticmethod(_text)


# ---------------------------------------------------------------------------
# regularity: the library equivalent of the `analyze` subcommand


@dataclass(frozen=True)
class MatrixItem:
    rows: tuple
    idempotent: bool


class Regularity:
    """Residuals and the max-plus product dominate; cells run only through
    rank_report on the n = 4 matrices."""

    dims = (4, 6, 8, 12)
    rank_report_dim = 4

    def sizes(self, tiny: bool) -> dict:
        # more than 256 n = 4 matrices, so that no row space comes back
        # while the 256-entry cell-complex cache still holds it
        return {
            "instances": 8 if tiny else 1040,
            "n": list(self.dims),
            "idempotent_share": 0.5,
            "rank_report_n": self.rank_report_dim,
        }

    def build(self, seed: int, tiny: bool) -> list:
        rng = random.Random(seed)
        items = []
        for i in range(self.sizes(tiny)["instances"]):
            n = self.dims[i % len(self.dims)]
            if (i // len(self.dims)) % 2 == 0:
                a = oracles.random_idempotent(n, rng=rng, spread=5)
                items.append(MatrixItem(a.entries, True))
            else:
                a = oracles.random_matrix(n, n, rng=rng, lo=-20, hi=20)
                items.append(MatrixItem(a.entries, False))
        return items

    def op(self, item: MatrixItem):
        a = Matrix(item.rows)
        report = algebra.regularity_witness(a)
        rows, cols = polytopes.row_space(a), polytopes.column_space(a)
        ranks = algebra.rank_report(a) if a.rows == self.rank_report_dim else None
        return {
            "regular": report.regular,
            "witness": report.witness.entries if report.witness else None,
            "idempotent": algebra.is_idempotent(a),
            "row_space": [rows.generator_dimension(), rows.dual_dimension()],
            "column_space": [cols.generator_dimension(), cols.dual_dimension()],
            "ranks": None if ranks is None else [
                ranks.row_gen_rank, ranks.col_gen_rank, ranks.tropical_rank, ranks.all_equal
            ],
        }

    def check(self, item: MatrixItem, out) -> None:
        a = item.rows
        _expect(out["idempotent"] == (_maxplus(a, a) == a), "idempotency differs from the product")
        if item.idempotent:
            _expect(out["regular"], "an idempotent matrix must be regular")
        if out["regular"]:
            b = out["witness"]
            _expect(_maxplus(_maxplus(a, b), a) == a, "the regularity witness fails A B A = A")
            _expect(
                out["row_space"][0] == out["column_space"][0],
                "a regular matrix must have equal row and column generator ranks",
            )
            if out["ranks"] is not None:
                _expect(out["ranks"][3], "a regular matrix must have all ranks equal")

    encode = staticmethod(_text)


# ---------------------------------------------------------------------------
# cli-docs: one `python -m tropcheck.cli` subprocess per operation


@dataclass(frozen=True)
class DocItem:
    index: int
    command: str
    text: str  # the JSON document fed on stdin


class CliDocs:
    """Interpreter start, `import tropcheck.cli`, documents and the emit
    path; `faces` and `plot` need every cell."""

    shapes = {"analyze": (4, 4), "polytope": (4, 4), "faces": (4, 5), "plot": (3, 4)}

    measures_children = True  # peak RSS is that of the CLI processes

    def __init__(self):
        self.tracer = None  # set by the worker for a traced run
        self._expected = {}

    def sizes(self, tiny: bool) -> dict:
        return {
            # 100 documents, so that the latency p90 over them has ten beyond it
            "documents_per_command": 1 if tiny else 25,
            "shapes": {k: list(v) for k, v in self.shapes.items()},
            "entries": [-20, 20],
        }

    def build(self, seed: int, tiny: bool) -> list:
        rng = random.Random(seed)
        items = []
        for j in range(self.sizes(tiny)["documents_per_command"]):
            for command, (n, m) in self.shapes.items():
                if command == "analyze":
                    if j % 2 == 0:
                        a = oracles.random_idempotent(n, rng=rng, spread=5)
                    else:
                        a = oracles.random_matrix(n, m, rng=rng, lo=-20, hi=20)
                    doc = _matrix_doc(a.entries)
                else:
                    gens = [oracles.random_vector(n, rng=rng, lo=-20, hi=20) for _ in range(m)]
                    doc = {"ambient": n, "generators": [[_json_entry(e) for e in g] for g in gens]}
                items.append(DocItem(len(items), command, json.dumps(doc)))
        return items

    def op(self, item: DocItem):
        argv = [item.command] if item.command == "plot" else [item.command, "--format", "json"]
        traced = self.tracer is not None and self.tracer.stack
        if not traced:
            cmd = [sys.executable, "-m", "tropcheck.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "tracecli.py"), *argv]
        proc = subprocess.run(
            cmd, input=item.text, capture_output=True, text=True, env=program_env(), timeout=60
        )
        if traced:
            self.tracer.adopt_from(proc.stderr)
        if proc.returncode != 0:
            raise CliFailure(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout

    def check(self, item: DocItem, stdout: str) -> None:
        if item.index not in self._expected:
            self._expected[item.index] = self._library(item)
        if item.command == "plot":
            _expect(stdout == self._expected[item.index], "plot SVG differs from the library")
            return
        payload = json.loads(stdout)
        _expect(payload == self._expected[item.index], f"{item.command} payload differs from the library")
        if item.command == "faces":
            p = Polytope(json.loads(item.text)["generators"])
            for face in payload:
                witness = tuple(Fraction(v) for v in face["witness"])
                cov = [sorted(s) for s in cells.covector(witness, p)]
                _expect(cov == face["type"], "a faces witness misses its covector")

    def _library(self, item: DocItem):
        doc = json.loads(item.text)
        if item.command == "analyze":
            a = Matrix(doc["entries"])
            report = algebra.regularity_witness(a)
            ranks = algebra.rank_report(a)
            rows, cols = polytopes.row_space(a), polytopes.column_space(a)
            return {
                "rows": a.rows,
                "cols": a.cols,
                "idempotent": algebra.is_idempotent(a),
                "regular": report.regular,
                "witness": _matrix_doc(report.witness.entries) if report.witness else None,
                "ranks": {
                    "row": ranks.row_gen_rank,
                    "col": ranks.col_gen_rank,
                    "tropical": ranks.tropical_rank,
                    "all_equal": ranks.all_equal,
                },
                "factor_rank_bounds": [
                    ranks.tropical_rank, min(ranks.row_gen_rank, ranks.col_gen_rank)
                ],
                "row_space": {
                    "generator_dimension": rows.generator_dimension(),
                    "dual_dimension": rows.dual_dimension(),
                },
                "column_space": {
                    "generator_dimension": cols.generator_dimension(),
                    "dual_dimension": cols.dual_dimension(),
                },
            }
        p = Polytope(doc["generators"])
        if item.command == "plot":
            return svgplot.render_polytope_svg(p)
        complex_ = cells.cell_complex(p)
        if item.command == "faces":
            return [
                {
                    "type": [sorted(c) for c in face.covector],
                    "witness": [_json_entry(v) for v in face.witness],
                    "dim": face.dim,
                    "covering": face.covering,
                }
                for face in complex_.faces
            ]
        report = algebra.is_projective(p)
        return {
            "ambient": p.ambient,
            "gendim": report.gendim,
            "dualdim": report.dualdim,
            "tropical_dim": complex_.tropical_dim,
            "pure": complex_.pure,
            "min_plus_convex": p.is_min_plus_convex(),
            "projective": report.projective,
            "reason": report.reason,
            "idempotent": _matrix_doc(report.idempotent.entries) if report.idempotent else None,
        }

    @staticmethod
    def encode(stdout: str) -> str:
        return stdout


WORKLOADS = {
    "polytope-verdicts": PolytopeVerdicts,
    "order-membership": OrderMembership,
    "regularity": Regularity,
    "cli-docs": CliDocs,
}
