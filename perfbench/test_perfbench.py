"""The benchmark's own tests.  Run from the root of a checkout with

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def bench(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *argv],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_workload_names_agree():
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tiny_smoke_run(name):
    result = result_of(bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", "0", "--tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # the tiny corpus holds one mixed-magnitude polytope, which the
    # overflowing DFS sentinel makes fail
    assert result["failed"] == (1 if name == "polytope-verdicts" else 0)


def test_same_seed_same_inputs():
    for cls in workloads.WORKLOADS.values():
        assert cls().build(5, True) == cls().build(5, True)


def test_wrong_expected_output_counts_as_failed():
    workload = workloads.OrderMembership()
    corpus = workload.build(3, True)
    plain = next(item for item in corpus if item.idempotent is None)
    assert not workload.op(plain)["projective"]
    # pair the random polytope with an unrelated idempotent, which makes the
    # check expect a projective verdict the program rightly does not give
    other = next(item for item in corpus if item.idempotent is not None)
    wrong = workloads.MembershipItem(plain.generators, other.idempotent, plain.pairs)
    result = worker.measure(workload, [wrong, plain], seconds=0, min_ops=2)
    assert result["attempted"] == 2
    assert result["failures"] == {"Mismatch": 1}
    assert len(result["latencies"]) == 1


def test_translated_passes_give_the_same_verdicts():
    workload = workloads.PolytopeVerdicts()
    corpus = workload.build(4, True)
    item = next(item for item in corpus if item.kind == "random")
    # another polytope, so the cell-complex cache cannot answer for it
    assert workloads.Polytope(workload.variant(item, 1).generators) != workloads.Polytope(item.generators)
    result = worker.measure(workload, corpus, seconds=0, min_ops=2 * len(corpus))
    assert result["attempted"] == 2 * len(corpus)
    # only the mixed-magnitude polytope fails, once per pass
    assert result["failures"] == {"AssertionError": 2}
    assert sorted(set(result["items"])) == [i for i, item in enumerate(corpus) if item.kind != "scaled"]


def test_mean_latency_per_item():
    assert run.mean_latencies([0, 1, 0, 1, 2], [0.3, 0.2, 0.1, 0.4, 0.5]) == pytest.approx(
        {0: 0.2, 1: 0.3, 2: 0.5}
    )


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric(name):
    result = result_of(bench("--workload", name, "--seed", "3", "--seconds", "0", "--trace", "1", "--tiny"))
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    values = {m: v["value"] for m, v in result["metrics"].items()}
    assert values["trace.overhead_ratio"] > 0
    if name == "polytope-verdicts":
        # the tiny corpus holds one idempotent column space
        assert values["algebra.projective_share"] > 0
    if name == "regularity":
        # rank_report reaches cells through the name algebra imported
        assert values["cells.cell_complex.calls"] > 0
        assert values["semiring.residual.calls"] > 0
    if name == "cli-docs":
        assert all(values[f"cli.main_ms.{c}"] > 0 for c in tracing.CLI_COMMANDS)
        assert values["cli.interpreter_ms"] > 0 and values["documents.parse.self_s"] > 0
        assert values["svgplot.render.self_s"] > 0


def test_setup_is_the_median_of_set_ups_over_the_run():
    proc = bench("--workload", "regularity", "--seed", "2", "--seconds", "1", "--trace", "0")
    result = result_of(proc)
    assert result["correct"] is True and result["failed"] == 0
    assert f"(median of {run.SETUP_RUNS} set-ups; ms: " in proc.stdout


def test_layer_metric_names_match_the_spec():
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.LAYER_METRICS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "regularity", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
