"""The tropcheck benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Workloads (see workloads.py for what each one stresses and why):
polytope-verdicts, order-membership, regularity, cli-docs.  BENCHMARK.json
lists the ones the benchmark is judged on; the others run the same way.
The seed fixes every input.  One single-threaded worker process is the only client, and it
sends its next operation when the previous one has returned (closed loop).

--trace 0 measures the end-to-end metrics.  The run passes over the
corpus several times (a workload with a `variant` method gives each pass
its own variant of every item, with the same answer and the same work).
latency_p50_ms and latency_p90_ms are quantiles over the corpus items of
each item's mean latency over the run; ops_per_s is the ok operations per
second of operation time.  On a shared 2-CPU virtual machine one operation
took 1.0 to 2.0 times its fastest, by the second and by the minute.  An
item's mean over passes spread across the run follows that speed in
proportion, where a quantile over single operations jumps when the share of
slow stretches crosses it, and the minimum over passes jumps when a whole
run holds no fast stretch.

setup_s is the median of SETUP_RUNS set-ups (interpreter start, imports and
building the corpus): the timed worker's own and those of set-up-only
workers started while the timed worker pauses, evenly over the run, so that
one slow stretch does not hold all of them.

--trace 1 installs the layer tracer, which records every other block of 24
operations; the per-layer metrics come from the recorded blocks,
trace.overhead_ratio compares the two kinds of block, and the spans go to
.perfbench/.
--tiny runs a handful of items once, for the benchmark's own tests.

Human-readable lines come first: the environment, every metric with its
unit and sample count, failed_ratio, and a digest of the outputs of the
first pass over the corpus (compare it between commits: a speed-up must
not change an output byte).  The last line is one JSON object
{"correct", "attempted", "failed", "metrics"}; `correct` is false when an
output disagrees with its independent check, and `failed` counts the
operations that raised, returned a wrong answer or exited non-zero.

Exits 2 without a result when the checkout holds no src/tropcheck.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

import checkout
import tracing

WORKLOADS = ("polytope-verdicts", "order-membership", "regularity", "cli-docs")
SETUP_RUNS = 9
MIN_OPS = 100  # so that the p90 latency has at least ten samples beyond it
TRACE_MIN_OPS = 48  # one unrecorded and one recorded block, see worker.BLOCK
CLI_PROBES = 7
DEADLINE_S = 170  # a run ends within this, first-run compilation aside


class WorkerError(Exception):
    pass


def start_worker(argv):
    """Start a worker; returns it and its set-up time (spawn to "ready")."""
    cmd = [sys.executable, os.path.join(checkout.ROOT, "perfbench", "worker.py"), *argv]
    t0 = perf_counter()
    proc = subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=checkout.program_env(), cwd=checkout.ROOT,
    )
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise WorkerError(f"worker did not get ready: {' '.join(argv)}")
    return proc, setup


def finish_worker(proc, timeout: float, head: str = ""):
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
        out = head + out
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker timed out") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_worker(argv, deadline: float):
    proc, setup = start_worker(argv)
    result = finish_worker(proc, deadline - perf_counter())
    if result is None and "--setup-only" not in argv:
        raise WorkerError("worker printed no result")
    return result, setup


def failed(result) -> int:
    return sum(result["failures"].values())


def median_wall_ms(argv, count: int) -> float:
    times = []
    for _ in range(count):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, *argv], check=True, env=checkout.program_env(), cwd=checkout.ROOT,
            stdout=subprocess.DEVNULL, timeout=60,
        )
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1e3


def mean_latencies(items, latencies) -> dict:
    """Each corpus item's mean latency over the run's ok operations."""
    times = {}
    for item, seconds in zip(items, latencies):
        times.setdefault(item, []).append(seconds)
    return {item: statistics.fmean(v) for item, v in times.items()}


def untraced(args, common, deadline):
    breaks = 0 if args.tiny else SETUP_RUNS - 1
    proc, setup = start_worker(
        common + ["--seconds", str(args.seconds), "--min-ops", str(MIN_OPS), "--breaks", str(breaks)]
    )
    setups = [setup]
    line = proc.stdout.readline()
    while line.strip() == "pause":
        try:
            _, setup = run_worker(common + ["--setup-only"], deadline)
        except WorkerError:
            proc.kill()
            proc.communicate()
            raise
        setups.append(setup)
        proc.stdin.write("go\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
    result = finish_worker(proc, deadline - perf_counter(), line)
    if result is None:
        raise WorkerError("worker printed no result")
    means = mean_latencies(result["items"], result["latencies"])
    lat = sorted(means.values()) or [0.0]
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    n_ok = len(result["latencies"])
    metrics = {
        "ops_per_s": (n_ok / result["op_time"], "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
    }
    samples = Counter(result["items"]).values()
    timed = f"{len(means)} items, mean of {min(samples, default=0)}-{max(samples, default=0)} ok ops each"
    beyond = sum(1 for v in lat if v > p90) if means else 0
    notes = {
        "ops_per_s": f"{n_ok} ok ops in {result['op_time']:.3f} s of op time",
        "latency_p50_ms": timed,
        "latency_p90_ms": f"{timed}, {beyond} beyond",
        "setup_s": f"median of {len(setups)} set-ups; ms: " + " ".join(f"{v * 1e3:.0f}" for v in setups),
        "peak_rss_mb": "max RSS of the " + ("CLI processes" if args.workload == "cli-docs" else "worker"),
    }
    return result, result["attempted"], failed(result), metrics, notes


def traced(args, common, deadline):
    result, _ = run_worker(
        common + ["--seconds", str(args.seconds), "--min-ops", str(TRACE_MIN_OPS), "--trace"],
        deadline,
    )
    values = dict(result["layers"])
    plain, recorded = result["latencies"], result["traced_latencies"]
    # ok ops per second, recorded over unrecorded, both from the same worker
    if plain and recorded:
        values["trace.overhead_ratio"] = (sum(plain) / len(plain)) / (sum(recorded) / len(recorded))
    else:
        values["trace.overhead_ratio"] = 0.0
    values["cli.interpreter_ms"] = values["cli.import_ms"] = 0.0
    if args.workload == "cli-docs":
        count = 1 if args.tiny else CLI_PROBES
        interpreter = median_wall_ms(["-c", "pass"], count)
        values["cli.interpreter_ms"] = interpreter
        values["cli.import_ms"] = median_wall_ms(["-c", "import tropcheck.cli"], count) - interpreter
    units = dict(tracing.LAYER_METRICS)
    metrics = {name: (values[name], units[name]) for name, _ in tracing.LAYER_METRICS}
    notes = {name: f"{len(recorded)} recorded ok ops" for name in metrics}
    notes["trace.overhead_ratio"] = f"{len(recorded)} recorded vs {len(plain)} unrecorded ok ops"
    for name in ("cli.interpreter_ms", "cli.import_ms"):
        notes[name] = f"median of {CLI_PROBES if not args.tiny else 1} processes"
    return result, result["attempted"], failed(result), metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tropcheck benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if not checkout.has_program():
        print(f"perfbench: no tropcheck sources under {checkout.SRC}", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    try:
        run = traced if args.trace else untraced
        result, attempted, n_failed, metrics, notes = run(args, common, deadline)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + json.dumps(checkout.record(args.seed, result["sizes"])))
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit:14s} ({notes[name]})")
    kinds = ", ".join(f"{k} {v}" for k, v in sorted(result["failures"].items())) or "none"
    print(f"{'failed_ratio':36s} {n_failed / attempted:14.6g} {'ratio':14s} "
          f"({n_failed} of {attempted} attempted; {kinds})")
    print(f"digest sha256:{result['digest']} (outputs of items 0..{result['digest_items'] - 1})")
    if args.trace:
        print(f"spans written to {result['spans_file']}; self time by span, per op:")
        for name, calls, self_ms, share in result["breakdown"]:
            print(f"  {name:30s} {calls:10.3f} calls {self_ms:12.4f} ms {share:8.2%}")
    correct = "Mismatch" not in result["failures"]
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
