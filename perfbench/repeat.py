"""Run the benchmark over several seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 perfbench/repeat.py --seeds 1-10 [--workloads a,b] [--trace 0|1] [--out FILE]

For every workload and metric it reports the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the spread, the
distance between the quartiles as a share of the median; the bound of an
end-to-end metric in BENCHMARK.json is measured against that spread.  The
summary, with the environment record, is printed and, with --out, written
as JSON.  baseline.json is such a file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import checkout

with open(os.path.join(checkout.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def seeds_of(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    seeds = seeds_of(args.seeds)
    summary = {"run_seconds": SPEC["run_seconds"], "seeds": seeds, "trace": args.trace, "workloads": {}}
    for name in args.workloads.split(","):
        runs = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=checkout.ROOT, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
            runs.append(json.loads(lines[-1]))
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()
            ), flush=True)
        summary["environment"] = {k: v for k, v in env.items() if k not in ("seed", "sizes")}
        summary["workloads"][name] = {
            "sizes": env["sizes"],
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {
                metric: {"unit": runs[0]["metrics"][metric]["unit"],
                         **summarise([r["metrics"][metric]["value"] for r in runs])}
                for metric in runs[0]["metrics"]
            },
        }
        for metric, s in summary["workloads"][name]["metrics"].items():
            print(f"  {metric:36s} median {s['median']:.6g} {s['unit']}  spread {s['spread']:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
