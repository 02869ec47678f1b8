"""The workload process: one closed-loop client.

Usage: python3 perfbench/worker.py --workload NAME --seed N [--seconds S]
           [--min-ops K] [--breaks B] [--trace] [--tiny] [--setup-only]

Set-up imports tropcheck and builds the corpus from the seed, then prints
"ready".  The timed loop runs one operation at a time, in whole blocks of
BLOCK operations, until both S seconds have passed and K operations were
attempted.  A workload that fills a program cache runs at least the
operations that fill it, so that the peak RSS includes the cache.  With
--tiny the corpus is a handful of items and the loop makes one pass (two
with --trace).  With --breaks the loop stops B times, evenly over the S
seconds, prints "pause" and waits for a line on stdin; time paused does not
count.  With --trace the layer tracer is installed and records every other
block.  The last line of output is one JSON object with the loop's results.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import traceback
from collections import Counter
from time import perf_counter

import checkout

sys.path.insert(1, checkout.SRC)

import workloads  # noqa: E402  (imports tropcheck from the checkout)

DIGEST_ITEMS = 100  # outputs of the first pass over at most this many items
# A multiple of every workload's cycle of instance kinds (4, 6, 8, 24), so
# that every run, and the recorded and unrecorded blocks of a traced run,
# hold the same mix.
BLOCK = 24


def pause() -> None:
    print("pause", flush=True)
    sys.stdin.readline()


def measure(
    workload, corpus, seconds: float, min_ops: int, tracer=None, block: int = BLOCK, breaks: int = 0
) -> dict:
    """Run operations in corpus order until time and count are both reached,
    in whole blocks of `block` operations (at most the corpus size).  A run
    wraps around the corpus; a workload with a `variant` method gives each
    pass its own variant of every item.

    Every exception an operation raises is counted and the loop goes on;
    an output that fails its check counts as a failed operation too.  With
    a tracer, blocks of `block` operations alternate between not recorded
    and recorded, so that both kinds see the same machine and item mix.
    """
    latencies = []
    items = []  # the corpus index of each of `latencies`
    traced_latencies = []
    failures = Counter()
    encoded = []
    op_time = 0.0
    attempted = 0
    digest_items = min(len(corpus), DIGEST_ITEMS)
    done_breaks = 0
    start = perf_counter()
    block = min(block, len(corpus))
    while attempted < min_ops or perf_counter() - start < seconds or attempted % block:
        while done_breaks < breaks and perf_counter() - start >= seconds * (done_breaks + 1) / (breaks + 1):
            paused = perf_counter()
            pause()
            start += perf_counter() - paused
            done_breaks += 1
        item = corpus[attempted % len(corpus)]
        if hasattr(workload, "variant"):
            item = workload.variant(item, attempted // len(corpus))
        record = tracer is not None and (attempted // block) % 2 == 1
        error = None
        if record:
            tracer.begin_op(attempted)
        t0 = perf_counter()
        try:
            output = workload.op(item)
        except Exception as exc:  # a failing operation must not stop the run
            error = exc
        t1 = perf_counter()
        if record:
            tracer.end_op(t0, t1)
        op_time += t1 - t0
        if error is None:
            try:
                workload.check(item, output)
            except workloads.Mismatch as exc:
                error = exc
        if error is None and record:
            traced_latencies.append(t1 - t0)
        elif error is None:
            latencies.append(t1 - t0)
            items.append(attempted % len(corpus))
        else:
            kind = type(error).__name__
            if not failures[kind]:
                print(f"op {attempted} failed:", file=sys.stderr)
                traceback.print_exception(error, file=sys.stderr)
            failures[kind] += 1
        if attempted < digest_items:
            encoded.append(workload.encode(output) if error is None else f"failed {type(error).__name__}")
        attempted += 1
    for _ in range(breaks - done_breaks):  # the run ended inside an operation
        pause()
    return {
        "attempted": attempted,
        "failures": dict(failures),
        "latencies": latencies,
        "items": items,
        "traced_latencies": traced_latencies,
        "op_time": op_time,
        "digest": hashlib.sha256("\n".join(encoded).encode()).hexdigest(),
        "digest_items": digest_items,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-ops", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--breaks", type=int, default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]()
    corpus = workload.build(args.seed, args.tiny)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        missing = tracer.install()
        if missing:
            print(f"not traced, absent from the program: {', '.join(missing)}", file=sys.stderr)
        if hasattr(workload, "tracer"):
            workload.tracer = tracer
    min_ops = args.min_ops
    if args.tiny:
        min_ops = 2 * min(BLOCK, len(corpus)) if tracer else len(corpus)
    if hasattr(workload, "cache_fill_ops"):
        min_ops = max(min_ops, workload.cache_fill_ops(args.tiny))
    result = measure(workload, corpus, args.seconds, min_ops, tracer, breaks=args.breaks)
    result["sizes"] = workload.sizes(args.tiny)
    who = resource.RUSAGE_CHILDREN if getattr(workload, "measures_children", False) else resource.RUSAGE_SELF
    result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    if tracer is not None:
        tracer.finalize()
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["breakdown"] = tracing.breakdown(tracer.spans)
        out_dir = os.path.join(checkout.ROOT, ".perfbench")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(tracer.dump())
        result["spans_file"] = os.path.relpath(path, checkout.ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
