#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each metric's spread.

    python3 perfbench/spread.py --workload <name> --seeds 1 2 3 ... \
        [--seconds 10] [--trace 0] [--out results.json] [--against earlier.json]

For every metric it prints the median and the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median, next to the metric's bound from BENCHMARK.json. With --out, the
raw per-seed results are saved as JSON. With --against, it also prints how
much worse each median is than that of an earlier set of runs saved with
--out, as a share of the earlier median. With --seeds omitted and both
--out and --against given, it only compares the two saved sets. Run from
the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError("seed %d: exit %d" % (seed, proc.returncode))
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else 0.0


def values_of(runs, name):
    return [r["result"]["metrics"][name]["value"] for r in runs]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seeds", type=int, nargs="+")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    if args.seeds:
        if not args.workload:
            parser.error("--seeds needs --workload")
        runs = []
        for seed in args.seeds:
            record, result = run_once(args.workload, seed, seconds, args.trace)
            runs.append({"seed": seed, "record": record, "result": result})
            print("seed %d: correct=%s attempted=%d failed=%d" % (
                seed, result["correct"], result["attempted"], result["failed"]),
                file=sys.stderr)
        if args.out:
            with open(args.out, "w") as f:
                json.dump({"workload": args.workload, "seconds": seconds,
                           "trace": args.trace, "runs": runs}, f, indent=1)
    elif args.out and args.against:
        with open(args.out) as f:
            runs = json.load(f)["runs"]
    else:
        parser.error("give --seeds, or --out and --against")

    earlier = None
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)["runs"]

    print("%-38s %14s %9s %9s %7s" % ("metric", "median", "spread", "worse",
                                        "bound"))
    for name in runs[0]["result"]["metrics"]:
        median, rel = spread(values_of(runs, name))
        worse = "-"
        if earlier is not None:
            before = statistics.median(values_of(earlier, name))
            change = (median - before) / before if before else 0.0
            if metrics.get(name, {}).get("better") == "higher":
                change = -change
            worse = "%8.1f%%" % (change * 100)
        bound = metrics.get(name, {}).get("bound")
        print("%-38s %14.6g %8.1f%% %9s %7s" % (
            name, median, rel * 100, worse,
            "-" if bound is None else "%g" % bound))


if __name__ == "__main__":
    main()
