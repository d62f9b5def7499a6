#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed for each workload and
prints, per metric, the median of the runs and the distance between
their first and third quartiles (statistics.quantiles, n=4) as a share
of the median, next to a third of the metric's bound.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] \
        [--workload NAME ...] [--seconds S] [--trace 0|1]

Run it from the repository root. Raw results are written as JSON to
.perfbench/spread-<workload>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["report"] = lines[:-1]
    if not result["correct"]:
        sys.stderr.write("\n".join(l for l in lines if "FAIL" in l) + "\n")
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    opts = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = opts.seconds or bench["run_seconds"]
    workloads = opts.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] if opts.trace == 0 else bench["per_layer"]
    os.makedirs(".perfbench", exist_ok=True)
    ok = True
    for workload in workloads:
        results = []
        for k in range(opts.runs):
            seed = opts.first_seed + k
            results.append(run_once(bench["command"], workload, seed, seconds, opts.trace))
            host = [l.split("host ", 1)[1].split(";")[0] for l in results[-1]["report"] if "host steal" in l]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{m['name']}={results[-1]['metrics'][m['name']]['value']:.6g}" for m in metrics)
                + (f"  [{host[0]}]" if host else ""), flush=True)
        with open(f".perfbench/spread-{workload}.json", "w") as f:
            json.dump(results, f, indent=1)
        failed = sum(r["failed"] for r in results)
        incorrect = sum(not r["correct"] for r in results)
        print(f"== {workload}: {opts.runs} runs, {incorrect} incorrect, {failed} failed ops/checks")
        ok &= incorrect == 0
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            s = spread(values) if len(values) > 1 else float("nan")
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "ok" if s < bound / 3 else "WIDE"
                ok &= s < bound / 3
            print(f"   {m['name']:<32} median {statistics.median(values):<14.6g} "
                  f"spread {s:.4f}" + (f"  (bound/3 {bound / 3:.4f}) {verdict}" if bound else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
