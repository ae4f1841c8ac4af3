#!/usr/bin/env python3
"""Same-machine A/B of the repository benchmark (perfbench/run.py).

Usage: perf_ab.py BASE_DIR HEAD_DIR [--pairs N] [--seconds S] [--seed K]
                  [--workload W ...]

Runs `python3 <dir>/perfbench/run.py --workload W --seed K --trace 0
--seconds S` in the BASE_DIR and HEAD_DIR checkouts, N pairs per workload
(every workload of HEAD_DIR/BENCHMARK.json by default), alternating which
side runs first.  For each end-to-end metric it prints the median and
quartiles of both sides, the change of the HEAD median, and the number of
pairs HEAD won.  Exit status: 0 ok; 1 when a run is not correct or a HEAD
median is worse than the BASE median by more than the metric's `bound` in
BENCHMARK.json (a fraction of the BASE median); 2 on usage errors.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    """One `run.py --trace 0` run; returns its result JSON (last line)."""
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", "0",
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perf_ab: run failed (exit %d) in %s: %s" %
                 (proc.returncode, checkout, " ".join(cmd)))
    return json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3) by the inclusive method, which needs no minimum n."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("head")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    with open(os.path.join(args.head, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    sides = {"base": args.base, "head": args.head}

    failures = []
    for workload in workloads:
        print("%s: %d pairs, seed %d, --seconds %g" %
              (workload, args.pairs, args.seed, args.seconds), flush=True)
        runs = {"base": [], "head": []}
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                result = run_once(sides[side], workload, args.seed,
                                  args.seconds)
                if not result["correct"] or result["failed"] != 0:
                    failures.append("%s %s pair %d: not correct" %
                                    (workload, side, pair))
                runs[side].append(result["metrics"])
            print("  pair %d: wall_s base %.4g head %.4g" %
                  (pair, runs["base"][-1]["wall_s"]["value"],
                   runs["head"][-1]["wall_s"]["value"]), flush=True)
        print("  %-20s %27s %27s %8s %5s" %
              ("metric", "base q1/median/q3", "head q1/median/q3", "change",
               "wins"))
        for m in spec["end_to_end"]:
            name = m["name"]
            base = [r[name]["value"] for r in runs["base"]]
            head = [r[name]["value"] for r in runs["head"]]
            lower = m["better"] == "lower"
            wins = sum(1 for b, h in zip(base, head)
                       if (h < b if lower else h > b))
            bq, hq = quartiles(base), quartiles(head)
            change = (hq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            worse = change if lower else -change
            print("  %-20s %9.4g/%8.4g/%8.4g %9.4g/%8.4g/%8.4g %+7.1f%% %2d/%d"
                  % (name, *bq, *hq, 100 * change, wins, args.pairs))
            if worse > m["bound"]:
                failures.append("%s %s: head median %.4g is %.1f%% worse "
                                "than base %.4g (bound %.0f%%)" %
                                (workload, name, hq[1], 100 * worse, bq[1],
                                 100 * m["bound"]))
    for f in failures:
        print("FAIL: " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
