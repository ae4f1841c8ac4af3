#!/usr/bin/env python3
"""The repository benchmark: builds gcbench from the sources in this checkout,
runs one workload, checks its outputs, and prints the result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0|1
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record-references

--trace 0 prints the end-to-end metrics of BENCHMARK.json (every observer
off); --trace 1 prints its per-layer metrics (traced run plus probes).  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A point fails when a check inside gcbench fails or when
its digest differs from the one recorded in references.json for this seed.
Workloads, metrics and layers are documented in perfbench/metrics.json.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
GCBENCH = os.path.join(BUILD_DIR, "gcbench")
REFERENCES = os.path.join(HERE, "references.json")
METRICS_DOC = os.path.join(HERE, "metrics.json")
WORKLOADS = ("stream_partitioned", "gang_stream", "gang_alltoall")
# The default seed (the figure benches' ClusterConfig::seed) and one held-out
# seed.  No change may be tuned against the held-out seed.
REFERENCE_SEEDS = (1, 2001)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build gcbench; exit non-zero when that fails."""
    if not os.path.exists(os.path.join(ROOT, "src", "core", "cluster.cpp")):
        log("perfbench: simulator sources (src/) not found in %s" % ROOT)
        sys.exit(2)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: %s" % " ".join(cmd))
            sys.exit(2)


def gcbench(workload, seed, seconds, mode, mini=False):
    """Run gcbench and return its JSON report (its last stdout line)."""
    cmd = [GCBENCH, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    if mini:
        cmd.append("--mini")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: gcbench timed out: %s" % " ".join(cmd))
        sys.exit(3)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: gcbench failed (exit %d): %s" %
            (proc.returncode, " ".join(cmd)))
        sys.exit(3)
    return json.loads(lines[-1])


def load_json(path):
    with open(path) as f:
        return json.load(f)


def reference_mismatches(report):
    """Points whose digest differs from the recorded reference (none when
    this seed has no reference)."""
    refs = load_json(REFERENCES).get(report["workload"], {})
    want = refs.get(str(report["seed"]))
    if want is None:
        return []
    got = report["digests"]
    bad = sorted(p for p in set(want) | set(got) if want.get(p) != got.get(p))
    for p in bad:
        log("perfbench: %s seed %s point %s: digest %s, reference %s (%s)" %
            (report["workload"], report["seed"], p, got.get(p), want.get(p),
             report["figures"].get(p, "missing")))
    return bad


def measure(workload, seed, seconds, trace, mini=False):
    """One benchmark run: returns (result dict, gcbench report)."""
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    report = gcbench(workload, seed, seconds, "layers" if trace else "e2e",
                     mini)
    # Every sweep of the run reproduced the first one (gcbench checks), so a
    # reference mismatch fails the point in each sweep.  A point that also
    # failed a check inside gcbench still counts once per sweep.
    sweeps = int(report["totals"]["sweeps"])
    mismatched = [] if mini else reference_mismatches(report)
    attempted = int(report["attempted"])
    failed = min(attempted, int(report["failed"]) + len(mismatched) * sweeps)
    for point, why in report["failures"]:
        log("perfbench: %s point %s failed: %s" % (workload, point, why))
    metrics = {}
    complete = True
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if (got is None or got["unit"] != m["unit"]
                or not math.isfinite(got["value"])):
            log("perfbench: metric %s missing or malformed: %r" %
                (m["name"], got))
            complete = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    result = {
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report


def print_result(result, trace):
    for name, m in result["metrics"].items():
        print("%-45s %16.6g %s" % (name, m["value"], m["unit"]))
    if not trace:
        print("%-45s %16.6g %s" % ("failed_point_frac",
                                    result["failed"] / result["attempted"],
                                    "ratio"))
    print(json.dumps(result))


def selftest():
    """2-node miniature of every workload, both modes: the checks of a real
    run plus conservation, the shared wall_s denominator, and agreement of
    every metric name and unit between BENCHMARK.json, metrics.json and
    the printed output."""
    problems = []
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    doc = load_json(METRICS_DOC)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    documented = {m["name"]: m for m in doc["metrics"]}
    for name in sorted(set(declared) | set(documented)):
        a, b = declared.get(name), documented.get(name)
        if a is None or b is None:
            problems.append("metric %s not in both BENCHMARK.json and "
                            "metrics.json" % name)
        elif a["unit"] != b["unit"] or a["better"] != b["better"]:
            problems.append("metric %s: unit/better differ" % name)
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, report = measure(workload, 1, 0, trace, mini=True)
            tag = "%s --trace %d (mini)" % (workload, trace)
            if not result["correct"]:
                problems.append("%s: not correct" % tag)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            for m in wanted:
                if m["name"] not in result["metrics"]:
                    problems.append("%s: %s not printed" % (tag, m["name"]))
            if not trace:
                # Both rates divide the same sweep work by the same wall_s.
                mt, tot = report["metrics"], report["totals"]
                wall = mt["wall_s"]["value"]
                for rate, work in (("data_packets_per_s", "data_packets"),
                                   ("sim_s_per_s", "sim_s")):
                    if not math.isclose(mt[rate]["value"] * wall, tot[work],
                                        rel_tol=1e-6):
                        problems.append("%s: %s is not %s / wall_s" %
                                        (tag, rate, work))
                continue
            mt = report["metrics"]
            sent = mt["fm.packets_sent"]["value"]
            wire = mt["net.fabric.data_packets"]["value"]
            nic = mt["net.nic.data_sent"]["value"]
            if workload == "gang_alltoall":
                # The all-to-all never drains: packets may still sit in send
                # queues when the run stops, but none may appear from nowhere.
                ok = sent >= wire >= nic > 0
            else:
                ok = sent == wire == nic > 0
            if not ok:
                problems.append("%s: packet conservation broken "
                                "(fm %d, fabric %d, nic %d)" %
                                (tag, sent, wire, nic))
    for p in problems:
        log("selftest: " + p)
    print("selftest: %s" % ("ok" if not problems else
                            "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def record_references():
    """Record every point's digest at the reference seeds.  Only for a
    commit whose figures are known to be right: every later run is checked
    against these."""
    refs = {}
    for workload in WORKLOADS:
        refs[workload] = {}
        for seed in REFERENCE_SEEDS:
            report = gcbench(workload, seed, 0, "e2e")
            if report["failed"]:
                log("perfbench: %s seed %d has failed points; not recording" %
                    (workload, seed))
                return 1
            refs[workload][str(seed)] = report["digests"]
    with open(REFERENCES, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    print("recorded %s" % os.path.relpath(REFERENCES, ROOT))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record-references", action="store_true")
    args = ap.parse_args()
    build()
    if args.selftest:
        return selftest()
    if args.record_references:
        return record_references()
    if args.workload is None:
        ap.error("--workload is required")
    result, _ = measure(args.workload, args.seed, args.seconds, args.trace)
    print_result(result, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
