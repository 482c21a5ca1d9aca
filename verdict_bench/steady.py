#!/usr/bin/env python3
"""Steadiness check for the verdict benchmark.

    python3 verdict_bench/steady.py [--runs 10] [--first-seed 1] [--workloads a,b]
                                     [--seconds S] [--log FILE]

Runs every workload --runs times through run.py, each time with another seed,
and prints, per end-to-end metric, the median, the quartiles and the spread:
(Q3 - Q1) / median with statistics.quantiles(values, n=4). One criterion: a
spread must stay below a third of the metric's bound in BENCHMARK.json, so
that noise alone is unlikely to move a median by the whole bound (setup_s is
reported but not judged: its bound is on the median). Exact-count fingerprints
must repeat: every run of a workload, whatever its seed, gives one
fingerprint, and so does its first seed run again. The median host steal share
of each workload's runs is printed beside its spreads. Exits non-zero on a
spread at or above a third of its bound, a fingerprint drift, or an incorrect
run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("steady.py: %s seed %d exited with %d" % (workload, seed, proc.returncode))
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    fingerprint = next(line["fingerprint"] for line in lines if "fingerprint" in line)
    steal = next(line["meta"]["steal_share"] for line in lines
                 if "steal_share" in line.get("meta", {}))
    return lines[-1], fingerprint, steal


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--log", help="append every result line to this file")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        fingerprints, steals = [], []
        seeds = list(range(args.first_seed, args.first_seed + args.runs))
        for seed in seeds:
            result, fingerprint, steal = run_once(workload, seed, args.seconds)
            if args.log:
                with open(args.log, "a") as log:
                    log.write(json.dumps({"workload": workload, "seed": seed, "result": result,
                                          "fingerprint": fingerprint, "steal_share": steal})
                              + "\n")
            if not result["correct"]:
                print("%s seed %d: incorrect run" % (workload, seed))
                ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            fingerprints.append(fingerprint)
            steals.append(steal)
        _, again, _ = run_once(workload, seeds[0], args.seconds)
        if again != fingerprints[0]:
            print("%s: fingerprint of seed %d drifted: %s vs %s"
                  % (workload, seeds[0], fingerprints[0], again))
            ok = False
        if any(f != fingerprints[0] for f in fingerprints):
            print("%s: fingerprints differ across seeds" % workload)
            ok = False
        print("== %s (%d runs, median host steal share %.4f)"
              % (workload, args.runs, statistics.median(steals)))
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else 0.0
            flagged = name != "setup_s" and spread >= bounds[name] / 3
            ok &= not flagged
            print("  %-18s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f (bound %.2f)%s"
                  % (name, median, q1, q3, spread, bounds[name],
                     "  <-- too wide" if flagged else ""))
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
