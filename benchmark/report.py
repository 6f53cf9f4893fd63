#!/usr/bin/env python3
"""Runs the workloads of BENCHMARK.json, one child process each, and reports.

Called by run.sh; see its head for the modes. The spread of a metric over a
set of runs is the distance between the first and third quartile, as
statistics.quantiles(values, n=4) gives them, as a share of the median.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(binary, out, workload, seed, seconds, trace):
    """One child process; returns (result object, stderr report lines)."""
    cmd = [binary, "--out-dir", out, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    report = done.stderr.splitlines()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {done.returncode}")
    return json.loads(lines[-1]), report


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def full_report(args, contract):
    """Every workload untraced, then traced; result.json beside the traces."""
    result = {"seed": args.seed, "seconds": args.seconds, "claim": None, "workloads": {}}
    ok = True
    for trace in (0, 1):
        for w in args.workloads:
            started = time.time()
            obj, report = run_once(args.bin, args.out, w, args.seed, args.seconds, trace)
            print(f"== {w} trace {trace} ({time.time() - started:.1f} s)")
            for line in report:
                print(line)
            ok = ok and obj["correct"] and obj["failed"] == 0
            entry = result["workloads"].setdefault(w, {})
            entry["traced" if trace else "end_to_end"] = obj
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "result.json")
    with open(path, "w") as f:
        json.dump(result, f, indent=1)
    print(f"wrote {path}")
    return 0 if ok else 1


def check_repeat(args, contract):
    """Two sets of runs of the same code; every spread and median gap."""
    bounds = {m["name"]: (m["bound"], m["better"]) for m in contract["end_to_end"]}
    worst = 0.0
    failures = []
    for w in args.workloads:
        sets = []
        for s in range(2):
            seeds = [args.seed + s * args.runs + i for i in range(args.runs)]
            runs = [run_once(args.bin, args.out, w, seed, args.seconds, 0)[0] for seed in seeds]
            bad = [r for r in runs if not r["correct"] or r["failed"]]
            if bad:
                failures.append(f"{w}: {len(bad)} runs incorrect or with failed operations")
            sets.append({name: [r["metrics"][name]["value"] for r in runs] for name in bounds})
        for name, (bound, better) in bounds.items():
            medians = [statistics.median(s[name]) for s in sets]
            spreads = [spread(s[name]) for s in sets]
            worse = (medians[1] - medians[0]) / medians[0]
            if better == "higher":
                worse = -worse
            verdict = "ok"
            if name != "setup_s" and max(spreads) > bound:
                verdict = "SPREAD BEYOND BOUND"
            if worse > bound:
                verdict = "SECOND MEDIAN WORSE THAN BOUND"
            if verdict != "ok":
                failures.append(f"{w} {name}: {verdict}")
            if name != "setup_s":
                worst = max(worst, max(spreads) / bound)
            print(f"{w:16} {name:14} median {medians[0]:.6g} / {medians[1]:.6g} "
                  f"spread {spreads[0]:.3f} / {spreads[1]:.3f} second worse by {worse:+.3f} "
                  f"bound {bound} {verdict}")
            sys.stdout.flush()
    print(f"largest spread is {worst:.2f} of its bound")
    for f in failures:
        print("FAILED:", f)
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--bin", required=True)
    p.add_argument("--contract", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", help="comma-separated subset")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--check-repeat", action="store_true")
    args = p.parse_args()
    with open(args.contract) as f:
        contract = json.load(f)
    if args.seconds is None:
        args.seconds = contract["run_seconds"] / (10 if args.smoke else 1)
    names = [w["name"] for w in contract["workloads"]]
    args.workloads = args.workloads.split(",") if args.workloads else names
    unknown = [w for w in args.workloads if w not in names]
    if unknown:
        raise SystemExit(f"no workload {unknown[0]} in {args.contract}")
    return (check_repeat if args.check_repeat else full_report)(args, contract)


if __name__ == "__main__":
    sys.exit(main())
