#!/usr/bin/env python3
"""Steadiness check for the vespera host-performance benchmark.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--out FILE]

Runs every workload RUNS times in each of two sets, each run with another
seed (set k uses seeds 1000*k+1 .. 1000*k+RUNS), through perfbench/run.py
with BENCHMARK.json's run_seconds. Runs of the two sets alternate, so
that a slow phase of the host falls on both sets alike. For every
end-to-end metric it prints each set's median and interquartile range
(quartiles as statistics.quantiles(values, n=4) gives them) as a share
of the median, then checks, against the metric's bound in
BENCHMARK.json:

  spread     IQR / median <= bound in each set; a spread above a third
             of the bound is flagged "wide"
  agreement  |median2 - median1| / median1 <= bound

Every run must also report correct outputs. The record (every value of
every run plus the verdicts) is written as JSON to --out. Exits 1 when
any check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    ok = proc.returncode == 0 and result.get("correct") is True
    values = {k: v["value"] for k, v in result.get("metrics", {}).items()}
    return ok, values


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def worse_by(first, second, better):
    """Share by which the second median is worse than the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv):
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(prog="perfbench/steady.py",
                                allow_abbrev=False)
    p.add_argument("--workloads", default=",".join(names))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", default=os.path.join(
        ROOT, "perfbench", "results", "steadiness.json"))
    args = p.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(names)
    if unknown or args.runs < 4:
        p.error(f"unknown workloads {sorted(unknown)}" if unknown
                else "--runs must be at least 4")

    metrics = bench["end_to_end"]
    runs = {w: [[], []] for w in workloads}
    failures = []
    for r in range(args.runs):
        for s in range(2):
            for w in workloads:
                seed = 1000 * (s + 1) + r + 1
                ok, values = run_once(w, seed, bench["run_seconds"])
                runs[w][s].append({"seed": seed, "ok": ok,
                                   "metrics": values})
                if not ok:
                    failures.append(f"{w} seed {seed}: run failed")
                print(f"set {s + 1} run {r + 1} {w} seed {seed}: "
                      + ("ok" if ok else "FAILED"), flush=True)

    verdicts = []
    print(f"\n{'workload':12} {'metric':16} {'median1':>12} {'iqr1':>7} "
          f"{'median2':>12} {'iqr2':>7} {'worse':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [[run["metrics"][name] for run in runs[w][s]
                     if run["ok"]] for s in range(2)]
            if min(len(v) for v in sets) < 4:
                failures.append(f"{w} {name}: too few good runs")
                continue
            (med1, iqr1), (med2, iqr2) = spread(sets[0]), spread(sets[1])
            worse = worse_by(med1, med2, m["better"])
            verdict = "ok"
            if abs(worse) > bound:
                verdict = "DISAGREE"
            elif max(iqr1, iqr2) > bound:
                verdict = "UNSTEADY"
            elif max(iqr1, iqr2) > bound / 3:
                verdict = "wide"
            if verdict in ("DISAGREE", "UNSTEADY"):
                failures.append(f"{w} {name}: {verdict}")
            verdicts.append({"workload": w, "metric": name,
                             "median": [med1, med2], "iqr_share":
                             [iqr1, iqr2], "worse_share": worse,
                             "bound": bound, "verdict": verdict})
            print(f"{w:12} {name:16} {med1:12.6g} {iqr1:7.2%} "
                  f"{med2:12.6g} {iqr2:7.2%} {worse:7.2%} {bound:6.2f}"
                  f"  {verdict}")

    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump({"run_seconds": bench["run_seconds"], "runs": runs,
                   "verdicts": verdicts, "failures": failures}, f,
                  indent=1)
    for line in failures:
        print("FAIL:", line)
    print("steady" if not failures else "not steady")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
