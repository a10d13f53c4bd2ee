#!/usr/bin/env python3
"""Run-to-run spread of bench_pipeline, alone or against a baseline tree.

    python3 bench/pipeline/spread.py [--runs 10] [--seed N] [--workload NAME ...]
                                     [--baseline DIR] [--out FILE]

Run from the root of a tsyn source tree. Each run is one call of run.py
(the benchmark's command, trace off) with --seconds taken from
BENCHMARK.json. Run i uses seed i, as the benchmark's acceptance runs do;
--seed N runs every one at seed N instead, which leaves only the host's
noise in the spread.

Alone, it prints for every workload and end-to-end metric the median of
the runs, their quartiles (statistics.quantiles, n=4) and the spread: the
quartile distance as a share of the median. The bounds in BENCHMARK.json
come from such sets (README.md, "Noise bounds").

With --baseline DIR (a second tree, say a checkout of the parent commit)
it runs pairs instead: run i calls both trees at the same seed, the
baseline first on even i and last on odd i. For each metric it prints both
medians and quartiles, the share of pairs the tree under test won (ties
count for neither side), and a verdict: "gain" when it won at least 9 in
10 pairs and the medians differ by more than the baseline's quartile
distance, "regression" when its median is worse than the baseline's by
more than the metric's bound, "unresolved" when the baseline's own spread
exceeds the bound (unless every run under test beat every baseline run),
and "same" otherwise.

Either way, every run at a given seed must report the same quality
outputs (coverage, efficiency, patterns, scan registers, loops, area; the
"quality" map of the run's record), in both trees. Any difference is
printed as a quality regression. The exit code is 1 when any verdict is a
regression, 0 otherwise.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import ROOT, record_path


def run_once(tree, workload, seed, seconds):
    """One run of `tree`: its end-to-end metrics, its quality outputs and
    how long it took, build check included."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "bench/pipeline/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"spread.py: run failed in {tree} ({workload}, seed {seed}):"
                 f"\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit(f"spread.py: incorrect result in {tree} ({workload}, "
                 f"seed {seed}):\n{proc.stdout[-2000:]}")
    record = json.loads(record_path(tree, workload, seed, 0).read_text())
    return {"seed": seed, "run_s": time.monotonic() - start,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            "quality": record["workloads"][0]["quality"]}


def stats(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def verdict(metric, base, test):
    better = -1 if metric["better"] == "lower" else 1
    b, t = stats(base), stats(test)
    wins = sum(1 for x, y in zip(base, test) if better * (y - x) > 0)
    worse = better * (b["median"] - t["median"]) / b["median"]
    every_run_better = all(better * (y - x) > 0 for x in base for y in test)
    if worse > metric["bound"]:
        word = "regression"
    elif b["spread"] > metric["bound"] and not every_run_better:
        word = "unresolved"
    elif wins >= 0.9 * len(base) and \
            abs(t["median"] - b["median"]) > b["q3"] - b["q1"]:
        word = "gain"
    else:
        word = "same"
    return b, t, wins, word


def quality_differences(runs):
    """Each (seed, output, first value, other value) where two runs at one
    seed disagree; `runs` are (tree label, run) pairs."""
    first, diffs = {}, []
    for label, r in runs:
        ref_label, ref = first.setdefault(r["seed"], (label, r["quality"]))
        for key in sorted(set(ref) | set(r["quality"])):
            a, b = ref.get(key), r["quality"].get(key)
            if a != b:
                diffs.append((r["seed"], key, f"{ref_label} {a}",
                              f"{label} {b}"))
    return diffs


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int,
                    help="run every run at this seed instead of 1..runs")
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--baseline", type=Path)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    if args.runs < 4:
        ap.error("--runs must be at least 4 for quartiles")
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    metrics = spec["end_to_end"]

    record, regressions = {}, 0
    for w in workloads:
        test, base = [], []
        for i in range(1, args.runs + 1):
            seed = i if args.seed is None else args.seed
            if args.baseline and i % 2 == 0:
                base.append(run_once(args.baseline, w, seed, seconds))
            test.append(run_once(ROOT, w, seed, seconds))
            if args.baseline and i % 2 == 1:
                base.append(run_once(args.baseline, w, seed, seconds))
            print(f"{w} run {i} seed {seed} ({test[-1]['run_s']:.1f} s): "
                  + " ".join(f"{k}={v:.6g}"
                             for k, v in test[-1]["metrics"].items()),
                  flush=True)
        record[w] = {"test": test, "baseline": base}
        for m in metrics:
            name = m["name"]
            tv = [r["metrics"][name] for r in test]
            if not args.baseline:
                s = stats(tv)
                print(f"  {w:15} {name:12} median {s['median']:.6g} "
                      f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                      f"spread {s['spread']:.4f} (bound {m['bound']})")
                continue
            b, t, wins, word = verdict(
                m, [r["metrics"][name] for r in base], tv)
            regressions += word == "regression"
            print(f"  {w:15} {name:12} base {b['median']:.6g} "
                  f"[{b['q1']:.6g}, {b['q3']:.6g}]  test {t['median']:.6g} "
                  f"[{t['q1']:.6g}, {t['q3']:.6g}]  wins {wins}/{len(tv)}  "
                  f"{word}")
        diffs = quality_differences([("baseline", r) for r in base] +
                                    [("test", r) for r in test])
        regressions += len(diffs)
        if not diffs:
            print(f"  {w:15} quality      identical at every seed")
        for seed, key, a, b in diffs:
            print(f"  {w:15} quality      seed {seed} {key}: {a} vs {b}  "
                  f"regression")
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
