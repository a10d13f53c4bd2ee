#!/usr/bin/env python3
"""Builds bench_pipeline from source and runs it.

    python3 bench/pipeline/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a tsyn source tree. The first call configures and
builds the tsyn libraries (the tier-1 CMake project, library targets only)
and then the benchmark package against them, all under build-bench/;
later calls only let CMake confirm both are up to date. Build output goes
to stderr, so stdout is the benchmark's own: a human-readable table per
workload and, as its last line, one JSON object with the metrics.
--seconds defaults to run_seconds of BENCHMARK.json.

Chrome traces of --trace 1 runs land in build-bench/trace/ and the full
record of each run (every pass, quartiles, quality, host) in
build-bench/results/<workload>-seed<N>-trace<0|1>.json.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
OUT = ROOT / "build-bench"
LIBRARIES = ["tsyn_util", "tsyn_graph", "tsyn_cdfg", "tsyn_hls", "tsyn_rtl",
             "tsyn_gatelevel", "tsyn_observe", "tsyn_compaction",
             "tsyn_testability", "tsyn_bist"]


def record_path(tree, workload, seed, trace):
    """Where a run in `tree` writes its full record."""
    return (Path(tree) / OUT.relative_to(ROOT) / "results"
            / f"{workload}-seed{seed}-trace{trace}.json")


def run(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit(f"run.py: build step failed ({proc.returncode}): "
                 + " ".join(cmd))


def build():
    jobs = str(os.cpu_count() or 1)
    libs = OUT / "tsyn"
    bench = OUT / "pipeline"
    if not (libs / "CMakeCache.txt").exists():
        run(["cmake", "-S", str(ROOT), "-B", str(libs)])
    run(["cmake", "--build", str(libs), "-j", jobs, "--target", *LIBRARIES])
    if not (bench / "CMakeCache.txt").exists():
        run(["cmake", "-S", str(ROOT / "bench" / "pipeline"), "-B",
             str(bench), f"-DTSYN_BUILD_DIR={libs}"])
    run(["cmake", "--build", str(bench), "-j", jobs])
    return bench / "bench_pipeline"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=61713)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    if not (ROOT / "CMakeLists.txt").exists() or not (ROOT / "src").is_dir():
        sys.exit(f"run.py: {ROOT} is not a tsyn source tree")
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = spec["run_seconds"]
    binary = build()

    record = record_path(ROOT, args.workload, args.seed, args.trace)
    record.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--trace-dir", str(OUT / "trace"), "--out", str(record)]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
