#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see benchmark/README.md).

    python3 benchmark/run.py --workload index_match_40k --seed 1 \
        --seconds 45 --trace 0

Run from the repository root. The program is built from source into
.bench_build/ (CMake, Release), the workload runs in one process, and the
last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The full record, with provenance (git SHA, host, thread counts, seeds,
rates), is written to .bench_build/results/. Exits non-zero when the build
fails, the run fails or times out, or the output oracle finds a mismatch.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "cmake" / "leapme_benchmark"
WORKLOADS = ("index_match_40k", "offline_fit_match")
DEFAULT_SEED = 1
HELD_OUT_SEED = 7
# A run must end within 180 s; the build before a first run is not counted.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"program sources not found under {ROOT / 'src'}")
        return False
    cmake_dir = BUILD / "cmake"
    steps = []
    if not (cmake_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(cmake_dir), "--target",
                  "leapme_benchmark", "-j", str(os.cpu_count() or 1)])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return False
    return BINARY.is_file()


def git_provenance():
    def git(*args):
        return subprocess.run(["git", "-C", str(ROOT), *args],
                              capture_output=True, text=True)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode or pathlib.Path(top.stdout.strip()) != ROOT:
            return {"git_sha": None, "git_dirty": None}
        sha = git("rev-parse", "HEAD").stdout.strip() or None
        dirty = bool(git("status", "--porcelain").stdout.strip())
        return {"git_sha": sha, "git_dirty": dirty}
    except OSError:
        return {"git_sha": None, "git_dirty": None}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2
    traces = BUILD / "traces"
    results = BUILD / "results"
    traces.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)

    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
               "--trace", str(args.trace), "--trace-dir", str(traces)]
    started = time.time()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 3
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"no result from the benchmark (exit {proc.returncode})")
        return proc.returncode or 4

    provenance = record.get("provenance", {})
    provenance.update(git_provenance())
    provenance.update({"default_seed": DEFAULT_SEED,
                       "held_out_seed": HELD_OUT_SEED,
                       "wall_s": round(time.time() - started, 3)})
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    if proc.returncode != 0 or not record["correct"]:
        log("output check failed (oracle mismatch)")
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
