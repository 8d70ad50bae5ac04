#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload analytic_search --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root or anywhere else: the library and the
benchmark are built from source into .bench_build/perfbench under the
root. The last line of stdout is the run's JSON result; it is printed only
when the run succeeded and its metrics match BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
# Extra processes that only time the set-up: how fast one process runs
# varies from process to process, so setup_s is the median over the run's
# own set-up and these.
SETUP_PROCESSES = 4


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build(targets):
    """Configures (once) and builds `targets`; False on any failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):  # never configured successfully
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", str(len(os.sched_getaffinity(0))),
                  "--target", *targets])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=840)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"build step failed: {e}")
            return False
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_result(result, trace):
    """Problems with the result line, judged against BENCHMARK.json."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        return problems
    with open(spec_path) as f:
        spec = json.load(f)
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != declared:
        problems.append(f"metrics {got} differ from BENCHMARK.json {declared}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    if args.self_test:
        if not build(["perfbench_tests"]):
            return 2
        return subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode
    if not args.workload:
        ap.error("--workload is required")

    if not build(["perfbench"]):
        return 2
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--commit", commit()]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-file", os.path.join(traces, f"{args.workload}-seed{args.seed}.jsonl")]
    start = time.monotonic()
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 3
    sys.stderr.write(done.stderr)
    lines = done.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if done.returncode != 0:
        log(f"benchmark exited with {done.returncode}")
        return done.returncode
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"last line is not JSON: {lines[-1]!r}")
        return 3
    if not args.trace:
        setups = [result["metrics"]["setup_s"]["value"]]
        for _ in range(SETUP_PROCESSES):
            out = subprocess.run(cmd + ["--setup-only", "1"], capture_output=True, text=True,
                                 timeout=60)
            if out.returncode != 0:
                log(f"set-up run exited with {out.returncode}")
                return out.returncode
            setups.append(json.loads(out.stdout.strip().split("\n")[-1])["setup_s"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        lines[-1] = json.dumps(result)
    problems = check_result(result, args.trace)
    if problems:
        for p in problems:
            log(p)
        return 3
    log(f"{args.workload} seed {args.seed}: {time.monotonic() - start:.1f} s")
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
