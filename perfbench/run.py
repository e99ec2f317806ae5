#!/usr/bin/env python3
"""Builds and runs the ssco benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and compiles the
library sources with perfbench/CMakeLists.txt into $CARGO_TARGET_DIR
(default .bench_build); later runs only re-check the build. Build output
goes to stderr; the benchmark's last stdout line is its JSON result. With
--trace 1 the spans are also written to <build dir>/trace-<workload>.json.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("cold-plan", "serve-drift", "exec-loop")
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(out_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "steady_state.h")):
        sys.exit("perfbench: library sources not found under src/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--solver-threads", type=int, default=None,
                    help="cold-plan solver thread budget (default 2)")
    args = ap.parse_args()

    out_dir = build_dir()
    build(out_dir)
    cmd = [os.path.join(out_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--trace-file", os.path.join(out_dir, "trace-%s.json" % args.workload)]
    if args.solver_threads is not None:
        cmd += ["--solver-threads", str(args.solver_threads)]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
