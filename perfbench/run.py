#!/usr/bin/env python3
"""Build and run the casvm repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark program is built from the checkout's own sources with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then run
once for the chosen workload. Its human-readable report goes to stdout; the
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Untraced runs report the end-to-end metrics named in
BENCHMARK.json, the traced run its per-layer metrics. The exit code is not 0
when the build fails, a correctness gate fails or the run overruns.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr (stdout carries the result)."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout)
    if proc.returncode != 0:
        fail(f"build step failed: {' '.join(cmd)}", 3)


def build(build_dir, deadline):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"], deadline - time.monotonic())
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", build_dir, "-j", jobs],
              deadline - time.monotonic())
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no perfbench binary", 3)
    return binary


def run_benchmark(cmd):
    """Run the program in its own process group; kill the group on overrun."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    return proc.returncode, out.decode("utf-8", "replace").splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    if not (os.path.isdir(os.path.join(ROOT, "src")) and
            os.path.isdir(os.path.join(ROOT, "include", "casvm"))):
        fail("no casvm sources (src/, include/casvm/) in this checkout")
    if not re.fullmatch(r"[a-z][a-z-]*", args.workload):
        fail(f"bad workload name {args.workload!r}")
    if args.seed < 0 or not 0 < args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds in (0, 600]")

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.join(ROOT, build_root)
    binary = build(os.path.join(build_root, "perfbench"),
                   time.monotonic() + BUILD_TIMEOUT_S)

    work_dir = os.path.join(build_root, "runs",
                            f"{args.workload}.{args.seed}.{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    code, lines = run_benchmark([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--work-dir", work_dir])
    if not lines:
        fail(f"benchmark printed nothing (exit code {code})", 5)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last line is not JSON (exit code {code}): {lines[-1]}", 5)

    # The program's metric set must be exactly the one BENCHMARK.json names.
    declared = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    measured = {k: v["unit"] for k, v in result["metrics"].items()}
    if measured != declared:
        missing = sorted(set(declared) - set(measured))
        extra = sorted(set(measured) - set(declared))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unexpected {extra}, or units differ", 6)
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
