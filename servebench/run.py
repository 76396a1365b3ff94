#!/usr/bin/env python3
"""Build and run the serving benchmark for one workload and seed.

Run from the root of a repository checkout:

    python3 servebench/run.py --workload cold_extract --seed 1 \
        --seconds 12 --trace 0

Workloads: cold_extract, zipf_hits, tiered_restart (see serve_bench.cc).
The first call configures and builds servebench/ and the library it
links into $CARGO_TARGET_DIR/servebench (default .bench_build/servebench);
later calls only rebuild what changed. Every run first executes the
harness self-test. The last line of standard output is the benchmark's
JSON result; build logs go to the build directory, diagnostics to
standard error. Exits non-zero, printing no result, when the checkout,
the build, the self-test or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cold_extract", "zipf_hits", "tiered_restart")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"servebench: {message}", file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout):
    """Runs cmd with its output in log_path; fails with the log's tail."""
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        tail = Path(log_path).read_text(errors="replace").splitlines()[-40:]
        print("\n".join(tail), file=sys.stderr)
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build(root, build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").exists():
        run_logged(["cmake", "-S", str(root / "servebench"), "-B",
                    str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
                   build_dir / "configure.log", BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", str(build_dir), "--target", "serve_bench",
                "serve_bench_selftest", "-j", jobs],
               build_dir / "build.log", BUILD_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = Path.cwd()
    for needed in ("CMakeLists.txt", "src", "servebench/CMakeLists.txt"):
        if not (root / needed).exists():
            fail(f"run from the repository root: {needed} is missing")

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (root / build_dir / "servebench").resolve()
    build(root, build_dir)

    selftest = subprocess.run([str(build_dir / "serve_bench_selftest")],
                              stdout=subprocess.DEVNULL, timeout=60)
    if selftest.returncode != 0:
        fail("harness self-test failed")

    work_dir = build_dir / "work"
    work_dir.mkdir(exist_ok=True)
    try:
        proc = subprocess.run(
            [str(build_dir / "serve_bench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work-dir", str(work_dir)],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stderr.write(proc.stdout)
        fail("benchmark printed no JSON result")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
