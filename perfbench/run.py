#!/usr/bin/env python3
"""Builds and runs the Helios benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload <sim-table2|sim-xshard-faults|live-wan3>
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (which compiles src/) into
.bench_build/perfbench; later runs rebuild incrementally. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result. The
exit code is non-zero if the build fails or any correctness check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "helios_perfbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "helios_perfbench"])
    for cmd in steps:
        try:
            failed = subprocess.run(cmd, stdout=sys.stderr,
                                    stderr=sys.stderr).returncode != 0
        except OSError as e:
            print("perfbench: cannot run %s: %s" % (cmd[0], e),
                  file=sys.stderr)
            return False
        if failed:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["sim-table2", "sim-xshard-faults", "live-wan3"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not build():
        return 1
    work_dir = os.path.join(".bench_build", "run-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work_dir", work_dir, "--git_sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stderr.write((e.stdout or b"").decode(errors="replace")
                         if isinstance(e.stdout, bytes) else (e.stdout or ""))
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
