#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the repository's ../src) into
.bench_build/perfbench under the repository root, then runs the bench
binary with the given arguments. The binary prints a human-readable table
on stderr and, as the last line of stdout, one JSON result object. The exit
code is the binary's: non-zero when a correctness check fails, and also
when the sources are missing or the build fails (no result line then).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "replica.h")):
        print("perfbench: protocol sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return None
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode
            except OSError as e:
                print(f"perfbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
                return None
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.readlines()[-20:]
                print("perfbench: build failed:\n" + "".join(tail), file=sys.stderr)
                return None
    return os.path.join(BUILD, "perfbench")


def main():
    exe = build()
    if exe is None:
        return 2
    cmd = [exe] + sys.argv[1:] + ["--work-dir", os.path.join(BUILD, "run")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
