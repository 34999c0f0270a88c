#!/usr/bin/env python3
"""SpiderNet wall-clock benchmark: builds the benchmark from source, then
runs one workload and prints its result as the last line of stdout.

    python3 perfbench/run.py --workload <compose-exact|compose-large|serve-churn>
                             --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The build tree is .bench_build/perfbench;
traced runs write their spans to .bench_build/perfbench/traces/. Build
output goes to stderr, so stdout carries only the benchmark's own lines.
The arguments go to the benchmark binary unchanged.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.stderr.write("run.py: build step failed: %s\n" % " ".join(cmd))
            sys.exit(1)
    return os.path.join(BUILD, "perfbench")


def main():
    # The binary checks the flags (unknown or missing ones exit 2).
    cmd = [build()] + sys.argv[1:]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
