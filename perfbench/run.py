#!/usr/bin/env python3
"""Build and run the XFM simulator benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet_steady --seed 1 \
        --seconds 10 --trace 0

The script compiles the simulator sources from ``src/`` together with
the benchmark binary in this directory (CMake, Release) into
``.bench_build/perfbench``, then runs the binary. Its report
goes to standard output; its last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The exit
status is non-zero when the build fails, the sources are missing or
any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
BINARY = BUILD_DIR / "xfm_perfbench"
WORKLOADS = ("fleet_steady", "fleet_surge", "cpu_swap")


def build():
    """Configure (once) and build the binary; returns True on success."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"perfbench: simulator sources not found under {ROOT}/src",
              file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "xfm_perfbench"])
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the report.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 2

    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-dir", str(TRACE_DIR)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        print(f"perfbench: benchmark printed no result "
              f"(exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 1
    # Report first, the result object strictly last.
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
