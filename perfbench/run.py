#!/usr/bin/env python3
"""Build and run the host-wall benchmark.

    python3 perfbench/run.py --workload cg-poisson --seed 1 --seconds 15 --trace 0

Run from the repository root. The first run configures and builds the
library and the perfbench binary into .bench_build/ (CMake, RelWithDebInfo);
later runs only rebuild what changed. The binary's output is passed through
unchanged: its last stdout line is the result JSON. Traced runs write their
Chrome-trace files to .bench_build/traces/.

LSR_* environment variables are removed before the binary starts, so the
runtime configuration is exactly what each workload pins.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("cg-poisson", "spmv-comm", "factorization")
RUN_TIMEOUT_S = 170


def build() -> pathlib.Path:
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: library sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench",
         "-j", str(os.cpu_count() or 4)],
        check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    traces = BUILD / "traces"
    traces.mkdir(exist_ok=True)
    env = {k: v for k, v in os.environ.items() if not k.startswith("LSR_")}
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", str(traces)]
    try:
        return subprocess.run(cmd, env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
