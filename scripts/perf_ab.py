#!/usr/bin/env python3
"""Interleaved A/B of the host-wall benchmark against another revision.

    python3 scripts/perf_ab.py REV [--workload W ...] [--rounds 3] [--seed 1]
                               [--seconds 8]

A is REV (any commit-ish, e.g. HEAD~1 or a sha); B is the working tree as it
is now, uncommitted edits included. REV is exported with `git archive` into
.ab_build/<sha>/ (a plain checkout that leaves no worktree metadata behind)
and its perfbench builds there, under its own .bench_build/, exactly as
`perfbench/run.py` builds it; later runs against the same sha reuse that
build. B builds in the usual .bench_build/.

Each round runs every workload once per side with `--trace 0`, and the side
that goes first alternates from round to round, so drift in the machine's
load lands on both sides alike. At the end it prints, per workload, every
end-to-end metric named in BENCHMARK.json: the median of each side, the
ratio B/A of the medians, each side's min-max over the rounds, and in how
many rounds B beat A (the two runs of one round form a pair; `better` in
BENCHMARK.json says which way is better). A run whose output checks fail
is reported and kept out of the statistics.

Run from anywhere inside the repository. Exits non-zero when a build or a
run fails.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
AB_DIR = ROOT / ".ab_build"


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export_rev(rev: str) -> pathlib.Path:
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = AB_DIR / sha
    if not (tree / "perfbench" / "run.py").is_file():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", sha],
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit(f"perf_ab: git archive {sha} failed")
    return tree


def build(tree: pathlib.Path) -> None:
    """Configure and build `tree`'s perfbench the way perfbench/run.py does,
    so the measured runs only find an up-to-date build."""
    out = tree / ".bench_build"
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(tree / "perfbench"), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", str(os.cpu_count() or 4)],
                   check=True, stdout=subprocess.DEVNULL)


def run_once(tree: pathlib.Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run in `tree`; returns its result JSON."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"perf_ab: no result line from {' '.join(cmd)} "
                 f"(exit {proc.returncode})")
    return result


def span(values: list) -> str:
    return f"{min(values):.4g}-{max(values):.4g}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="revision A; B is the working tree")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable); default: all in "
                         "BENCHMARK.json")
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8.0)
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    end_to_end = {m["name"]: m["better"] for m in bench["end_to_end"]}

    sides = {"A": export_rev(args.rev), "B": ROOT}
    for name, tree in sides.items():
        print(f"perf_ab: building {name} in {tree}", file=sys.stderr)
        build(tree)

    samples = {(w, s): {} for w in workloads for s in sides}  # round -> metrics
    failures = {(w, s): 0 for w in workloads for s in sides}
    for rnd in range(args.rounds):
        order = ["A", "B"] if rnd % 2 == 0 else ["B", "A"]
        for w in workloads:
            for s in order:
                res = run_once(sides[s], w, args.seed, args.seconds)
                ok = res.get("correct") and res.get("failed", 1) == 0
                print(f"perf_ab: round {rnd + 1} {w} {s}: "
                      f"{'ok' if ok else 'FAILED checks'}", file=sys.stderr)
                if ok:
                    samples[(w, s)][rnd] = res["metrics"]
                else:
                    failures[(w, s)] += 1

    print(f"A = {args.rev} ({sides['A'].name[:12]}), B = working tree; "
          f"seed {args.seed}, {args.seconds:g} s runs, {args.rounds} rounds, "
          f"order alternating")
    for w in workloads:
        print(f"\n{w}  (failed runs: A {failures[(w, 'A')]}, "
              f"B {failures[(w, 'B')]})")
        print(f"  {'metric':<18} {'A median':>12} {'B median':>12} "
              f"{'B/A':>8}   {'A min-max':<22} {'B min-max':<22} B better")
        runs_a, runs_b = samples[(w, "A")], samples[(w, "B")]
        for m, better in end_to_end.items():
            a = [r[m]["value"] for r in runs_a.values() if m in r]
            b = [r[m]["value"] for r in runs_b.values() if m in r]
            if not a or not b:
                print(f"  {m:<18} {'(missing)':>12}")
                continue
            pairs = [(runs_a[r][m]["value"], runs_b[r][m]["value"])
                     for r in runs_a if r in runs_b and m in runs_a[r]
                     and m in runs_b[r]]
            wins = sum(1 for va, vb in pairs
                       if (vb < va if better == "lower" else vb > va))
            ma, mb = statistics.median(a), statistics.median(b)
            ratio = f"{mb / ma:.3f}" if ma != 0 else "n/a"
            print(f"  {m:<18} {ma:>12.4g} {mb:>12.4g} {ratio:>8}   "
                  f"{span(a):<22} {span(b):<22} {wins}/{len(pairs)}")
    return 1 if any(failures.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
