#!/usr/bin/env python3
"""Compare a bench --metrics snapshot against a committed baseline.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--sim-threshold 0.02]
                     [--rtol 1e-9]

The files are the BENCH_*.json schema written by `bench_<x> --metrics out.json`:

    {"schema": 1, "bench": "bench_cg", "points": {
        "<point>": {"sim_s_per_iter": S, "snapshot": {"metrics": [...]}}}}

Checks, in order of severity:
  * every baseline point must exist in the current run (a vanished point is
    a silently-dropped benchmark, which is a failure, not a skip);
  * `sim_s_per_iter` may not regress (grow) by more than --sim-threshold
    relative to the baseline (default 2%; the simulator is deterministic, so
    any growth is a real modeled-cost change, not noise);
  * every stable metric in the baseline must exist in the current snapshot
    and match within --rtol (default 1e-9, i.e. exactly up to printing):
    counters and gauges by value, histograms by per-bucket counts, sum and
    count. Stable metrics are bit-identical across exec-thread counts by
    construction, so a mismatch means the runtime now does different work.
    A baseline metric that never fired (counter/gauge value 0, histogram
    count 0) and is absent from the current run is only a note: the
    registry's metric set evolves, and a zero-valued entry carries no
    behavioural signal whose loss could hide a regression.

Improvements (faster sim_s_per_iter, new points, new metrics) never fail;
they are reported so the baseline can be refreshed deliberately.

Host wall time is machine-specific and not part of the schema: it is
measured by perfbench (scripts/perf_ab.py), never gated here.

Exit status: 0 all green, 1 regression(s), 2 bad invocation / unreadable
or mis-shaped input.
"""

import argparse
import json
import sys


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    if doc.get("schema") != 1 or "points" not in doc:
        sys.exit(f"error: {path}: not a schema-1 bench metrics file")
    return doc


def index_metrics(snapshot):
    """name -> metric dict, for the snapshot's metrics array."""
    return {m["name"]: m for m in snapshot.get("metrics", [])}


def rel_diff(cur, base):
    if cur == base:
        return 0.0
    denom = max(abs(cur), abs(base), 1.0)
    return abs(cur - base) / denom


def is_zero_valued(m):
    """True when the metric never fired: nothing observable is lost if a
    later build stops registering it."""
    if m.get("kind") == "histogram":
        return m.get("count", 0.0) == 0 and m.get("sum", 0.0) == 0
    return m.get("value", 0.0) == 0


def compare_metric(point, base_m, cur_m, rtol, failures, notes):
    name = base_m["name"]

    def check(field, base_v, cur_v):
        if rel_diff(cur_v, base_v) > rtol:
            failures.append(
                f"{point}: metric {name} {field} changed "
                f"{base_v!r} -> {cur_v!r}"
            )

    if cur_m is None:
        if is_zero_valued(base_m):
            notes.append(
                f"{point}: zero-valued baseline metric {name} absent from "
                "current run — consider refreshing the baseline"
            )
        else:
            failures.append(f"{point}: metric {name} missing from current run")
        return
    if cur_m.get("kind") != base_m.get("kind"):
        failures.append(
            f"{point}: metric {name} kind changed "
            f"{base_m.get('kind')} -> {cur_m.get('kind')}"
        )
        return
    if base_m.get("kind") == "histogram":
        if base_m.get("bounds") != cur_m.get("bounds"):
            failures.append(f"{point}: metric {name} bucket bounds changed")
            return
        base_b = base_m.get("buckets", [])
        cur_b = cur_m.get("buckets", [])
        if len(base_b) != len(cur_b):
            failures.append(f"{point}: metric {name} bucket count changed")
        else:
            for i, (b, c) in enumerate(zip(base_b, cur_b)):
                check(f"bucket[{i}]", b, c)
        check("sum", base_m.get("sum", 0.0), cur_m.get("sum", 0.0))
        check("count", base_m.get("count", 0.0), cur_m.get("count", 0.0))
    else:
        check("value", base_m.get("value", 0.0), cur_m.get("value", 0.0))


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument(
        "--sim-threshold",
        type=float,
        default=0.02,
        help="max allowed relative growth of sim_s_per_iter (default 0.02)",
    )
    ap.add_argument(
        "--rtol",
        type=float,
        default=1e-9,
        help="relative tolerance for stable metric values (default 1e-9)",
    )
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    if base.get("bench") != cur.get("bench"):
        sys.exit(
            f"error: comparing different benches: "
            f"{base.get('bench')} vs {cur.get('bench')}"
        )

    failures = []
    notes = []

    for point, bp in sorted(base["points"].items()):
        cp = cur["points"].get(point)
        if cp is None:
            failures.append(f"{point}: missing from current run")
            continue

        b_sim = bp.get("sim_s_per_iter", 0.0)
        c_sim = cp.get("sim_s_per_iter", 0.0)
        if b_sim > 0:
            growth = (c_sim - b_sim) / b_sim
            if growth > args.sim_threshold:
                failures.append(
                    f"{point}: sim_s_per_iter regressed "
                    f"{b_sim:.6g} -> {c_sim:.6g} (+{growth * 100:.2f}%, "
                    f"threshold {args.sim_threshold * 100:.1f}%)"
                )
            elif growth < -args.sim_threshold:
                notes.append(
                    f"{point}: sim_s_per_iter improved "
                    f"{b_sim:.6g} -> {c_sim:.6g} ({growth * 100:.2f}%) — "
                    "consider refreshing the baseline"
                )

        cur_by_name = index_metrics(cp.get("snapshot", {}))
        for bm in bp.get("snapshot", {}).get("metrics", []):
            compare_metric(
                point, bm, cur_by_name.get(bm["name"]), args.rtol, failures, notes
            )
        extra = set(cur_by_name) - {
            m["name"] for m in bp.get("snapshot", {}).get("metrics", [])
        }
        if extra:
            notes.append(
                f"{point}: {len(extra)} new metric(s) not in baseline "
                f"(e.g. {sorted(extra)[0]})"
            )

    new_points = sorted(set(cur["points"]) - set(base["points"]))
    if new_points:
        notes.append(
            f"{len(new_points)} new point(s) not in baseline "
            f"(e.g. {new_points[0]}) — consider refreshing the baseline"
        )

    for n in notes:
        print(f"note: {n}")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        print(
            f"bench_compare: {len(failures)} regression(s) vs {args.baseline}",
            file=sys.stderr,
        )
        return 1
    npoints = len(base["points"])
    print(f"bench_compare: OK ({npoints} point(s) vs {args.baseline})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
