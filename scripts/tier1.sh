#!/usr/bin/env bash
# Tier-1 verification. Presets:
#   (no arg / all)  full suite in the default build, then the asan subset
#   default   full suite in the default build only
#   asan      util + rt + integrity subset under ASan/UBSan (recovery and
#             corruption paths stay clean)
#   tsan      exec + rt + metrics + integrity subset under ThreadSanitizer
#             with a parallel, pipelined executor (LSR_EXEC_THREADS=4)
#
# Every requested preset runs even when an earlier one fails; the script
# then exits non-zero naming each failed preset. (Previously a failure in
# the first preset of `all` aborted the script before the remaining
# presets ran, and the combined result was whatever the last command
# happened to return.)
#
# Environment passthrough: LSR_* knobs set in the caller's environment reach
# every test run. In particular LSR_PARTITION=rows|nnz|auto selects the
# runtime-wide row-split strategy (DESIGN.md §12) — CI runs a tier-1 leg
# with LSR_PARTITION=nnz — and LSR_EXEC_THREADS sets the executor width for
# the default preset (the asan/tsan presets pin their own thread counts but
# still inherit LSR_PARTITION). LSR_FUSE=off|on likewise selects the
# launch-window fusion mode for every preset — CI runs tier-1 and tsan legs
# with LSR_FUSE=on (DESIGN.md §13). LSR_DIAG=off|on|abort-on-hang turns the
# lsr_diag flight recorder + watchdog on for every test run (DESIGN.md §14)
# — CI runs a tier-1 leg with LSR_DIAG=on to prove recording perturbs
# nothing; the tsan preset exercises the diag rings under ThreadSanitizer.
# LSR_COMM=off|plan|overlap selects the communication planner mode (DESIGN.md
# §15): off is the uncached ablation with one message per ghost; plan adds
# cached halo-exchange plans and per-link message coalescing, and overlap
# interior/boundary kernel splitting. CI runs a tier-1 leg with
# LSR_COMM=overlap — results must stay bit-identical to off. Every mode runs
# under fault injection (retries go through the one point charge), so that
# leg covers the recovery, checkpoint and corruption suites with plans
# active too.
set -uo pipefail
cd "$(dirname "$0")/.."

if [ -n "${LSR_PARTITION:-}" ]; then
  echo "tier1: LSR_PARTITION=${LSR_PARTITION} (passed through to all presets)"
fi
if [ -n "${LSR_FUSE:-}" ]; then
  echo "tier1: LSR_FUSE=${LSR_FUSE} (passed through to all presets)"
fi
if [ -n "${LSR_DIAG:-}" ]; then
  echo "tier1: LSR_DIAG=${LSR_DIAG} (passed through to all presets)"
fi
if [ -n "${LSR_COMM:-}" ]; then
  echo "tier1: LSR_COMM=${LSR_COMM} (passed through to all presets)"
fi

run_default() {
  # Warnings are errors here: a clean build emits none, and this keeps it so.
  cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCMAKE_CXX_FLAGS=-Werror
  cmake --build build -j
  ctest --test-dir build --output-on-failure -j
}

run_asan() {
  cmake -B build-sanitize -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DLSR_SANITIZE=ON
  cmake --build build-sanitize -j --target util_tests rt_tests integrity_tests diag_tests
  ASAN_OPTIONS=detect_leaks=0 ./build-sanitize/tests/util_tests
  ASAN_OPTIONS=detect_leaks=0 ./build-sanitize/tests/rt_tests
  ASAN_OPTIONS=detect_leaks=0 ./build-sanitize/tests/integrity_tests
  ASAN_OPTIONS=detect_leaks=0 ./build-sanitize/tests/diag_tests
}

run_tsan() {
  # Warnings are errors here too: GCC's ThreadSanitizer warns (-Wtsan) about
  # constructs it cannot model, such as atomic_thread_fence.
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DLSR_TSAN=ON \
    -DCMAKE_CXX_FLAGS=-Werror
  cmake --build build-tsan -j --target exec_tests rt_tests metrics_tests integrity_tests fuse_tests comm_tests diag_tests
  LSR_EXEC_THREADS=4 ./build-tsan/tests/exec_tests
  LSR_EXEC_THREADS=4 ./build-tsan/tests/rt_tests
  LSR_EXEC_THREADS=4 ./build-tsan/tests/metrics_tests
  LSR_EXEC_THREADS=4 ./build-tsan/tests/integrity_tests
  LSR_EXEC_THREADS=4 ./build-tsan/tests/fuse_tests
  # Comm planner under TSan with a live pool: plan derivation and the
  # hit/miss counters run on the submitting thread, but replay interleaves
  # with pool workers — the cache must never be touched from a leaf.
  LSR_EXEC_THREADS=4 LSR_COMM=overlap ./build-tsan/tests/comm_tests
  # Diag rings + watchdog under TSan with a live pool: the seqlock reader
  # and the reset/join paths must be data-race-free (satellite a).
  LSR_EXEC_THREADS=4 LSR_DIAG=on ./build-tsan/tests/diag_tests
}

presets=()
for arg in "$@"; do
  case "$arg" in
    all) presets+=(default asan) ;;
    default|asan|tsan) presets+=("$arg") ;;
    *)
      echo "usage: $0 [all|default|asan|tsan]..." >&2
      exit 2
      ;;
  esac
done
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default asan)
fi

failed=()
for p in "${presets[@]}"; do
  # Subshell with set -e: a failing step aborts this preset only, and the
  # loop carries on to the remaining presets.
  ( set -e; "run_$p" )
  if [ $? -eq 0 ]; then
    echo "tier1 ($p): OK"
  else
    echo "tier1 ($p): FAILED" >&2
    failed+=("$p")
  fi
done

if [ ${#failed[@]} -gt 0 ]; then
  echo "tier1: FAILED presets: ${failed[*]}" >&2
  exit 1
fi
echo "tier1: OK (${presets[*]})"
