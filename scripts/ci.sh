#!/usr/bin/env bash
# CI gate: tier-1 tests + benchmark smoke + a bounded fuzz budget.
#
#   scripts/ci.sh            # full gate (configure + build + 3 ctest passes)
#   PF_FUZZ_ITERS=200 scripts/ci.sh   # deeper fuzz pass
#   PF_CI_BUILD_DIR=out scripts/ci.sh # use a different build tree
#
# The fuzz suite (ctest -L tier2-fuzz) is deterministic: PF_TEST_SEED pins
# the generator stream (defaults baked into pf::testing), and every failure
# prints the seed plus a shrunk, copy-pasteable repro. PF_FUZZ_ITERS bounds
# the iteration budget so the gate stays fast; the deep run is
# PF_FUZZ_ITERS=1000 on a schedule, not on every commit.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${PF_CI_BUILD_DIR:-build}"
JOBS="$(nproc 2>/dev/null || echo 2)"
FUZZ_ITERS="${PF_FUZZ_ITERS:-50}"

echo "== configure + build (${BUILD}, -j${JOBS})"
cmake -B "$BUILD" -S . >/dev/null
cmake --build "$BUILD" -j "$JOBS"

echo "== tier-1 tests"
ctest --test-dir "$BUILD" -L tier1 --output-on-failure -j "$JOBS"

echo "== service smoke (crash recovery gate)"
ctest --test-dir "$BUILD" -R service_smoke --output-on-failure

echo "== campaign smoke (campaign crash recovery gate)"
ctest --test-dir "$BUILD" -R campaign_smoke --output-on-failure

echo "== benchmark smoke"
ctest --test-dir "$BUILD" -L bench-smoke --output-on-failure

echo "== bounded fuzz (PF_FUZZ_ITERS=${FUZZ_ITERS})"
PF_FUZZ_ITERS="$FUZZ_ITERS" \
  ctest --test-dir "$BUILD" -L tier2-fuzz --output-on-failure

# Golden A/B suites under ASan+UBSan: the word-parallel PlaneMemory's raw
# bit-plane indexing and lane masks, circuit reuse vs per-point rebuild,
# the completion search's snapshot trie (prefix slicing of candidate
# SOSes) and fail-first probe order, and the shared-phase tree of the
# multi-SOS sweep (per-SOS step programs, branch snapshots, exception
# pointers per SOS) are the places where out-of-bounds or UB could hide
# behind passing bit-identity checks. Build a separate
# sanitized tree (PF_SANITIZE plumbs into -fsanitize=) and run exactly the
# suites that drive both sides of each A/B over the same grids/populations.
# PF_SKIP_SANITIZE=1 opts out of this and the TSan stage (e.g. toolchains
# without libasan/libtsan).
if [[ "${PF_SKIP_SANITIZE:-0}" != "1" ]]; then
  SAN_BUILD="${BUILD}-asan"
  echo "== golden A/B under sanitizers (${SAN_BUILD}, address,undefined)"
  cmake -B "$SAN_BUILD" -S . -DPF_SANITIZE=address,undefined >/dev/null
  cmake --build "$SAN_BUILD" -j "$JOBS" \
    --target test_dram test_analysis test_memsim test_march test_fuzz
  ctest --test-dir "$SAN_BUILD" --output-on-failure -j "$JOBS" \
    -R 'CircuitReuse|CompletionPrefixSharing|CompletionFailFirst|SharedPhases|PlaneMemory|PopulationAB'

  # SearchAB: the march-search optimizer mutates candidate tests in a hot
  # loop (element/op erase + crossover splices) and walks per-unit
  # detection bit vectors — exactly the indexing ASan/UBSan should watch.
  # Runs the full Search* suite plus the seeded FuzzSearch containment
  # property at a bounded iteration budget.
  echo "== SearchAB under sanitizers (${SAN_BUILD})"
  PF_FUZZ_ITERS="$FUZZ_ITERS" \
    ctest --test-dir "$SAN_BUILD" --output-on-failure -j "$JOBS" \
    -R 'Search|FuzzSearch'

  # Grid dispatch under ThreadSanitizer: ParallelGridRunner's atomic cursor,
  # per-index outcome slots, serialized journal appends and progress
  # callback, cooperative cancellation, the point dispatch of sweep_region
  # (one SOS, and several SOSes per point appending to one journal each),
  # and the completion search's per-candidate dispatch (atomic
  # lowest-accepted index, per-worker snapshot tries), all run with real
  # worker threads.
  TSAN_BUILD="${BUILD}-tsan"
  echo "== grid dispatch under ThreadSanitizer (${TSAN_BUILD})"
  cmake -B "$TSAN_BUILD" -S . -DPF_SANITIZE=thread >/dev/null
  cmake --build "$TSAN_BUILD" -j "$JOBS" \
    --target test_analysis test_service test_campaign
  ctest --test-dir "$TSAN_BUILD" --output-on-failure -j "$JOBS" \
    -R 'ParallelSweep|SweepCancellation|CircuitReuse|ExecutionPolicy_|ParallelCompletion|ParallelTable1|CompletionPrefixSharing|CompletionFailFirst|SharedPhases'

  # Every service and campaign test under ThreadSanitizer: the server's
  # worker pool, admission queue and client waits, the result cache, and
  # the campaign runner's journal and session cache. Run as whole binaries
  # so a new suite is covered without editing a filter; a race report
  # fails the binary (TSan's exit code 66).
  echo "== service + campaign under ThreadSanitizer (${TSAN_BUILD})"
  for t in test_service test_campaign; do
    "$TSAN_BUILD/tests/$t"
  done
fi

echo "== ci gate passed"
