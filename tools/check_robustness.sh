#!/usr/bin/env sh
# One-command robustness gate for the distributed matcher's
# fault-injection substrate (docs/ARCHITECTURE.md "Fault model & reliable
# delivery"):
#
#   1. build the ASan+UBSan tree and run the matcher-level fault suite
#      under it (ctest -L fault) -- the degraded code paths must be
#      memory- and UB-clean, not just green;
#   2. run bench_fault_sweep (dist_matching under a drop-rate sweep) twice
#      per seed (1, 7, 42) and require bit-identical output -- the
#      determinism contract: every fault decision is a pure function of
#      (plan seed, program order), so a seeded run must replay exactly.
#
#   tools/check_robustness.sh            # both stages
#
# Exits non-zero on any compile error, test failure, sanitizer report, or
# determinism mismatch. Uses the build-asan/ tree; the release tree stays
# untouched.
set -eu

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== ASan+UBSan: configure + build =="
cmake --preset asan-ubsan
cmake --build build-asan -j "$JOBS"

echo "== ASan+UBSan: fault suite (ctest -L fault) =="
UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1 halt_on_error=1}" \
  ctest --test-dir build-asan -L fault --no-tests=error --output-on-failure

echo "== determinism: bench_fault_sweep replays bit-identically =="
TMPDIR_DET="$(mktemp -d)"
trap 'rm -rf "$TMPDIR_DET"' EXIT
for SEED in 1 7 42; do
  ./build-asan/bench/bench_fault_sweep --seed "$SEED" \
    > "$TMPDIR_DET/sweep-$SEED-a.txt"
  ./build-asan/bench/bench_fault_sweep --seed "$SEED" \
    > "$TMPDIR_DET/sweep-$SEED-b.txt"
  if ! cmp -s "$TMPDIR_DET/sweep-$SEED-a.txt" "$TMPDIR_DET/sweep-$SEED-b.txt"
  then
    echo "DETERMINISM FAILURE: seed $SEED produced different output" >&2
    diff "$TMPDIR_DET/sweep-$SEED-a.txt" "$TMPDIR_DET/sweep-$SEED-b.txt" >&2 || true
    exit 1
  fi
  echo "seed $SEED: identical"
done

echo "robustness checks passed"
