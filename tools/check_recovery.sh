#!/usr/bin/env sh
# One-command recovery gate for the checkpoint/restart subsystem
# (docs/ARCHITECTURE.md "Preemption & recovery", docs/FORMATS.md
# "Checkpoint format"):
#
#   1. build the ASan+UBSan tree and run the recovery suite under it
#      (ctest -L recovery) -- restore paths must be memory-clean, not
#      just green;
#   2. kill-resume determinism: for bp and mr, SIGKILL the CLI
#      at a randomized moment mid-run, resume from the checkpoint it left
#      behind, and require the final matching and objective-history CSV
#      to be byte-identical to an uninterrupted run's. The killed run's
#      trace (cut mid-line by the kill) must still summarize cleanly;
#   3. corruption fallback: flip a byte in the newest checkpoint
#      generation and require resume to recover from .prev; corrupt both
#      generations and require a hard, non-zero-exit refusal;
#   4. deadline: a run under --deadline-seconds must exit cleanly with
#      stopped_reason=deadline and leave a resumable checkpoint.
#
#   tools/check_recovery.sh            # all stages
#
# Exits non-zero on any compile error, test failure, sanitizer report,
# mismatch, or missing checkpoint. Uses the build-asan/ tree (stage 2's
# kill targets run under ASan too); the release tree stays untouched.
set -eu

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 2)"

echo "== ASan+UBSan: configure + build =="
cmake --preset asan-ubsan
cmake --build build-asan -j "$JOBS"

CLI=./build-asan/tools/netalign
SUMMARY=./build-asan/tools/trace_summary
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

echo "== ASan+UBSan: recovery suite (ctest -L recovery) =="
UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1 halt_on_error=1}" \
  ctest --test-dir build-asan -L recovery --no-tests=error \
  --output-on-failure

echo "== problem generation =="
"$CLI" generate --type powerlaw --n 700 --dbar 6 --seed 4242 \
  --out "$TMP/p.nap"

# Overwrite 8 bytes in the middle of file $1 (simulated media
# corruption; lands in a section payload, so the section CRC must trip).
corrupt_file() {
  _size="$(wc -c < "$1")"
  printf 'XXXXXXXX' | \
    dd of="$1" bs=1 seek=$((_size / 2)) conv=notrunc 2>/dev/null
}

run_kill_resume() {
  METHOD="$1"
  ITERS="$2"
  D="$TMP/$METHOD"
  mkdir -p "$D"

  echo "-- $METHOD: uninterrupted reference ($ITERS iters) --"
  "$CLI" align --problem "$TMP/p.nap" --method "$METHOD" --iters "$ITERS" \
    --save-matching "$D/ref.mat" --history "$D/ref.csv" > "$D/ref.out"

  # SIGKILL at a randomized delay. The solver checkpoints every
  # iteration, so once the first iteration has committed there is always
  # a usable generation; if the run finishes before the kill, resume
  # degenerates to restore-and-finalize, which must *still* reproduce
  # the reference. A kill that lands before the first checkpoint
  # (startup + squares build under ASan can take >0.1s) proves nothing
  # about recovery, so that draw is retried with a longer delay rather
  # than reported as a failure.
  ATTEMPT=0
  while :; do
    ATTEMPT=$((ATTEMPT + 1))
    DELAY="$(awk -v a="$ATTEMPT" \
      'BEGIN{srand(); printf "%.2f", 0.05 + (a - 1) * 0.20 + rand() * 0.40}')"
    echo "-- $METHOD: killed run (SIGKILL after ${DELAY}s) --"
    rm -f "$D/run.ckpt" "$D/run.ckpt.prev"
    "$CLI" align --problem "$TMP/p.nap" --method "$METHOD" --iters "$ITERS" \
      --checkpoint-out "$D/run.ckpt" --checkpoint-every 1 \
      --trace-out "$D/kill.jsonl" > "$D/kill.out" 2>&1 &
    PID=$!
    sleep "$DELAY"
    kill -9 "$PID" 2>/dev/null || true
    wait "$PID" 2>/dev/null || true
    [ -f "$D/run.ckpt" ] && break
    if [ "$ATTEMPT" -ge 5 ]; then
      echo "FAILURE: $METHOD left no checkpoint behind after $ATTEMPT runs" >&2
      exit 1
    fi
    echo "   (kill landed before the first checkpoint; retrying)"
  done

  # The kill can cut the trace mid-line; trace_summary must tolerate
  # exactly that (a warning, not an error).
  "$SUMMARY" "$D/kill.jsonl" > /dev/null

  echo "-- $METHOD: resume --"
  "$CLI" align --problem "$TMP/p.nap" --method "$METHOD" --iters "$ITERS" \
    --resume "$D/run.ckpt" \
    --save-matching "$D/res.mat" --history "$D/res.csv" > "$D/res.out"

  for F in mat csv; do
    if ! cmp -s "$D/ref.$F" "$D/res.$F"; then
      echo "RECOVERY FAILURE: $METHOD resumed .$F differs from the" \
           "uninterrupted run" >&2
      diff "$D/ref.$F" "$D/res.$F" >&2 || true
      exit 1
    fi
  done
  echo "$METHOD: resumed matching and history identical"
}

echo "== kill-resume determinism =="
run_kill_resume bp 40
run_kill_resume mr 30

echo "== corruption: newest generation falls back to .prev =="
D="$TMP/corrupt"
mkdir -p "$D"
"$CLI" align --problem "$TMP/p.nap" --method mr --iters 6 \
  --checkpoint-out "$D/c.ckpt" --checkpoint-every 1 \
  --save-matching "$D/ref.mat" > /dev/null
if [ ! -f "$D/c.ckpt.prev" ]; then
  echo "FAILURE: no .prev generation after a multi-checkpoint run" >&2
  exit 1
fi
corrupt_file "$D/c.ckpt"
"$CLI" align --problem "$TMP/p.nap" --method mr --iters 6 \
  --resume "$D/c.ckpt" --save-matching "$D/res.mat" > "$D/res.out"
echo "fallback resume succeeded (restored previous generation)"

corrupt_file "$D/c.ckpt.prev"
if "$CLI" align --problem "$TMP/p.nap" --method mr --iters 6 \
     --resume "$D/c.ckpt" > "$D/both.out" 2>&1; then
  echo "FAILURE: resume accepted a checkpoint with both generations" \
       "corrupt" >&2
  cat "$D/both.out" >&2
  exit 1
fi
if ! grep -q "both generations" "$D/both.out"; then
  echo "FAILURE: both-corrupt refusal lacks the expected message" >&2
  cat "$D/both.out" >&2
  exit 1
fi
echo "both-generations-corrupt resume refused, as required"

echo "== deadline: clean exit with best-so-far and a valid checkpoint =="
D="$TMP/deadline"
mkdir -p "$D"
"$CLI" align --problem "$TMP/p.nap" --method bp --iters 100000 \
  --deadline-seconds 0.5 --checkpoint-out "$D/d.ckpt" \
  --trace-out "$D/d.jsonl" > "$D/d.out"
if ! grep -q "(deadline)" "$D/d.out"; then
  echo "FAILURE: deadline run did not report stopped_reason=deadline" >&2
  cat "$D/d.out" >&2
  exit 1
fi
if ! "$SUMMARY" "$D/d.jsonl" | grep -q "stopped=deadline"; then
  echo "FAILURE: trace run_end lacks stopped_reason=deadline" >&2
  exit 1
fi
if [ ! -f "$D/d.ckpt" ]; then
  echo "FAILURE: deadline run left no checkpoint" >&2
  exit 1
fi
"$CLI" align --problem "$TMP/p.nap" --method bp --iters 5 \
  --resume "$D/d.ckpt" > /dev/null
echo "deadline stop honored; checkpoint resumable"

echo "recovery checks passed"
