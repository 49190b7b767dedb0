#!/usr/bin/env bash
# Kill-and-resume harness for the checkpoint/restore subsystem (DESIGN.md
# §11). Sweeps a deliberate in-process crash (--crash-point, an _Exit(137)
# with no destructors — SIGKILL semantics) across every durability step of
# the save path, resumes each killed run from disk, and asserts the
# byte-identity contract: the resumed run's per-round trace equals the
# uninterrupted reference run's, byte for byte. Also corrupts snapshots on
# purpose to drive the recovery ladder's fallback and clean-start rungs.
# Usage: scripts/run_crash.sh [path-to-optipar_cli]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
CLI="${1:-$ROOT/build/tools/optipar_cli}"
if [[ ! -x "$CLI" ]]; then
  echo "run_crash: $CLI not found; build first (cmake --build build)" >&2
  exit 2
fi

WORK="$(mktemp -d /tmp/optipar_crash.XXXXXX)"
trap 'rm -rf "$WORK"' EXIT

status=0
fail() {
  echo "run_crash: FAIL: $*" >&2
  status=1
}

# Workload: deterministic on-the-fly graph, so the resumed process rebuilds
# the exact run (and the snapshot's graph fingerprint must match).
# --threads=1 pins the deterministic single-lane configuration: multi-lane
# rounds hand draw chunks to lanes through a racing ticket counter, so only
# one lane replays byte-identically (same scope as run_chaos.sh's
# deterministic-replay check; DESIGN.md §11).
ARGS=(run --family=cliques --n=360 --d=5 --seed=9 --threads=1 --steps=500)

rounds_of() { grep '"type":"round"' "$1" || true; }

# --- 1. Reference run, and determinism sanity. -----------------------------
"${CLI}" "${ARGS[@]}" --trace-out="$WORK/ref.jsonl" >/dev/null
rounds_of "$WORK/ref.jsonl" >"$WORK/ref.rounds"
[[ -s "$WORK/ref.rounds" ]] || fail "reference run produced no rounds"

"${CLI}" "${ARGS[@]}" --trace-out="$WORK/ref2.jsonl" >/dev/null
rounds_of "$WORK/ref2.jsonl" >"$WORK/ref2.rounds"
cmp -s "$WORK/ref.rounds" "$WORK/ref2.rounds" \
  || fail "two uncheckpointed runs diverged (determinism broken)"

# --- 2. Checkpointing must not perturb the schedule. -----------------------
CKPT="$WORK/ckpt"
"${CLI}" "${ARGS[@]}" --checkpoint-dir="$CKPT" --checkpoint-every=3 \
         --trace-out="$WORK/ck.jsonl" >/dev/null
rounds_of "$WORK/ck.jsonl" >"$WORK/ck.rounds"
cmp -s "$WORK/ref.rounds" "$WORK/ck.rounds" \
  || fail "checkpointed run's trace differs from the uncheckpointed run"

# --- 3. Crash sweep: every injection point, two kill rounds. ---------------
total_rounds="$(wc -l <"$WORK/ref.rounds")"
for point in mid-journal after-journal mid-snapshot before-rename \
             after-rename; do
  for kill_round in 2 5; do
    [[ "$kill_round" -lt "$total_rounds" ]] || continue
    rm -rf "$CKPT"
    set +e
    "${CLI}" "${ARGS[@]}" --checkpoint-dir="$CKPT" --checkpoint-every=3 \
             --crash-point="$point" --crash-round="$kill_round" \
             >/dev/null 2>&1
    rc=$?
    set -e
    [[ "$rc" -eq 137 ]] \
      || fail "$point@$kill_round: expected _Exit(137), got rc=$rc"

    # --verify on the resume: the survivor must not only replay the
    # schedule byte-identically but also hold the completeness
    # certificate (drained, accounted, no lock leaks).
    out="$("${CLI}" "${ARGS[@]}" --checkpoint-dir="$CKPT" --resume --verify \
             --trace-out="$WORK/res.jsonl")" \
      || fail "$point@$kill_round: resume run failed"
    [[ "$out" == *"certified=ok"* ]] \
      || fail "$point@$kill_round: resume not certified: $out"
    rounds_of "$WORK/res.jsonl" >"$WORK/res.rounds"
    if cmp -s "$WORK/ref.rounds" "$WORK/res.rounds"; then
      echo "run_crash: $point@$kill_round resume byte-identical"
    else
      fail "$point@$kill_round: resumed trace differs from reference"
    fi
  done
done

# --- 4. Recovery ladder: corrupt snapshots are detected, never loaded. -----
corrupt() {  # flip 4 bytes inside the payload of $1
  dd if=/dev/zero of="$1" bs=1 seek=20 count=4 conv=notrunc 2>/dev/null
}

# Corrupt ONE generation after a mid-run kill: resume must fall back (to the
# older generation or a clean start) and still reproduce the reference.
rm -rf "$CKPT"
set +e
"${CLI}" "${ARGS[@]}" --checkpoint-dir="$CKPT" --checkpoint-every=2 \
         --crash-point=after-rename --crash-round=5 >/dev/null 2>&1
set -e
newest="$(ls -t "$CKPT"/snap-*.bin | head -1)"
corrupt "$newest"
out="$("${CLI}" "${ARGS[@]}" --checkpoint-dir="$CKPT" --resume --verify \
         --trace-out="$WORK/fb.jsonl")" \
  || fail "fallback resume failed"
[[ "$out" == *"certified=ok"* ]] || fail "fallback resume not certified"
rounds_of "$WORK/fb.jsonl" >"$WORK/fb.rounds"
cmp -s "$WORK/ref.rounds" "$WORK/fb.rounds" \
  || fail "fallback after corrupting newest snapshot diverged"
echo "run_crash: corrupt-newest fallback byte-identical"

# Corrupt BOTH generations: the ladder's last rung is a clean start, which
# must still converge to the reference trace (never silently wrong).
rm -rf "$CKPT"
set +e
"${CLI}" "${ARGS[@]}" --checkpoint-dir="$CKPT" --checkpoint-every=2 \
         --crash-point=after-rename --crash-round=5 >/dev/null 2>&1
set -e
for snap in "$CKPT"/snap-*.bin; do corrupt "$snap"; done
out="$("${CLI}" "${ARGS[@]}" --checkpoint-dir="$CKPT" --resume --verify \
         --trace-out="$WORK/cs.jsonl")" \
  || fail "clean-start resume failed"
[[ "$out" == *"certified=ok"* ]] || fail "clean-start resume not certified"
rounds_of "$WORK/cs.jsonl" >"$WORK/cs.rounds"
cmp -s "$WORK/ref.rounds" "$WORK/cs.rounds" \
  || fail "clean start after corrupting both snapshots diverged"
echo "run_crash: corrupt-both clean start byte-identical"

# --- 5. The chromatic backend: same contract. ------------------------------
# The non-default draw backend must survive a mid-run kill and resume
# byte-identically against its OWN uninterrupted reference (it draws in a
# different order from random, so it gets its own trace scope). Also pins
# the CLI's unknown-backend refusal to the usage exit code, for a made-up
# name and for the retired relaxed backend.
backend=chromatic
SARGS=("${ARGS[@]}" --scheduler="$backend")
"${CLI}" "${SARGS[@]}" --trace-out="$WORK/s_ref.jsonl" >/dev/null \
  || fail "$backend: reference run failed"
rounds_of "$WORK/s_ref.jsonl" >"$WORK/s_ref.rounds"
[[ -s "$WORK/s_ref.rounds" ]] \
  || fail "$backend: reference run produced no rounds"

rm -rf "$CKPT"
set +e
"${CLI}" "${SARGS[@]}" --checkpoint-dir="$CKPT" --checkpoint-every=3 \
         --crash-point=after-rename --crash-round=4 >/dev/null 2>&1
rc=$?
set -e
[[ "$rc" -eq 137 ]] || fail "$backend: expected _Exit(137), got rc=$rc"

out="$("${CLI}" "${SARGS[@]}" --checkpoint-dir="$CKPT" --resume --verify \
         --trace-out="$WORK/s_res.jsonl")" \
  || fail "$backend: resume run failed"
[[ "$out" == *"certified=ok"* ]] \
  || fail "$backend: resume not certified: $out"
rounds_of "$WORK/s_res.jsonl" >"$WORK/s_res.rounds"
if cmp -s "$WORK/s_ref.rounds" "$WORK/s_res.rounds"; then
  echo "run_crash: $backend backend resume byte-identical"
else
  fail "$backend: resumed trace differs from reference"
fi

for backend in bogus relaxed; do
  set +e
  "${CLI}" run --family=cliques --n=60 --d=5 --scheduler="$backend" \
           >/dev/null 2>&1
  rc=$?
  set -e
  [[ "$rc" -eq 2 ]] \
    || fail "unknown --scheduler=$backend should exit 2 (usage), got rc=$rc"
done
echo "run_crash: unknown schedulers refused with usage exit"

if [[ $status -eq 0 ]]; then
  echo "run_crash: all crash-recovery invariants hold"
fi
exit $status
