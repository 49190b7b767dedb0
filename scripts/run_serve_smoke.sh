#!/usr/bin/env bash
# Kill-and-resume smoke test for the optipar_serve daemon (DESIGN.md §13).
# Starts the daemon at one lane, uploads a graph, submits a job, SIGKILLs
# the daemon mid-job, restarts it on the same state dir, and asserts the
# crash-recovery contract: the job is re-admitted from the jobs WAL,
# resumes from its newest valid checkpoint, and finishes with per-round
# trace lines byte-identical to the same spec run uninterrupted through
# `optipar_cli run --threads=1`. Also soaks admission: a submission burst
# against a capacity-1 queue must shed the surplus with typed kOverloaded
# (exit 7) while health keeps answering.
# Usage: scripts/run_serve_smoke.sh [path-to-build-dir]
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${1:-$ROOT/build}"
SERVE="$BUILD/tools/optipar_serve"
CLI="$BUILD/tools/optipar_cli"
for bin in "$SERVE" "$CLI"; do
  if [[ ! -x "$bin" ]]; then
    echo "run_serve_smoke: $bin not found; build first" >&2
    exit 2
  fi
done

WORK="$(mktemp -d /tmp/optipar_serve.XXXXXX)"
SOCK="$WORK/d.sock"
STATE="$WORK/state"
SERVER_PID=""
cleanup() {
  [[ -n "$SERVER_PID" ]] && kill -9 "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

status=0
fail() {
  echo "run_serve_smoke: FAIL: $*" >&2
  status=1
}

S="--socket=$SOCK"
IO="--io-timeout-ms=30000"

start_daemon() {  # extra serve flags in "$@"
  "$SERVE" serve "$S" --state-dir="$STATE" --threads=1 \
           --checkpoint-every=2 "$@" >"$WORK/serve.log" 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    [[ -S "$SOCK" ]] && "$SERVE" health "$S" "$IO" >/dev/null 2>&1 && return 0
    sleep 0.05
  done
  fail "daemon did not come up (log: $(tail -1 "$WORK/serve.log" 2>/dev/null))"
  return 1
}

rounds_of() { grep '"type":"round"' "$1" || true; }

# Dense-conflict clique union: enough rounds at one lane that a mid-job
# SIGKILL lands while the job is genuinely in flight.
"$CLI" gen --family=cliques --n=10200 --d=50 --seed=9 --out="$WORK/big.txt" \
  >/dev/null

# --- 1. Reference: the same spec through the one-shot CLI. -----------------
"$CLI" run --graph="$WORK/big.txt" --threads=1 --seed=21 \
       --trace-out="$WORK/ref.jsonl" >/dev/null
rounds_of "$WORK/ref.jsonl" >"$WORK/ref.rounds"
[[ -s "$WORK/ref.rounds" ]] || fail "reference run produced no rounds"

# --- 2. Start, upload, submit, SIGKILL mid-job. ----------------------------
start_daemon
"$SERVE" upload "$S" "$IO" --name=big --graph="$WORK/big.txt" >/dev/null
# --verify rides in the job spec, survives the WAL, and must still hold
# after the kill-and-resume below.
"$SERVE" run "$S" "$IO" --graph=big --seed=21 --verify >/dev/null

# Wait until the job is running with at least one checkpointable round done,
# then kill -9 — no destructors, no goodbye.
for _ in $(seq 1 400); do
  st="$("$SERVE" status "$S" "$IO" --job=1 2>/dev/null || true)"
  [[ "$st" == *"state=running"* && "$st" != *"rounds=0 "* ]] && break
  [[ "$st" == *"state=done"* ]] && fail "job finished before the kill" && break
  sleep 0.01
done
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# --- 3. Restart: the WAL re-admits the job, the checkpoint resumes it. -----
start_daemon
grep -q "recovered=1" "$WORK/serve.log" \
  || fail "restarted daemon did not re-admit the killed job from the WAL"

final="$("$SERVE" status "$S" "$IO" --job=1)"
for _ in $(seq 1 600); do
  final="$("$SERVE" status "$S" "$IO" --job=1)"
  [[ "$final" == *"state=done"* ]] && break
  sleep 0.05
done
[[ "$final" == *"state=done"* ]] || fail "resumed job never finished: $final"
[[ "$final" == *"resumed=1"* ]] \
  || fail "job finished without resuming from the checkpoint: $final"
[[ "$final" == *'verified=1 cert="ok"'* ]] \
  || fail "resumed job lost or refuted its certificate: $final"

"$SERVE" trace "$S" "$IO" --job=1 --out="$WORK/res.jsonl"
rounds_of "$WORK/res.jsonl" >"$WORK/res.rounds"
if cmp -s "$WORK/ref.rounds" "$WORK/res.rounds"; then
  echo "run_serve_smoke: kill -9 resume byte-identical to the CLI reference"
else
  fail "resumed trace differs from the uninterrupted reference"
fi

# The resumed job's metrics document is the one `optipar_cli run` writes:
# with the executor totals present, check_metrics.py's lane-sum + restored
# == total reconciliation runs across the kill-and-resume.
"$SERVE" artifact "$S" "$IO" --job=1 --kind=metrics-json \
  --out="$WORK/res-metrics.json" >/dev/null || true
grep -q '"optipar_committed_total"' "$WORK/res-metrics.json" \
  || fail "resumed job's metrics lack the executor totals"
python3 "$ROOT/scripts/check_metrics.py" "$WORK/res-metrics.json" \
  --trace "$WORK/res.jsonl" || fail "resumed job's metrics do not validate"

"$SERVE" shutdown "$S" "$IO" >/dev/null
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# --- 4. Overload soak: surplus submissions shed with typed exit 7. ---------
rm -rf "$STATE"
start_daemon --capacity=1 --max-active=1
"$SERVE" upload "$S" "$IO" --name=big --graph="$WORK/big.txt" >/dev/null
accepted=0
overloaded=0
for i in $(seq 1 8); do
  set +e
  "$SERVE" run "$S" "$IO" --graph=big --seed="$i" >/dev/null 2>&1
  rc=$?
  set -e
  case "$rc" in
    0) accepted=$((accepted + 1)) ;;
    7) overloaded=$((overloaded + 1)) ;;
    *) fail "burst submission $i: unexpected exit $rc" ;;
  esac
done
[[ "$accepted" -ge 1 ]] || fail "burst: nothing admitted"
[[ "$overloaded" -ge 1 ]] || fail "burst: capacity bound never shed load"
"$SERVE" health "$S" "$IO" >/dev/null \
  || fail "daemon stopped answering health while saturated"
echo "run_serve_smoke: burst accepted=$accepted overloaded=$overloaded," \
     "health answered throughout"

"$SERVE" shutdown "$S" "$IO" >/dev/null
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# --- 5. Certified jobs on every scheduler backend. -------------------------
# Small graph; each backend's verified job must finish done with an intact
# certificate, and the daemon-wide attestation counters must add up.
"$CLI" gen --family=cliques --n=360 --d=5 --seed=9 --out="$WORK/small.txt" \
  >/dev/null
rm -rf "$STATE"
start_daemon
"$SERVE" upload "$S" "$IO" --name=small --graph="$WORK/small.txt" >/dev/null
for sched in random chromatic; do
  set +e
  out="$("$SERVE" run "$S" "$IO" --graph=small --seed=5 \
               --scheduler="$sched" --verify --wait 2>&1)"
  rc=$?
  set -e
  [[ "$rc" -eq 0 ]] || fail "$sched: verified job exited $rc: $out"
  [[ "$out" == *"state=done"* ]] || fail "$sched: job not done: $out"
  [[ "$out" == *'verified=1 cert="ok"'* ]] \
    || fail "$sched: certificate missing or refuted: $out"
done
info="$("$SERVE" server-status "$S" "$IO")"
[[ "$info" == *"certified=2"* && "$info" == *"cert_failed=0"* ]] \
  || fail "server-status attestation counters wrong: $info"
echo "run_serve_smoke: both backends certified, counters reconcile"

"$SERVE" shutdown "$S" "$IO" >/dev/null
wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

if [[ $status -eq 0 ]]; then
  echo "run_serve_smoke: all serve invariants hold"
fi
exit $status
