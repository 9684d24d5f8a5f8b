#!/usr/bin/env bash
# Crash-durability smoke test of the WAL + recovery layer, end to end
# through the CLI: a `query-bench --wal` run journals a seeded churn
# stream into a durable directory and prints a flushed "churn:" line
# once every churned mutation is acknowledged, then runs its queries.
# Round 1 SIGKILLs one run right after that line and requires a
# recovered index to answer a seeded probe set byte-identically to an
# uninterrupted run of the same churn. Round 2 SIGKILLs a run
# *mid-churn* — the log ends wherever the kill landed — and requires
# recovery to be deterministic: two successive recoveries of the same
# directory must dump identical answers. Every run writes and recovers
# the same index (α = 0.7, 2 shards, seed 9), and each round requires
# nonempty dumps and a nonzero number of replayed records so it is not
# vacuous. (CI runs this; docs/FILE_FORMATS.md "SKW1" has the
# truncation rule under test.)
#
# Usage: tools/durability_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
CLI="$BUILD/tools/skewsearch_cli"

if [ ! -x "$CLI" ]; then
  echo "error: '$CLI' not built (cmake --build $BUILD --target skewsearch_cli)" >&2
  exit 2
fi

TMP="$(mktemp -d)"
KILL_PIDS=()

cleanup() {
  for pid in "${KILL_PIDS[@]:-}"; do
    kill -9 "$pid" 2> /dev/null || true
  done
  rm -rf "$TMP"
}
trap cleanup EXIT

"$CLI" generate --kind zipf --n 500 --d 1000 --p 0.9 --exp 1.2 --avg 8 \
  --seed 7 --out "$TMP/data.txt"

# The durable online index every run opens, less its --wal directory.
# An array, not a function, so a run started with & is the CLI itself
# and $! is the pid to kill.
DURABLE=("$CLI" query-bench --in "$TMP/data.txt" --alpha 0.7 --online
  --maintenance 0 --shards 2 --sync-policy always --seed 9)

# Recovers a durable dir (read-only: --churn 0 appends nothing) and
# dumps the QueryAll answers of the fixed seeded probe set. The
# "recovery:" line lands in the named log for later assertions.
probe_dump() {
  local dir="$1" out="$2" log="$3"
  "${DURABLE[@]}" --wal "$dir" --churn 0 --queries 0 --probes 96 \
    --dump-matches "$out" > "$log"
}

# Fails unless dump $1 is nonempty and the recovery logged in $2
# replayed records; prints the replayed count.
require_non_vacuous() {
  local dump="$1" log="$2"
  if [ ! -s "$dump" ]; then
    echo "FAIL: probe dump $dump is empty; the identity check is vacuous" >&2
    exit 1
  fi
  local replayed
  replayed="$(grep -o '[0-9]* replayed' "$log" | cut -d' ' -f1)"
  if [ -z "$replayed" ] || [ "$replayed" -eq 0 ]; then
    echo "FAIL: recovery replayed nothing; the round is vacuous" >&2
    cat "$log" >&2
    exit 1
  fi
  echo "$replayed"
}

echo "--- round 1: SIGKILL after the flushed churn line"
# Run A: uninterrupted reference (no queries, so it closes right after
# its churn).
"${DURABLE[@]}" --wal "$TMP/wal_a" --churn 80 --queries 0 \
  > "$TMP/run_a.log" 2>&1
grep '^churn:' "$TMP/run_a.log"
probe_dump "$TMP/wal_a" "$TMP/dump_a.txt" "$TMP/dump_a.log"

# Run B: the same churn, SIGKILLed right after its churn line (every
# mutation is acknowledged by then; the process is mid-queries).
"${DURABLE[@]}" --wal "$TMP/wal_b" --churn 80 --queries 100000000 \
  > "$TMP/run_b.log" 2>&1 &
KILL_PIDS+=("$!")
RUN_B="${KILL_PIDS[0]}"
for _ in $(seq 1 300); do
  if grep -q '^churn:' "$TMP/run_b.log"; then break; fi
  if ! kill -0 "$RUN_B" 2> /dev/null; then break; fi
  sleep 0.1
done
if ! grep -q '^churn:' "$TMP/run_b.log"; then
  echo "FAIL: run B never printed its churn line" >&2
  cat "$TMP/run_b.log" >&2
  exit 1
fi
kill -9 "$RUN_B" 2> /dev/null || true
wait "$RUN_B" 2> /dev/null || true
echo "run B killed -9 after its churn line"

probe_dump "$TMP/wal_b" "$TMP/dump_b.txt" "$TMP/dump_b.log"
if ! diff -u "$TMP/dump_a.txt" "$TMP/dump_b.txt"; then
  echo "FAIL: recovered index (killed run) diverged from the clean run" >&2
  cat "$TMP/dump_a.log" "$TMP/dump_b.log" >&2
  exit 1
fi
replayed_b="$(require_non_vacuous "$TMP/dump_b.txt" "$TMP/dump_b.log")"
match_count="$(wc -l < "$TMP/dump_a.txt")"
echo "killed and clean runs answer identically ($match_count match lines," \
  "$replayed_b records replayed)"

echo "--- round 2: SIGKILL mid-churn, then recover twice"
# A churn far larger than round 1's so the kill lands inside the
# journaled mutation stream, not after it.
"${DURABLE[@]}" --wal "$TMP/wal_c" --churn 20000 --queries 0 \
  > "$TMP/run_c.log" 2>&1 &
KILL_PIDS+=("$!")
RUN_C="${KILL_PIDS[1]}"
for _ in $(seq 1 300); do
  size="$(stat -c %s "$TMP/wal_c/wal.skw" 2> /dev/null || echo 0)"
  if [ "$size" -gt 8192 ]; then break; fi
  if ! kill -0 "$RUN_C" 2> /dev/null; then break; fi
  sleep 0.05
done
kill -9 "$RUN_C" 2> /dev/null || true
wait "$RUN_C" 2> /dev/null || true
if grep -q '^churn:' "$TMP/run_c.log"; then
  echo "FAIL: run C finished its churn before the kill" >&2
  exit 1
fi
if [ ! -s "$TMP/wal_c/wal.skw" ]; then
  echo "FAIL: mid-churn kill left no log to recover" >&2
  cat "$TMP/run_c.log" >&2
  exit 1
fi
echo "run C killed -9 mid-churn ($(stat -c %s "$TMP/wal_c/wal.skw") log bytes)"

probe_dump "$TMP/wal_c" "$TMP/dump_c1.txt" "$TMP/dump_c1.log"
probe_dump "$TMP/wal_c" "$TMP/dump_c2.txt" "$TMP/dump_c2.log"
grep '^recovery:' "$TMP/dump_c1.log"
if ! diff -u "$TMP/dump_c1.txt" "$TMP/dump_c2.txt"; then
  echo "FAIL: two recoveries of the same directory dumped different answers" >&2
  cat "$TMP/dump_c1.log" "$TMP/dump_c2.log" >&2
  exit 1
fi
replayed="$(require_non_vacuous "$TMP/dump_c1.txt" "$TMP/dump_c1.log")"
echo "mid-churn recovery deterministic ($replayed records replayed twice)"

KILL_PIDS=()
echo "PASS: post-churn kill recovered byte-identically to the clean run" \
  "($match_count match lines), and the mid-churn kill recovered" \
  "deterministically ($replayed records)"
