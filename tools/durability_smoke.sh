#!/usr/bin/env bash
# Crash-durability smoke test of the WAL + recovery layer, end to end
# through the CLI: a `selfjoin --wal` run journals a seeded mutation
# stream into a durable directory and prints a flushed "wal:" marker
# once the log is synced and closed, then runs its join. Round 1
# SIGKILLs one run right after that marker and requires a recovered
# index to answer a seeded probe set byte-identically to an
# uninterrupted run of the same command. Round 2 SIGKILLs a run *mid-churn* — the log ends wherever
# the kill landed — and requires recovery to be deterministic: two
# successive recoveries of the same directory must dump identical
# answers, with a nonzero number of replayed records so the round is
# not vacuous. (CI runs this; docs/FILE_FORMATS.md "SKW1" has the
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

# Recovers a durable dir (read-only: --churn 0 appends nothing) and
# dumps the QueryAll answers of the fixed seeded probe set. The
# "recovery:" line lands in the named log for later assertions.
probe_dump() {
  local dir="$1" out="$2" log="$3"
  "$CLI" query-bench --in "$TMP/data.txt" --alpha 0.7 --online \
    --maintenance 0 --wal "$dir" --churn 0 --queries 0 --probes 96 \
    --dump-matches "$out" --seed 9 > "$log"
}

# Starts the durable selfjoin against $1 in the background, logging to
# $2; the caller decides when (and whether) to kill it.
start_selfjoin() {
  local dir="$1" log="$2" churn="$3"
  "$CLI" selfjoin --in "$TMP/data.txt" --b1 0.5 --shards 2 \
    --wal "$dir" --sync-policy always --churn "$churn" \
    --seed 9 > "$log" 2>&1 &
  KILL_PIDS+=("$!")
}

echo "--- round 1: SIGKILL after the flushed wal marker"
# Run A: uninterrupted reference.
"$CLI" selfjoin --in "$TMP/data.txt" --b1 0.5 --shards 2 \
  --wal "$TMP/wal_a" --sync-policy always --churn 80 \
  --seed 9 > "$TMP/run_a.log" 2>&1
grep '^wal:' "$TMP/run_a.log"
probe_dump "$TMP/wal_a" "$TMP/dump_a.txt" "$TMP/dump_a.log"

# Run B: identical command, SIGKILLed right after the marker (the log
# is synced and closed by then; the process is mid-join).
start_selfjoin "$TMP/wal_b" "$TMP/run_b.log" 80
RUN_B="${KILL_PIDS[0]}"
for _ in $(seq 1 300); do
  if grep -q '^wal:' "$TMP/run_b.log"; then break; fi
  if ! kill -0 "$RUN_B" 2> /dev/null; then break; fi
  sleep 0.1
done
if ! grep -q '^wal:' "$TMP/run_b.log"; then
  echo "FAIL: run B never printed its wal marker" >&2
  cat "$TMP/run_b.log" >&2
  exit 1
fi
kill -9 "$RUN_B" 2> /dev/null || true
wait "$RUN_B" 2> /dev/null || true
echo "run B killed -9 after its wal marker"

probe_dump "$TMP/wal_b" "$TMP/dump_b.txt" "$TMP/dump_b.log"
if ! diff -u "$TMP/dump_a.txt" "$TMP/dump_b.txt"; then
  echo "FAIL: recovered index (killed run) diverged from the clean run" >&2
  cat "$TMP/dump_a.log" "$TMP/dump_b.log" >&2
  exit 1
fi
match_count="$(wc -l < "$TMP/dump_a.txt")"
if [ "$match_count" -eq 0 ]; then
  echo "FAIL: probe dumps are empty; the identity check is vacuous" >&2
  exit 1
fi
echo "killed and clean runs answer identically ($match_count match lines)"

echo "--- round 2: SIGKILL mid-churn, then recover twice"
# A churn far larger than round 1's so the kill lands inside the
# journaled mutation stream, not after it.
start_selfjoin "$TMP/wal_c" "$TMP/run_c.log" 20000
RUN_C="${KILL_PIDS[1]}"
for _ in $(seq 1 300); do
  size="$(stat -c %s "$TMP/wal_c/wal.skw" 2> /dev/null || echo 0)"
  if [ "$size" -gt 8192 ]; then break; fi
  if ! kill -0 "$RUN_C" 2> /dev/null; then break; fi
  sleep 0.05
done
kill -9 "$RUN_C" 2> /dev/null || true
wait "$RUN_C" 2> /dev/null || true
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
replayed="$(grep -o '[0-9]* replayed' "$TMP/dump_c1.log" | cut -d' ' -f1)"
if [ -z "$replayed" ] || [ "$replayed" -eq 0 ]; then
  echo "FAIL: mid-churn recovery replayed nothing; the round is vacuous" >&2
  cat "$TMP/dump_c1.log" >&2
  exit 1
fi
echo "mid-churn recovery deterministic ($replayed records replayed twice)"

KILL_PIDS=()
echo "PASS: post-marker kill recovered byte-identically to the clean run" \
  "($match_count match lines), and the mid-churn kill recovered" \
  "deterministically ($replayed records)"
