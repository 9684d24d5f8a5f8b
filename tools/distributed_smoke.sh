#!/usr/bin/env bash
# Multi-process smoke test of the distributed join service: one pool of
# real `join-worker` OS processes serves (a) two concurrent coordinator
# sessions whose dumped pair lists must both be byte-identical to the
# in-process one-shot join, and (b) a kill-recovery round where one worker
# deliberately dies mid-probe-stream (--die-after-batches) and the
# coordinator must report the recovery and still produce byte-identical
# output — the acceptance criteria of the transport layer, checked end
# to end through the CLI (CI runs this; see docs/WIRE_PROTOCOL.md for
# what crosses the wire). Along the way the workers are scraped live
# with `join-stats` (the stats surface of docs/OBSERVABILITY.md):
# mid-join while both coordinators are in flight, after round 1 to
# assert nonzero batch counters, and after the kill round to assert the
# survivors counted every deferred ship and re-ship they applied.
#
# Usage: tools/distributed_smoke.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"
CLI="$BUILD/tools/skewsearch_cli"

if [ ! -x "$CLI" ]; then
  echo "error: '$CLI' not built (cmake --build $BUILD --target skewsearch_cli)" >&2
  exit 2
fi

TMP="$(mktemp -d)"
WORKER_PIDS=()

# Last-resort cleanup: SIGTERM each surviving worker, give it a bounded
# 5s to drain, then SIGKILL — and fail the script loudly if the
# escalation was ever needed, because a worker that ignores SIGTERM is
# itself a bug.
cleanup() {
  local escalated=0
  for pid in "${WORKER_PIDS[@]:-}"; do
    if kill -0 "$pid" 2> /dev/null; then
      kill "$pid" 2> /dev/null || true
      for _ in $(seq 1 50); do
        kill -0 "$pid" 2> /dev/null || break
        sleep 0.1
      done
      if kill -0 "$pid" 2> /dev/null; then
        echo "error: worker $pid ignored SIGTERM for 5s; sending SIGKILL" >&2
        kill -9 "$pid" 2> /dev/null || true
        escalated=1
      fi
    fi
  done
  rm -rf "$TMP"
  if [ "$escalated" -ne 0 ]; then
    echo "FAIL: leaked worker process(es) had to be SIGKILLed" >&2
    exit 1
  fi
}
trap cleanup EXIT

# Orderly shutdown used on the success path: SIGTERM, bounded wait,
# assert the worker drained and exited 0 on its own.
stop_worker() {
  local pid="$1"
  kill "$pid" 2> /dev/null || true
  for _ in $(seq 1 50); do
    if ! kill -0 "$pid" 2> /dev/null; then
      local status=0
      wait "$pid" || status=$?
      if [ "$status" -ne 0 ]; then
        echo "error: worker $pid exited $status after SIGTERM drain" >&2
        return 1
      fi
      return 0
    fi
    sleep 0.1
  done
  echo "error: worker $pid did not drain within 5s of SIGTERM" >&2
  return 1
}

# Scrape one counter off a live worker over the wire protocol; prints
# its value (0 if the worker has never touched it). A failed scrape
# session fails the script via pipefail.
scrape_counter() {
  local endpoint="$1" name="$2"
  "$CLI" join-stats --connect "$endpoint" \
    | awk -v n="$name" '$1 == "counter" && $2 == n { print $3; found = 1 }
                        END { if (!found) print 0 }'
}

# A dataset dense enough that the self-join has a non-trivial output
# (the identity check would be vacuous on zero pairs).
"$CLI" generate --kind zipf --n 600 --d 300 --p 0.9 --exp 1.2 --avg 8 \
  --seed 7 --out "$TMP/data.txt"

echo "--- in-process one-shot baselines (selfjoin + R-S join)"
"$CLI" selfjoin --in "$TMP/data.txt" --b1 0.6 --dump-pairs "$TMP/single.txt"
"$CLI" join --left "$TMP/data.txt" --right "$TMP/data.txt" --b1 0.6 \
  --dump-pairs "$TMP/rs_single.txt"

pair_count="$(wc -l < "$TMP/single.txt")"
if [ "$pair_count" -eq 0 ]; then
  echo "error: baseline produced zero pairs; the identity check is vacuous" >&2
  exit 2
fi

# One pool of three worker processes on kernel-chosen ports (parsed
# from their "listening on port N" line). Workers 1 and 2 are healthy
# long-running servers; worker 3 is rigged to drop its connection after
# 2 answered batches and exit nonzero — the crash the recovery round
# must absorb.
start_worker() {
  local log="$1"
  shift
  "$CLI" join-worker "$@" > "$log" &
  WORKER_PIDS+=("$!")
  for _ in $(seq 1 100); do
    if grep -q 'listening on port' "$log"; then return 0; fi
    sleep 0.1
  done
  echo "error: worker never started listening ($log)" >&2
  return 2
}

echo "--- starting a pool of 3 join-worker processes"
start_worker "$TMP/worker1.log"
start_worker "$TMP/worker2.log"
start_worker "$TMP/worker3.log" --die-after-batches 2
PORT1="$(grep -o 'port [0-9]*' "$TMP/worker1.log" | cut -d' ' -f2)"
PORT2="$(grep -o 'port [0-9]*' "$TMP/worker2.log" | cut -d' ' -f2)"
PORT3="$(grep -o 'port [0-9]*' "$TMP/worker3.log" | cut -d' ' -f2)"
echo "workers listening on ports $PORT1, $PORT2, $PORT3 (worker 3 rigged to die)"

echo "--- round 1: two concurrent coordinators against the same pool"
"$CLI" selfjoin --in "$TMP/data.txt" --b1 0.6 --probe-batch 32 \
  --connect "127.0.0.1:$PORT1,127.0.0.1:$PORT2" \
  --dump-pairs "$TMP/tcp_a.txt" > "$TMP/coord_a.log" 2>&1 &
COORD_A=$!
"$CLI" selfjoin --in "$TMP/data.txt" --b1 0.6 --probe-batch 32 \
  --connect "127.0.0.1:$PORT1,127.0.0.1:$PORT2" \
  --dump-pairs "$TMP/tcp_b.txt" > "$TMP/coord_b.log" 2>&1 &
COORD_B=$!

# Scrape worker 1 while both coordinators are in flight: a stats-only
# session must coexist with live probe sessions on the same process.
# The counters may legitimately still be near zero this early, so the
# assertion here is only that the scrape session itself succeeded (the
# response always carries the scrape it is answering).
"$CLI" join-stats --connect "127.0.0.1:$PORT1" > "$TMP/scrape_midjoin.txt"
if ! grep -Eq '^counter worker\.stats_scrapes [1-9]' "$TMP/scrape_midjoin.txt"; then
  echo "FAIL: mid-join scrape of worker 1 did not return a stats snapshot" >&2
  cat "$TMP/scrape_midjoin.txt" >&2
  exit 1
fi
echo "mid-join scrape of worker 1 answered alongside live sessions"

for coord in "$COORD_A" "$COORD_B"; do
  if ! wait "$coord"; then
    echo "error: coordinator $coord failed" >&2
    cat "$TMP"/coord_*.log "$TMP"/worker*.log >&2
    exit 1
  fi
done
for dump in tcp_a tcp_b; do
  if ! diff -u "$TMP/single.txt" "$TMP/$dump.txt"; then
    echo "FAIL: concurrent coordinator '$dump' diverged from the baseline" >&2
    exit 1
  fi
done
echo "both concurrent coordinators byte-identical ($pair_count pairs each)"

# With both sessions drained, the registry must show the work: two
# coordinators' probe batches answered and real bytes on the wire.
batches="$(scrape_counter "127.0.0.1:$PORT1" worker.batches)"
bytes_in="$(scrape_counter "127.0.0.1:$PORT1" worker.wire.bytes_received)"
if [ "$batches" -eq 0 ] || [ "$bytes_in" -eq 0 ]; then
  echo "FAIL: worker 1 served two joins but scraped worker.batches=$batches" \
    "worker.wire.bytes_received=$bytes_in" >&2
  exit 1
fi
echo "worker 1 stats after round 1: $batches batches, $bytes_in bytes received"

echo "--- round 2: R-S join with a worker dying mid-stream"
if ! "$CLI" join --left "$TMP/data.txt" --right "$TMP/data.txt" --b1 0.6 \
  --probe-batch 16 \
  --connect "127.0.0.1:$PORT1,127.0.0.1:$PORT2,127.0.0.1:$PORT3" \
  --dump-pairs "$TMP/rs_tcp.txt" | tee "$TMP/coord_recovery.log"; then
  echo "error: recovery coordinator failed" >&2
  cat "$TMP"/worker*.log >&2
  exit 1
fi
if ! grep -q 'recovered 1 worker(s)' "$TMP/coord_recovery.log"; then
  echo "FAIL: coordinator did not report the worker recovery" >&2
  cat "$TMP/coord_recovery.log" "$TMP/worker3.log" >&2
  exit 1
fi
if ! diff -u "$TMP/rs_single.txt" "$TMP/rs_tcp.txt"; then
  echo "FAIL: recovered R-S join diverged from the in-process one-shot join" >&2
  exit 1
fi

# A worker counts every Assignment after its attach as a reassignment:
# the R-S join's deferred ship of its one-id lists, and a recovery's
# re-ship of a lost worker's pairing lists, which that join follows
# with the lost worker's one-id lists. The coordinator printed both
# counts; the rigged worker applied its own deferred ship before it
# died, so the survivors must have counted every other one.
deferred="$(sed -n 's/^shipped one-id lists \([0-9]*\) time(s).*/\1/p' \
  "$TMP/coord_recovery.log")"
recovered="$(sed -n 's/^recovered \([0-9]*\) worker(s).*/\1/p' \
  "$TMP/coord_recovery.log")"
reassign1="$(scrape_counter "127.0.0.1:$PORT1" worker.reassignments)"
reassign2="$(scrape_counter "127.0.0.1:$PORT2" worker.reassignments)"
if [ -z "$deferred" ] || [ "${recovered:-0}" -lt 1 ] ||
  [ "$((reassign1 + reassign2))" -ne "$((deferred - 1 + recovered))" ]; then
  echo "FAIL: survivors counted $((reassign1 + reassign2)) reassignment(s)" \
    "(worker1=$reassign1 worker2=$reassign2); the coordinator shipped" \
    "one-id lists ${deferred:-0} time(s) and recovered ${recovered:-0}" \
    "worker(s), one ship of which went to the rigged worker" >&2
  exit 1
fi
echo "survivors counted $((reassign1 + reassign2)) reassignment(s):" \
  "$((deferred - 1)) deferred ship(s) and $recovered recovery re-ship(s)"

# The rigged worker must be gone on its own, with the distinct
# die-after-batches exit code (3) — not killed by our cleanup.
W3_PID="${WORKER_PIDS[2]}"
w3_status=0
wait "$W3_PID" || w3_status=$?
if [ "$w3_status" -ne 3 ]; then
  echo "error: rigged worker exited $w3_status, expected 3" >&2
  cat "$TMP/worker3.log" >&2
  exit 1
fi

echo "--- round 3: frozen-shard workers (SKF2 pre-mapped, zero-copy serve)"
# Freeze the same dataset with the same index parameters (b1 0.6, seed
# default) into a 2-shard SKF2 file, start two fresh workers that
# pre-map it via --shard-file, and run the self-join against them with
# --frozen: the coordinator ships only tiny ShardAssignment frames (no
# posting payload crosses the wire) yet the dumped pairs must still be
# byte-identical to the in-process one-shot baseline of round 1.
"$CLI" freeze --in "$TMP/data.txt" --out "$TMP/data.skf" --b1 0.6 --shards 2
start_worker "$TMP/worker4.log" --shard-file "$TMP/data.skf" --data "$TMP/data.txt"
start_worker "$TMP/worker5.log" --shard-file "$TMP/data.skf" --data "$TMP/data.txt"
PORT4="$(grep -o 'port [0-9]*' "$TMP/worker4.log" | cut -d' ' -f2)"
PORT5="$(grep -o 'port [0-9]*' "$TMP/worker5.log" | cut -d' ' -f2)"
if ! grep -q 'mapped 2 frozen shard(s)' "$TMP/worker4.log"; then
  echo "FAIL: frozen worker did not report mapping the SKF2 file" >&2
  cat "$TMP/worker4.log" >&2
  exit 1
fi
echo "frozen workers listening on ports $PORT4, $PORT5"

if ! "$CLI" selfjoin --in "$TMP/data.txt" --b1 0.6 --probe-batch 32 \
  --frozen "$TMP/data.skf" --connect "127.0.0.1:$PORT4,127.0.0.1:$PORT5" \
  --dump-pairs "$TMP/frozen_tcp.txt" | tee "$TMP/coord_frozen.log"; then
  echo "error: frozen-shard coordinator failed" >&2
  cat "$TMP/worker4.log" "$TMP/worker5.log" >&2
  exit 1
fi
if ! grep -q 'served zero-copy' "$TMP/coord_frozen.log"; then
  echo "FAIL: coordinator did not report the frozen build side" >&2
  cat "$TMP/coord_frozen.log" >&2
  exit 1
fi
if ! diff -u "$TMP/single.txt" "$TMP/frozen_tcp.txt"; then
  echo "FAIL: frozen-shard join diverged from the in-process one-shot baseline" >&2
  exit 1
fi
echo "frozen-shard join byte-identical to the baseline ($pair_count pairs)"

echo "--- draining the surviving workers (SIGTERM)"
stop_worker "${WORKER_PIDS[0]}"
stop_worker "${WORKER_PIDS[1]}"
stop_worker "${WORKER_PIDS[3]}"
stop_worker "${WORKER_PIDS[4]}"
WORKER_PIDS=()
cat "$TMP/worker1.log" "$TMP/worker2.log" "$TMP/worker3.log" \
  "$TMP/worker4.log" "$TMP/worker5.log"

echo "PASS: 2 concurrent coordinators byte-identical ($pair_count pairs)," \
  "the R-S join recovered a killed worker with byte-identical output," \
  "and the frozen-shard (--shard-file/--frozen) round matched it too"
