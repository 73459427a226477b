#!/bin/sh
# Repo health gate: build, tier-1 tests, torture smokes (single-engine
# on both probe paths, sharded, and the sharded epoch probe path), each
# with its digest pinned, the simulated I/O of a fixed-op cold_scan run
# pinned, a flight-recorder smoke, telemetry and observability
# overhead, shard scaling, probe-bound serving, budget arbitration, and
# a bench diff against committed baselines.
#
# Usage: tools/check.sh [--skip-bench]
#   SKIP_BENCH=1          same as --skip-bench
#   MAX_REGRESSION_PCT=N  override the telemetry/observability overhead
#                         gates (default 5)
#   BENCH_ARGS="..."      extra args for the benches (e.g. --full)
set -eu

cd "$(dirname "$0")/.."

skip_bench="${SKIP_BENCH:-0}"
[ "${1:-}" = "--skip-bench" ] && skip_bench=1
max_pct="${MAX_REGRESSION_PCT:-5}"

# Pinned torture digests. Each campaign below is deterministic, so a
# digest that moves means behaviour moved: a change that claims to be a
# pure speedup must leave every pin as it is. A change that moves a
# digest on purpose updates the pin and says why in CHANGES.md.
pin_digest() { # campaign-name campaign-output pinned-digest
  got=$(echo "$2" | tr ' ' '\n' | awk -F= '/^digest=/ { print $2; exit }')
  if [ "$got" != "$3" ]; then
    echo "FAIL: $1 digest ${got:-none} differs from the pinned $3" >&2
    exit 1
  fi
  echo "$1 digest matches its pin: $got"
}

echo "== dune build"
dune build

echo "== dune runtest (tier 1)"
dune runtest

echo "== torture smoke (fixed seed, oracle must stay silent)"
torture_out=$(dune exec bin/pmvctl.exe -- torture --seed 42 --events 400) || {
  echo "$torture_out"
  echo "FAIL: torture campaign reported oracle violations" >&2
  exit 1
}
echo "$torture_out"
# the smoke must actually inject faults: WAL crashes, lock conflicts,
# I/O errors and forced deferrals all > 0
echo "$torture_out" | tr ' ' '\n' |
  awk -F= '/^(crashes|lock_rejects|io_faults|deferrals)=/ { n++; if ($2 + 0 == 0) bad = 1 }
           END { exit !(n == 4 && !bad) }' || {
  echo "FAIL: torture smoke injected too few fault classes" >&2
  exit 1
}
pin_digest "torture" "$torture_out" 2ef8752b1ddf5e4c

echo "== epoch-path torture smoke (single engine, lock-free probe reads)"
sepoch_out=$(dune exec bin/pmvctl.exe -- torture --seed 42 --events 400 --probe-path epoch) || {
  echo "$sepoch_out"
  echo "FAIL: epoch-path torture campaign reported oracle violations" >&2
  exit 1
}
echo "$sepoch_out"
pin_digest "epoch-path torture" "$sepoch_out" 3b247ca1adfa2fe3

echo "== sharded torture smoke (4 hash-partitioned engines, merged oracle must stay silent)"
shard_out=$(dune exec bin/pmvctl.exe -- torture --seed 42 --events 200 --shards 4) || {
  echo "$shard_out"
  echo "FAIL: sharded torture campaign reported oracle violations" >&2
  exit 1
}
echo "$shard_out"
# shard-scoped faults must actually fire (no WAL crashes by design)
echo "$shard_out" | tr ' ' '\n' |
  awk -F= '/^(lock_rejects|io_faults|deferrals)=/ { n++; if ($2 + 0 == 0) bad = 1 }
           END { exit !(n == 3 && !bad) }' || {
  echo "FAIL: sharded torture smoke injected too few fault classes" >&2
  exit 1
}
pin_digest "sharded torture" "$shard_out" 3fb2524067c93435

echo "== epoch-path torture cross-check (same seed, lock-free probe reads)"
# same campaign as the sharded smoke but answering through the epoch
# fast path; the oracle must stay just as silent. Digests legitimately
# differ across probe paths (cache admission order changes), so each
# path has its own pin.
epoch_out=$(dune exec bin/pmvctl.exe -- torture --seed 42 --events 200 --shards 4 --probe-path epoch) || {
  echo "$epoch_out"
  echo "FAIL: epoch-path torture campaign reported oracle violations" >&2
  exit 1
}
echo "$epoch_out"
pin_digest "sharded epoch-path torture" "$epoch_out" 4b82649ab98fb1d5

echo "== query-shape smoke (each Section 3.6 shape oracle-clean at 1 and 4 shards, both probe paths)"
# the shapes suite runs the per-shape differential properties —
# distinct / grouped / ordered first-k / exists against the
# brute-force oracle across 1-4 shards and locked+epoch reads — plus
# the pinned regression seed corpus
dune exec test/test_main.exe -- test shapes || {
  echo "FAIL: a Section 3.6 query shape diverged from the oracle" >&2
  exit 1
}

echo "== simulated I/O pin (fixed-op traced cold_scan, seed 3)"
# Figures 8-10's modelled I/O and EXPERIMENTS Extra A rest on the
# buffer pool's CLOCK decisions. A fixed-op run (no --seconds) repeats
# its counts exactly, so a page-path change that moves them fails here.
pin_metric() { # run-json metric-name pinned-value (4 decimals)
  got=$(echo "$1" | awk -v m="\"$2\": {\"value\": " '{
    i = index($0, m); if (i) { s = substr($0, i + length(m)); sub(/[,}].*/, "", s); printf "%.4f", s } }')
  if [ "$got" != "$3" ]; then
    echo "FAIL: cold_scan $2 ${got:-none} differs from the pinned $3" >&2
    exit 1
  fi
  echo "cold_scan $2 matches its pin: $got"
}
io_out=$(dune exec bench/e2e/main.exe -- one --workload cold_scan --seed 3 --trace 1 2>/dev/null | tail -1)
echo "$io_out" | grep -q '"correct": true' || {
  echo "FAIL: the fixed-op cold_scan run was not correct" >&2
  exit 1
}
pin_metric "$io_out" buffer_pool.reads_per_op 644.1515
pin_metric "$io_out" buffer_pool.hit_share 0.7032

echo "== flight recorder smoke (forced fault -> non-empty, time-ordered, digest-stable dump)"
# a short faulted workload so the ring does not wrap past the early
# Fault_hit: the dump must capture the injected maintain.apply, be
# globally time-ordered, and digest identically on a same-seed rerun
# (the digest covers what happened, never when)
fl1=$(dune exec bin/pmvctl.exe -- flight --seed 42 --queries 20 --fault maintain.apply)
fl2=$(dune exec bin/pmvctl.exe -- flight --seed 42 --queries 20 --fault maintain.apply)
echo "$fl1" | grep "flight recorder:"
echo "$fl1" | grep -q "fault.hit" || {
  echo "FAIL: forced maintain.apply fault not captured in the flight dump" >&2
  exit 1
}
echo "$fl1" | awk '$1 ~ /^#/ { n++; if ($2 + 0 < prev) bad = 1; prev = $2 + 0 }
                   END { exit !(n > 0 && !bad) }' || {
  echo "FAIL: flight dump empty or not time-ordered" >&2
  exit 1
}
fd1=$(echo "$fl1" | sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')
fd2=$(echo "$fl2" | sed -n 's/.*digest \([0-9a-f]*\).*/\1/p')
if [ -z "$fd1" ] || [ "$fd1" != "$fd2" ]; then
  echo "FAIL: flight digest not reproducible (${fd1:-none} vs ${fd2:-none})" >&2
  exit 1
fi
echo "flight digest reproducible across runs: $fd1"

if [ "$skip_bench" = "1" ]; then
  echo "== telemetry overhead and shard scaling gates skipped"
  exit 0
fi

echo "== telemetry overhead gate (< ${max_pct}%)"
# the bench's floor estimator absorbs bursty noise internally; the
# retries (with a cool-down, so one multi-minute contention window
# cannot eat them back-to-back) cover a fully contended run — a real
# regression fails every attempt
tm_ok=0
for attempt in 1 2 3; do
  if [ "$attempt" != "1" ]; then
    echo "telemetry gate missed; cooling down before retry $attempt (noisy host)"
    sleep 20
  fi
  dune exec bench/main.exe -- telemetry ${BENCH_ARGS:-}
  pct=$(awk -F': ' '/"regression_pct"/ { gsub(/[ ,]/, "", $2); print $2 }' BENCH_telemetry.json)
  if [ -z "$pct" ]; then
    echo "FAIL: no regression_pct in BENCH_telemetry.json" >&2
    exit 1
  fi
  echo "telemetry-on vs telemetry-off regression: ${pct}%"
  if awk -v pct="$pct" -v max="$max_pct" 'BEGIN { exit !(pct < max) }'; then
    tm_ok=1
    break
  fi
done
[ "$tm_ok" = "1" ] || {
  echo "FAIL: telemetry overhead ${pct}% >= ${max_pct}% (3 attempts)" >&2
  exit 1
}

echo "== observability overhead gate (< ${max_pct}%)"
# recorder + always-on tracing on the probe-bound epoch regime — the
# serving path where a fixed per-query cost is proportionally largest.
# Same spaced-retry policy as the telemetry gate above.
obs_ok=0
for attempt in 1 2 3; do
  if [ "$attempt" != "1" ]; then
    echo "observability gate missed; cooling down before retry $attempt (noisy host)"
    sleep 20
  fi
  dune exec bench/main.exe -- observability ${BENCH_ARGS:-}
  obs_pct=$(awk -F': ' '/"regression_pct"/ { gsub(/[ ,]/, "", $2); print $2 }' BENCH_observability.json)
  if [ -z "$obs_pct" ]; then
    echo "FAIL: no regression_pct in BENCH_observability.json" >&2
    exit 1
  fi
  echo "observability-on vs observability-off regression: ${obs_pct}%"
  if awk -v pct="$obs_pct" -v max="$max_pct" 'BEGIN { exit !(pct < max) }'; then
    obs_ok=1
    break
  fi
done
[ "$obs_ok" = "1" ] || {
  echo "FAIL: observability overhead ${obs_pct}% >= ${max_pct}% (3 attempts)" >&2
  exit 1
}

echo "== shard scaling + probe-bound gates (scan >= 1.5x at 4 shards; router cache residency beats the engine)"
# correctness (oracle, checksums) fails immediately; the throughput
# thresholds get the same spaced retries as the overhead gates — a
# real regression fails every attempt, a contended run does not
sh_ok=0
for attempt in 1 2 3; do
  if [ "$attempt" != "1" ]; then
    echo "shard throughput gates missed; cooling down before retry $attempt (noisy host)"
    sleep 20
  fi
  dune exec bench/main.exe -- shard ${BENCH_ARGS:-}

  # first occurrences of the shared key names are the scan-bound
  # regime; the probe_bound block uses its own distinct keys
  # (router4_vs_engine, router1_vs_engine)
  speedup=$(awk -F': ' '/"speedup_4_shards"/ { gsub(/[ ,]/, "", $2); print $2; exit }' BENCH_shard.json)
  one_shard=$(awk -F': ' '/"one_shard_router_vs_engine"/ { gsub(/[ ,]/, "", $2); print $2; exit }' BENCH_shard.json)
  oracle=$(awk -F': ' '/^ *"oracle_clean"/ { gsub(/[ ,}]/, "", $2); print $2; exit }' BENCH_shard.json)
  p_router4=$(awk -F': ' '/"router4_vs_engine"/ { gsub(/[ ,]/, "", $2); print $2; exit }' BENCH_shard.json)
  p_router1=$(awk -F': ' '/"router1_vs_engine"/ { gsub(/[ ,]/, "", $2); print $2; exit }' BENCH_shard.json)
  p_checksums=$(awk -F': ' '/"checksums_identical"/ { gsub(/[ ,}]/, "", $2); print $2; exit }' BENCH_shard.json)
  if [ -z "$speedup" ] || [ -z "$one_shard" ] || [ -z "$oracle" ] ||
     [ -z "$p_router4" ] || [ -z "$p_router1" ] || [ -z "$p_checksums" ]; then
    echo "FAIL: missing fields in BENCH_shard.json" >&2
    exit 1
  fi
  echo "4-shard speedup: ${speedup}x, 1-shard router vs engine: ${one_shard}x, oracle: ${oracle}"
  echo "probe-bound router4 vs engine: ${p_router4}x, router1 vs engine: ${p_router1}x, checksums identical: ${p_checksums}"
  [ "$oracle" = "true" ] || {
    echo "FAIL: shard bench merged answers violated the oracle" >&2
    exit 1
  }
  [ "$p_checksums" = "true" ] || {
    echo "FAIL: probe-bound answers differ across probe paths or shard counts" >&2
    exit 1
  }
  if awk -v s="$speedup" 'BEGIN { exit !(s >= 1.5) }' &&
     awk -v r="$one_shard" 'BEGIN { exit !(r >= 0.85) }' &&
     awk -v r="$p_router4" 'BEGIN { exit !(r >= 1.0) }' &&
     awk -v r="$p_router1" 'BEGIN { exit !(r >= 0.95) }'; then
    sh_ok=1
    break
  fi
done
[ "$sh_ok" = "1" ] || {
  echo "FAIL: shard gates missed on every attempt (need scan 4-shard >= 1.5x [${speedup}x], 1-shard >= 0.85x [${one_shard}x], probe-bound router4 >= 1.0x [${p_router4}x], router1 >= 0.95x [${p_router1}x])" >&2
  exit 1
}

echo "== grouped-probe shapes gate (4-shard grouped qps holds the 1-shard line, oracle clean)"
# per-query fast-path work is proportional to the result size, not the
# shard count, so fanning the data out must not tax grouped serving;
# same spaced-retry policy as the other throughput gates
shp_ok=0
for attempt in 1 2 3; do
  if [ "$attempt" != "1" ]; then
    echo "shapes gate missed; cooling down before retry $attempt (noisy host)"
    sleep 20
  fi
  dune exec bench/main.exe -- shapes ${BENCH_ARGS:-}
  shp_qps1=$(awk -F': ' '/"qps_1_shard"/ { gsub(/[ ,]/, "", $2); print $2; exit }' BENCH_shapes.json)
  shp_qps4=$(awk -F': ' '/"qps_4_shard"/ { gsub(/[ ,]/, "", $2); print $2; exit }' BENCH_shapes.json)
  shp_oracle=$(awk -F': ' '/^ *"oracle_clean"/ { gsub(/[ ,}]/, "", $2); print $2; exit }' BENCH_shapes.json)
  if [ -z "$shp_qps1" ] || [ -z "$shp_qps4" ] || [ -z "$shp_oracle" ]; then
    echo "FAIL: missing fields in BENCH_shapes.json" >&2
    exit 1
  fi
  echo "grouped-probe qps: 1 shard ${shp_qps1}, 4 shards ${shp_qps4}, oracle: ${shp_oracle}"
  [ "$shp_oracle" = "true" ] || {
    echo "FAIL: shapes bench answers violated the oracle" >&2
    exit 1
  }
  if awk -v a="$shp_qps4" -v b="$shp_qps1" 'BEGIN { exit !(a >= b) }'; then
    shp_ok=1
    break
  fi
done
[ "$shp_ok" = "1" ] || {
  echo "FAIL: 4-shard grouped-probe qps ${shp_qps4} below 1-shard ${shp_qps1} on every attempt" >&2
  exit 1
}

echo "== budget arbitration gate (arbitrated hit >= static, oracle clean)"
# correctness (oracle) fails immediately; the hit-ratio threshold gets
# the same spaced retries as the other gates
ad_ok=0
for attempt in 1 2 3; do
  if [ "$attempt" != "1" ]; then
    echo "budget gate missed; cooling down before retry $attempt (noisy host)"
    sleep 20
  fi
  dune exec bench/main.exe -- adaptive ${BENCH_ARGS:-}
  ad_oracle=$(awk -F': ' '/"oracle_clean"/ { gsub(/[ ,}]/, "", $2); print $2; exit }' BENCH_adaptive.json)
  ad_gain=$(awk -F': ' '/"hit_ratio_gain"/ { gsub(/[ ,]/, "", $2); print $2; exit }' BENCH_adaptive.json)
  if [ -z "$ad_oracle" ] || [ -z "$ad_gain" ]; then
    echo "FAIL: missing fields in BENCH_adaptive.json" >&2
    exit 1
  fi
  echo "arbitrated-vs-static hit gain: ${ad_gain}, oracle: ${ad_oracle}"
  [ "$ad_oracle" = "true" ] || {
    echo "FAIL: budget bench answers violated the oracle" >&2
    exit 1
  }
  if awk -v g="$ad_gain" 'BEGIN { exit !(g >= 0) }'; then
    ad_ok=1
    break
  fi
done
[ "$ad_ok" = "1" ] || {
  echo "FAIL: budget gate missed on every attempt (need hit gain >= 0 [${ad_gain}])" >&2
  exit 1
}

echo "== bench diff vs committed baselines (> ${MAX_BENCH_REGRESSION_PCT:-20}% q/s regression fails)"
# same spaced-retry policy as the gates: the diff compares absolute
# rates against a baseline captured on a calm host, so one contended
# shard sweep can trip it; a real regression trips it on every attempt
if ! tools/bench_diff.sh; then
  echo "bench diff missed; cooling down and re-running the shard bench (noisy host)"
  sleep 20
  dune exec bench/main.exe -- shard ${BENCH_ARGS:-}
  tools/bench_diff.sh || {
    echo "FAIL: fresh bench results regressed vs the committed BENCH_*.json (twice)" >&2
    exit 1
  }
fi

echo "ok: all checks passed"
