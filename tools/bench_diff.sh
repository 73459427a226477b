#!/bin/sh
# Diff fresh bench JSON against the committed (HEAD) baselines so a
# probe-bound serving regression cannot land silently.
#
# Usage: tools/bench_diff.sh [fresh_shard.json [fresh_observability.json [fresh_shapes.json [fresh_adaptive.json]]]]
#   MAX_BENCH_REGRESSION_PCT=N   allowed regression (default 20)
#
# The default margin is set above the measured run-to-run noise floor
# of the reference 1-core host (individual shard q/s and ratios swing
# +/-15% between clean runs there); the tripwire targets the failure
# modes that matter — a tentpole ratio collapsing toward 1.0 or a
# serving rate falling off a cliff — not noise re-rolls.
#
# Comparison rules (core-aware):
#   - the gated shard ratios (router4_vs_engine, router1_vs_engine)
#     divide two same-host measurements, so they compare on any host;
#   - absolute probe-bound q/s per configuration only compares when the
#     fresh host reports the same host_cores as the committed run.
# Exits 0 with a note when there is no git HEAD or no committed
# baseline to diff against.
set -eu
cd "$(dirname "$0")/.."

max="${MAX_BENCH_REGRESSION_PCT:-20}"
fresh_shard="${1:-BENCH_shard.json}"
fresh_observability="${2:-BENCH_observability.json}"
fresh_shapes="${3:-BENCH_shapes.json}"
fresh_adaptive="${4:-BENCH_adaptive.json}"
status=0

if ! git rev-parse --quiet --verify HEAD >/dev/null 2>&1; then
  echo "bench_diff: no git HEAD - nothing to diff against"
  exit 0
fi

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

# First occurrence of a scalar "key": value in a JSON file.
jget() { # file key
  awk -F': ' -v k="\"$2\"" '
    index($0, k ": ") { v = $2; gsub(/[ ,}]/, "", v); print v; exit }' "$1"
}

# "label qps" pairs of the probe_bound block's epoch runs: the first
# "runs" array after the "probe_bound" opener (the nested "locked"
# block repeats the key and is skipped).
probe_qps() { # file
  awk '
    /"probe_bound"/ { pb = 1 }
    pb && /"runs"/ && !done {
      done = 1
      n = split($0, parts, /\{"label": "/)
      for (i = 2; i <= n; i++) {
        p = parts[i]
        lbl = substr(p, 1, index(p, "\"") - 1)
        if (match(p, /"queries_per_sec": [0-9.]+/)) {
          q = substr(p, RSTART, RLENGTH)
          sub(/^"queries_per_sec": /, "", q)
          print lbl, q
        }
      }
    }' "$1"
}

# A value must stay within max% of its committed baseline (larger is
# always fine).
within() { # old new
  awk -v o="$1" -v n="$2" -v max="$max" 'BEGIN { exit !(n >= o * (1 - max / 100)) }'
}

# ---- shard: probe-bound serving --------------------------------------
if git cat-file -e HEAD:BENCH_shard.json 2>/dev/null && [ -f "$fresh_shard" ]; then
  base="$tmpdir/shard_base.json"
  git show HEAD:BENCH_shard.json >"$base"

  if ! grep -q '"router4_vs_engine"' "$base"; then
    # a baseline from before the probe-bound layout (different bench
    # methodology) is not comparable at all
    echo "bench_diff: committed shard baseline predates the probe-bound layout - skipped"
  else
    for key in router4_vs_engine router1_vs_engine; do
      old=$(jget "$base" "$key")
      new=$(jget "$fresh_shard" "$key")
      if [ -n "$old" ] && [ -n "$new" ]; then
        if within "$old" "$new"; then
          echo "bench_diff: $key ${old} -> ${new} (ok)"
        else
          echo "bench_diff FAIL: $key regressed ${old} -> ${new} (> ${max}%)" >&2
          status=1
        fi
      fi
    done

    old_cores=$(jget "$base" host_cores)
    new_cores=$(jget "$fresh_shard" host_cores)
    if [ -n "$old_cores" ] && [ "$old_cores" = "$new_cores" ]; then
      probe_qps "$base" >"$tmpdir/old_qps"
      probe_qps "$fresh_shard" >"$tmpdir/new_qps"
      while read -r lbl old; do
        new=$(awk -v l="$lbl" '$1 == l { print $2; exit }' "$tmpdir/new_qps")
        [ -n "$new" ] || continue
        if within "$old" "$new"; then
          echo "bench_diff: probe-bound $lbl ${old} -> ${new} q/s (ok)"
        else
          echo "bench_diff FAIL: probe-bound $lbl q/s regressed ${old} -> ${new} (> ${max}%)" >&2
          status=1
        fi
      done <"$tmpdir/old_qps"
    else
      echo "bench_diff: host_cores differ (${old_cores:-?} vs ${new_cores:-?}) - absolute q/s not compared"
    fi
  fi
else
  echo "bench_diff: no committed BENCH_shard.json baseline - skipped"
fi

# ---- observability: tracing + flight recorder overhead ---------------
if git cat-file -e HEAD:BENCH_observability.json 2>/dev/null && [ -f "$fresh_observability" ]; then
  base="$tmpdir/observability_base.json"
  git show HEAD:BENCH_observability.json >"$base"

  # the overhead percentage is a same-host ratio of ratios, so it
  # compares on any host — but it sits near zero, where relative
  # comparison is meaningless; gate it in absolute percentage points
  # instead (fresh may exceed committed by at most 3pp, and never the
  # 5% CI gate)
  old=$(jget "$base" regression_pct)
  new=$(jget "$fresh_observability" regression_pct)
  if [ -n "$old" ] && [ -n "$new" ]; then
    if awk -v o="$old" -v n="$new" 'BEGIN { exit !(n < 5 && n <= o + 3) }'; then
      echo "bench_diff: observability regression_pct ${old} -> ${new} (ok)"
    else
      echo "bench_diff FAIL: observability overhead grew ${old}% -> ${new}% (> +3pp or >= 5%)" >&2
      status=1
    fi
  fi

  # absolute full-stack serving rate ("on" mode) only compares on the
  # same core count
  old_cores=$(jget "$base" host_cores)
  new_cores=$(jget "$fresh_observability" host_cores)
  if [ -n "$old_cores" ] && [ "$old_cores" = "$new_cores" ]; then
    # second "queries_per_sec" occurrence is the "on" mode (off comes
    # first); the mode objects are inline, so extract by match, not by
    # field position
    on_qps() {
      awk '{
        while (match($0, /"queries_per_sec": [0-9.]+/)) {
          v = substr($0, RSTART, RLENGTH)
          sub(/^"queries_per_sec": /, "", v)
          if (++n == 2) { print v; exit }
          $0 = substr($0, RSTART + RLENGTH)
        }
      }' "$1"
    }
    old=$(on_qps "$base")
    new=$(on_qps "$fresh_observability")
    if [ -n "$old" ] && [ -n "$new" ]; then
      if within "$old" "$new"; then
        echo "bench_diff: observability-on ${old} -> ${new} q/s (ok)"
      else
        echo "bench_diff FAIL: observability-on q/s regressed ${old} -> ${new} (> ${max}%)" >&2
        status=1
      fi
    fi
  else
    echo "bench_diff: host_cores differ (${old_cores:-?} vs ${new_cores:-?}) - observability q/s not compared"
  fi
else
  echo "bench_diff: no committed BENCH_observability.json baseline - skipped"
fi

# ---- shapes: grouped-probe serving across shard counts ----------------
if git cat-file -e HEAD:BENCH_shapes.json 2>/dev/null && [ -f "$fresh_shapes" ]; then
  base="$tmpdir/shapes_base.json"
  git show HEAD:BENCH_shapes.json >"$base"

  # answers must match the brute-force oracle on any host (anchored:
  # the per-run entries repeat the key inline earlier in the file)
  oracle=$(awk -F': ' '/^ *"oracle_clean"/ { gsub(/[ ,}]/, "", $2); print $2; exit }' "$fresh_shapes")
  if [ "$oracle" != "true" ]; then
    echo "bench_diff FAIL: fresh shapes bench is not oracle-clean" >&2
    status=1
  fi

  # the 4-vs-1-shard ratio divides two same-host measurements, so it
  # compares on any host
  old=$(jget "$base" speedup_4_vs_1)
  new=$(jget "$fresh_shapes" speedup_4_vs_1)
  if [ -n "$old" ] && [ -n "$new" ]; then
    if within "$old" "$new"; then
      echo "bench_diff: shapes speedup_4_vs_1 ${old} -> ${new} (ok)"
    else
      echo "bench_diff FAIL: shapes speedup_4_vs_1 regressed ${old} -> ${new} (> ${max}%)" >&2
      status=1
    fi
  fi

  # absolute grouped-probe q/s only compares on the same core count
  old_cores=$(jget "$base" host_cores)
  new_cores=$(jget "$fresh_shapes" host_cores)
  if [ -n "$old_cores" ] && [ "$old_cores" = "$new_cores" ]; then
    for key in qps_1_shard qps_4_shard; do
      old=$(jget "$base" "$key")
      new=$(jget "$fresh_shapes" "$key")
      if [ -n "$old" ] && [ -n "$new" ]; then
        if within "$old" "$new"; then
          echo "bench_diff: shapes $key ${old} -> ${new} q/s (ok)"
        else
          echo "bench_diff FAIL: shapes $key regressed ${old} -> ${new} (> ${max}%)" >&2
          status=1
        fi
      fi
    done
  else
    echo "bench_diff: host_cores differ (${old_cores:-?} vs ${new_cores:-?}) - shapes q/s not compared"
  fi
else
  echo "bench_diff: no committed BENCH_shapes.json baseline - skipped"
fi

# ---- adaptive: budget arbitration ------------------------------------
if git cat-file -e HEAD:BENCH_adaptive.json 2>/dev/null && [ -f "$fresh_adaptive" ]; then
  base="$tmpdir/adaptive_base.json"
  git show HEAD:BENCH_adaptive.json >"$base"

  # the oracle must be clean on any host
  oracle=$(jget "$fresh_adaptive" oracle_clean)
  if [ "$oracle" != "true" ]; then
    echo "bench_diff FAIL: fresh budget bench is not oracle-clean" >&2
    status=1
  fi

  # the arbitration gain sits near zero, where relative comparison is
  # meaningless; gate it in absolute hit-ratio points (the fresh gain
  # may trail the committed one by at most 0.03, and never go negative)
  old=$(jget "$base" hit_ratio_gain)
  new=$(jget "$fresh_adaptive" hit_ratio_gain)
  if [ -n "$old" ] && [ -n "$new" ]; then
    if awk -v o="$old" -v n="$new" 'BEGIN { exit !(n >= 0 && n >= o - 0.03) }'; then
      echo "bench_diff: adaptive hit_ratio_gain ${old} -> ${new} (ok)"
    else
      echo "bench_diff FAIL: budget arbitration gain fell ${old} -> ${new} (negative or > 0.03 below baseline)" >&2
      status=1
    fi
  fi
else
  echo "bench_diff: no committed BENCH_adaptive.json baseline - skipped"
fi

exit $status
