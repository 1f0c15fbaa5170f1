#!/usr/bin/env bash
# Smoke-run every figure/ablation bench binary with small (env-tunable)
# sizes and collect machine-readable results:
#   <outdir>/BENCH_<name>.csv    — the bench's --csv table(s)
#   <outdir>/BENCH_summary.json  — status + timing per bench; for the
#                                  latency-instrumented benches also the
#                                  wCQ p50/p99/p99.9/max row at the
#                                  widest thread count
#
# Usage: scripts/run_benches.sh [--paper|--open-loop|--sharded] [build-dir] [out-dir]
#
# --paper selects the paper's full methodology: 10M ops per data
# point, 10 runs, the thread sweep of the figures (1..144), and the
# 2^16 ring order the options default already matches. Expect hours,
# not minutes. Without it the defaults are CI-sized smoke values.
#
# --open-loop runs only bench_latency_openloop, sized for a meaningful
# response-time distribution (Poisson arrivals at a rate a laptop
# sustains; raise WCQ_BENCH_RATE toward saturation to see queueing
# delay dominate the tail — see docs/BENCHMARKING.md).
#
# --sharded runs only bench_sharded_scaling (the PR 9 shard-sweep:
# shard counts x thread counts x pickers, plus the batch API series)
# and adds a "sharded" fragment to BENCH_summary.json comparing the
# best sharded series against single-ring wCQ at the widest thread
# count. WCQ_BENCH_SHARDS / WCQ_BENCH_BATCH tune the sweep.
#
# Either way the env knobs win when set explicitly:
#   WCQ_BENCH_OPS (default 50000), WCQ_BENCH_RUNS (1),
#   WCQ_BENCH_THREADS (1,2), WCQ_BENCH_RATE / WCQ_BENCH_ARRIVAL
#   (open-loop bench only), WCQ_BENCH_SAMPLE (latency sampling period)
set -u

PRESET=smoke
case "${1:-}" in
  --paper)
    PRESET=paper
    shift
    ;;
  --open-loop)
    PRESET=open-loop
    shift
    ;;
  --sharded)
    PRESET=sharded
    shift
    ;;
esac

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench-results}"

case "$PRESET" in
  paper)
    export WCQ_BENCH_OPS="${WCQ_BENCH_OPS:-10000000}"
    export WCQ_BENCH_RUNS="${WCQ_BENCH_RUNS:-10}"
    export WCQ_BENCH_THREADS="${WCQ_BENCH_THREADS:-1,2,4,8,18,36,72,144}"
    ;;
  open-loop)
    export WCQ_BENCH_OPS="${WCQ_BENCH_OPS:-200000}"
    export WCQ_BENCH_RUNS="${WCQ_BENCH_RUNS:-3}"
    export WCQ_BENCH_THREADS="${WCQ_BENCH_THREADS:-1,2,4}"
    export WCQ_BENCH_RATE="${WCQ_BENCH_RATE:-500000}"
    export WCQ_BENCH_ARRIVAL="${WCQ_BENCH_ARRIVAL:-poisson}"
    ;;
  sharded)
    export WCQ_BENCH_OPS="${WCQ_BENCH_OPS:-400000}"
    export WCQ_BENCH_RUNS="${WCQ_BENCH_RUNS:-3}"
    export WCQ_BENCH_THREADS="${WCQ_BENCH_THREADS:-1,2,4}"
    ;;
  *)
    export WCQ_BENCH_OPS="${WCQ_BENCH_OPS:-50000}"
    export WCQ_BENCH_RUNS="${WCQ_BENCH_RUNS:-1}"
    export WCQ_BENCH_THREADS="${WCQ_BENCH_THREADS:-1,2}"
    ;;
esac

if [ ! -d "$BUILD_DIR" ]; then
  echo "error: build dir '$BUILD_DIR' not found (run cmake first)" >&2
  exit 2
fi
mkdir -p "$OUT_DIR"

if [ "$PRESET" = open-loop ]; then
  benches=$(find "$BUILD_DIR" -maxdepth 1 -type f \
    -name 'bench_latency_openloop' -perm -u+x)
elif [ "$PRESET" = sharded ]; then
  benches=$(find "$BUILD_DIR" -maxdepth 1 -type f \
    -name 'bench_sharded_scaling' -perm -u+x)
else
  benches=$(find "$BUILD_DIR" -maxdepth 1 -type f -name 'bench_*' \
    -perm -u+x | sort)
fi
if [ -z "$benches" ]; then
  echo "error: no bench_* binaries in '$BUILD_DIR'" >&2
  exit 2
fi

# From a latency-instrumented CSV (header carries p50_ns columns),
# emit a JSON fragment with the wCQ percentile row at the widest
# thread count; emit nothing for plain throughput CSVs.
latency_fragment() {
  awk -F, '
    # The bench files carry the human table first, then the CSV block;
    # the header row anywhere in the file announces the latter.
    $1 == "series" {
      delete col
      for (i = 1; i <= NF; ++i) col[$i] = i
      next
    }
    ("p50_ns" in col) && $1 == "wCQ" && ($2 + 0) >= best_x {
      best_x = $2 + 0
      seen = 1
      mops = $(col["mops"]); p50 = $(col["p50_ns"])
      p99 = $(col["p99_ns"]); p999 = $(col["p999_ns"])
      max = $(col["max_ns"])
    }
    END {
      if (seen)
        printf ", \"latency\": {\"series\": \"wCQ\", \"threads\": %d, " \
               "\"mops\": %s, \"p50_ns\": %s, \"p99_ns\": %s, " \
               "\"p999_ns\": %s, \"max_ns\": %s}",
               best_x, mops, p50, p99, p999, max
    }' "$1"
}

# From a shard-sweep CSV, emit a JSON fragment comparing the best
# "shard=" series against the single-ring wCQ baseline at the widest
# thread count (closed-loop rows dominate because the open-loop table's
# achieved throughput is capped at the offered rate). Emits nothing
# when the CSV has no sharded series.
sharded_fragment() {
  awk -F, '
    $1 == "series" {
      delete col
      for (i = 1; i <= NF; ++i) col[$i] = i
      next
    }
    !("mops" in col) || NF < 2 { next }
    { x = $2 + 0; if (x > widest) widest = x }
    $1 == "wCQ" {
      if (x > base_x || (x == base_x && $(col["mops"]) + 0 > base)) {
        base_x = x; base = $(col["mops"]) + 0
      }
    }
    index($1, "shard=") > 0 {
      if (x > best_x || (x == best_x && $(col["mops"]) + 0 > best)) {
        best_x = x; best = $(col["mops"]) + 0; best_name = $1
      }
      # Best config with >= 2 real shards, tracked separately: on a
      # small box shard=1 can win the overall row (pure batch
      # amortization), and the scaling claim should not hide behind it.
      if (index($1, "shard=1/") == 0 &&
          (x > multi_x || (x == multi_x && $(col["mops"]) + 0 > multi))) {
        multi_x = x; multi = $(col["mops"]) + 0; multi_name = $1
      }
    }
    END {
      if (best_x > 0 && base > 0 && best_x == base_x) {
        printf ", \"sharded\": {\"threads\": %d, \"wcq_mops\": %s, " \
               "\"best_series\": \"%s\", \"best_mops\": %s, " \
               "\"speedup\": %.2f",
               best_x, base, best_name, best, best / base
        if (multi_x == base_x && multi > 0)
          printf ", \"best_multi_series\": \"%s\", \"best_multi_mops\": %s, " \
                 "\"multi_speedup\": %.2f",
                 multi_name, multi, multi / base
        printf "}"
      }
    }' "$1"
}

summary="$OUT_DIR/BENCH_summary.json"
{
  echo "{"
  echo "  \"preset\": \"$PRESET\","
  echo "  \"ops\": $WCQ_BENCH_OPS,"
  echo "  \"runs\": $WCQ_BENCH_RUNS,"
  echo "  \"threads\": \"$WCQ_BENCH_THREADS\","
  if [ "$PRESET" = open-loop ]; then
    echo "  \"rate_hz\": $WCQ_BENCH_RATE,"
    echo "  \"arrival\": \"$WCQ_BENCH_ARRIVAL\","
  fi
  echo "  \"benches\": ["
} > "$summary"

failed=0
first=1
for bin in $benches; do
  name=$(basename "$bin")
  csv="$OUT_DIR/BENCH_${name}.csv"
  echo "== $name (ops=$WCQ_BENCH_OPS runs=$WCQ_BENCH_RUNS threads=$WCQ_BENCH_THREADS)"
  start=$(date +%s)
  if "$bin" --csv > "$csv" 2> "$OUT_DIR/BENCH_${name}.log"; then
    status=ok
  else
    status=failed
    failed=1
    echo "   FAILED — see $OUT_DIR/BENCH_${name}.log" >&2
  fi
  elapsed=$(( $(date +%s) - start ))
  latency=$(latency_fragment "$csv")
  shardcmp=$(sharded_fragment "$csv")
  [ "$first" = 1 ] || echo "    ," >> "$summary"
  first=0
  printf '    {"name": "%s", "status": "%s", "seconds": %s, "csv": "%s"%s%s}\n' \
    "$name" "$status" "$elapsed" "BENCH_${name}.csv" "$latency" "$shardcmp" >> "$summary"
done

{
  echo "  ]"
  echo "}"
} >> "$summary"

echo "wrote $summary"
exit $failed
