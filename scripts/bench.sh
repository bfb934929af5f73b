#!/usr/bin/env sh
# bench.sh runs the performance-tracking benchmark set (simulator cores,
# grid engine, scheduler kernels, the edge-profile walk, lowering,
# register allocation, the HLIR reference run) and writes the parsed
# results as JSON: a host-provenance header (go version, GOOS/GOARCH,
# CPU count, effective GOMAXPROCS) plus one object per benchmark line,
# so runs can be diffed across commits *and* across hosts — a scaling
# number without the core count that produced it is noise.
#
# Environment:
#   COUNT     repetitions per benchmark (default 3)
#   BENCHTIME go test -benchtime value (default the Go default, 1s;
#             CI's bench-smoke uses 1x for a fast existence check)
#   FILTER    -bench regex (default the full tracking set)
#   OUT       output JSON path (default BENCH_10.json in the repo root)
set -eu

cd "$(dirname "$0")/.."

COUNT="${COUNT:-3}"
BENCHTIME="${BENCHTIME:-}"
FILTER="${FILTER:-Simulator|GridEngine|ListSchedule|BalancedWeights|ProfileCollection|Lower|Regalloc|HLIRReference}"
OUT="${OUT:-BENCH_10.json}"

GOVERSION="$(go env GOVERSION)"
GOOS="$(go env GOOS)"
GOARCH="$(go env GOARCH)"
NUMCPU="$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc 2>/dev/null || echo 1)"
MAXPROCS="${GOMAXPROCS:-$NUMCPU}"

ARGS="-run ^$ -bench $FILTER -benchmem -count=$COUNT"
if [ -n "$BENCHTIME" ]; then
  ARGS="$ARGS -benchtime=$BENCHTIME"
fi

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

# shellcheck disable=SC2086
go test $ARGS . | tee "$RAW"

{
  printf '{\n'
  printf '  "host": {"go_version": "%s", "goos": "%s", "goarch": "%s", "num_cpu": %s, "gomaxprocs": %s},\n' \
    "$GOVERSION" "$GOOS" "$GOARCH" "$NUMCPU" "$MAXPROCS"
  printf '  "benchmarks": '
  awk '
  BEGIN { print "[" ; first = 1 }
  /^Benchmark/ {
    if (!first) printf ",\n"
    first = 0
    printf "    {\"name\": \"%s\", \"iterations\": %s", $1, $2
    # Remaining fields come in (value, unit) pairs: ns/op, custom metrics,
    # B/op, allocs/op.
    for (i = 3; i + 1 <= NF; i += 2) {
      unit = $(i + 1)
      gsub(/[\\"]/, "", unit)
      printf ", \"%s\": %s", unit, $i
    }
    printf "}"
  }
  END { print "\n  ]" }
  ' "$RAW"
  printf '}\n'
} > "$OUT"

echo "wrote $OUT"
