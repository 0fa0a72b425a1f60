#!/usr/bin/env bash
# Benchmark regression gate over the BENCH_*.json artifacts.
#
# Every bench target writes BENCH_<name>.json at the repo root in a
# shared schema: {"bench": "<name>", "metrics": {"key": number, ...}}.
# The gate compares lower-is-better keys (suffix `_ns` or `_ratio`, or
# nanoseconds per unit of work, `_ns_per_<unit>`) and fails when a new
# value regresses more than 25% over the old one. Throughput-style keys
# (any other suffix) are informational only.
#
# Usage:
#   scripts/bench_gate.sh compare OLD.json NEW.json
#   scripts/bench_gate.sh run <bench>     # stash the checked-in artifact,
#                                         # re-run `cargo bench`, compare
set -euo pipefail
cd "$(dirname "$0")/.."

THRESHOLD=1.25

# Print "key value" lines from the metrics block of an artifact.
metrics() {
  awk '
    /"metrics"/ { inm = 1; next }
    inm && /^[[:space:]]*}/ { exit }
    inm {
      line = $0
      gsub(/[",:]/, " ", line)
      split(line, f, /[[:space:]]+/)
      # f[1] is empty (leading spaces); key then value follow.
      for (i = 1; i <= length(f); i++) if (f[i] != "") { print f[i], f[i+1]; break }
    }
  ' "$1"
}

compare() {
  local old="$1" new="$2" fail=0 key oldv newv
  if [ ! -f "$old" ] || [ ! -f "$new" ]; then
    echo "bench_gate: missing artifact ($old / $new)" >&2
    return 1
  fi
  while read -r key oldv; do
    case "$key" in
    *_ns | *_ns_per_* | *_ratio) ;;
    *) continue ;;
    esac
    newv=$(metrics "$new" | awk -v k="$key" '$1 == k { print $2 }')
    if [ -z "$newv" ]; then
      echo "bench_gate: FAIL $key missing from $new" >&2
      fail=1
      continue
    fi
    if awk -v o="$oldv" -v n="$newv" -v t="$THRESHOLD" 'BEGIN { exit !(o > 0 && n > o * t) }'; then
      echo "bench_gate: FAIL $key regressed ${oldv} -> ${newv} (> ${THRESHOLD}x)" >&2
      fail=1
    else
      echo "bench_gate: ok   $key ${oldv} -> ${newv}"
    fi
  done < <(metrics "$old")
  return "$fail"
}

case "${1:-}" in
compare)
  [ $# -eq 3 ] || { echo "usage: $0 compare OLD.json NEW.json" >&2; exit 2; }
  compare "$2" "$3"
  ;;
run)
  [ $# -eq 2 ] || { echo "usage: $0 run <bench>" >&2; exit 2; }
  bench="$2"
  artifact="BENCH_${bench}.json"
  [ -f "$artifact" ] || { echo "bench_gate: no checked-in $artifact" >&2; exit 2; }
  stash="$(mktemp "/tmp/bench_gate.${bench}.XXXXXX.json")"
  cp "$artifact" "$stash"
  # The checked-in artifact is the reference; the fresh run is compared
  # against it and then discarded so the tree stays clean. Re-run
  # `cargo bench -p dsv3-bench --bench <name>` directly to refresh it.
  trap 'cp "$stash" "$artifact"; rm -f "$stash"' EXIT
  cargo bench --offline -p dsv3-bench --bench "$bench"
  compare "$stash" "$artifact"
  ;;
*)
  echo "usage: $0 compare OLD.json NEW.json | $0 run <bench>" >&2
  exit 2
  ;;
esac
