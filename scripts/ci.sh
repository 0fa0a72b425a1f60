#!/usr/bin/env bash
# The CI gate, runnable locally: formatting, lints, tier-1 build + tests.
#
# Everything runs --offline: all third-party dependencies are vendored
# under vendor/ (see DESIGN.md), so CI needs no network and no registry.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --offline --all-targets -- -D warnings

echo "==> tier-1: cargo build --release && cargo test"
cargo build --release --offline
cargo test -q --offline

echo "==> invariant lints: dsv3 lint"
# -p dsv3-core: building the root package alone links dsv3-core as a
# library and can leave target/release/dsv3 stale.
cargo build --release --offline -p dsv3-core
# Strict mode: no --baseline, so every finding (token rules and the
# semantic U2/F2/R2/P3 pass) fails CI unless waived with a reason.
./target/release/dsv3 lint

echo "==> parallel-readiness: every lint:entry fn must be effect-free"
./target/release/dsv3 lint --readiness
if ./target/release/dsv3 lint --readiness | grep -q "NOT READY"; then
  echo "readiness regression: an entry point reaches a forbidden effect" >&2
  exit 1
fi
./target/release/dsv3 lint --rules U2,F2,R2,P3 > /dev/null

# One scratch directory for every smoke artifact, removed on exit.
tmp="$(mktemp -d /tmp/dsv3_ci.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT

echo "==> telemetry smoke: dsv3 serving --trace-out emits a valid Chrome trace"
./target/release/dsv3 serving --trace-out "$tmp/trace.json" > /dev/null
./target/release/dsv3 check-trace "$tmp/trace.json"

echo "==> chaos smoke: dsv3 net-chaos --json + --trace-out round-trip"
./target/release/dsv3 net-chaos --json > /dev/null
./target/release/dsv3 net-chaos --trace-out "$tmp/chaos.json" > /dev/null
./target/release/dsv3 check-trace "$tmp/chaos.json"

echo "==> memory-timeline smoke: dsv3 mem-timeline --json + --trace-out round-trip"
./target/release/dsv3 mem-timeline --json > /dev/null
./target/release/dsv3 mem-timeline --trace-out "$tmp/memtl.json" > /dev/null
./target/release/dsv3 check-trace "$tmp/memtl.json"

echo "==> overload smoke: dsv3 overload --json + --trace-out round-trip"
./target/release/dsv3 overload --json > /dev/null
./target/release/dsv3 overload --trace-out "$tmp/overload.json" > /dev/null
./target/release/dsv3 check-trace "$tmp/overload.json"

echo "==> resilience smoke: dsv3 resilience --json + --trace-out round-trip"
./target/release/dsv3 resilience --json > /dev/null
./target/release/dsv3 resilience --trace-out "$tmp/resilience.json" > /dev/null
./target/release/dsv3 check-trace "$tmp/resilience.json"
./target/release/dsv3 resilience --metrics-out "$tmp/resilience_metrics.json" > /dev/null
./target/release/dsv3 check-metrics "$tmp/resilience_metrics.json"

echo "==> metrics smoke: dsv3 serving --metrics-out emits a valid metrics document"
./target/release/dsv3 serving --metrics-out "$tmp/metrics.json" > /dev/null
./target/release/dsv3 check-metrics "$tmp/metrics.json"

echo "==> audit smoke: dsv3 audit overload fires the watchdog deterministically"
./target/release/dsv3 audit overload --incidents-out "$tmp/incidents.json" > /dev/null
grep -q '"detector": "metastability"' "$tmp/incidents.json"

echo "==> bench gate: watch overhead within budget, no >25% regression"
scripts/bench_gate.sh run watch

echo "==> bench gate: lint scan + parser throughput, no >25% regression"
scripts/bench_gate.sh run lint

echo "==> bench gate: degenerate resilience walk within 1.2x of simulate_goodput"
scripts/bench_gate.sh run resilience

echo "==> bench gate: FlowSim/ChaosSim solver costs, no >25% regression"
scripts/bench_gate.sh run netchaos

echo "==> bench gate: FP8/BF16 codec, tensor-core group and FP8 GEMM costs, no >25% regression"
scripts/bench_gate.sh run numerics

echo "==> examples build"
cargo build --release --offline --examples

echo "==> full workspace tests"
cargo test -q --workspace --offline

echo "CI green."
