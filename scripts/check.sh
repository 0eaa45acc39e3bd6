#!/usr/bin/env bash
# The full local gate, exactly as CI runs it: formatting, lints, tests.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test"
cargo test --workspace -q --locked

echo "== mark differential suite at full size (release)"
# The debug pass above runs its deep-chain case at reduced size.
cargo test --release --locked -p polm2-heap --test mark_differential

echo "== worker-determinism suites under --verify-heap gc"
# Verification is observation, not participation: the same bit-identity
# suites must pass with a full integrity pass after every collection
# (DESIGN.md §18). The env var flips every session/drive in both suites.
POLM2_VERIFY_HEAP=gc cargo test -q -p polm2-gc --test worker_determinism
POLM2_VERIFY_HEAP=gc cargo test -q -p polm2-core --test gc_worker_determinism

echo "== perfgate smoke (equality gates + relaxed pipeline/recorder/gc/heap floors)"
cargo run --release -p polm2-bench --bin perfgate -- \
  --quick --min-pipeline-speedup 1.5 --min-recorder-speedup 1.5 --min-gc-speedup 1.5 \
  --min-heap-gbps 0.01 \
  --out /tmp/BENCH_check.json --pipeline-out /tmp/BENCH_pipeline_check.json \
  --recorder-out /tmp/BENCH_recorder_check.json --gc-out /tmp/BENCH_gc_check.json \
  --heap-out /tmp/BENCH_heap_check.json

echo "== CLI smokes (crash recovery, fleet chaos, heap chaos)"
# CI runs each in its own job against a release CLI build.
cargo build --release --locked --bin polm2
scripts/crash_recovery_smoke.sh
scripts/fleet_chaos_smoke.sh
scripts/heap_chaos_smoke.sh

echo "all checks passed"
