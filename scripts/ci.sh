#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, full test suite.
# Run from the repository root: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

# Every target of every workspace crate: libraries, binaries, examples,
# unit and integration tests, benches.
echo "== cargo clippy --all-targets (-D warnings) =="
cargo clippy --workspace --all-targets --keep-going -- -D warnings

echo "== cargo build --release =="
cargo build --release --workspace

# The workspace test run includes the parsynt-serve suites: the HTTP
# parser unit tests, the handler/status-mapping unit tests, and the
# live-daemon e2e tests (ephemeral port; cache miss/hit, 504/422/400,
# restart persistence).
echo "== cargo test =="
cargo test --workspace -q

echo "== cargo test (fault injection) =="
cargo test --features fault-inject -q
# The runtime's own fault-plan unit tests (crates/runtime/src/faults.rs)
# compile only under its feature.
cargo test -p parsynt-runtime --features fault-inject -q

# Streaming soundness: the any-chunking property suite plus the
# fault-injected variant (seeded sweeps, snapshot prefix-equality).
echo "== cargo test streaming (incl. fault injection) =="
cargo test --test stream_props -q
cargo test --test stream_props --features fault-inject -q
cargo test -p parsynt-runtime stream -q
cargo test -p parsynt-core stream -q

# Engine differential suite: compiled fused kernels vs the tree-walking
# interpreter reference vs the native oracles, batch and streaming, plus
# the compiled-kernel fault sweep.
echo "== cargo test engine differential (incl. fault injection) =="
cargo test --test native_vs_interpreter -q
cargo test --test native_vs_interpreter --features fault-inject -q
cargo test -p parsynt-core compile -q

# End-to-end benchmark smoke test: every workload at a tiny size, each
# call's result checked against the interpreter or the 1-thread run,
# and every metric BENCHMARK.json names printed with its unit.
echo "== e2ebench smoke =="
python3 e2ebench/run.py --smoke

# Non-test code must run plans through `run_plan_checked` /
# `run_stream_checked`, which pick compiled kernels or the interpreter
# by themselves; the interpreted references (`run_plan_interpreted`,
# `run_stream_interpreted`) are kept for tests.
echo "== direct interpreter-path calls =="
interp_entry_fns='(^|[^.[:alnum:]_])(run_plan_interpreted|run_stream_interpreted)[[:space:]]*\('
offenders=$( grep -rnE "$interp_entry_fns" --include='*.rs' src crates/service/src \
                | grep -v '_test' || true )
if [ -n "$offenders" ]; then
    echo "error: non-test code calls the interpreted reference directly:" >&2
    echo "$offenders" >&2
    exit 1
fi

echo "CI gate passed."
