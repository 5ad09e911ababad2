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

# The workspace test run covers every crate's unit and integration
# tests, the root package's included: the parsynt-serve suites (HTTP
# parser, handler/status mapping, live-daemon e2e on an ephemeral
# port), the streaming soundness suite (tests/stream_props.rs) and the
# engine differential suite (tests/native_vs_interpreter.rs: compiled
# fused kernels vs the interpreter reference vs the native oracles).
echo "== cargo test =="
cargo test --workspace -q

# The root package's tests again with seeded fault injection (fault
# sweeps in fault_injection, stream_props, native_vs_interpreter and
# plan_executor).
echo "== cargo test (fault injection) =="
cargo test --features fault-inject -q
# The runtime's own fault-plan unit tests (crates/runtime/src/faults.rs)
# compile only under its feature.
cargo test -p parsynt-runtime --features fault-inject -q

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
