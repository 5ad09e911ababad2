#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --smoke

The first form builds the `parsynt` CLI and the `e2ebench` binary from
the repository sources (release profile, offline, into
`$CARGO_TARGET_DIR` or `target/`), runs one workload, and relays the
benchmark's output; its last line is the JSON result. The second form
runs every workload of BENCHMARK.json at a tiny size, with and without
tracing, and checks that every metric is printed with its unit and that
no operation failed.

Exit status: 0 on success, 2 when the repository sources are missing,
otherwise non-zero on any build, run or check failure.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"e2ebench: {msg}", file=sys.stderr, flush=True)


def target_dir():
    configured = os.environ.get("CARGO_TARGET_DIR")
    return (ROOT / configured).resolve() if configured else ROOT / "target"


def build(target):
    for needed in ("Cargo.toml", "src/main.rs", "crates/core/Cargo.toml", "stubs/serde_json"):
        if not (ROOT / needed).exists():
            log(f"repository sources not found ({needed} is missing)")
            sys.exit(2)
    common = ["--release", "--offline", "--quiet", "--target-dir", str(target)]
    for manifest, extra in ((ROOT / "Cargo.toml", ["--bin", "parsynt"]), (HERE / "Cargo.toml", [])):
        cmd = ["cargo", "build", "--manifest-path", str(manifest), *common, *extra]
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(1)


def stop_group(pgid):
    """Kill every process left in the benchmark's process group and wait
    until none is left."""
    for _ in range(200):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_bench(target, workload, seed, seconds, trace, tiny=False):
    """Run the benchmark binary; returns (exit code, stdout text)."""
    cmd = [
        str(target / "release" / "e2ebench"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--parsynt", str(target / "release" / "parsynt"),
    ]
    if trace:
        traces = target / "e2ebench-traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.jsonl")]
    if tiny:
        cmd.append("--tiny")
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        stop_group(child.pid)
        child.wait()
        return 1, ""
    stop_group(child.pid)
    return child.returncode, out


def smoke(target):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            started = time.monotonic()
            code, out = run_bench(target, workload, 1, 1, trace, tiny=True)
            where = f"{workload} --trace {trace}"
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{where}: exit {code}, no result")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace].items()) - set(got.items()))
                extra = sorted(set(got.items()) - set(expected[trace].items()))
                problems.append(f"{where}: missing {missing}, unexpected {extra}")
            log(f"smoke {where}: {len(got)} metrics, {result['attempted']} operations, "
                f"{time.monotonic() - started:.1f} s")
    for p in problems:
        log(f"SMOKE FAILED {p}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    target = target_dir()
    if args.smoke:
        build(target)
        sys.exit(smoke(target))
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    build(target)
    code, out = run_bench(target, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
