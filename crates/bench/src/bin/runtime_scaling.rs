//! Measures end-to-end plan execution throughput for both execution
//! engines — the interpreter and the compiled fused chunk kernels — on
//! a cheap-synthesis slice of the Figure-9 suite, cross-checking that
//! both engines produce byte-identical states.
//!
//! Per benchmark and thread count the harness synthesizes the plan once,
//! generates one random input of `--rows` outer rows, then times
//! `run_plan_checked` under each engine (median of `--reps` runs) and
//! reports leaf elements per second plus the compiled-vs-interpreted
//! speedup.
//!
//! Usage: `runtime_scaling [--rows N] [--threads 1,8] [--reps R]
//!                         [--filter substring] [--json out.json]`
//!
//! Writes `BENCH_runtime.json` (override with `--json`): the host's
//! core count (`host.threads`, from `available_parallelism`) and one
//! row per benchmark, engine and thread count.
//!
//! The default input is deliberately modest (2 000 outer rows): the
//! tree-walking interpreter re-slices the chunk on every element access,
//! so its cost grows quadratically with chunk size and Figure-9-scale
//! inputs never finish under it — which is precisely the overhead the
//! compiled engine removes. The reported speedup is therefore a *lower*
//! bound that widens with input size.

use parsynt_bench::row;
use parsynt_core::{compile_plan, run_plan_checked, Engine, Outcome, Pipeline, PipelineConfig};
use parsynt_core::{Parallelization, RunConfig};
use parsynt_lang::functional::RightwardFn;
use parsynt_lang::{parse, Value};
use parsynt_suite::{all_benchmarks, Benchmark};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::{Duration, Instant};

/// Default set: benchmarks whose synthesis finishes in milliseconds to
/// seconds, spanning 1-D, 2-D and 3-D inputs and both parallelizable
/// outcomes.
const DEFAULT_SET: &[&str] = &[
    "sum",
    "sorted",
    "min_max",
    "max_top_strip",
    "max_bottom_strip",
    "mbbs",
    "max_dist",
    "balanced_substrings",
];

#[derive(Serialize)]
struct Report {
    host: Host,
    rows: Vec<Row>,
}

#[derive(Serialize)]
struct Host {
    threads: usize,
}

#[derive(Serialize)]
struct Row {
    id: String,
    engine: String,
    threads: usize,
    elements_per_s: f64,
    speedup_vs_interp: f64,
    deterministic: bool,
}

fn leaf_elements(v: &Value) -> u64 {
    match v {
        Value::Seq(items) => items.iter().map(leaf_elements).sum(),
        _ => 1,
    }
}

fn synthesize(b: &Benchmark) -> Parallelization {
    let program = parse(b.source).expect("benchmark parses");
    Pipeline::new(&program)
        .configure(PipelineConfig::default().with_profile(b.profile.clone()))
        .run()
        .unwrap_or_else(|e| panic!("pipeline error on {}: {e}", b.id))
        .parallelization
}

/// Median wall-clock of `reps` runs, plus the (identical) final state.
fn measure(
    plan: &Parallelization,
    inputs: &[Value],
    cfg: &RunConfig,
    reps: usize,
) -> (Duration, parsynt_lang::interp::StateVec) {
    let mut times = Vec::with_capacity(reps.max(1));
    let mut state = None;
    for _ in 0..reps.max(1) {
        let started = Instant::now();
        let out = run_plan_checked(plan, inputs, cfg).expect("plan executes");
        times.push(started.elapsed());
        state = Some(out.state);
    }
    times.sort();
    (times[times.len() / 2], state.expect("at least one rep"))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let rows_n: usize = get("--rows").map_or(2_000, |v| v.parse().expect("--rows"));
    let threads: Vec<usize> = get("--threads")
        .map(|s| {
            s.split(',')
                .map(|t| t.parse().expect("--threads"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 8]);
    let reps: usize = get("--reps").map_or(3, |v| v.parse().expect("--reps"));
    let filter = get("--filter");
    let json_path = get("--json").unwrap_or_else(|| "BENCH_runtime.json".to_owned());

    let widths = [22, 16, 8, 8, 14, 14, 9, 14];
    println!("# runtime scaling — interpreted vs compiled engines, {rows_n} outer rows");
    println!(
        "{}",
        row(
            &[
                "benchmark".into(),
                "outcome".into(),
                "compiled".into(),
                "threads".into(),
                "interp el/s".into(),
                "compiled el/s".into(),
                "speedup".into(),
                "deterministic".into(),
            ],
            &widths
        )
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + widths.len())
    );

    let mut out_rows = Vec::new();
    let mut mismatches = 0usize;
    for b in all_benchmarks() {
        let selected = match &filter {
            Some(f) => b.id.contains(f.as_str()),
            None => DEFAULT_SET.contains(&b.id),
        };
        if !selected {
            continue;
        }
        let plan = synthesize(&b);
        if matches!(plan.outcome, Outcome::Unparallelizable { .. }) {
            eprintln!("# skipping {}: unparallelizable", b.id);
            continue;
        }
        let outcome = if plan.is_divide_and_conquer() {
            "divide_and_conquer"
        } else {
            "map_only"
        };
        let compiles = compile_plan(&plan).is_ok();
        let f = RightwardFn::new(&plan.program).expect("rightward form");
        let profile = b.profile.clone().with_rows(rows_n, rows_n);
        let mut rng = SmallRng::seed_from_u64(0xF19);
        let inputs: Vec<Value> = parsynt_synth::examples::random_inputs(&f, &profile, &mut rng);
        let elements = leaf_elements(&inputs[f.main_input()]) as f64;

        for &t in &threads {
            let interp_cfg = RunConfig::work_stealing(t)
                .with_threads(t)
                .with_engine(Engine::Interp);
            let compiled_cfg = interp_cfg.with_engine(Engine::Compiled);
            let (interp_time, interp_state) = measure(&plan, &inputs, &interp_cfg, reps);
            let (compiled_time, compiled_state) = measure(&plan, &inputs, &compiled_cfg, reps);
            let deterministic = interp_state == compiled_state;
            if !deterministic {
                mismatches += 1;
            }
            let interp_rate = elements / interp_time.as_secs_f64().max(f64::EPSILON);
            let compiled_rate = elements / compiled_time.as_secs_f64().max(f64::EPSILON);
            let speedup = compiled_rate / interp_rate.max(f64::EPSILON);
            println!(
                "{}",
                row(
                    &[
                        b.id.into(),
                        outcome.into(),
                        if compiles { "yes" } else { "no" }.into(),
                        t.to_string(),
                        format!("{interp_rate:.0}"),
                        format!("{compiled_rate:.0}"),
                        format!("{speedup:.1}x"),
                        if deterministic { "yes" } else { "NO" }.into(),
                    ],
                    &widths
                )
            );
            out_rows.push(Row {
                id: b.id.to_owned(),
                engine: "interp".to_owned(),
                threads: t,
                elements_per_s: interp_rate,
                speedup_vs_interp: 1.0,
                deterministic,
            });
            out_rows.push(Row {
                id: b.id.to_owned(),
                engine: "compiled".to_owned(),
                threads: t,
                elements_per_s: compiled_rate,
                speedup_vs_interp: speedup,
                deterministic,
            });
        }
    }

    let report = Report {
        host: Host {
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        },
        rows: out_rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&json_path, json).expect("write json");
    println!("\nwrote {json_path}");
    assert_eq!(
        mismatches, 0,
        "{mismatches} (benchmark, threads) cell(s) disagreed between engines"
    );
}
