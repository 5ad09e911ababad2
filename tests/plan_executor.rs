//! Synthesized plans run on `parsynt_runtime::Executor`: the
//! `RunConfig`'s backend and grain reach them, and — under the
//! `fault-inject` feature — every plan task (compiled and interpreted,
//! divide-and-conquer and map-only, batch and streamed) survives seeded
//! fault sweeps with results byte-identical to the sequential run.

use parsynt::core::{
    chunk_value_inputs, compile_plan, run_plan_checked, run_plan_interpreted,
    run_stream_interpreted, Backend, Outcome, Parallelization, Pipeline, PipelineConfig,
    PipelineReport, RunConfig, SolutionCache,
};
use parsynt::lang::{parse, Value};
use parsynt::suite::benchmark;
use parsynt::synth::examples::InputProfile;
use parsynt::trace::sinks::PhaseAggregator;
use parsynt::trace::{set_ambient, CollectingSink, Tracer};
use std::sync::{Arc, OnceLock};

/// The synthesized `max_bottom_strip` plan (divide-and-conquer, 2-D).
fn mbs_plan() -> &'static Parallelization {
    static PLAN: OnceLock<Parallelization> = OnceLock::new();
    PLAN.get_or_init(|| {
        let b = benchmark("max_bottom_strip").expect("known benchmark");
        let program = parse(b.source).expect("source parses");
        let plan = Pipeline::new(&program)
            .configure(PipelineConfig::default().with_profile(b.profile.clone()))
            .run()
            .expect("max_bottom_strip synthesizes")
            .parallelization;
        assert!(matches!(plan.outcome, Outcome::DivideAndConquer { .. }));
        plan
    })
}

/// Both backends at two grains reach the plan: the traced chunk counts
/// follow the configuration (the grain counting leaves), and every
/// configuration computes the same state, compiled and on the
/// interpreted reference.
#[test]
fn run_config_reaches_plans() {
    let plan = mbs_plan();
    let input = Value::seq2_of_ints(&vec![vec![3, -1, 4, 1, -5]; 400]); // 2 000 leaves
    let inputs = [input];
    let expected = parsynt::lang::interp::run_program(&plan.program, &inputs).expect("runs");
    for (engine, execute) in [
        ("compiled", run_plan_checked as fn(&_, &_, &_) -> _),
        ("interp", run_plan_interpreted),
    ] {
        let mut chunks = Vec::new();
        for (backend, grain) in [
            (Backend::WorkStealing, 100),
            (Backend::WorkStealing, 250),
            (Backend::Static, 100),
        ] {
            let agg = PhaseAggregator::new();
            let run = RunConfig::work_stealing(4)
                .with_backend(backend)
                .with_grain(grain);
            let out = {
                let _guard = set_ambient(Tracer::from_sink(agg.clone()));
                execute(plan, &inputs, &run).expect("plan runs")
            };
            assert_eq!(out.state, expected, "{engine} {backend:?} grain {grain}");
            assert!(!out.degraded);
            chunks.push(agg.counters()["execute.chunks"]);
        }
        // 5 leaves a row: 20 and 50 rows per work-stealing chunk, one
        // chunk per thread under static scheduling.
        assert_eq!(chunks, vec![20, 8, 4], "{engine}");
    }
}

/// A report for `source` under `run`, synthesized once per program and
/// then re-served from a shared cache (the cache key ignores `run`).
fn report(source: &str, profile: &InputProfile, run: RunConfig) -> PipelineReport {
    static CACHE: OnceLock<Arc<SolutionCache>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Arc::new(SolutionCache::in_memory(8)));
    let program = parse(source).expect("source parses");
    let config = PipelineConfig::default()
        .with_profile(profile.clone())
        .with_run(run);
    Pipeline::new(&program)
        .configure(config)
        .cache(Arc::clone(cache))
        .run()
        .expect("synthesizes")
}

/// Counts the leaves of a 2-D input from its row lengths: compiled, and
/// reading no scalar, so the interpreter accepts rows that hold a
/// boolean.
const ROW_LENGTHS: &str = "input a : seq<seq<int>>; state c : int = 0;\n\
                           for i in 0 .. len(a) { c = c + len(a[i]); }";

/// The `compile_fallback` events `events` hold.
fn fallbacks(events: &CollectingSink) -> usize {
    events
        .events()
        .iter()
        .filter(|e| e.name == "compile_fallback")
        .count()
}

/// A chunk whose rows do not flatten — a boolean leaf, or a scalar
/// where a row belongs — runs on the interpreter and joins with the
/// compiled chunks around it: batch runs and streams equal the
/// interpreted reference, value or error string, snapshot by snapshot,
/// at every thread count, both backends and small grains, and the
/// fallback is traced.
#[test]
fn unflattenable_chunks_run_on_the_interpreter() {
    let mbs = benchmark("max_bottom_strip").expect("known benchmark");
    let rows: Vec<Vec<i64>> = (0..60)
        .map(|i| (0..1 + i % 4).map(|j| (i * 7 + j * 3) % 11 - 5).collect())
        .collect();
    let good = Value::seq2_of_ints(&rows);
    let mut with_bool = good.clone();
    let mut with_scalar = good.clone();
    if let (Value::Seq(b), Value::Seq(s)) = (&mut with_bool, &mut with_scalar) {
        b[37] = Value::Seq(vec![Value::Int(1), Value::Bool(true)]);
        s[37] = Value::Int(5);
    }
    for (source, profile) in [(mbs.source, &mbs.profile), (ROW_LENGTHS, &mbs.profile)] {
        // The row-length plan runs to a value over the boolean leaf.
        let lengths = source == ROW_LENGTHS;
        for (input, bad, ok) in [
            (&good, false, true),
            (&with_bool, true, lengths),
            (&with_scalar, true, false),
        ] {
            let inputs = [input.clone()];
            for threads in [1, 2, 3, 8] {
                for backend in [Backend::WorkStealing, Backend::Static] {
                    for grain in [5, 40] {
                        let run = RunConfig::work_stealing(threads)
                            .with_backend(backend)
                            .with_grain(grain);
                        let at = format!("{source} bad {bad} {threads}t {backend:?} grain {grain}");
                        let mut report = report(source, profile, run);
                        let plan = &report.parallelization.clone();
                        let events = CollectingSink::new();
                        let checked = {
                            let _guard = set_ambient(Tracer::from_sink(events.clone()));
                            run_plan_checked(plan, &inputs, &run)
                        };
                        let reference = run_plan_interpreted(plan, &inputs, &run);
                        assert!(compile_plan(plan).is_ok(), "{at}");
                        assert_eq!(checked.is_ok(), ok, "{at}");
                        assert_eq!(
                            checked.map(|o| o.state).map_err(|e| e.to_string()),
                            reference.map(|o| o.state).map_err(|e| e.to_string()),
                            "{at}"
                        );
                        assert_eq!(fallbacks(&events) > 0, bad, "{at}");

                        for chunk_rows in [7, 60] {
                            let chunks =
                                chunk_value_inputs(plan, &inputs, chunk_rows).expect("chunkable");
                            let mut expected = Vec::new();
                            let end = run_stream_interpreted(plan, chunks, run, 1, |s| {
                                expected.push(s.state.clone());
                            });
                            let expected =
                                (expected, end.map(|o| o.state).map_err(|e| e.to_string()));
                            let events = CollectingSink::new();
                            let mut streamed = Vec::new();
                            let end = {
                                let _guard = set_ambient(Tracer::from_sink(events.clone()));
                                report.execute_stream_with(&inputs, chunk_rows, 1, |s| {
                                    streamed.push(s.state.clone());
                                })
                            };
                            let streamed = (streamed, end.map_err(|e| e.to_string()));
                            assert_eq!(streamed, expected, "{at} chunk rows {chunk_rows}");
                            assert_eq!(fallbacks(&events) > 0, bad, "{at} chunk rows {chunk_rows}");
                        }
                    }
                }
            }
        }
    }
}

/// 16-seed sweeps of the plan tasks under injected faults, mirroring
/// `tests/fault_injection.rs`: transient faults recover through the
/// retry without degrading, persistent ones through the sequential
/// fallback, and every result equals the sequential interpreter's.
#[cfg(feature = "fault-inject")]
mod faulty {
    use super::*;
    use parsynt::core::{
        chunk_value_inputs, compile_plan, CompiledDncTask, CompiledMapOnlyTask, InterpDncTask,
        InterpMapOnlyTask, PlanAcc, Report,
    };
    use parsynt::lang::functional::RightwardFn;
    use parsynt::lang::interp::StateVec;
    use parsynt::lift::memoryless::memoryless_lift;
    use parsynt::runtime::{Executor, FaultPlan, RunOutcome, RuntimeError};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::time::Duration;

    fn mixed_plan(seed: u64) -> FaultPlan {
        FaultPlan::seeded(seed)
            .with_panic_rate(0.25)
            .with_poison_rate(0.15)
            .with_delay(0.1, Duration::from_millis(1))
    }

    /// Table 1's map-only plan: bp after its memoryless lift.
    fn bp_plan() -> &'static Parallelization {
        static PLAN: OnceLock<Parallelization> = OnceLock::new();
        PLAN.get_or_init(|| {
            let b = benchmark("bp").expect("known benchmark");
            let program = parse(b.source).expect("source parses");
            let lifted =
                memoryless_lift(&program, &b.profile, &Default::default()).expect("bp summarizes");
            assert!(!lifted.failed);
            Parallelization {
                program: lifted.program,
                outcome: Outcome::MapOnly,
                report: Report::default(),
            }
        })
    }

    /// `n` ragged rows of 0..8 values in -20..=20.
    fn rows(n: usize, seed: u64) -> Value {
        let mut rng = SmallRng::seed_from_u64(seed);
        let rows: Vec<Vec<i64>> = (0..n)
            .map(|_| {
                (0..rng.gen_range(0..8))
                    .map(|_| rng.gen_range(-20..=20))
                    .collect()
            })
            .collect();
        Value::seq2_of_ints(&rows)
    }

    fn brackets(n: usize, seed: u64) -> Value {
        let mut rng = SmallRng::seed_from_u64(seed);
        let lines: Vec<Vec<i64>> = (0..n)
            .map(|_| {
                (0..rng.gen_range(1..6))
                    .map(|_| if rng.gen_bool(0.5) { 1 } else { -1 })
                    .collect()
            })
            .collect();
        Value::seq2_of_ints(&lines)
    }

    fn sequential(plan: &Parallelization, inputs: &[Value]) -> StateVec {
        let f = RightwardFn::new(&plan.program).expect("rightward form");
        f.apply(inputs).expect("sequential run")
    }

    /// Run `exec_run` under every seed, both backends at 4 threads and
    /// work stealing at 1 (grain-sized chunks in order on the calling
    /// thread), transient and persistent faults; the value must equal
    /// `expected`.
    fn sweep(
        name: &str,
        expected: &StateVec,
        exec_run: impl Fn(&Executor) -> Result<RunOutcome<PlanAcc>, RuntimeError>,
    ) {
        for seed in 0..16 {
            for (threads, backend) in [
                (4, Backend::Static),
                (4, Backend::WorkStealing),
                (1, Backend::WorkStealing),
            ] {
                for persistent in [false, true] {
                    let run = RunConfig::work_stealing(threads)
                        .with_grain(40)
                        .with_backend(backend);
                    let exec =
                        Executor::new(run).with_faults(mixed_plan(seed).persistent(persistent));
                    let at = format!(
                        "{name} seed {seed} {threads}t {backend:?} persistent {persistent}"
                    );
                    let out = exec_run(&exec).unwrap_or_else(|e| panic!("{at}: {e}"));
                    assert_eq!(out.value.as_ref(), Ok(expected), "{at}");
                    assert!(persistent || !out.degraded, "{at}");
                }
            }
        }
    }

    #[test]
    fn compiled_map_only_fault_sweep_is_byte_identical() {
        let plan = bp_plan();
        let compiled = compile_plan(plan).expect("bp compiles");
        let inputs = [brackets(90, 3)];
        let flat = compiled.flatten(&inputs[0]).expect("flattenable input");
        let task = CompiledMapOnlyTask::new(&compiled, &flat).expect("map-only task");
        sweep("compiled bp", &sequential(plan, &inputs), |exec| {
            exec.run_map_range(&task)
        });
    }

    #[test]
    fn interpreter_task_fault_sweeps_are_byte_identical() {
        let plan = mbs_plan();
        let inputs = [rows(60, 5)];
        let task = InterpDncTask::new(plan, &inputs).expect("dnc task");
        sweep("interp mbs", &sequential(plan, &inputs), |exec| {
            exec.run_range(&task)
        });

        let plan = bp_plan();
        let inputs = [brackets(60, 7)];
        let task = InterpMapOnlyTask::new(&plan.program, &inputs).expect("map-only task");
        sweep("interp bp", &sequential(plan, &inputs), |exec| {
            exec.run_map_range(&task)
        });
    }

    /// A compiled plan streamed chunk by chunk through
    /// `Executor::stream_ranges`: every snapshot is the sequential state
    /// of exactly the consumed prefix.
    #[test]
    fn streamed_plan_fault_sweep_has_byte_identical_snapshots() {
        let plan = mbs_plan();
        let compiled = compile_plan(plan).expect("mbs compiles");
        let input = rows(150, 9);
        let chunks = chunk_value_inputs(plan, std::slice::from_ref(&input), 37).expect("chunks");
        let expected = sequential(plan, std::slice::from_ref(&input));
        sweep("streamed mbs", &expected, |exec| {
            let mut stream = exec.stream_ranges(Ok(sequential(plan, &[input.slice(0, 0)])));
            for chunk in &chunks {
                let flat = compiled.flatten(&chunk[0]).expect("flattenable chunk");
                stream.push(&CompiledDncTask::new(&compiled, &flat).expect("dnc task"))?;
                let prefix = sequential(plan, &[input.slice(0, stream.elements() as usize)]);
                assert_eq!(
                    stream.snapshot().value,
                    Ok(prefix),
                    "after {} rows",
                    stream.elements()
                );
            }
            let out = stream.finish();
            Ok(RunOutcome {
                value: out.value,
                degraded: out.degraded_chunks > 0,
                recovered_chunks: out.recovered_chunks,
            })
        });
    }
}
