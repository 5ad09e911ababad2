//! Streaming soundness properties: for *any* chunking of *any*
//! generated input, the streaming aggregate at end-of-input equals
//! `run_sequential` on the concatenation, and every mid-stream snapshot
//! equals the sequential aggregate of exactly the consumed prefix. The
//! task is non-commutative concatenation, so any reordered, dropped, or
//! duplicated chunk falsifies the property.

use parsynt::runtime::{Backend, DncTask, Executor, RunConfig};
use proptest::prelude::*;

/// Non-commutative concatenation over i64 items.
struct Concat;
impl DncTask for Concat {
    type Item = i64;
    type Acc = Vec<i64>;
    fn identity(&self) -> Vec<i64> {
        Vec::new()
    }
    fn work(&self, chunk: &[i64]) -> Vec<i64> {
        chunk.to_vec()
    }
    fn join(&self, mut l: Vec<i64>, r: Vec<i64>) -> Vec<i64> {
        l.extend(r);
        l
    }
}

/// Paired sum + minimum: a second task whose accumulator mixes values
/// rather than preserving them, catching join-order bugs Concat cannot
/// (e.g. an identity element folded in at the wrong moment).
struct SumMin;
impl DncTask for SumMin {
    type Item = i64;
    type Acc = (i64, i64);
    fn identity(&self) -> (i64, i64) {
        (0, i64::MAX)
    }
    fn work(&self, chunk: &[i64]) -> (i64, i64) {
        chunk
            .iter()
            .fold((0, i64::MAX), |(s, m), &x| (s + x, m.min(x)))
    }
    fn join(&self, l: (i64, i64), r: (i64, i64)) -> (i64, i64) {
        (l.0 + r.0, l.1.min(r.1))
    }
}

/// Split `data` at the given cut points (any subset of positions).
fn chunkings(data: &[i64], cuts: &[usize]) -> Vec<Vec<i64>> {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (data.len() + 1)).collect();
    bounds.push(0);
    bounds.push(data.len());
    bounds.sort_unstable();
    bounds.dedup();
    bounds
        .windows(2)
        .map(|w| data[w[0]..w[1]].to_vec())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// End-of-input equality for arbitrary data, arbitrary cut points,
    /// both backends, and varying grain.
    #[test]
    fn any_chunking_streams_to_the_sequential_aggregate(
        data in proptest::collection::vec(-1_000i64..1_000, 0..400),
        cuts in proptest::collection::vec(0usize..400, 0..12),
        grain in 1usize..64,
        stealing in any::<bool>(),
    ) {
        let backend = if stealing { Backend::WorkStealing } else { Backend::Static };
        let cfg = RunConfig::work_stealing(3).with_grain(grain).with_backend(backend);
        let exec = Executor::new(cfg);
        let expected = exec.run_sequential(&Concat, &data);
        let chunks = chunkings(&data, &cuts);
        let out = exec.run_stream(&Concat, &chunks).unwrap();
        prop_assert_eq!(&out.value, &expected);
        prop_assert_eq!(out.elements, data.len() as u64);
        prop_assert_eq!(out.degraded_chunks, 0);

        let expected2 = exec.run_sequential(&SumMin, &data);
        let out2 = exec.run_stream(&SumMin, &chunks).unwrap();
        prop_assert_eq!(out2.value, expected2);
    }

    /// Prefix equality of every snapshot: after each pushed chunk the
    /// snapshot equals `run_sequential` on exactly the consumed prefix.
    #[test]
    fn every_snapshot_is_the_aggregate_of_its_prefix(
        data in proptest::collection::vec(-1_000i64..1_000, 1..300),
        cuts in proptest::collection::vec(0usize..300, 0..10),
    ) {
        let exec = Executor::new(RunConfig::work_stealing(2).with_grain(16));
        let mut session = exec.stream(&Concat);
        let mut consumed = 0usize;
        for chunk in chunkings(&data, &cuts) {
            session.push_chunk(&chunk).unwrap();
            consumed += chunk.len();
            let snap = session.snapshot();
            prop_assert_eq!(&snap.value, &data[..consumed]);
            prop_assert_eq!(snap.elements, consumed as u64);
        }
        let out = session.finish();
        prop_assert_eq!(out.value, data);
    }
}

/// Plan-level streaming (the layer behind `run --stream`) must produce
/// byte-identical snapshots on the compiled fused kernels and on the
/// tree-walking interpreter reference: for any chunking, every snapshot
/// state and the end-of-input state agree between the two.
mod engine_parity {
    use super::*;
    use parsynt::core::{
        chunk_value_inputs, run_stream_checked, run_stream_interpreted, Parallelization, Pipeline,
        PipelineConfig, PipelineReport, SolutionCache, StreamSnapshot,
    };
    use parsynt::lang::{parse, Value};
    use parsynt::suite::benchmark;
    use std::sync::{Arc, OnceLock};

    fn mbs_plan() -> &'static Parallelization {
        static PLAN: OnceLock<Parallelization> = OnceLock::new();
        PLAN.get_or_init(|| {
            let b = benchmark("max_bottom_strip").expect("known benchmark");
            let program = parse(b.source).expect("source parses");
            Pipeline::new(&program)
                .configure(PipelineConfig::default().with_profile(b.profile.clone()))
                .run()
                .expect("max_bottom_strip synthesizes")
                .parallelization
        })
    }

    /// The `max_bottom_strip` report executing under `run`, synthesized
    /// once and then re-served from a cache (its key ignores `run`).
    fn mbs_report(run: RunConfig) -> PipelineReport {
        static CACHE: OnceLock<Arc<SolutionCache>> = OnceLock::new();
        let cache = CACHE.get_or_init(|| Arc::new(SolutionCache::in_memory(1)));
        let b = benchmark("max_bottom_strip").expect("known benchmark");
        let program = parse(b.source).expect("source parses");
        let config = PipelineConfig::default()
            .with_profile(b.profile.clone())
            .with_run(run);
        Pipeline::new(&program)
            .configure(config)
            .cache(Arc::clone(cache))
            .run()
            .expect("max_bottom_strip synthesizes")
    }

    /// Every snapshot state, then the end-of-input state, compiled or
    /// (`reference`) interpreted.
    fn stream_states(
        plan: &Parallelization,
        inputs: &[Value],
        chunk_rows: usize,
        reference: bool,
    ) -> Vec<parsynt::lang::interp::StateVec> {
        let chunks = chunk_value_inputs(plan, inputs, chunk_rows).expect("chunkable");
        let mut states = Vec::new();
        let run = RunConfig::work_stealing(3);
        let snap = |snap: &StreamSnapshot| states.push(snap.state.clone());
        let out = if reference {
            run_stream_interpreted(plan, chunks, run, 1, snap)
        } else {
            run_stream_checked(plan, chunks, run, 1, snap)
        }
        .expect("stream runs");
        states.push(out.state);
        states
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn stream_snapshots_are_byte_identical_between_engines(
            data in proptest::collection::vec(
                proptest::collection::vec(-100i64..101, 0..6), 1..40),
            chunk_rows in 1usize..9,
        ) {
            let plan = mbs_plan();
            let inputs = [Value::seq2_of_ints(&data)];
            let interp = stream_states(plan, &inputs, chunk_rows, true);
            let compiled = stream_states(plan, &inputs, chunk_rows, false);
            prop_assert_eq!(interp, compiled);
        }

        /// `execute_stream_with` streams ranges of the borrowed input's
        /// rows; every snapshot and the end-of-input state equal the
        /// stream of the same chunks copied out by `chunk_value_inputs`,
        /// at any thread count and grain.
        #[test]
        fn borrowed_row_streams_equal_copied_chunk_streams(
            data in proptest::collection::vec(
                proptest::collection::vec(-100i64..101, 0..6), 1..40),
            chunk_rows in 1usize..9,
            threads in 1usize..4,
            grain in 1usize..16,
        ) {
            let run = RunConfig::work_stealing(threads).with_grain(grain);
            let mut report = mbs_report(run);
            let inputs = [Value::seq2_of_ints(&data)];
            let mut borrowed = Vec::new();
            let end = report
                .execute_stream_with(&inputs, chunk_rows, 1, |s| {
                    borrowed.push((s.elements, s.state.clone()));
                })
                .expect("stream runs");
            borrowed.push((data.len() as u64, end));
            let plan = &report.parallelization;
            let chunks = chunk_value_inputs(plan, &inputs, chunk_rows).expect("chunkable");
            let mut copied = Vec::new();
            let out = run_stream_checked(plan, chunks, run, 1, |s| {
                copied.push((s.elements, s.state.clone()));
            })
            .expect("stream runs");
            copied.push((out.elements, out.state));
            prop_assert_eq!(borrowed, copied);
        }
    }
}

/// The same properties under seeded fault injection: 16-seed sweep,
/// transient and persistent plans, snapshot prefix-equality throughout.
#[cfg(feature = "fault-inject")]
mod faulty {
    use super::*;
    use parsynt::runtime::FaultPlan;
    use std::time::Duration;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn snapshots_stay_prefix_exact_under_faults(
            data in proptest::collection::vec(-500i64..500, 1..300),
            cuts in proptest::collection::vec(0usize..300, 0..8),
            seed in 0u64..16,
            persistent in any::<bool>(),
        ) {
            let plan = FaultPlan::seeded(seed)
                .with_panic_rate(0.25)
                .with_poison_rate(0.15)
                .with_delay(0.05, Duration::from_micros(200))
                .persistent(persistent);
            let exec = Executor::new(RunConfig::work_stealing(4).with_grain(13))
                .with_faults(plan);
            let mut session = exec.stream(&Concat);
            let mut consumed = 0usize;
            for chunk in chunkings(&data, &cuts) {
                session.push_chunk(&chunk).unwrap();
                consumed += chunk.len();
                let snap = session.snapshot();
                prop_assert_eq!(&snap.value, &data[..consumed]);
            }
            let out = session.finish();
            prop_assert_eq!(&out.value, &data);
            if !persistent {
                // Transient faults fire only on the first attempt, so
                // the retry always absorbs them without degrading.
                prop_assert_eq!(out.degraded_chunks, 0);
            }
        }
    }
}
