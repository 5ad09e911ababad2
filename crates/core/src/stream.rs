//! Streaming execution of a synthesized parallelization: online
//! aggregation over chunks of the main input, in one runtime streaming
//! session ([`parsynt_runtime::Executor::stream_ranges`]).
//!
//! Divide-and-conquer plans stream by the homomorphism law — each chunk
//! is summarized in parallel and joined onto the running state with the
//! synthesized join ⊙, so the state after chunk *k* equals the
//! sequential run over the first *k* chunks' concatenation. Map-only
//! plans (Prop. 4.3) have no join, but their inner nests are
//! memoryless: each chunk's rows map in parallel from the zero state
//! and the sequential outer fold simply continues from the running
//! state.
//!
//! Faults stay chunk-local, and their recovery is the runtime's: a
//! panic inside a chunk is retried and then degraded by the executor; a
//! join that keeps panicking degrades *that stream chunk only* to a
//! sequential re-run of its rows from the running state — the
//! end-of-input state is byte-identical to the batch path either way.
//!
//! Each chunk's task is chosen as [`crate::run_plan_checked`] chooses
//! it: compiled kernels when the plan compiles (once per stream), the
//! interpreter for the whole stream otherwise, and per executor chunk
//! (divide-and-conquer) or per stream chunk (map-only) whose rows do
//! not flatten, with a `compile_fallback` trace event. A stream chunk
//! is an input set of its own ([`run_stream_checked`]) or a range of
//! the borrowed input's rows
//! ([`crate::PipelineReport::execute_stream_with`]), which compiled
//! chunks flatten in place and only interpreted ones copy. All tasks
//! share one accumulator type, so compiled and interpreted chunks
//! stream byte-identical states and snapshots;
//! [`run_stream_interpreted`] is the interpreted reference the tests
//! compare against.

use crate::exec::{compile_if, main_rows, PlanAcc, PlanTask};
use crate::schema::Parallelization;
use parsynt_lang::error::{LangError, Result};
use parsynt_lang::functional::RightwardFn;
use parsynt_lang::interp::StateVec;
use parsynt_lang::Value;
use parsynt_runtime::{Executor, RunConfig};
use parsynt_trace as trace;
use std::ops::Range;
use std::time::Duration;

/// A progressive partial-prefix result of a streaming execution.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSnapshot {
    /// Stream chunks consumed so far.
    pub chunks: usize,
    /// Outer-dimension elements consumed so far.
    pub elements: u64,
    /// The state vector over the consumed prefix.
    pub state: StateVec,
    /// Wall clock since the stream opened.
    pub elapsed: Duration,
    /// Stream chunks that degraded to a sequential re-run.
    pub degraded_chunks: usize,
    /// Panicking attempts recovered by a retry.
    pub recovered_chunks: usize,
}

impl StreamSnapshot {
    /// Consumption rate in elements per second of wall clock.
    pub fn elements_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.elements as f64 / secs
        } else {
            0.0
        }
    }
}

/// End-of-input outcome of a streaming execution.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamExecOutcome {
    /// The final state vector — byte-identical to the batch run on the
    /// concatenation of all chunks.
    pub state: StateVec,
    /// Total stream chunks consumed.
    pub chunks: usize,
    /// Total outer-dimension elements consumed.
    pub elements: u64,
    /// Wall clock over the whole stream.
    pub elapsed: Duration,
    /// Stream chunks that degraded to a sequential re-run.
    pub degraded_chunks: usize,
    /// Panicking attempts recovered by a retry.
    pub recovered_chunks: usize,
    /// Snapshots emitted to the callback.
    pub snapshots: usize,
}

/// Chunk a batch input set for streaming: every yielded input set is the
/// original with the main input replaced by a `chunk_rows`-row slice of
/// its outer dimension. Only the slice and the other inputs are copied
/// per chunk, never the whole main input.
///
/// # Errors
///
/// Fails when the main input is not a sequence.
pub fn chunk_value_inputs(
    parallelization: &Parallelization,
    inputs: &[Value],
    chunk_rows: usize,
) -> Result<Vec<Vec<Value>>> {
    let f = RightwardFn::new(&parallelization.program)?;
    let n = main_rows(&f, inputs)?;
    row_chunks(n, chunk_rows)
        .map(|rows| f.slice_inputs(inputs, rows.start, rows.end))
        .collect()
}

/// `0..n` cut into consecutive `chunk_rows`-row ranges (the last one
/// shorter).
fn row_chunks(n: usize, chunk_rows: usize) -> impl Iterator<Item = Range<usize>> {
    let chunk_rows = chunk_rows.max(1);
    (0..n)
        .step_by(chunk_rows)
        .map(move |lo| lo..(lo + chunk_rows).min(n))
}

/// Execute a parallelization as an online aggregation over an iterator
/// of chunked input sets (see [`chunk_value_inputs`] for the in-memory
/// chunker). Every chunk picks its task as [`crate::run_plan_checked`]
/// does and is pushed into one session of an executor built from `run`
/// ([`Executor::stream_ranges`]).
/// After every `snapshot_every`-th chunk (0 = never) the running prefix
/// state is handed to `on_snapshot`.
///
/// # Errors
///
/// Fails on an unparallelizable plan, an empty stream (input-dependent
/// initializers leave no defined state), any runtime error, or when
/// even a chunk's sequential re-run panics.
pub fn run_stream_checked<I, F>(
    parallelization: &Parallelization,
    chunks: I,
    run: RunConfig,
    snapshot_every: usize,
    on_snapshot: F,
) -> Result<StreamExecOutcome>
where
    I: IntoIterator<Item = Vec<Value>>,
    F: FnMut(&StreamSnapshot),
{
    let chunks = chunks.into_iter().map(Chunk::Owned);
    run_stream(
        parallelization,
        chunks,
        run,
        snapshot_every,
        on_snapshot,
        true,
    )
}

/// The reference for [`run_stream_checked`]: the same stream with the
/// compiler skipped, so every chunk and join goes through the
/// interpreter.
///
/// # Errors
///
/// As [`run_stream_checked`].
pub fn run_stream_interpreted<I, F>(
    parallelization: &Parallelization,
    chunks: I,
    run: RunConfig,
    snapshot_every: usize,
    on_snapshot: F,
) -> Result<StreamExecOutcome>
where
    I: IntoIterator<Item = Vec<Value>>,
    F: FnMut(&StreamSnapshot),
{
    let chunks = chunks.into_iter().map(Chunk::Owned);
    run_stream(
        parallelization,
        chunks,
        run,
        snapshot_every,
        on_snapshot,
        false,
    )
}

/// [`run_stream_checked`] over `inputs` cut as [`chunk_value_inputs`]
/// cuts it, without copying the chunks: each chunk is a range of the
/// borrowed main input's rows, which compiled chunks flatten in place
/// and only interpreted ones copy.
///
/// # Errors
///
/// As [`chunk_value_inputs`], then as [`run_stream_checked`].
pub(crate) fn run_stream_rows<F>(
    parallelization: &Parallelization,
    inputs: &[Value],
    chunk_rows: usize,
    run: RunConfig,
    snapshot_every: usize,
    on_snapshot: F,
) -> Result<StreamExecOutcome>
where
    F: FnMut(&StreamSnapshot),
{
    let f = RightwardFn::new(&parallelization.program)?;
    let n = main_rows(&f, inputs)?;
    let chunks = row_chunks(n, chunk_rows).map(|rows| Chunk::Rows(inputs, rows));
    run_stream(
        parallelization,
        chunks,
        run,
        snapshot_every,
        on_snapshot,
        true,
    )
}

/// One chunk of a stream.
enum Chunk<'a> {
    /// An input set of its own.
    Owned(Vec<Value>),
    /// Rows of a borrowed input set's main input.
    Rows(&'a [Value], Range<usize>),
}

fn run_stream<'a, I, F>(
    parallelization: &Parallelization,
    chunks: I,
    run: RunConfig,
    snapshot_every: usize,
    mut on_snapshot: F,
    compile: bool,
) -> Result<StreamExecOutcome>
where
    I: Iterator<Item = Chunk<'a>>,
    F: FnMut(&StreamSnapshot),
{
    if parallelization.is_unparallelizable() {
        return Err(LangError::eval("not a parallelizable plan"));
    }
    let f = RightwardFn::new(&parallelization.program)?;
    let compiled = compile_if(parallelization, compile);
    let mut span = trace::span("execute", "run_stream");
    span.record(
        "engine",
        if compiled.is_some() {
            "compiled"
        } else {
            "interp"
        },
    );
    // The running state before any chunk: an empty stream leaves
    // input-dependent initializers undefined.
    let empty: PlanAcc = Err(LangError::eval(
        "empty stream: no elements consumed, so the state is undefined",
    ));
    let exec = Executor::new(run);
    let mut stream = exec.stream_ranges(empty);
    let mut snapshots = 0usize;

    for chunk in chunks {
        let (inputs, rows) = match &chunk {
            Chunk::Owned(inputs) => (inputs.as_slice(), None),
            Chunk::Rows(inputs, rows) => (*inputs, Some(rows.clone())),
        };
        let n = match &rows {
            Some(rows) => rows.len(),
            None => main_rows(&f, inputs)?,
        };
        if n == 0 {
            continue;
        }
        PlanTask::choose(parallelization, compiled.as_ref(), inputs, rows)?.push(&mut stream)?;
        if let Err(e) = stream.value() {
            return Err(e.clone());
        }
        if snapshot_every > 0 && stream.chunks() % snapshot_every == 0 {
            let snap = stream.snapshot();
            on_snapshot(&StreamSnapshot {
                chunks: snap.chunks,
                elements: snap.elements,
                state: snap.value?,
                elapsed: snap.elapsed,
                degraded_chunks: snap.degraded_chunks,
                recovered_chunks: snap.recovered_chunks,
            });
            snapshots += 1;
        }
    }

    let out = stream.finish();
    Ok(StreamExecOutcome {
        state: out.value?,
        chunks: out.chunks,
        elements: out.elements,
        elapsed: out.elapsed,
        degraded_chunks: out.degraded_chunks,
        recovered_chunks: out.recovered_chunks,
        snapshots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Outcome;
    use crate::testplans;
    use parsynt_lang::interp::run_program;

    #[test]
    fn chunks_equal_the_whole_input_set_with_a_sliced_main_input() {
        // Two inputs, the main one second: each chunk must be the input
        // set with only the main input replaced by its slice.
        let program = parsynt_lang::parse(
            "input w : seq<int>; input a : seq<seq<int>>; state s : int = 0;\n\
             for i in 0 .. len(a) { s = s + w[0] + len(a[i]); }",
        )
        .unwrap();
        let plan = Parallelization {
            program,
            outcome: Outcome::MapOnly,
            report: crate::schema::Report::default(),
        };
        let inputs = vec![Value::seq_of_ints(&[5, 6]), Value::seq2_of_ints(&rows(7))];
        for chunk_rows in [0, 1, 2, 3, 7, 10] {
            let mut expected = Vec::new();
            let mut lo = 0;
            while lo < 7 {
                let hi = (lo + chunk_rows.max(1)).min(7);
                let mut chunk = inputs.clone();
                chunk[1] = inputs[1].slice(lo, hi);
                expected.push(chunk);
                lo = hi;
            }
            let chunks = chunk_value_inputs(&plan, &inputs, chunk_rows).unwrap();
            assert_eq!(chunks, expected, "chunk rows = {chunk_rows}");
        }
    }

    fn rows(n: usize) -> Vec<Vec<i64>> {
        (0..n)
            .map(|i| {
                (0..3 + i % 4)
                    .map(|j| ((i * 7 + j * 13) % 23) as i64 - 11)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn dnc_stream_matches_batch_for_any_chunking() {
        let plan = testplans::sum2d();
        let input = Value::seq2_of_ints(&rows(37));
        let inputs = vec![input];
        let batch = run_program(&plan.program, &inputs).unwrap();
        for chunk_rows in [1, 4, 10, 37, 100] {
            let chunks = chunk_value_inputs(plan, &inputs, chunk_rows).unwrap();
            let mut snaps = Vec::new();
            let cfg = RunConfig::work_stealing(3);
            let out = run_stream_checked(plan, chunks, cfg, 1, |s| snaps.push(s.clone())).unwrap();
            assert_eq!(out.state, batch, "chunk_rows {chunk_rows}");
            assert_eq!(out.elements, 37);
            assert_eq!(out.degraded_chunks, 0);
            assert_eq!(out.snapshots, snaps.len());
            // Every snapshot is the batch state of exactly its prefix.
            for snap in &snaps {
                let prefix = vec![inputs[0].slice(0, snap.elements as usize)];
                let expect = run_program(&plan.program, &prefix).unwrap();
                assert_eq!(snap.state, expect, "prefix of {}", snap.elements);
            }
        }
    }

    #[test]
    fn map_only_stream_matches_batch() {
        let plan = testplans::balanced_parens();
        assert!(plan.is_map_only());
        let input = Value::seq2_of_ints(&[
            vec![1, 1, -1],
            vec![-1],
            vec![1, -1],
            vec![1, -1, 1, -1],
            vec![-1, 1],
        ]);
        let inputs = vec![input];
        let batch = run_program(&plan.program, &inputs).unwrap();
        for chunk_rows in [1, 2, 3, 5] {
            let chunks = chunk_value_inputs(plan, &inputs, chunk_rows).unwrap();
            let out =
                run_stream_checked(plan, chunks, RunConfig::work_stealing(2), 0, |_| {}).unwrap();
            assert_eq!(
                out.state.scalar_named(&plan.program, "cnt"),
                batch.scalar_named(&plan.program, "cnt"),
                "chunk_rows {chunk_rows}"
            );
            assert_eq!(out.elements, 5);
        }
    }

    #[test]
    fn empty_stream_is_an_error() {
        let plan = testplans::sum2d();
        let cfg = RunConfig::work_stealing(2);
        let err = run_stream_checked(plan, Vec::new(), cfg, 0, |_| {}).unwrap_err();
        assert!(err.to_string().contains("empty stream"), "{err}");
    }

    #[test]
    fn engines_stream_identical_snapshots() {
        let plan = testplans::sum2d();
        let input = Value::seq2_of_ints(&rows(29));
        let inputs = vec![input];
        for chunk_rows in [1, 5, 29] {
            let cfg = RunConfig::work_stealing(3);
            let mut compiled = Vec::new();
            let chunks = chunk_value_inputs(plan, &inputs, chunk_rows).unwrap();
            let out = run_stream_checked(plan, chunks, cfg, 1, |s| compiled.push(s.state.clone()))
                .unwrap();
            compiled.push(out.state);
            let mut reference = Vec::new();
            let chunks = chunk_value_inputs(plan, &inputs, chunk_rows).unwrap();
            let out = run_stream_interpreted(plan, chunks, cfg, 1, |s| {
                reference.push(s.state.clone());
            })
            .unwrap();
            reference.push(out.state);
            assert_eq!(compiled, reference, "chunk_rows {chunk_rows}");
        }
    }
}
