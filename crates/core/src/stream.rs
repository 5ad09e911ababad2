//! Streaming execution of a synthesized parallelization through the
//! interpreter: online aggregation over chunks of the main input.
//!
//! Divide-and-conquer plans stream by the homomorphism law — each chunk
//! is summarized in parallel with [`run_divide_and_conquer_checked`] and
//! folded into the running state with the synthesized join ⊙, so the
//! state after chunk *k* equals the sequential run over the first *k*
//! chunks' concatenation. Map-only plans (Prop. 4.3) have no join, but
//! their inner nests are memoryless: each chunk's rows map in parallel
//! from the zero state and the sequential outer fold simply continues
//! from the running state.
//!
//! Faults stay chunk-local: a panic inside a chunk is retried and then
//! degraded by the per-chunk executor; a panicking join (or fold)
//! degrades *that stream chunk only* to a sequential re-run of its rows
//! from the running state via [`run_program_from`] — the end-of-input
//! state is byte-identical to the batch path either way.
//!
//! The engine in the [`RunConfig`] selects how chunks are summarized:
//! [`Engine::Compiled`] (the default) lowers the plan once with
//! [`crate::compile::compile_plan`] and folds every chunk with fused
//! native kernels, falling back to the interpreter — for the whole
//! stream on uncompilable plans, per-chunk on unflattenable inputs —
//! with a `compile_fallback` trace event; [`Engine::Interp`] forces the
//! interpreter. Chunk boundaries, retry/degrade bookkeeping and
//! snapshots are identical, so both engines stream byte-identical
//! states.

use crate::compile::{compile_plan, emit_compile_fallback, push_chunk_compiled};
use crate::exec::{chunk_ranges, run_divide_and_conquer_checked};
use crate::schema::{Outcome, Parallelization};
use parsynt_lang::error::{LangError, Result};
use parsynt_lang::functional::RightwardFn;
use parsynt_lang::interp::{init_env, read_state, run_program_from, StateVec};
use parsynt_lang::Value;
use parsynt_runtime::{Engine, RunConfig};
use parsynt_synth::join::apply_join;
use parsynt_trace as trace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

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
    let main = f.main_input();
    let n = inputs[main]
        .len()
        .ok_or_else(|| LangError::eval("main input is not a sequence"))?;
    let chunk_rows = chunk_rows.max(1);
    let mut out = Vec::with_capacity(n.div_ceil(chunk_rows).max(1));
    let mut lo = 0;
    while lo < n {
        let hi = (lo + chunk_rows).min(n);
        let chunk = inputs
            .iter()
            .enumerate()
            .map(|(k, v)| {
                if k == main {
                    v.slice(lo, hi)
                } else {
                    v.clone()
                }
            })
            .collect();
        out.push(chunk);
        lo = hi;
    }
    Ok(out)
}

/// Execute a parallelization as an online aggregation over an iterator
/// of chunked input sets (see [`chunk_value_inputs`] for the in-memory
/// chunker). After every `snapshot_every`-th chunk (0 = never) the
/// running prefix state is handed to `on_snapshot`. The engine and
/// thread count come from `run` (see the module docs for the
/// compiled-vs-interpreter dispatch).
///
/// # Errors
///
/// Fails on an unparallelizable plan, an empty stream (input-dependent
/// initializers leave no defined state), any interpreter error, or when
/// even a chunk's sequential re-run panics.
pub fn run_stream_checked<I, F>(
    parallelization: &Parallelization,
    chunks: I,
    run: RunConfig,
    snapshot_every: usize,
    mut on_snapshot: F,
) -> Result<StreamExecOutcome>
where
    I: IntoIterator<Item = Vec<Value>>,
    F: FnMut(&StreamSnapshot),
{
    if parallelization.is_unparallelizable() {
        return Err(LangError::eval("not a parallelizable plan"));
    }
    let threads = run.threads;
    let program = &parallelization.program;
    let f = RightwardFn::new(program)?;
    let main = f.main_input();
    let compiled = if run.engine == Engine::Compiled {
        match compile_plan(parallelization) {
            Ok(cp) => Some(cp),
            Err(e) => {
                emit_compile_fallback(e.reason());
                None
            }
        }
    } else {
        None
    };
    let mut exec_span = trace::span(
        "execute",
        if compiled.is_some() {
            "compiled_stream"
        } else {
            "interp_stream"
        },
    );
    exec_span.record("threads", threads);

    let started = Instant::now();
    let mut running: Option<StateVec> = None;
    let mut stats = StreamStats::default();

    for chunk_inputs in chunks {
        let n = chunk_inputs[main]
            .len()
            .ok_or_else(|| LangError::eval("main input is not a sequence"))?;
        if n == 0 {
            continue;
        }
        let flat = compiled
            .as_ref()
            .and_then(|cp| cp.flatten(&chunk_inputs[main]));
        let state = match (&compiled, flat) {
            (Some(cp), Some(flat)) => {
                let push = push_chunk_compiled(cp, &flat, threads, running.as_ref())?;
                stats.degraded_chunks += push.degraded;
                stats.recovered_chunks += push.recovered;
                push.state
            }
            (compiled, _) => {
                if compiled.is_some() {
                    emit_compile_fallback("main input is not a flattenable int sequence");
                }
                push_chunk_interp(
                    parallelization,
                    &f,
                    &chunk_inputs,
                    threads,
                    &running,
                    &mut stats,
                )?
            }
        };
        stats.chunks += 1;
        stats.elements += n as u64;
        if trace::enabled() {
            trace::point(
                "execute",
                "stream_chunk",
                &[
                    ("chunk", (stats.chunks - 1).into()),
                    ("items", n.into()),
                    ("degraded", (stats.degraded_chunks > 0).into()),
                ],
            );
            trace::counter("execute", "stream_elements", n as u64);
        }
        if snapshot_every > 0 && stats.chunks % snapshot_every == 0 {
            let snap = StreamSnapshot {
                chunks: stats.chunks,
                elements: stats.elements,
                state: state.clone(),
                elapsed: started.elapsed(),
                degraded_chunks: stats.degraded_chunks,
                recovered_chunks: stats.recovered_chunks,
            };
            if trace::enabled() {
                trace::point(
                    "execute",
                    "stream_snapshot",
                    &[
                        ("chunks", snap.chunks.into()),
                        ("elements", snap.elements.into()),
                        ("elements_per_sec", (snap.elements_per_sec() as u64).into()),
                    ],
                );
            }
            on_snapshot(&snap);
            stats.snapshots += 1;
        }
        running = Some(state);
    }

    let state = running.ok_or_else(|| {
        LangError::eval("empty stream: no elements consumed, so the state is undefined")
    })?;
    Ok(StreamExecOutcome {
        state,
        chunks: stats.chunks,
        elements: stats.elements,
        elapsed: started.elapsed(),
        degraded_chunks: stats.degraded_chunks,
        recovered_chunks: stats.recovered_chunks,
        snapshots: stats.snapshots,
    })
}

#[derive(Default)]
struct StreamStats {
    chunks: usize,
    elements: u64,
    degraded_chunks: usize,
    recovered_chunks: usize,
    snapshots: usize,
}

/// Dispatch one chunk to the interpreted per-outcome push (the whole
/// stream under [`Engine::Interp`]; single chunks whose input did not
/// flatten under [`Engine::Compiled`]).
fn push_chunk_interp(
    parallelization: &Parallelization,
    f: &RightwardFn,
    chunk_inputs: &[Value],
    threads: usize,
    running: &Option<StateVec>,
    stats: &mut StreamStats,
) -> Result<StateVec> {
    match &parallelization.outcome {
        Outcome::DivideAndConquer { join, vocab } => push_chunk_dnc(
            parallelization,
            join,
            vocab,
            chunk_inputs,
            threads,
            running.as_ref(),
            stats,
        ),
        Outcome::MapOnly => push_chunk_map_only(
            &parallelization.program,
            f,
            chunk_inputs,
            threads,
            running.clone(),
            stats,
        ),
        Outcome::Unparallelizable { .. } => unreachable!("rejected before streaming"),
    }
}

/// Summarize one chunk in parallel and extend the running state with the
/// synthesized join. A panicking join retries once; a second panic
/// degrades this chunk to a sequential extension from the running state.
fn push_chunk_dnc(
    parallelization: &Parallelization,
    join: &parsynt_synth::join::SynthesizedJoin,
    vocab: &parsynt_synth::join::JoinVocab,
    chunk_inputs: &[Value],
    threads: usize,
    running: Option<&StateVec>,
    stats: &mut StreamStats,
) -> Result<StateVec> {
    let program = &parallelization.program;
    let out = run_divide_and_conquer_checked(parallelization, chunk_inputs, threads)?;
    stats.degraded_chunks += usize::from(out.degraded);
    stats.recovered_chunks += out.recovered_chunks;
    let Some(left) = running else {
        return Ok(out.state);
    };
    for attempt in 0..2u32 {
        match catch_unwind(AssertUnwindSafe(|| {
            apply_join(program, vocab, join, left, &out.state)
        })) {
            Ok(joined) => {
                stats.recovered_chunks += usize::from(attempt > 0);
                return joined;
            }
            Err(_) if attempt == 0 => {}
            Err(_) => break,
        }
    }
    // Join is persistently broken on this pair: extend the prefix by
    // re-running the loop body over this chunk's rows sequentially.
    stats.degraded_chunks += 1;
    catch_unwind(AssertUnwindSafe(|| {
        run_program_from(program, chunk_inputs, left)
    }))
    .unwrap_or_else(|_| Err(LangError::eval("sequential chunk re-run panicked")))
}

/// Map one chunk's rows in parallel from the zero state, then continue
/// the sequential outer fold from the running state. Any persistent
/// failure degrades this chunk to a sequential re-run of its rows.
fn push_chunk_map_only(
    program: &parsynt_lang::Program,
    f: &RightwardFn,
    chunk_inputs: &[Value],
    threads: usize,
    running: Option<StateVec>,
    stats: &mut StreamStats,
) -> Result<StateVec> {
    // The map phase runs inner nests from the zero state — only sound
    // for the (transformed) memoryless program.
    let analysis = parsynt_lang::analysis::analyze(program);
    if !analysis.is_syntactically_memoryless() {
        return Err(LangError::eval(
            "streaming map-only requires a memoryless program (run the schema first)",
        ));
    }
    let running = match running {
        Some(state) => state,
        // First chunk: the initial outer state comes from the program's
        // initializers evaluated against this chunk's inputs.
        None => {
            let env = init_env(program, chunk_inputs)?;
            read_state(program, &env)?
        }
    };
    let n = chunk_inputs[f.main_input()].len().unwrap_or_default();
    type InnerBlock = Result<Vec<parsynt_lang::functional::InnerResult>>;
    let map_chunk = |lo: usize, hi: usize| -> InnerBlock {
        (lo..hi)
            .map(|i| f.inner_phase_from_zero(chunk_inputs, i))
            .collect()
    };
    let ranges = chunk_ranges(n, threads);
    let guarded: Vec<std::result::Result<InnerBlock, ()>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|&(lo, hi)| {
                let map_chunk = &map_chunk;
                scope.spawn(move || {
                    catch_unwind(AssertUnwindSafe(|| map_chunk(lo, hi))).map_err(drop)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or(Err(())))
            .collect()
    });

    let mut failed = false;
    let mut blocks: Vec<InnerBlock> = Vec::with_capacity(guarded.len());
    for (result, &(lo, hi)) in guarded.into_iter().zip(&ranges) {
        match result {
            Ok(block) => blocks.push(block),
            Err(()) => match catch_unwind(AssertUnwindSafe(|| map_chunk(lo, hi))) {
                Ok(block) => {
                    stats.recovered_chunks += 1;
                    blocks.push(block);
                }
                Err(_) => {
                    failed = true;
                    break;
                }
            },
        }
    }

    if !failed {
        let folded = catch_unwind(AssertUnwindSafe(|| -> Result<StateVec> {
            let mut state = running.clone();
            let mut i = 0usize;
            for block in blocks {
                for inner in block? {
                    state = f.outer_phase_from(chunk_inputs, i, &state, &inner)?;
                    i += 1;
                }
            }
            Ok(state)
        }));
        if let Ok(state) = folded {
            return state;
        }
    }

    stats.degraded_chunks += 1;
    catch_unwind(AssertUnwindSafe(|| {
        run_program_from(program, chunk_inputs, &running)
    }))
    .unwrap_or_else(|_| Err(LangError::eval("sequential chunk re-run panicked")))
}

#[cfg(test)]
mod tests {
    use super::*;
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
            let mut by_engine = Vec::new();
            for engine in [Engine::Compiled, Engine::Interp] {
                let chunks = chunk_value_inputs(plan, &inputs, chunk_rows).unwrap();
                let cfg = RunConfig::work_stealing(3).with_engine(engine);
                let mut snaps = Vec::new();
                let out = run_stream_checked(plan, chunks, cfg, 1, |s| snaps.push(s.state.clone()))
                    .unwrap();
                by_engine.push((out.state, snaps));
            }
            assert_eq!(by_engine[0], by_engine[1], "chunk_rows {chunk_rows}");
        }
    }
}
