//! # parsynt-core
//!
//! The ParSynt parallelization schema (Figure 7 of *Modular
//! Divide-and-Conquer Parallelization of Nested Loops*), tying together
//! the language front end, the memoryless phase (summarization), the
//! lifting algorithms and join synthesis:
//!
//! ```text
//! sequential loop nest L
//!   └─ memoryless? ──no──▶ memoryless lift (⊚ synthesis + aux)   (IV, II)
//!   └─ summarized loop h_L
//!        └─ join ⊙ synthesis ──fail──▶ homomorphism lift (III) ──▶ retry
//!             └─ ok: divide-and-conquer parallel code            (I)
//!             └─ fail & n > k: parallelize the map only
//!             └─ fail & n = k: not efficiently parallelizable
//! ```
//!
//! The main entry point is the [`Pipeline`] builder, which runs the
//! schema under an ambient [`parsynt_trace`] tracer and returns a
//! [`PipelineReport`] with the parallelization, per-phase timings, and
//! event counters:
//!
//! ```
//! use parsynt_core::Pipeline;
//! let p = parsynt_lang::parse(
//!     "input a : seq<seq<int>>; state s : int = 0;\n\
//!      for i in 0 .. len(a) { for j in 0 .. len(a[i]) { s = s + a[i][j]; } }",
//! ).unwrap();
//! let report = Pipeline::new(&p).run().unwrap();
//! assert!(report.parallelization.is_divide_and_conquer());
//! ```
//!
//! A run is configured through one [`PipelineConfig`] surface —
//! synthesis knobs ([`parsynt_synth::SynthConfig`], including parallel
//! candidate screening via `with_synth_threads`), execution knobs
//! ([`RunConfig`] for [`PipelineReport::execute`]) and the input
//! profile. Trace events go to a sink attached with [`Pipeline::sink`]
//! (for a JSONL file, `Pipeline::sink(WriterSink::to_file(path)?)`).
//!
//! Synthesized plans execute on [`parsynt_runtime::Executor`]
//! ([`run_plan_checked`], [`PipelineReport::execute`]) as one of four
//! range tasks — [`CompiledDncTask`] / [`CompiledMapOnlyTask`] (fused
//! native kernels, each chunk flattening its own rows of the borrowed
//! input) whenever the compiler covers the plan, otherwise
//! [`InterpDncTask`] / [`InterpMapOnlyTask`] (the interpreter) — so the
//! config's backend, thread count and grain apply, and the runtime's
//! retry/degrade path is the only one. [`run_plan_interpreted`] and
//! [`run_stream_interpreted`] skip the compiler: they are the reference
//! the tests compare the compiled runs against.
//!
//! The pre-0.2 free functions (`schema::parallelize`,
//! `schema::parallelize_with`, `proof::check_homomorphism_law`) were
//! removed in 0.6; use the [`Pipeline`] builder.

pub mod budget;
pub mod cache;
pub mod compile;
pub mod exec;
pub mod fingerprint;
pub mod pipeline;
pub mod proof;
pub mod schema;
pub mod stream;
#[cfg(test)]
mod testplans;

pub use budget::{budget_of, validate_budget, Budget};
pub use cache::{CacheStats, CachedSolution, SolutionCache};
pub use compile::{
    compile_plan, CState, CompileError, CompiledDncTask, CompiledMapOnlyTask, CompiledPlan,
    FlatInput,
};
pub use exec::{
    run_plan_checked, run_plan_interpreted, ExecOutcome, InterpDncTask, InterpMapOnlyTask, PlanAcc,
};
pub use fingerprint::{fingerprint, fingerprint_hex};
pub use parsynt_runtime::{Backend, RunConfig};
pub use parsynt_trace::{CancelToken, Deadline};
pub use pipeline::{
    Pipeline, PipelineConfig, PipelineReport, PipelineReportJson, StreamReportJson, SCHEMA_VERSION,
};
pub use proof::{check_homomorphism_law_exhaustive, check_join_associativity, proof_obligations};
pub use schema::{Outcome, Parallelization, Report};
pub use stream::{
    chunk_value_inputs, run_stream_checked, run_stream_interpreted, StreamExecOutcome,
    StreamSnapshot,
};
