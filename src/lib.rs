//! # parsynt
//!
//! A from-scratch Rust reproduction of **ParSynt** — the system of
//! *Modular Divide-and-Conquer Parallelization of Nested Loops*
//! (Farzan & Nicolet, PLDI 2019).
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`lang`] — the mini imperative input language (parser, checker,
//!   interpreter, functional form).
//! * [`trace`] — the structured-event observability layer every stage
//!   reports into ([`trace::TraceSink`], spans, counters, JSONL sinks).
//! * [`rewrite`] — the term-rewriting engine behind automatic lifting.
//! * [`synth`] — syntax-guided synthesis of merge (`⊚`) and join (`⊙`)
//!   operators with bounded verification.
//! * [`lift`] — memoryless and homomorphism lifting.
//! * [`core`] — the Figure-7 parallelization schema tying it together,
//!   exposed through the [`core::Pipeline`] builder.
//! * [`runtime`] — a divide-and-conquer parallel execution runtime.
//! * [`suite`] — the 27 evaluation benchmarks of Table 1 / Figure 9.
//!
//! # Quickstart
//!
//! ```
//! use parsynt::lang::parse;
//! use parsynt::core::Pipeline;
//!
//! let program = parse(
//!     "input a : seq<seq<int>>; state s : int = 0;\n\
//!      for i in 0 .. len(a) { for j in 0 .. len(a[i]) { s = s + a[i][j]; } }",
//! ).unwrap();
//! let report = Pipeline::new(&program).run().unwrap();
//! assert!(report.parallelization.is_divide_and_conquer());
//! // Every run is observable: per-phase timings and event counters.
//! assert!(report.phase_timings.contains_key("synthesize"));
//! ```
//!
//! To watch the run happen, hand the pipeline a sink:
//!
//! ```no_run
//! # let program = parsynt::lang::parse("input a : seq<int>; state s : int = 0;\n\
//! #     for i in 0 .. len(a) { s = s + a[i]; }").unwrap();
//! use parsynt::core::Pipeline;
//! use parsynt::trace::sinks::WriterSink;
//!
//! let sink = WriterSink::to_file("trace.jsonl").unwrap();
//! let report = Pipeline::new(&program).sink(sink).run().unwrap();
//! println!("{}", report.to_json_pretty());
//! ```
//!
//! # Removed in 0.6
//!
//! The 0.2-era free functions (`core::schema::parallelize`,
//! `parallelize_with`, `core::proof::check_homomorphism_law`) and the
//! nine pre-0.4 `runtime` executor free functions are gone: use
//! `Pipeline::new(&p).configure(cfg).run()`,
//! `report.check_homomorphism(n)` and the methods of
//! [`runtime::Executor`].
//!
//! [`PipelineConfig`] is the whole configuration surface: what to
//! synthesize with ([`SynthConfig`], including `with_synth_threads`
//! for deterministic parallel candidate screening), how
//! [`core::PipelineReport::execute`] runs the result ([`RunConfig`]),
//! and the input profile for bounded verification. Trace events go to
//! a sink attached with [`Pipeline::sink`], as above.

pub use parsynt_core as core;
pub use parsynt_lang as lang;
pub use parsynt_lift as lift;
pub use parsynt_rewrite as rewrite;
pub use parsynt_runtime as runtime;
pub use parsynt_serve as serve;
pub use parsynt_suite as suite;
pub use parsynt_synth as synth;
pub use parsynt_trace as trace;

pub use parsynt_core::{Pipeline, PipelineConfig, PipelineReport, RunConfig};
pub use parsynt_synth::SynthConfig;
