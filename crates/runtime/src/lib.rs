//! # parsynt-runtime
//!
//! A divide-and-conquer parallel execution runtime for the skeletons
//! ParSynt synthesizes: the programmer (or the synthesizer) supplies the
//! *split* (implicitly: inverse of concatenation over the outer
//! dimension), the *work* (the sequential loop on a chunk) and the
//! *join* (the synthesized `⊙`), and the runtime schedules chunks over
//! OS threads.
//!
//! Two scheduling backends reproduce the paper's §9 comparison. They
//! run the same worker loop — `min(threads, chunks)` scoped workers,
//! worker `w` running chunk `w` and then claiming the next unclaimed
//! chunk from one shared counter — and differ only in how the input is
//! cut:
//!
//! * [`Backend::WorkStealing`] — TBB-flavoured: grain-sized chunks,
//!   more of them than workers, so a worker that finishes early takes
//!   more chunks;
//! * [`Backend::Static`] — OpenMP-flavoured static scheduling: exactly
//!   one contiguous chunk per thread, so each worker runs one.
//!
//! Either way partial results join in chunk order (joins need not be
//! commutative). The runtime depends on `std` alone.
//!
//! Every execution mode is a method on one entry point, [`Executor`]:
//!
//! * [`Executor::run`] / [`Executor::run_range`] — batch
//!   divide-and-conquer over a finished slice, or over the index range
//!   of a [`RangeTask`];
//! * [`Executor::run_map_only`] / [`Executor::run_map_range`] — the
//!   Prop. 4.3 case where the inner loop nest parallelizes but the outer
//!   fold stays sequential (balanced parentheses, §2.1);
//! * [`Executor::run_stream`] / [`Executor::stream`] /
//!   [`Executor::stream_ranges`] — online aggregation over chunked or
//!   unbounded input, emitting progressive partial-prefix snapshots
//!   (the [`stream`]-module; sources include [`stream::ReaderChunks`]
//!   and out-of-core [`stream::PagedFileChunks`]).
//!
//! The scheduler works on index ranges `lo..hi`; the slice-based
//! [`DncTask`] and [`MapOnlyTask`] run through thin internal adapters
//! to ranges. `parsynt-core` runs every synthesized plan,
//! compiled or interpreted, batch or streaming, as a range task on this
//! executor. The nine pre-0.4 free functions (`run_parallel`,
//! `try_run_parallel`, …) were removed in 0.6.
//!
//! All executors are panic-isolated: a worker panic is caught, its
//! chunk retried once, and persistent failures degrade the run (or, when
//! streaming, that stream chunk only) to sequential re-execution (see
//! [`RunOutcome`]). This retry/degrade path is the only one in the
//! workspace. The `fault-inject` cargo feature adds a seeded,
//! deterministic fault-injection harness ([`faults`]-module) for
//! exercising those recovery paths; [`Executor::with_faults`] applies a
//! plan to every run.

#![warn(clippy::unwrap_used)]

pub mod error;
pub mod executor;
#[cfg(feature = "fault-inject")]
pub mod faults;
pub mod stream;
pub mod task;

pub use error::RuntimeError;
pub use executor::{Backend, Executor, RunConfig, RunOutcome};
#[cfg(feature = "fault-inject")]
pub use faults::{FaultKind, FaultPlan};
#[cfg(unix)]
pub use stream::{write_i64_records, PagedFileChunks};
pub use stream::{ReaderChunks, StreamError, StreamOutcome, StreamSession, StreamSnapshot};
pub use task::{DncTask, MapOnlyTask, RangeMapTask, RangeTask};
