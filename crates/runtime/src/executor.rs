//! The parallel executor: work-stealing and static scheduling, behind
//! the unified [`Executor`] entry point.
//!
//! The scheduler works on index ranges: a run cuts `0..n` into chunks
//! (the [`Backend`] decides only how), attempts each once on one pool of
//! scoped workers that claim chunks from a shared counter, and combines
//! the results in input order
//! ([`RangeTask`], [`RangeMapTask`]; slice tasks run through thin
//! adapters to ranges). Every attempt is
//! panic-isolated: a panicking chunk is caught
//! ([`std::panic::catch_unwind`]) and retried once on the calling
//! thread, and if the retry fails too the whole run degrades to a
//! sequential re-execution — reported via [`RunOutcome::degraded`].
//! This module and the stream session ([`crate::stream`]) are the only
//! code that schedules chunks and recovers from panics.

use crate::error::RuntimeError;
use crate::task::{DncTask, MapOnlyTask, RangeMapTask, RangeTask, Slice, SliceMap};
use parsynt_trace as trace;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Fault-injection argument threaded through the executors: a real
/// [`crate::faults::FaultPlan`] under the `fault-inject` feature, an
/// uninhabited placeholder otherwise so release builds compile every
/// injection site away.
#[cfg(feature = "fault-inject")]
type FaultArg<'a> = Option<&'a crate::faults::FaultPlan>;
#[cfg(not(feature = "fault-inject"))]
type FaultArg<'a> = Option<&'a std::convert::Infallible>;

#[cfg(feature = "fault-inject")]
#[inline]
fn inject(faults: FaultArg<'_>, chunk: usize, attempt: u32) -> bool {
    faults.is_some_and(|plan| plan.apply(chunk, attempt))
}

#[cfg(not(feature = "fault-inject"))]
#[inline]
fn inject(_faults: FaultArg<'_>, _chunk: usize, _attempt: u32) -> bool {
    false
}

/// Run `f` with panic isolation; a panic becomes its rendered payload.
pub(crate) fn catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| payload_string(p.as_ref()))
}

/// Render a panic payload for trace events and [`RuntimeError`]s.
fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_owned()
    }
}

pub(crate) fn emit_worker_panic(chunk: usize, attempt: u32, payload: &str) {
    if trace::enabled() {
        trace::point(
            "execute",
            "worker_panic",
            &[
                ("chunk", chunk.into()),
                ("attempt", attempt.into()),
                ("payload", payload.into()),
            ],
        );
    }
}

/// The result of a panic-isolated execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome<A> {
    /// The computed accumulator.
    pub value: A,
    /// Whether the parallel plan was abandoned and the value computed by
    /// the sequential fallback instead.
    pub degraded: bool,
    /// Chunks whose first attempt panicked (or was poisoned) and whose
    /// retry succeeded.
    pub recovered_chunks: usize,
}

/// Scheduling backend: how a divide-and-conquer run is cut into
/// chunks. Both run their chunks on the same workers, each of which
/// claims the next unclaimed chunk when it finishes one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// TBB-flavoured: grain-sized chunks, more of them than threads, so
    /// a worker that finishes early takes more chunks. Better load
    /// balance, slightly higher overhead.
    WorkStealing,
    /// OpenMP-flavoured static scheduling: one contiguous chunk per
    /// thread, so each worker runs exactly one.
    Static,
}

/// Execution configuration.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Number of worker threads.
    pub threads: usize,
    /// Grain size in items (the paper's experiments use 50k elements):
    /// a run of at most one grain is one chunk on the calling thread,
    /// and the work-stealing backend cuts longer runs into grain-sized
    /// chunks at every thread count (one thread runs them in order on
    /// the calling thread). Synthesized plans count it in leaves
    /// (scalars of the main input) and convert it to rows per input.
    pub grain: usize,
    /// Scheduling backend.
    pub backend: Backend,
}

impl RunConfig {
    /// A work-stealing configuration with the paper's 50k grain.
    pub fn work_stealing(threads: usize) -> Self {
        RunConfig {
            threads,
            grain: 50_000,
            backend: Backend::WorkStealing,
        }
    }

    /// A static-scheduling configuration.
    pub fn static_schedule(threads: usize) -> Self {
        RunConfig {
            threads,
            grain: 50_000,
            backend: Backend::Static,
        }
    }

    /// Override the grain size.
    pub fn with_grain(mut self, grain: usize) -> Self {
        self.grain = grain.max(1);
        self
    }

    /// Override the scheduling backend.
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Override the thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

impl Default for RunConfig {
    /// Work-stealing over every available core with the paper's 50k
    /// grain — the setup of the §9 experiments.
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        RunConfig::work_stealing(threads)
    }
}

/// The unified executor: one configured entry point for every execution
/// mode — batch divide-and-conquer ([`Executor::run`],
/// [`Executor::run_range`]), map-only ([`Executor::run_map_only`],
/// [`Executor::run_map_range`]), and streaming online aggregation
/// ([`Executor::stream`], [`Executor::stream_ranges`],
/// [`Executor::run_stream`]).
///
/// Construction is free; the executor holds only configuration and can
/// be reused across runs (and shared: it is `Clone`).
///
/// ```
/// use parsynt_runtime::{DncTask, Executor, RunConfig};
/// struct Sum;
/// impl DncTask for Sum {
///     type Item = i64;
///     type Acc = i64;
///     fn identity(&self) -> i64 { 0 }
///     fn work(&self, chunk: &[i64]) -> i64 { chunk.iter().sum() }
///     fn join(&self, l: i64, r: i64) -> i64 { l + r }
/// }
/// let exec = Executor::new(RunConfig::work_stealing(4).with_grain(2));
/// let data = [1i64, 2, 3, 4, 5];
/// assert_eq!(exec.run(&Sum, &data).unwrap().value, 15);
/// assert_eq!(exec.run_sequential(&Sum, &data), 15);
/// // Streaming: same result, one chunk at a time.
/// assert_eq!(exec.run_stream(&Sum, data.chunks(2)).unwrap().value, 15);
/// ```
///
/// Under the `fault-inject` cargo feature, [`Executor::with_faults`]
/// attaches a deterministic [`crate::faults::FaultPlan`] applied to
/// every chunk attempt of every run on this executor.
#[derive(Debug, Clone, Default)]
pub struct Executor {
    config: RunConfig,
    #[cfg(feature = "fault-inject")]
    faults: Option<crate::faults::FaultPlan>,
}

impl Executor {
    /// An executor scheduling with `config`.
    pub fn new(config: RunConfig) -> Self {
        Executor {
            config,
            #[cfg(feature = "fault-inject")]
            faults: None,
        }
    }

    /// The execution configuration this executor schedules with.
    pub fn config(&self) -> RunConfig {
        self.config
    }

    /// Attach a deterministic fault schedule, applied to every chunk
    /// attempt of every subsequent run on this executor.
    #[cfg(feature = "fault-inject")]
    pub fn with_faults(mut self, plan: crate::faults::FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The fault schedule as the internal executor argument.
    #[cfg(feature = "fault-inject")]
    fn fault_arg(&self) -> FaultArg<'_> {
        self.faults.as_ref()
    }

    /// Without the `fault-inject` feature there is never a schedule.
    #[cfg(not(feature = "fault-inject"))]
    fn fault_arg(&self) -> FaultArg<'_> {
        None
    }

    /// Run the task sequentially on the calling thread (the baseline all
    /// speedups are relative to). Exactly `task.work(data)`.
    pub fn run_sequential<T: DncTask>(&self, task: &T, data: &[T::Item]) -> T::Acc {
        task.work(data)
    }

    /// Run the task in parallel according to the executor's config:
    /// [`Executor::run_range`] over the task's slice adapter.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::WorkerPanicked`] only when even the sequential
    /// fallback panics (i.e. the task itself is broken).
    pub fn run<T: DncTask>(
        &self,
        task: &T,
        data: &[T::Item],
    ) -> Result<RunOutcome<T::Acc>, RuntimeError> {
        self.run_range(&Slice::new(task, data))
    }

    /// Run a range task in parallel according to the executor's config.
    ///
    /// The grain counts [`RangeTask::leaves`]. A run of at most one
    /// grain is one chunk on the calling thread. A longer run is cut
    /// into grain-sized chunks by the work-stealing backend, at any
    /// thread count, and into one chunk per thread by the static
    /// backend; with one thread, the chunks run in order on the calling
    /// thread.
    /// Equivalent to `task.work(0, len)` whenever the join
    /// satisfies the homomorphism law; chunk results are always joined
    /// in input order, so non-commutative joins are safe. A panicking
    /// chunk is retried once on the calling thread; persistent failures
    /// degrade the run to a sequential re-execution
    /// ([`RunOutcome::degraded`]).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::WorkerPanicked`] only when even the sequential
    /// fallback panics.
    pub fn run_range<T: RangeTask>(&self, task: &T) -> Result<RunOutcome<T::Acc>, RuntimeError> {
        let n = task.len();
        let ranges = self.dnc_ranges(n, task.leaves());
        if ranges.len() > 1 && trace::enabled() {
            trace::counter("execute", "joins", ranges.len() as u64 - 1);
        }
        let Attempts {
            results,
            recovered,
            failed,
        } = self.attempt(&ranges, &|lo, hi| task.work(lo, hi));
        if failed.is_empty() {
            // The join can panic too (it is synthesized code): guard the
            // ordered reduction and fall back like a failed chunk.
            let reduced = catch(|| {
                let mut parts = results.into_iter().flatten();
                let first = parts.next()?;
                Some(parts.fold(first, |l, r| task.join(l, r)))
            });
            if let Ok(Some(value)) = reduced {
                return Ok(RunOutcome {
                    value,
                    degraded: false,
                    recovered_chunks: recovered,
                });
            }
        }
        fallback_sequential(&failed, recovered, || task.work(0, n))
    }

    /// Run a map-only task: [`Executor::run_map_range`] over the
    /// task's slice adapter.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::WorkerPanicked`] only when even the sequential
    /// fallback panics.
    pub fn run_map_only<T: MapOnlyTask>(
        &self,
        task: &T,
        data: &[T::Item],
    ) -> Result<RunOutcome<T::Acc>, RuntimeError> {
        self.run_map_range(&SliceMap::new(task, data))
    }

    /// Run a map-only range task: the `map` phase in parallel, one block
    /// per thread (the map has no join to amortize, so the grain does
    /// not apply), then the sequential `fold` of the blocks in input
    /// order. Panic isolation and recovery mirror
    /// [`Executor::run_range`].
    ///
    /// # Errors
    ///
    /// [`RuntimeError::WorkerPanicked`] only when even the sequential
    /// fallback panics.
    pub fn run_map_range<T: RangeMapTask>(
        &self,
        task: &T,
    ) -> Result<RunOutcome<T::Acc>, RuntimeError> {
        self.map_from(task, &|| task.init())
    }

    /// [`Executor::run_map_range`] with the fold starting from `start()`
    /// instead of `task.init()` (a stream continues its running state).
    pub(crate) fn map_from<T: RangeMapTask>(
        &self,
        task: &T,
        start: &dyn Fn() -> T::Acc,
    ) -> Result<RunOutcome<T::Acc>, RuntimeError> {
        let n = task.len();
        let parts = (n.max(1)).min(self.config.threads.max(1));
        let ranges: Vec<(usize, usize)> = (0..parts)
            .map(|i| (i * n / parts, (i + 1) * n / parts))
            .collect();
        let Attempts {
            results,
            recovered,
            failed,
        } = self.attempt(&ranges, &|lo, hi| task.map(lo, hi));
        if failed.is_empty() {
            // The fold phase can panic too; guard it and degrade like a
            // failed chunk.
            let folded = catch(|| {
                results
                    .into_iter()
                    .zip(&ranges)
                    .try_fold(start(), |acc, (block, &(lo, hi))| {
                        Some(task.fold(acc, lo, hi, block?))
                    })
            });
            if let Ok(Some(value)) = folded {
                return Ok(RunOutcome {
                    value,
                    degraded: false,
                    recovered_chunks: recovered,
                });
            }
        }
        fallback_sequential(&failed, recovered, || {
            task.fold(start(), 0, n, task.map(0, n))
        })
    }

    /// The chunks a divide-and-conquer run over `0..n` items holding
    /// `leaves` grain units is cut into.
    fn dnc_ranges(&self, n: usize, leaves: usize) -> Vec<(usize, usize)> {
        let threads = self.config.threads.max(1);
        // The grain counts leaves: convert it to items at this input's
        // density. `RunConfig::with_grain` clamps, but the struct is
        // constructible literally; a zero grain must never reach the
        // chunk math.
        let grain = match leaves {
            0 => self.config.grain,
            _ => usize::try_from(self.config.grain as u128 * n as u128 / leaves as u128)
                .unwrap_or(usize::MAX),
        }
        .max(1);
        if n <= grain {
            return vec![(0, n)];
        }
        let size = match self.config.backend {
            Backend::Static => n.div_ceil(threads.min(n)),
            Backend::WorkStealing => grain,
        };
        (0..n)
            .step_by(size)
            .map(|lo| (lo, (lo + size).min(n)))
            .collect()
    }

    /// Attempt every range once, then retry each failed range once on
    /// the calling thread. The first attempts run in order on the
    /// calling thread when there is one range or one thread, otherwise
    /// on scoped workers ([`worker_attempts`]). Several ranges open a
    /// `run_parallel` span and count their chunks, whichever thread
    /// runs them.
    fn attempt<R: Send>(
        &self,
        ranges: &[(usize, usize)],
        work: &(dyn Fn(usize, usize) -> R + Sync),
    ) -> Attempts<R> {
        let faults = self.fault_arg();
        let threads = self.config.threads.max(1);
        let in_order = || -> Vec<Result<R, String>> {
            ranges
                .iter()
                .enumerate()
                .map(|(chunk, &(lo, hi))| guarded(work, lo, hi, chunk, 0, faults))
                .collect()
        };
        let first = if ranges.len() == 1 {
            in_order()
        } else {
            let mut span = trace::span("execute", "run_parallel");
            if span.is_enabled() {
                span.record("threads", self.config.threads);
                span.record("grain", self.config.grain);
                span.record(
                    "backend",
                    match self.config.backend {
                        Backend::WorkStealing => "work_stealing",
                        Backend::Static => "static",
                    },
                );
                span.record("items", ranges.last().map_or(0, |r| r.1));
                trace::counter("execute", "chunks", ranges.len() as u64);
            }
            if threads == 1 {
                in_order()
            } else {
                worker_attempts(ranges, threads, work, faults)
            }
        };
        let mut out = Attempts {
            results: Vec::with_capacity(ranges.len()),
            recovered: 0,
            failed: Vec::new(),
        };
        for (chunk, (result, &(lo, hi))) in first.into_iter().zip(ranges).enumerate() {
            let payload = match result {
                Ok(value) => {
                    out.results.push(Some(value));
                    continue;
                }
                Err(payload) => payload,
            };
            emit_worker_panic(chunk, 0, &payload);
            match guarded(work, lo, hi, chunk, 1, faults) {
                Ok(value) => {
                    out.recovered += 1;
                    out.results.push(Some(value));
                }
                Err(payload) => {
                    emit_worker_panic(chunk, 1, &payload);
                    out.failed.push((chunk, payload));
                    out.results.push(None);
                }
            }
        }
        out
    }

    /// Open a streaming session over a slice task: push chunks with
    /// [`crate::stream::StreamSession::push_chunk`], observe progressive
    /// partial-prefix aggregates with
    /// [`crate::stream::StreamSession::snapshot`], and close with
    /// [`crate::stream::StreamSession::finish`].
    pub fn stream<'e, T: DncTask>(
        &'e self,
        task: &'e T,
    ) -> crate::stream::StreamSession<'e, T::Acc, &'e T> {
        crate::stream::StreamSession::new(self, task, task.identity())
    }

    /// Open a streaming session whose chunks are range tasks of their
    /// own (one per chunk of input, divide-and-conquer or map-only),
    /// all sharing the accumulator type `A`. `start` is the value
    /// snapshots and [`crate::stream::StreamSession::finish`] report
    /// before any chunk arrived.
    pub fn stream_ranges<A>(&self, start: A) -> crate::stream::StreamSession<'_, A> {
        crate::stream::StreamSession::new(self, (), start)
    }

    /// Drive a whole chunk iterator through a streaming session and
    /// return the end-of-input aggregate. By the homomorphism law the
    /// value is byte-identical to [`Executor::run_sequential`] on the
    /// concatenation of the chunks, for *any* chunking.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::WorkerPanicked`] when a chunk or join fails even
    /// after retry and sequential re-execution of that chunk.
    pub fn run_stream<T, I>(
        &self,
        task: &T,
        chunks: I,
    ) -> Result<crate::stream::StreamOutcome<T::Acc>, RuntimeError>
    where
        T: DncTask,
        T::Acc: Clone,
        I: IntoIterator,
        I::Item: AsRef<[T::Item]>,
    {
        let mut session = self.stream(task);
        for chunk in chunks {
            session.push_chunk(chunk.as_ref())?;
        }
        Ok(session.finish())
    }

    /// [`Executor::run_stream`] over a fallible (I/O-backed) chunk
    /// source such as [`crate::stream::ReaderChunks`] or
    /// [`crate::stream::PagedFileChunks`].
    ///
    /// # Errors
    ///
    /// [`crate::stream::StreamError::Io`] on a source error,
    /// [`crate::stream::StreamError::Runtime`] on an unrecoverable
    /// worker panic.
    pub fn run_stream_io<T, I>(
        &self,
        task: &T,
        chunks: I,
    ) -> Result<crate::stream::StreamOutcome<T::Acc>, crate::stream::StreamError>
    where
        T: DncTask,
        T::Acc: Clone,
        I: IntoIterator<Item = std::io::Result<Vec<T::Item>>>,
    {
        let mut session = self.stream(task);
        for chunk in chunks {
            session.push_chunk(&chunk?)?;
        }
        Ok(session.finish())
    }
}

/// The first attempt of every chunk, each failed one retried once:
/// `results[i]` is `None` exactly for the chunks listed in `failed`,
/// each with its retry's panic payload.
struct Attempts<R> {
    results: Vec<Option<R>>,
    recovered: usize,
    failed: Vec<(usize, String)>,
}

/// Run `work` over `lo..hi` with panic isolation (and, under
/// `fault-inject`, the scheduled fault for this `(chunk, attempt)` site
/// applied).
fn guarded<R>(
    work: &(dyn Fn(usize, usize) -> R + Sync),
    lo: usize,
    hi: usize,
    chunk: usize,
    attempt: u32,
    faults: FaultArg<'_>,
) -> Result<R, String> {
    match catch(|| (inject(faults, chunk, attempt), work(lo, hi)))? {
        (false, value) => Ok(value),
        (true, _) => Err(format!("injected fault: poisoned result at chunk {chunk}")),
    }
}

/// Last-resort recovery: re-run the whole input sequentially on the
/// calling thread. Faults are never injected here — the harness tests
/// recovery of the *parallel* plan, and a broken task panics on its own.
fn fallback_sequential<A>(
    failed: &[(usize, String)],
    recovered: usize,
    sequential: impl FnOnce() -> A,
) -> Result<RunOutcome<A>, RuntimeError> {
    if trace::enabled() {
        trace::point(
            "execute",
            "fallback_sequential",
            &[("failed_chunks", failed.len().into())],
        );
    }
    match catch(sequential) {
        Ok(value) => Ok(RunOutcome {
            value,
            degraded: true,
            recovered_chunks: recovered,
        }),
        Err(payload) => Err(RuntimeError::WorkerPanicked {
            chunk: failed.first().map_or(0, |f| f.0),
            payload,
        }),
    }
}

/// The first attempt of every chunk on `min(threads, chunks)` scoped
/// workers. Worker `w` runs chunk `w`, then claims the next unclaimed
/// chunk from one shared counter until none is left, and returns its
/// `(chunk, result)` pairs; the caller puts them in input order. With no
/// more chunks than workers (the static cut) each worker runs exactly
/// its own chunk; with more (the grain-sized cut) a fast worker takes
/// more chunks, which balances the load. A panicking chunk is recorded
/// as failed, not propagated: the scope always joins cleanly.
fn worker_attempts<R: Send>(
    ranges: &[(usize, usize)],
    threads: usize,
    work: &(dyn Fn(usize, usize) -> R + Sync),
    faults: FaultArg<'_>,
) -> Vec<Result<R, String>> {
    let workers = threads.min(ranges.len());
    let next = AtomicUsize::new(workers);
    let done: Vec<Vec<(usize, Result<R, String>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let next = &next;
                scope.spawn(move || {
                    let mut done = Vec::new();
                    let mut chunk = w;
                    while let Some(&(lo, hi)) = ranges.get(chunk) {
                        done.push((chunk, guarded(work, lo, hi, chunk, 0, faults)));
                        chunk = next.fetch_add(1, Ordering::Relaxed);
                    }
                    done
                })
            })
            .collect();
        // `guarded` already catches task panics; a worker that dies
        // anyway leaves its chunks unfilled, and they are retried.
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });

    // Workers run on foreign threads (no ambient tracer there), so the
    // per-worker tallies are emitted from the calling thread.
    if trace::enabled() {
        for (w, chunks) in done.iter().enumerate() {
            trace::counter_with(
                "execute",
                "worker_chunks",
                chunks.len() as u64,
                &[("worker", w.into())],
            );
        }
    }

    let mut results: Vec<Option<Result<R, String>>> = (0..ranges.len()).map(|_| None).collect();
    for (chunk, result) in done.into_iter().flatten() {
        results[chunk] = Some(result);
    }
    results
        .into_iter()
        .enumerate()
        .map(|(chunk, result)| {
            result.unwrap_or_else(|| Err(format!("chunk {chunk} never completed")))
        })
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    /// `Executor` shorthands shared by every test below.
    fn par<T: DncTask>(task: &T, data: &[T::Item], cfg: RunConfig) -> T::Acc {
        Executor::new(cfg).run(task, data).expect("run").value
    }
    fn seq<T: DncTask>(task: &T, data: &[T::Item]) -> T::Acc {
        Executor::default().run_sequential(task, data)
    }
    fn map_only<T: MapOnlyTask>(task: &T, data: &[T::Item], threads: usize) -> T::Acc {
        Executor::new(RunConfig::default().with_threads(threads))
            .run_map_only(task, data)
            .expect("map-only run")
            .value
    }

    /// Sum task: trivially a homomorphism.
    struct Sum;
    impl DncTask for Sum {
        type Item = i64;
        type Acc = i64;
        fn identity(&self) -> i64 {
            0
        }
        fn work(&self, chunk: &[i64]) -> i64 {
            chunk.iter().sum()
        }
        fn join(&self, l: i64, r: i64) -> i64 {
            l + r
        }
    }

    /// A deliberately non-commutative join: string-like concatenation
    /// encoded as (first, last) of the chunk — detects any executor that
    /// reorders chunks.
    struct FirstLast;
    impl DncTask for FirstLast {
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

    fn data(n: usize) -> Vec<i64> {
        (0..n as i64).map(|x| (x * 7919) % 101 - 50).collect()
    }

    #[test]
    fn static_backend_matches_sequential() {
        let d = data(10_000);
        let seq = seq(&Sum, &d);
        for threads in [1, 2, 4, 16] {
            let cfg = RunConfig::static_schedule(threads).with_grain(128);
            assert_eq!(par(&Sum, &d, cfg), seq);
        }
    }

    #[test]
    fn stealing_backend_matches_sequential() {
        let d = data(10_000);
        let seq = seq(&Sum, &d);
        for threads in [2, 3, 8] {
            let cfg = RunConfig::work_stealing(threads).with_grain(97);
            assert_eq!(par(&Sum, &d, cfg), seq);
        }
    }

    #[test]
    fn chunk_order_is_preserved_for_noncommutative_joins() {
        let d = data(5_000);
        for backend in [Backend::Static, Backend::WorkStealing] {
            let cfg = RunConfig {
                threads: 4,
                grain: 64,
                backend,
            };
            let out = par(&FirstLast, &d, cfg);
            assert_eq!(out, d, "backend {backend:?} reordered chunks");
        }
    }

    #[test]
    fn small_inputs_short_circuit() {
        let d = data(10);
        let cfg = RunConfig::work_stealing(8); // grain 50k > len
        assert_eq!(par(&Sum, &d, cfg), seq(&Sum, &d));
    }

    /// A range task that records the thread of every `work` call and
    /// panics on its first `panics` calls.
    #[derive(Default)]
    struct ThreadProbe {
        len: usize,
        panics: usize,
        threads: std::sync::Mutex<Vec<std::thread::ThreadId>>,
    }
    impl ThreadProbe {
        fn new(len: usize, panics: usize) -> Self {
            ThreadProbe {
                len,
                panics,
                ..Default::default()
            }
        }
        fn threads(&self) -> Vec<std::thread::ThreadId> {
            self.threads.lock().unwrap().clone()
        }
    }
    impl RangeTask for ThreadProbe {
        type Acc = usize;
        fn len(&self) -> usize {
            self.len
        }
        fn work(&self, lo: usize, hi: usize) -> usize {
            let calls = {
                let mut threads = self.threads.lock().unwrap();
                threads.push(std::thread::current().id());
                threads.len()
            };
            assert!(calls > self.panics, "probe");
            hi - lo
        }
        fn join(&self, l: usize, r: usize) -> usize {
            l + r
        }
    }

    /// A run of one chunk — attempt, retry and sequential fallback —
    /// stays on the calling thread; a run of several chunks goes to
    /// workers under both backends when there are several threads.
    #[test]
    fn single_chunk_runs_on_the_caller_with_retry_and_fallback() {
        let caller = std::thread::current().id();
        let exec = Executor::new(RunConfig::work_stealing(4)); // grain 50k > len
                                                               // Panics on the first attempt only: recovered by the retry.
        let flaky = ThreadProbe::new(4, 1);
        let out = exec.run_range(&flaky).unwrap();
        assert_eq!(
            (out.value, out.recovered_chunks, out.degraded),
            (4, 1, false)
        );
        // Panics on the attempt and the retry: the sequential fallback.
        let failing = ThreadProbe::new(4, 2);
        let out = exec.run_range(&failing).unwrap();
        assert_eq!(
            (out.value, out.recovered_chunks, out.degraded),
            (4, 0, true)
        );
        for probe in [&flaky, &failing] {
            assert!(probe.threads().iter().all(|&t| t == caller));
        }
        assert_eq!(failing.threads().len(), 3);
        // Panics on every call: the fallback's panic is the error.
        let broken = ThreadProbe::new(4, usize::MAX);
        assert!(matches!(
            exec.run_range(&broken),
            Err(RuntimeError::WorkerPanicked { chunk: 0, .. })
        ));
        // Several chunks run on workers, one call per chunk.
        for backend in [Backend::Static, Backend::WorkStealing] {
            let spread = ThreadProbe::new(8, 0);
            let cfg = RunConfig::work_stealing(2)
                .with_grain(2)
                .with_backend(backend);
            let out = Executor::new(cfg).run_range(&spread).unwrap();
            assert_eq!(out.value, 8);
            let threads = spread.threads();
            assert!(threads.len() > 1, "{backend:?}");
            assert!(threads.iter().all(|&t| t != caller), "{backend:?}");
        }
    }

    /// A one-thread work-stealing run longer than one grain cuts
    /// ⌈n/grain⌉ chunks and runs them in order on the calling thread,
    /// through the same retry and sequential fallback as a parallel run;
    /// the static backend keeps one chunk per thread.
    #[test]
    fn one_thread_cuts_grain_sized_chunks_on_the_caller() {
        use parsynt_trace::sinks::PhaseAggregator;
        let caller = std::thread::current().id();
        let exec = Executor::new(RunConfig::work_stealing(1).with_grain(3));
        let agg = PhaseAggregator::new();
        let out = {
            let _guard = trace::set_ambient(trace::Tracer::from_sink(agg.clone()));
            exec.run(&FirstLast, &data(10)).unwrap()
        };
        assert_eq!(out.value, data(10));
        assert_eq!(agg.counters()["execute.chunks"], 4);
        assert!(agg.phase_timings().contains_key("execute"));
        // One call per chunk, in order, all on the caller.
        let probe = ThreadProbe::new(10, 0);
        assert_eq!(exec.run_range(&probe).unwrap().value, 10);
        assert_eq!(probe.threads(), vec![caller; 4]);
        // The first attempt panics: the retry recovers that chunk.
        let flaky = ThreadProbe::new(10, 1);
        let out = exec.run_range(&flaky).unwrap();
        assert_eq!(
            (out.value, out.recovered_chunks, out.degraded),
            (10, 1, false)
        );
        assert_eq!(flaky.threads(), vec![caller; 5]);
        // Every first attempt and the first chunk's retry panic: the
        // other retries recover, then the sequential fallback runs.
        let failing = ThreadProbe::new(10, 5);
        let out = exec.run_range(&failing).unwrap();
        assert_eq!(
            (out.value, out.recovered_chunks, out.degraded),
            (10, 3, true)
        );
        assert_eq!(failing.threads(), vec![caller; 9]);
        // Static scheduling: one chunk for the one thread.
        let single = ThreadProbe::new(10, 0);
        let exec = Executor::new(RunConfig::static_schedule(1).with_grain(3));
        assert_eq!(exec.run_range(&single).unwrap().value, 10);
        assert_eq!(single.threads(), vec![caller]);
    }

    struct CountPositive;
    impl MapOnlyTask for CountPositive {
        type Item = i64;
        type Mapped = bool;
        type Acc = usize;
        fn init(&self) -> usize {
            0
        }
        fn map(&self, item: &i64) -> bool {
            *item > 0
        }
        fn fold(&self, acc: usize, mapped: bool) -> usize {
            acc + usize::from(mapped)
        }
    }

    #[test]
    fn map_only_matches_sequential_fold() {
        let d = data(3_333);
        let seq = map_only(&CountPositive, &d, 1);
        for threads in [2, 5, 9] {
            assert_eq!(map_only(&CountPositive, &d, threads), seq);
        }
    }

    #[test]
    fn default_config_is_work_stealing_on_all_cores() {
        let cfg = RunConfig::default();
        assert!(cfg.threads >= 1);
        assert_eq!(cfg.backend, Backend::WorkStealing);
        assert_eq!(cfg.grain, 50_000);
        let cfg = cfg
            .with_backend(Backend::Static)
            .with_threads(3)
            .with_grain(10);
        assert_eq!(cfg.backend, Backend::Static);
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.grain, 10);
    }

    /// A range task that records the chunk start and thread of every
    /// `work` call. The chunk starting at 0 holds its worker until
    /// `hold` other calls have run.
    struct ChunkProbe {
        len: usize,
        hold: usize,
        calls: std::sync::Mutex<Vec<(usize, std::thread::ThreadId)>>,
        ran: std::sync::Condvar,
    }
    impl ChunkProbe {
        fn new(len: usize, hold: usize) -> Self {
            ChunkProbe {
                len,
                hold,
                calls: std::sync::Mutex::default(),
                ran: std::sync::Condvar::new(),
            }
        }
        /// The thread of every call, in chunk order.
        fn threads_by_chunk(&self) -> Vec<std::thread::ThreadId> {
            let mut calls = self.calls.lock().unwrap().clone();
            calls.sort_by_key(|&(lo, _)| lo);
            calls.into_iter().map(|(_, t)| t).collect()
        }
    }
    impl RangeTask for ChunkProbe {
        type Acc = Vec<usize>;
        fn len(&self) -> usize {
            self.len
        }
        fn work(&self, lo: usize, hi: usize) -> Vec<usize> {
            let mut calls = self.calls.lock().unwrap();
            if lo == 0 {
                // Bounded, so a scheduler that leaves the other chunks
                // to this worker fails the test instead of hanging it.
                let timeout = std::time::Duration::from_secs(10);
                calls = self
                    .ran
                    .wait_timeout_while(calls, timeout, |c| c.len() < self.hold)
                    .unwrap()
                    .0;
            }
            calls.push((lo, std::thread::current().id()));
            self.ran.notify_all();
            (lo..hi).collect()
        }
        fn join(&self, mut l: Vec<usize>, r: Vec<usize>) -> Vec<usize> {
            l.extend(r);
            l
        }
    }

    /// The worker loop attempts every chunk exactly once on at most
    /// `min(threads, chunks)` workers and returns the results in input
    /// order; under work stealing a worker held up by a slow chunk
    /// leaves every other chunk to the others, under static scheduling
    /// each worker runs its one chunk. A chunk is held up by making it
    /// wait for the others, not by a sleep, so no timing decides it.
    #[test]
    fn workers_claim_every_chunk_once_and_balance_the_load() {
        use parsynt_trace::sinks::PhaseAggregator;
        use std::collections::HashSet;
        for backend in [Backend::Static, Backend::WorkStealing] {
            for (threads, chunks) in [(2, 3), (4, 2), (3, 100), (16, 16)] {
                let n = chunks * 4;
                let exec = Executor::new(
                    RunConfig::work_stealing(threads)
                        .with_grain(4)
                        .with_backend(backend),
                );
                let ranges = exec.dnc_ranges(n, n);
                let probe = ChunkProbe::new(n, 0);
                let agg = PhaseAggregator::new();
                let out = {
                    let _guard = trace::set_ambient(trace::Tracer::from_sink(agg.clone()));
                    exec.run_range(&probe).unwrap()
                };
                let case = format!("{backend:?}, {threads} threads, {chunks} chunks");
                assert_eq!(out.value, (0..n).collect::<Vec<_>>(), "{case}");
                let mut starts: Vec<usize> =
                    probe.calls.lock().unwrap().iter().map(|c| c.0).collect();
                starts.sort_unstable();
                let expected: Vec<usize> = ranges.iter().map(|r| r.0).collect();
                assert_eq!(starts, expected, "{case}");
                let workers: HashSet<_> = probe.threads_by_chunk().into_iter().collect();
                assert!(workers.len() <= threads.min(ranges.len()), "{case}");
                assert_eq!(
                    agg.counters()["execute.worker_chunks"],
                    ranges.len() as u64,
                    "{case}"
                );
            }
        }
        // Work stealing, 10 chunks: chunk 0 holds its worker until the
        // nine others have run, so the other worker runs all of them.
        let probe = ChunkProbe::new(40, 9);
        let exec = Executor::new(RunConfig::work_stealing(2).with_grain(4));
        assert_eq!(exec.run_range(&probe).unwrap().value.len(), 40);
        let threads = probe.threads_by_chunk();
        assert_eq!(threads.len(), 10);
        assert!(threads[1..].iter().all(|&t| t == threads[1]));
        assert_ne!(threads[0], threads[1]);
        // Static, 2 chunks: no worker runs two chunks.
        let probe = ChunkProbe::new(40, 1);
        let exec = Executor::new(RunConfig::static_schedule(2).with_grain(4));
        assert_eq!(exec.run_range(&probe).unwrap().value.len(), 40);
        let threads = probe.threads_by_chunk();
        assert_eq!(threads.len(), 2);
        assert_ne!(threads[0], threads[1]);
    }

    #[test]
    fn stealing_emits_chunk_and_worker_counters() {
        use parsynt_trace::sinks::PhaseAggregator;
        let agg = PhaseAggregator::new();
        let _guard = trace::set_ambient(trace::Tracer::from_sink(agg.clone()));
        let d = data(10_000);
        let cfg = RunConfig::work_stealing(4).with_grain(97);
        assert_eq!(par(&Sum, &d, cfg), seq(&Sum, &d));
        let counters = agg.counters();
        let chunks = 10_000u64.div_ceil(97);
        assert_eq!(counters["execute.chunks"], chunks);
        assert_eq!(counters["execute.joins"], chunks - 1);
        // Every processed chunk is tallied against some worker.
        assert_eq!(counters["execute.worker_chunks"], chunks);
        assert!(counters.contains_key("execute.worker_chunks"));
        assert!(agg.phase_timings().contains_key("execute"));
    }

    #[test]
    fn zero_grain_is_floored_to_one() {
        // A literal `grain: 0` bypasses the `with_grain` clamp; the
        // executor must treat it as 1 (one item per chunk), not divide
        // by zero or spin.
        let d = data(257);
        let seq = seq(&Sum, &d);
        for backend in [Backend::Static, Backend::WorkStealing] {
            let cfg = RunConfig {
                threads: 4,
                grain: 0,
                backend,
            };
            assert_eq!(par(&Sum, &d, cfg), seq, "backend {backend:?}");
        }
        assert_eq!(
            par(
                &FirstLast,
                &d,
                RunConfig {
                    threads: 3,
                    grain: 0,
                    backend: Backend::WorkStealing,
                }
            ),
            d
        );
    }

    #[test]
    fn grain_counts_leaves_and_converts_to_items() {
        let exec = Executor::new(RunConfig::work_stealing(4).with_grain(50_000));
        // 20 000 rows of 500 leaves: 100 rows per 50k-leaf grain.
        let ranges = exec.dnc_ranges(20_000, 10_000_000);
        assert_eq!((ranges.len(), ranges[0]), (200, (0, 100)));
        // One leaf per item: the grain is in items.
        assert_eq!(exec.dnc_ranges(70_000, 70_000).len(), 2);
        // Items heavier than a grain: one item per chunk.
        assert_eq!(exec.dnc_ranges(10, 1_000_000).len(), 10);
        // No more leaves than a grain: one chunk.
        assert_eq!(exec.dnc_ranges(20_000, 50_000), vec![(0, 20_000)]);
        // No leaves at all (only empty rows): the grain counts items.
        assert_eq!(exec.dnc_ranges(60_000, 0).len(), 2);
        // Static: one chunk per thread once past a grain.
        let exec = Executor::new(RunConfig::static_schedule(4).with_grain(50_000));
        assert_eq!(exec.dnc_ranges(20_000, 10_000_000).len(), 4);
    }

    #[test]
    fn zero_and_one_element_inputs() {
        let empty: Vec<i64> = Vec::new();
        let cfg = RunConfig::work_stealing(4).with_grain(1);
        assert_eq!(par(&Sum, &empty, cfg), 0);
        assert_eq!(par(&Sum, &[42], cfg), 42);
    }

    /// Sum, but every chunk attempt on an unnamed thread panics. Scoped
    /// executor workers are unnamed while the calling (test) thread is
    /// named, so every chunk fails its parallel attempt and every retry
    /// — which runs on the calling thread — succeeds.
    struct WorkerShySum;
    impl DncTask for WorkerShySum {
        type Item = i64;
        type Acc = i64;
        fn identity(&self) -> i64 {
            0
        }
        fn work(&self, chunk: &[i64]) -> i64 {
            if std::thread::current().name().is_none() {
                panic!("no tasks on worker threads");
            }
            chunk.iter().sum()
        }
        fn join(&self, l: i64, r: i64) -> i64 {
            l + r
        }
    }

    /// Sum that panics on any slice shorter than the whole input — the
    /// parallel plan always fails (attempt and retry see chunk-sized
    /// slices) while the sequential fallback succeeds.
    struct SmallSlicePanic {
        full_len: usize,
    }
    impl DncTask for SmallSlicePanic {
        type Item = i64;
        type Acc = i64;
        fn identity(&self) -> i64 {
            0
        }
        fn work(&self, chunk: &[i64]) -> i64 {
            assert!(chunk.len() >= self.full_len, "injected: chunk too small");
            chunk.iter().sum()
        }
        fn join(&self, l: i64, r: i64) -> i64 {
            l + r
        }
    }

    /// A task that panics on every slice, even the full input.
    struct AlwaysPanics;
    impl DncTask for AlwaysPanics {
        type Item = i64;
        type Acc = i64;
        fn identity(&self) -> i64 {
            0
        }
        fn work(&self, _chunk: &[i64]) -> i64 {
            panic!("broken task")
        }
        fn join(&self, l: i64, r: i64) -> i64 {
            l + r
        }
    }

    #[test]
    fn transient_worker_panics_recover_via_retry() {
        let d = data(1_000);
        let seq = seq(&Sum, &d);
        for backend in [Backend::Static, Backend::WorkStealing] {
            let cfg = RunConfig {
                threads: 4,
                grain: 100,
                backend,
            };
            let out = Executor::new(cfg).run(&WorkerShySum, &d).unwrap();
            assert_eq!(out.value, seq, "backend {backend:?}");
            assert!(!out.degraded, "backend {backend:?} should recover in place");
            assert!(out.recovered_chunks > 0, "backend {backend:?}");
        }
    }

    #[test]
    fn persistent_worker_panics_degrade_to_sequential() {
        let d = data(300);
        let seq = seq(&Sum, &d);
        let task = SmallSlicePanic { full_len: d.len() };
        for backend in [Backend::Static, Backend::WorkStealing] {
            let cfg = RunConfig {
                threads: 4,
                grain: 100,
                backend,
            };
            let out = Executor::new(cfg).run(&task, &d).unwrap();
            assert_eq!(out.value, seq, "backend {backend:?}");
            assert!(out.degraded, "backend {backend:?} should have degraded");
        }
        // The infallible wrapper recovers transparently too.
        assert_eq!(
            par(&task, &d, RunConfig::work_stealing(4).with_grain(100)),
            seq
        );
    }

    #[test]
    fn broken_task_is_a_typed_error() {
        let d = data(300);
        let cfg = RunConfig::work_stealing(4).with_grain(100);
        let err = Executor::new(cfg).run(&AlwaysPanics, &d).unwrap_err();
        let RuntimeError::WorkerPanicked { payload, .. } = err;
        assert_eq!(payload, "broken task");
    }

    #[test]
    fn panicking_join_degrades_to_sequential() {
        /// Work succeeds but every join panics: the guarded reduction
        /// must hand over to the sequential fallback.
        struct JoinPanics;
        impl DncTask for JoinPanics {
            type Item = i64;
            type Acc = i64;
            fn identity(&self) -> i64 {
                0
            }
            fn work(&self, chunk: &[i64]) -> i64 {
                chunk.iter().sum()
            }
            fn join(&self, _l: i64, _r: i64) -> i64 {
                panic!("broken join")
            }
        }
        let d = data(300);
        let out = Executor::new(RunConfig::static_schedule(3).with_grain(50))
            .run(&JoinPanics, &d)
            .unwrap();
        assert_eq!(out.value, seq(&Sum, &d));
        assert!(out.degraded);
    }

    #[test]
    fn map_only_recovers_from_worker_panics() {
        /// Count positives, but map panics on unnamed (worker) threads.
        struct WorkerShyCount;
        impl MapOnlyTask for WorkerShyCount {
            type Item = i64;
            type Mapped = bool;
            type Acc = usize;
            fn init(&self) -> usize {
                0
            }
            fn map(&self, item: &i64) -> bool {
                if std::thread::current().name().is_none() {
                    panic!("no maps on worker threads");
                }
                *item > 0
            }
            fn fold(&self, acc: usize, mapped: bool) -> usize {
                acc + usize::from(mapped)
            }
        }
        let d = data(1_000);
        let seq = map_only(&CountPositive, &d, 1);
        let out = Executor::new(RunConfig::default().with_threads(4))
            .run_map_only(&WorkerShyCount, &d)
            .unwrap();
        assert_eq!(out.value, seq);
        assert!(!out.degraded);
        assert_eq!(out.recovered_chunks, 4);
    }

    #[test]
    fn map_only_fold_panic_degrades_to_sequential() {
        use std::sync::atomic::AtomicUsize;
        /// Count positives, but the first fold call ever panics — the
        /// guarded fold phase fails, the sequential fallback succeeds.
        struct FlakyFold {
            calls: AtomicUsize,
        }
        impl MapOnlyTask for FlakyFold {
            type Item = i64;
            type Mapped = bool;
            type Acc = usize;
            fn init(&self) -> usize {
                0
            }
            fn map(&self, item: &i64) -> bool {
                *item > 0
            }
            fn fold(&self, acc: usize, mapped: bool) -> usize {
                if self.calls.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("flaky fold");
                }
                acc + usize::from(mapped)
            }
        }
        let d = data(1_000);
        let seq = map_only(&CountPositive, &d, 1);
        let task = FlakyFold {
            calls: AtomicUsize::new(0),
        };
        let out = Executor::new(RunConfig::default().with_threads(4))
            .run_map_only(&task, &d)
            .unwrap();
        assert_eq!(out.value, seq);
        assert!(out.degraded);
    }

    #[test]
    fn worker_panics_and_fallback_are_traced() {
        use parsynt_trace::sinks::PhaseAggregator;
        let agg = PhaseAggregator::new();
        let _guard = trace::set_ambient(trace::Tracer::from_sink(agg.clone()));
        let d = data(300);
        let task = SmallSlicePanic { full_len: d.len() };
        let cfg = RunConfig::work_stealing(4).with_grain(100);
        let out = Executor::new(cfg).run(&task, &d).unwrap();
        assert!(out.degraded);
        let counters = agg.counters();
        // Chunk/join counters still reflect the attempted parallel plan.
        assert_eq!(counters["execute.chunks"], 3);
    }
}
