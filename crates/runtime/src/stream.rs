//! Streaming online aggregation over the synthesized homomorphism join.
//!
//! The paper's core guarantee — the synthesized join `⊙` is a
//! homomorphism, `h(x • y) = h(x) ⊙ h(y)` — is exactly what makes
//! incremental evaluation sound: the aggregate of a prefix can be
//! extended by one more chunk without revisiting anything already
//! consumed. A [`StreamSession`] exploits this to process chunked or
//! unbounded input (an iterator of chunks, a [`ReaderChunks`] text
//! source, or a [`PagedFileChunks`] out-of-core binary file larger than
//! RAM) while holding only the running aggregate and the current chunk
//! in memory.
//!
//! ```
//! use parsynt_runtime::{DncTask, Executor, RunConfig};
//! struct Sum;
//! impl DncTask for Sum {
//!     type Item = i64;
//!     type Acc = i64;
//!     fn identity(&self) -> i64 { 0 }
//!     fn work(&self, chunk: &[i64]) -> i64 { chunk.iter().sum() }
//!     fn join(&self, l: i64, r: i64) -> i64 { l + r }
//! }
//! let exec = Executor::new(RunConfig::work_stealing(2).with_grain(64));
//! let mut session = exec.stream(&Sum);
//! session.push_chunk(&[1, 2, 3]).unwrap();
//! let mid = session.snapshot(); // progressive partial-prefix result
//! assert_eq!((mid.value, mid.elements), (6, 3));
//! session.push_chunk(&[4, 5]).unwrap();
//! assert_eq!(session.finish().value, 15);
//! ```
//!
//! Each pushed chunk runs through the same panic-isolated parallel
//! machinery as a batch [`Executor::run`]: a faulting sub-chunk is
//! retried once and a persistent failure degrades *that stream chunk
//! only* to a sequential re-run, so the end-of-input aggregate stays
//! byte-identical to the batch path. A session opened by
//! [`Executor::stream_ranges`] takes each chunk as a range task of its
//! own, divide-and-conquer or map-only; this is how `parsynt-core`
//! streams synthesized plans. Under the `fault-inject` feature
//! the executor's [`crate::faults::FaultPlan`] applies to every chunk;
//! fault sites are chunk-local (the same plan faults the same sub-chunk
//! positions in every stream chunk), keeping recovery deterministic for
//! any fixed chunking.
//!
//! Trace events (phase `execute`): `stream_chunk` per pushed chunk,
//! `stream_snapshot` per snapshot, and a `stream_elements` counter.

use crate::error::RuntimeError;
use crate::executor::{catch, emit_worker_panic, Executor};
use crate::task::{DncTask, RangeMapTask, RangeTask, Slice};
use parsynt_trace as trace;
use std::fs::File;
use std::io::{self, BufRead};
use std::path::Path;
use std::time::{Duration, Instant};

/// A progressive partial-prefix result: the aggregate of everything the
/// session has consumed so far.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamSnapshot<A> {
    /// Stream chunks consumed so far.
    pub chunks: usize,
    /// Elements (outer-dimension items) consumed so far.
    pub elements: u64,
    /// The aggregate over the consumed prefix — by the homomorphism law
    /// equal to `work` on the concatenation of every chunk so far.
    pub value: A,
    /// Wall clock since the session opened.
    pub elapsed: Duration,
    /// Stream chunks that degraded to a sequential re-run.
    pub degraded_chunks: usize,
    /// Sub-chunk attempts that panicked (or were poisoned) and whose
    /// retry succeeded.
    pub recovered_chunks: usize,
}

impl<A> StreamSnapshot<A> {
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

/// The end-of-input result of a streaming run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome<A> {
    /// The aggregate over the whole stream.
    pub value: A,
    /// Total stream chunks consumed.
    pub chunks: usize,
    /// Total elements consumed.
    pub elements: u64,
    /// Wall clock from session open to finish.
    pub elapsed: Duration,
    /// Stream chunks that degraded to a sequential re-run.
    pub degraded_chunks: usize,
    /// Sub-chunk attempts recovered by the single retry.
    pub recovered_chunks: usize,
}

/// What can go wrong driving an I/O-backed stream: the source failed, or
/// the task itself is broken.
#[derive(Debug)]
pub enum StreamError {
    /// The chunk source failed to produce a chunk.
    Io(io::Error),
    /// A chunk or join panicked even after retry and sequential re-run.
    Runtime(RuntimeError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "stream source error: {e}"),
            StreamError::Runtime(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> Self {
        StreamError::Io(e)
    }
}

impl From<RuntimeError> for StreamError {
    fn from(e: RuntimeError) -> Self {
        StreamError::Runtime(e)
    }
}

/// An open streaming aggregation: push chunks, snapshot the running
/// prefix aggregate on demand, finish for the total.
///
/// [`Executor::stream`] opens a session over one slice task `T`
/// (consumed with [`StreamSession::push_chunk`]);
/// [`Executor::stream_ranges`] opens one (`T = ()`) whose chunks are
/// range tasks of their own, divide-and-conquer
/// ([`StreamSession::push`]) or map-only ([`StreamSession::push_map`]),
/// sharing the accumulator type `A`. Every chunk runs on the executor
/// with its configuration (and fault schedule); the recovery for a join
/// that keeps failing lives here.
pub struct StreamSession<'e, A, T = ()> {
    exec: &'e Executor,
    task: T,
    acc: A,
    chunks: usize,
    elements: u64,
    degraded_chunks: usize,
    recovered_chunks: usize,
    started: Instant,
}

impl<'e, A, T> StreamSession<'e, A, T> {
    /// A session whose aggregate is `start` until the first chunk.
    pub(crate) fn new(exec: &'e Executor, task: T, start: A) -> Self {
        StreamSession {
            exec,
            task,
            acc: start,
            chunks: 0,
            elements: 0,
            degraded_chunks: 0,
            recovered_chunks: 0,
            started: Instant::now(),
        }
    }

    /// The aggregate over the consumed prefix (before any chunk: the
    /// slice task's identity, or the start value of
    /// [`Executor::stream_ranges`]).
    pub fn value(&self) -> &A {
        &self.acc
    }

    /// Elements consumed so far.
    pub fn elements(&self) -> u64 {
        self.elements
    }

    /// Stream chunks consumed so far.
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    /// Close the session and return the end-of-input aggregate.
    pub fn finish(self) -> StreamOutcome<A> {
        StreamOutcome {
            value: self.acc,
            chunks: self.chunks,
            elements: self.elements,
            elapsed: self.started.elapsed(),
            degraded_chunks: self.degraded_chunks,
            recovered_chunks: self.recovered_chunks,
        }
    }

    fn record(&mut self, value: A, items: usize, degraded: bool, recovered: usize) {
        let chunk = self.chunks;
        self.acc = value;
        self.chunks += 1;
        self.elements += items as u64;
        self.degraded_chunks += usize::from(degraded);
        self.recovered_chunks += recovered;
        if trace::enabled() {
            trace::point(
                "execute",
                "stream_chunk",
                &[
                    ("chunk", chunk.into()),
                    ("items", items.into()),
                    ("degraded", degraded.into()),
                    ("recovered", recovered.into()),
                ],
            );
            trace::counter("execute", "stream_elements", items as u64);
        }
    }
}

impl<A: Clone + Send, T> StreamSession<'_, A, T> {
    /// Consume one divide-and-conquer chunk: run `task` through the
    /// executor's panic-isolated parallel machinery, then extend the
    /// running aggregate with its join (the first chunk's value becomes
    /// the aggregate). Empty chunks are skipped. A panicking join is
    /// retried once on cloned operands; if it panics again, the chunk
    /// is re-run sequentially from the running state
    /// ([`RangeTask::resume`]) and counts as degraded.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::WorkerPanicked`] when even the sequential re-run
    /// panics, or the join panics twice and the task cannot resume. The
    /// session is left unchanged in that case.
    pub fn push<R: RangeTask<Acc = A>>(&mut self, task: &R) -> Result<(), RuntimeError> {
        let n = task.len();
        if n == 0 {
            return Ok(());
        }
        let chunk = self.chunks;
        let out = self.exec.run_range(task)?;
        let mut degraded = out.degraded;
        let mut recovered = out.recovered_chunks;
        let value = if chunk == 0 {
            out.value
        } else {
            match join_guarded(task, &self.acc, out.value, chunk) {
                Ok((joined, retried)) => {
                    recovered += usize::from(retried);
                    joined
                }
                Err(err) => match catch(|| task.resume(&self.acc, 0, n)) {
                    Ok(Some(value)) => {
                        degraded = true;
                        value
                    }
                    Ok(None) => return Err(err),
                    Err(payload) => return Err(RuntimeError::WorkerPanicked { chunk, payload }),
                },
            }
        };
        self.record(value, n, degraded, recovered);
        Ok(())
    }

    /// Consume one map-only chunk: map its rows in parallel and continue
    /// the sequential fold from the running state (from `task.init()`
    /// for the first chunk). Empty chunks are skipped; recovery is
    /// [`Executor::run_map_range`]'s, the sequential re-run starting
    /// from the running state.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::WorkerPanicked`] when even the sequential re-run
    /// panics. The session is left unchanged in that case.
    pub fn push_map<R: RangeMapTask<Acc = A>>(&mut self, task: &R) -> Result<(), RuntimeError> {
        let n = task.len();
        if n == 0 {
            return Ok(());
        }
        let out = if self.chunks == 0 {
            self.exec.map_from(task, &|| task.init())?
        } else {
            let prefix = &self.acc;
            self.exec.map_from(task, &|| prefix.clone())?
        };
        self.record(out.value, n, out.degraded, out.recovered_chunks);
        Ok(())
    }

    /// The progressive partial-prefix result: aggregate value, elements
    /// consumed, and wall clock.
    pub fn snapshot(&self) -> StreamSnapshot<A> {
        let snap = StreamSnapshot {
            chunks: self.chunks,
            elements: self.elements,
            value: self.acc.clone(),
            elapsed: self.started.elapsed(),
            degraded_chunks: self.degraded_chunks,
            recovered_chunks: self.recovered_chunks,
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
        snap
    }
}

impl<'e, T: DncTask> StreamSession<'e, T::Acc, &'e T>
where
    T::Acc: Clone,
{
    /// Consume one chunk of the session's slice task as a range task
    /// (see [`StreamSession::push`]). A slice task cannot resume from a
    /// state, so a join that panics twice is an error.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::WorkerPanicked`] only when even the sequential
    /// re-run of the chunk (or the join retry) panics — i.e. the task
    /// itself is broken. The session is left unchanged in that case.
    pub fn push_chunk(&mut self, chunk: &[T::Item]) -> Result<(), RuntimeError> {
        let task = self.task;
        self.push(&Slice::new(task, chunk))
    }
}

/// Join with panic isolation: retry once on cloned operands. Returns
/// whether the retry path was taken.
fn join_guarded<T: RangeTask>(
    task: &T,
    left: &T::Acc,
    right: T::Acc,
    chunk: usize,
) -> Result<(T::Acc, bool), RuntimeError>
where
    T::Acc: Clone,
{
    let payload = match catch(|| task.join(left.clone(), right.clone())) {
        Ok(acc) => return Ok((acc, false)),
        Err(payload) => payload,
    };
    emit_worker_panic(chunk, 0, &payload);
    catch(|| task.join(left.clone(), right))
        .map(|acc| (acc, true))
        .map_err(|payload| {
            emit_worker_panic(chunk, 1, &payload);
            RuntimeError::WorkerPanicked { chunk, payload }
        })
}

/// Chunked text source: parses whitespace-separated `i64`s from any
/// [`BufRead`] into chunks of at most `chunk_len` items — `stdin`, a
/// pipe, or a log file streamed without ever materializing the whole
/// input.
pub struct ReaderChunks<R: BufRead> {
    reader: R,
    chunk_len: usize,
    carry: Vec<i64>,
    done: bool,
}

impl<R: BufRead> ReaderChunks<R> {
    /// Chunk `reader` into vectors of at most `chunk_len` parsed items.
    pub fn new(reader: R, chunk_len: usize) -> Self {
        ReaderChunks {
            reader,
            chunk_len: chunk_len.max(1),
            carry: Vec::new(),
            done: false,
        }
    }
}

impl<R: BufRead> Iterator for ReaderChunks<R> {
    type Item = io::Result<Vec<i64>>;

    fn next(&mut self) -> Option<io::Result<Vec<i64>>> {
        if self.done {
            return None;
        }
        let mut chunk = std::mem::take(&mut self.carry);
        let mut line = String::new();
        while chunk.len() < self.chunk_len {
            line.clear();
            match self.reader.read_line(&mut line) {
                Ok(0) => {
                    self.done = true;
                    break;
                }
                Ok(_) => {}
                Err(e) => {
                    self.done = true;
                    return Some(Err(e));
                }
            }
            for token in line.split_whitespace() {
                match token.parse::<i64>() {
                    Ok(v) => chunk.push(v),
                    Err(_) => {
                        self.done = true;
                        return Some(Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("not an integer: `{token}`"),
                        )));
                    }
                }
            }
        }
        // A long line can overshoot the chunk length; carry the excess
        // into the next chunk so chunk boundaries stay deterministic.
        if chunk.len() > self.chunk_len {
            self.carry = chunk.split_off(self.chunk_len);
        }
        if chunk.is_empty() {
            None
        } else {
            Some(Ok(chunk))
        }
    }
}

/// Out-of-core chunk source over a binary file of little-endian `i64`
/// records: fixed-size windows are paged in with positioned reads
/// (`pread`), the portable stand-in for an mmap'd view — only one
/// window is ever resident, so files larger than RAM stream fine.
#[cfg(unix)]
pub struct PagedFileChunks {
    file: File,
    window_items: usize,
    next_item: u64,
    total_items: u64,
}

#[cfg(unix)]
impl PagedFileChunks {
    /// Open `path` and page it in windows of `window_items` records.
    ///
    /// # Errors
    ///
    /// Propagates `open`/`metadata` failures; a file whose length is not
    /// a multiple of 8 bytes is invalid data.
    pub fn open(path: &Path, window_items: usize) -> io::Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len % 8 != 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("file length {len} is not a multiple of 8-byte records"),
            ));
        }
        Ok(PagedFileChunks {
            file,
            window_items: window_items.max(1),
            next_item: 0,
            total_items: len / 8,
        })
    }

    /// Total records in the file.
    pub fn total_items(&self) -> u64 {
        self.total_items
    }
}

#[cfg(unix)]
impl Iterator for PagedFileChunks {
    type Item = io::Result<Vec<i64>>;

    fn next(&mut self) -> Option<io::Result<Vec<i64>>> {
        use std::os::unix::fs::FileExt;
        if self.next_item >= self.total_items {
            return None;
        }
        let take = (self.total_items - self.next_item).min(self.window_items as u64) as usize;
        let mut raw = vec![0u8; take * 8];
        if let Err(e) = self.file.read_exact_at(&mut raw, self.next_item * 8) {
            self.next_item = self.total_items;
            return Some(Err(e));
        }
        self.next_item += take as u64;
        let window = raw
            .chunks_exact(8)
            .map(|b| i64::from_le_bytes(b.try_into().expect("8-byte chunk")))
            .collect();
        Some(Ok(window))
    }
}

/// Write a slice as the little-endian `i64` record format
/// [`PagedFileChunks`] reads — the fixture half of the out-of-core path
/// (benchmarks and tests generate inputs with it).
#[cfg(unix)]
pub fn write_i64_records(path: &Path, values: &[i64]) -> io::Result<()> {
    use std::io::Write;
    let mut out = io::BufWriter::new(File::create(path)?);
    for v in values {
        out.write_all(&v.to_le_bytes())?;
    }
    out.flush()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::executor::RunConfig;

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

    /// Non-commutative concatenation: catches reordered, dropped, or
    /// duplicated chunks.
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

    fn data(n: usize) -> Vec<i64> {
        (0..n as i64).map(|x| (x * 7919) % 211 - 100).collect()
    }

    #[test]
    fn stream_equals_batch_for_any_chunking() {
        let d = data(5_000);
        let exec = Executor::new(RunConfig::work_stealing(3).with_grain(64));
        let batch = exec.run_sequential(&Concat, &d);
        for chunk_len in [1, 7, 64, 1_000, 5_000, 9_999] {
            let out = exec.run_stream(&Concat, d.chunks(chunk_len)).unwrap();
            assert_eq!(out.value, batch, "chunk_len {chunk_len}");
            assert_eq!(out.elements, d.len() as u64);
            assert_eq!(out.degraded_chunks, 0);
        }
    }

    #[test]
    fn snapshots_are_prefix_aggregates() {
        let d = data(1_000);
        let exec = Executor::new(RunConfig::work_stealing(2).with_grain(32));
        let mut session = exec.stream(&Concat);
        let mut consumed = 0usize;
        for chunk in d.chunks(137) {
            session.push_chunk(chunk).unwrap();
            consumed += chunk.len();
            let snap = session.snapshot();
            assert_eq!(snap.value, d[..consumed], "prefix of {consumed}");
            assert_eq!(snap.elements, consumed as u64);
        }
        assert_eq!(session.finish().value, d);
    }

    #[test]
    fn empty_stream_and_empty_chunks_yield_identity() {
        let exec = Executor::default();
        let out = exec.run_stream(&Sum, Vec::<Vec<i64>>::new()).unwrap();
        assert_eq!((out.value, out.chunks, out.elements), (0, 0, 0));
        let mut session = exec.stream(&Sum);
        session.push_chunk(&[]).unwrap();
        assert_eq!(session.snapshot().value, 0);
        let out = session.finish();
        assert_eq!((out.value, out.chunks), (0, 0));
    }

    #[test]
    fn persistent_chunk_failure_degrades_that_chunk_only() {
        /// Panics on any slice smaller than a whole 100-element stream
        /// chunk: every parallel sub-chunk attempt fails, the sequential
        /// re-run of the full chunk succeeds.
        struct SmallSlicePanic;
        impl DncTask for SmallSlicePanic {
            type Item = i64;
            type Acc = i64;
            fn identity(&self) -> i64 {
                0
            }
            fn work(&self, chunk: &[i64]) -> i64 {
                assert!(chunk.len() >= 100, "injected: chunk too small");
                chunk.iter().sum()
            }
            fn join(&self, l: i64, r: i64) -> i64 {
                l + r
            }
        }
        let d = data(500);
        let exec = Executor::new(RunConfig::work_stealing(4).with_grain(10));
        let out = exec.run_stream(&SmallSlicePanic, d.chunks(100)).unwrap();
        assert_eq!(out.value, d.iter().sum::<i64>());
        assert_eq!(out.degraded_chunks, 5, "every chunk degraded in place");
    }

    #[test]
    fn map_only_chunks_fold_on_from_the_running_state() {
        /// Running count of positives after each element: the fold
        /// must continue from the previous chunk's state.
        struct PrefixCounts;
        impl crate::task::MapOnlyTask for PrefixCounts {
            type Item = i64;
            type Mapped = bool;
            type Acc = Vec<usize>;
            fn init(&self) -> Vec<usize> {
                Vec::new()
            }
            fn map(&self, item: &i64) -> bool {
                *item > 0
            }
            fn fold(&self, mut acc: Vec<usize>, positive: bool) -> Vec<usize> {
                acc.push(acc.last().copied().unwrap_or(0) + usize::from(positive));
                acc
            }
        }
        let d = data(500);
        let exec = Executor::new(RunConfig::work_stealing(3));
        let whole = exec.run_map_only(&PrefixCounts, &d).unwrap().value;
        let mut session = exec.stream_ranges(Vec::new());
        for chunk in d.chunks(77) {
            session
                .push_map(&crate::task::SliceMap::new(&PrefixCounts, chunk))
                .unwrap();
            let n = session.elements() as usize;
            assert_eq!(session.snapshot().value, whole[..n]);
        }
        assert_eq!(session.finish().value, whole);
    }

    #[test]
    fn broken_join_resumes_the_chunk_from_the_running_state() {
        /// Sum over a slice whose join always panics but which can
        /// continue a running sum: every chunk after the first is
        /// re-run sequentially from the prefix.
        struct Resumable<'a>(&'a [i64]);
        impl RangeTask for Resumable<'_> {
            type Acc = i64;
            fn len(&self) -> usize {
                self.0.len()
            }
            fn work(&self, lo: usize, hi: usize) -> i64 {
                self.0[lo..hi].iter().sum()
            }
            fn join(&self, _l: i64, _r: i64) -> i64 {
                panic!("broken join")
            }
            fn resume(&self, prefix: &i64, lo: usize, hi: usize) -> Option<i64> {
                Some(prefix + self.work(lo, hi))
            }
        }
        let d = data(300);
        let exec = Executor::new(RunConfig::work_stealing(2).with_grain(1_000));
        let mut session = exec.stream_ranges(0);
        for chunk in d.chunks(70) {
            session.push(&Resumable(chunk)).unwrap();
        }
        assert_eq!(*session.value(), d.iter().sum::<i64>());
        let out = session.finish();
        assert_eq!((out.chunks, out.degraded_chunks), (5, 4));
    }

    #[test]
    fn broken_join_is_a_typed_error_and_preserves_the_prefix() {
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
        let exec = Executor::default();
        let mut session = exec.stream(&JoinPanics);
        session.push_chunk(&[1, 2, 3]).unwrap();
        let err = session.push_chunk(&[4]).unwrap_err();
        let RuntimeError::WorkerPanicked { payload, .. } = err;
        assert_eq!(payload, "broken join");
        // The prefix aggregate survived the failed push.
        assert_eq!(session.snapshot().value, 6);
    }

    #[test]
    fn reader_chunks_parse_and_chunk_deterministically() {
        let text = "1 2 3\n4\n\n5 6\n7 8 9 10\n";
        let chunks: Vec<Vec<i64>> = ReaderChunks::new(text.as_bytes(), 4)
            .collect::<io::Result<_>>()
            .unwrap();
        assert_eq!(
            chunks,
            vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8], vec![9, 10]]
        );
        let exec = Executor::default();
        let out = exec
            .run_stream_io(&Sum, ReaderChunks::new(text.as_bytes(), 4))
            .unwrap();
        assert_eq!(out.value, 55);
        assert_eq!(out.elements, 10);

        let err = exec
            .run_stream_io(&Sum, ReaderChunks::new("1 two 3".as_bytes(), 4))
            .unwrap_err();
        assert!(matches!(err, StreamError::Io(_)), "{err:?}");
    }

    #[cfg(unix)]
    #[test]
    fn paged_file_chunks_round_trip_out_of_core() {
        let d = data(10_000);
        let path =
            std::env::temp_dir().join(format!("parsynt-paged-chunks-{}.bin", std::process::id()));
        write_i64_records(&path, &d).unwrap();

        let source = PagedFileChunks::open(&path, 777).unwrap();
        assert_eq!(source.total_items(), d.len() as u64);
        let exec = Executor::new(RunConfig::work_stealing(2).with_grain(100));
        let out = exec.run_stream_io(&Concat, source).unwrap();
        assert_eq!(out.value, d, "paged windows re-concatenate exactly");
        assert_eq!(out.chunks, d.len().div_ceil(777));

        // A truncated (non-record-aligned) file is invalid data.
        std::fs::write(&path, [1u8, 2, 3]).unwrap();
        assert!(PagedFileChunks::open(&path, 10).is_err());
        std::fs::remove_file(&path).ok();
    }
}
