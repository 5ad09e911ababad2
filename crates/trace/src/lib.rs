//! # parsynt-trace
//!
//! A lightweight structured-event layer for observing the synthesis
//! pipeline. The hot paths of `rewrite`, `synth`, `lift`, `core` and
//! `runtime` emit [`Event`]s — phase-scoped timers ([`Span`]s),
//! counters and key-value points — into a [`TraceSink`] chosen by the
//! caller. When no sink is installed every emission is a cheap no-op
//! (one thread-local lookup, no allocation), so instrumentation can
//! live permanently in library code.
//!
//! ## Event schema
//!
//! Every event carries the same envelope, serialized as one JSON
//! object per line by [`WriterSink`]:
//!
//! | field    | type   | meaning                                              |
//! |----------|--------|------------------------------------------------------|
//! | `seq`    | u64    | monotone sequence number, unique per [`Tracer`]      |
//! | `t_us`   | u64    | microseconds since the tracer was created            |
//! | `phase`  | string | pipeline phase (see below)                           |
//! | `name`   | string | event name within the phase                          |
//! | `kind`   | string | `"span"`, `"counter"` or `"point"`                   |
//! | `dur_us` | u64    | (`span` only) wall-clock duration of the span        |
//! | `value`  | u64    | (`counter` only) amount added to `phase.name`        |
//! | `fields` | object | optional key-value payload (string/int/float/bool)   |
//!
//! Kinds:
//!
//! * **`span`** — emitted when a [`Span`] is dropped; `dur_us` is the
//!   time between construction and drop. [`PhaseAggregator`] sums span
//!   durations per `phase` to produce the `phase_timings` of a
//!   `PipelineReport`.
//! * **`counter`** — a monotone count; [`PhaseAggregator`] sums
//!   `value` per `"phase.name"` key.
//! * **`point`** — a moment-in-time observation with a payload;
//!   [`PhaseAggregator`] counts occurrences per `"phase.name"` key.
//!
//! Phases used by the pipeline (Figure 7 of the paper):
//!
//! * `analyze` — loop-nest analysis and budget inference,
//! * `summarize` — memoryless lift (merge ⊚ synthesis, aux batches),
//! * `join_search` — homomorphism lift driver (rounds, aux pruning),
//! * `lift` — auxiliary-accumulator discovery attempts,
//! * `normalize` — rewrite-rule normalization passes (rule firings),
//! * `synthesize` — CEGIS join/merge search (rounds, candidates,
//!   sketch holes, promoted verify failures),
//! * `verify` — example-based verification passes,
//! * `execute` — runtime execution (chunks, per-worker chunk tallies,
//!   joins).
//!
//! Well-known event names include `normalize/rule_fired` (counter,
//! `fields.rule`), `synthesize/cegis_round` (point, `fields.round`),
//! `synthesize/enum_candidates` / `synthesize/enum_pruned` (counters),
//! `lift/aux_discovered` (point) and `execute/worker_chunks` (counter,
//! `fields.worker`).
//!
//! Parallel candidate screening (`SynthConfig::with_threads > 1`) adds:
//!
//! * `synthesize/par_screened` (counter) — total candidates screened by
//!   the worker pool;
//! * `synthesize/screen_worker` (point, `fields.worker`,
//!   `fields.screened`) — one per worker, its candidate tally;
//! * `synthesize/parallel_screen` (point, `fields.workers`,
//!   `fields.flushes`, `fields.screened`, `fields.cancel_latency_us`,
//!   `fields.winner`) — one per screened search, summarizing pool
//!   shape and the time between the first verified solution and full
//!   pool quiescence;
//! * `synthesize/eval_cache_hits` / `synthesize/eval_cache_misses`
//!   (counters) — memoized-evaluation hit rate of the hash-consed term
//!   pool (`parsynt-synth`'s `intern` module);
//! * the `synthesize/join` and `synthesize/merge` spans carry a
//!   `fields.threads` payload with the configured screening width.
//!
//! Robustness events (deadlines, panic isolation, cache bounds):
//!
//! * `schema/deadline_exceeded` (point, `fields.reason`,
//!   `fields.candidates`) — the synthesis [`Deadline`] expired and the
//!   run was converted into a typed `Unparallelizable` outcome;
//! * `execute/worker_panic` (point, `fields.chunk`, `fields.attempt`,
//!   `fields.payload`) — a worker panicked inside the executor's guard; the
//!   chunk is retried once on the coordinator;
//! * `execute/fallback_sequential` (point, `fields.failed_chunks`) —
//!   chunk retry also failed, so the whole plan re-ran sequentially
//!   (the report's `degraded` flag is set);
//! * `synthesize/eval_cache_evictions` (counter) — times the bounded
//!   `EvalCache` overflowed its capacity and was cleared wholesale;
//! * `synthesize/screen_panic` (counter) — candidates whose screening
//!   closure panicked (the candidate is treated as rejected).
//!
//! Every chunk of every run — native tasks and synthesized plans, batch
//! and streaming — is scheduled by `parsynt_runtime::Executor`:
//!
//! * `execute/run_parallel` (span, `fields.threads`, `fields.grain`,
//!   `fields.backend`, `fields.items`) — one per run cut into more than
//!   one chunk, at any thread count (a one-thread work-stealing run
//!   longer than a grain runs its chunks in order on the calling thread;
//!   a run of at most one grain is one chunk there and opens no span);
//! * `execute/chunks` (counter) — chunks of that run; `execute/joins`
//!   (counter) — its joins (divide-and-conquer runs only);
//! * `execute/worker_chunks` (counter, `fields.worker`) — the chunks
//!   one worker ran, one event per worker of a run spread over several
//!   threads, under either backend (a worker that finishes early claims
//!   the next chunk, so under work stealing the tallies show the load
//!   balance; under static scheduling each is 1).
//!
//! Streaming execution (`Executor::stream` / `Executor::stream_ranges` /
//! `run_stream_checked`):
//!
//! * `execute/stream_chunk` (point, `fields.chunk`, `fields.items`,
//!   `fields.degraded`, `fields.recovered`) — one per consumed chunk:
//!   its index, item count, and whether its parallel run degraded to
//!   (or recovered via) a chunk-local sequential re-run;
//! * `execute/stream_elements` (counter) — running total of streamed
//!   elements, for elements/sec derivation from event timestamps;
//! * `execute/stream_snapshot` (point, `fields.chunks`,
//!   `fields.elements`, `fields.elements_per_sec`) — one per emitted
//!   partial-prefix snapshot.
//!
//! Compiled execution (`parsynt-core`'s `compile` module, which runs
//! every synthesized plan the compiler covers):
//!
//! * `execute/compile_plan` (point, `fields.kind`, `fields.regs`,
//!   `fields.state_slots`, `fields.leaf_ops`, `fields.leaf_loads`,
//!   `fields.row_loops`, `fields.slice_folds`) — a plan was compiled to
//!   fused native chunk kernels; `kind` is `divide_and_conquer` or
//!   `map_only`, and the last four count the superinstruction forms the
//!   lowering used (operators on register/constant operands, loads with
//!   register/constant indices, row loops, and slice folds);
//! * `execute/compile_fallback` (point, `fields.reason`, and
//!   `fields.chunks` for chunk fallbacks) — something runs on the
//!   tree-walking interpreter instead of compiled kernels: the whole
//!   plan, when the compiler does not cover it (once per run or
//!   stream); a map-only run or stream chunk whose rows do not flatten;
//!   or executor chunks of a divide-and-conquer plan whose rows do not
//!   flatten, counted in `chunks` (chunk attempts, retries included) and
//!   reported from the calling thread after each batch run or stream
//!   chunk. The interpreted references (`run_plan_interpreted`,
//!   `run_stream_interpreted`) skip the compiler and never emit it;
//! * `execute/run_plan` (span, `fields.engine`, `fields.rows`) — one
//!   per batch plan run (`run_plan_checked`), `engine` being `compiled`
//!   or `interp`, so "which engine actually ran" is visible from any
//!   trace; `execute/run_stream` (span, `fields.engine`) — one per
//!   streamed plan run, wrapping every chunk;
//! * compiled and interpreted tasks run on the executor, so the chunk counters and the
//!   panic / degrade events (`worker_panic`, `fallback_sequential`) are
//!   the same events with identical payloads.
//!
//! ## Usage
//!
//! ```
//! use parsynt_trace::{set_ambient, CollectingSink, Tracer};
//!
//! let sink = CollectingSink::new();
//! let tracer = Tracer::from_sink(sink.clone());
//! {
//!     let _guard = set_ambient(tracer);
//!     let mut span = parsynt_trace::span("normalize", "pass");
//!     span.record("expansions", 17u64);
//!     parsynt_trace::counter("normalize", "rule_fired", 3);
//! } // guard dropped: ambient tracer uninstalled
//! assert_eq!(sink.events().len(), 2);
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use serde::{Deserialize, Serialize};

pub mod deadline;
pub mod sinks;

pub use deadline::{CancelToken, Deadline};
pub use sinks::{CollectingSink, FanoutSink, NullSink, PhaseAggregator, TaggedSink, WriterSink};

/// A typed scalar payload value attached to an [`Event`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(untagged)]
pub enum FieldValue {
    /// Boolean flag.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Floating-point number.
    Float(f64),
    /// String payload.
    Str(String),
}

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::Int(v)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::Int(v as i64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::Int(v as i64)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::Int(v as i64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::Float(v)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// What an [`Event`] measures. Serialized flattened into the event
/// envelope under a `"kind"` tag (see the crate-level schema table).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "kind", rename_all = "snake_case")]
pub enum EventKind {
    /// A completed timed region; `dur_us` is its wall-clock length.
    Span {
        /// Duration of the span in microseconds.
        dur_us: u64,
    },
    /// A monotone count added to the `phase.name` counter.
    Counter {
        /// Amount added.
        value: u64,
    },
    /// A moment-in-time observation carrying only `fields`.
    Point,
}

/// One structured trace event. See the crate-level docs for the
/// serialized schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Monotone per-tracer sequence number.
    pub seq: u64,
    /// Microseconds since the tracer's epoch.
    pub t_us: u64,
    /// Pipeline phase (`normalize`, `synthesize`, `execute`, …).
    pub phase: String,
    /// Event name within the phase.
    pub name: String,
    /// Span / counter / point discriminant plus its measurement.
    #[serde(flatten)]
    pub kind: EventKind,
    /// Optional key-value payload.
    #[serde(default, skip_serializing_if = "BTreeMap::is_empty")]
    pub fields: BTreeMap<String, FieldValue>,
}

/// Receives every [`Event`] a [`Tracer`] emits. Implementations must
/// be thread-safe: the runtime emits from the coordinating thread, but
/// sinks may be shared across pipeline and execution phases.
pub trait TraceSink: Send + Sync {
    /// Record one event. Called synchronously on the emitting thread.
    fn record(&self, event: &Event);
    /// Flush buffered output (file sinks). Default: no-op.
    fn flush(&self) {}
}

struct TracerInner {
    sink: Arc<dyn TraceSink>,
    epoch: Instant,
    seq: AtomicU64,
}

/// Handle that stamps and forwards events to a [`TraceSink`].
///
/// Cloning is cheap (an `Arc` bump); a [`Tracer::disabled`] tracer
/// drops every emission without allocating.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// A tracer forwarding to `sink`.
    pub fn new(sink: Arc<dyn TraceSink>) -> Self {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                sink,
                epoch: Instant::now(),
                seq: AtomicU64::new(0),
            })),
        }
    }

    /// Convenience wrapper over [`Tracer::new`] for owned sinks.
    pub fn from_sink<S: TraceSink + 'static>(sink: S) -> Self {
        Tracer::new(Arc::new(sink))
    }

    /// A tracer that drops every event.
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// Whether events reach a sink.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emit a raw event with the given kind and payload.
    pub fn emit(
        &self,
        phase: &str,
        name: &str,
        kind: EventKind,
        fields: BTreeMap<String, FieldValue>,
    ) {
        if let Some(inner) = &self.inner {
            let event = Event {
                seq: inner.seq.fetch_add(1, Ordering::Relaxed),
                t_us: inner.epoch.elapsed().as_micros() as u64,
                phase: phase.to_string(),
                name: name.to_string(),
                kind,
                fields,
            };
            inner.sink.record(&event);
        }
    }

    /// Emit a counter event adding `value` to `phase.name`.
    pub fn counter(&self, phase: &str, name: &str, value: u64) {
        self.emit(phase, name, EventKind::Counter { value }, BTreeMap::new());
    }

    /// Emit a counter event with a payload.
    pub fn counter_with(&self, phase: &str, name: &str, value: u64, fields: &[(&str, FieldValue)]) {
        self.emit(phase, name, EventKind::Counter { value }, to_map(fields));
    }

    /// Emit a point event with a payload.
    pub fn point(&self, phase: &str, name: &str, fields: &[(&str, FieldValue)]) {
        self.emit(phase, name, EventKind::Point, to_map(fields));
    }

    /// Start a timed span; the event is emitted when the span drops.
    pub fn span(&self, phase: &str, name: &str) -> Span {
        self.span_with(phase, name, &[])
    }

    /// Start a timed span carrying `fields` from the outset (e.g. a
    /// request id). [`Span::record`] can still add or override fields
    /// before the span drops.
    pub fn span_with(&self, phase: &str, name: &str, fields: &[(&str, FieldValue)]) -> Span {
        Span {
            tracer: self.clone(),
            data: self.inner.as_ref().map(|_| SpanData {
                phase: phase.to_string(),
                name: name.to_string(),
                start: Instant::now(),
                fields: to_map(fields),
            }),
        }
    }

    /// Ask the underlying sink to flush buffered output.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }
}

fn to_map(fields: &[(&str, FieldValue)]) -> BTreeMap<String, FieldValue> {
    fields
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

struct SpanData {
    phase: String,
    name: String,
    start: Instant,
    fields: BTreeMap<String, FieldValue>,
}

/// RAII phase timer: created via [`Tracer::span`] or the free
/// [`span`] function, emits an [`EventKind::Span`] event with the
/// elapsed time (and any [`Span::record`]ed fields) on drop.
pub struct Span {
    tracer: Tracer,
    data: Option<SpanData>,
}

impl Span {
    /// Attach a key-value field to the span-end event.
    pub fn record(&mut self, key: &str, value: impl Into<FieldValue>) {
        if let Some(data) = &mut self.data {
            data.fields.insert(key.to_string(), value.into());
        }
    }

    /// Whether this span reaches a sink (false under a disabled tracer).
    pub fn is_enabled(&self) -> bool {
        self.data.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(data) = self.data.take() {
            let dur_us = data.start.elapsed().as_micros() as u64;
            self.tracer.emit(
                &data.phase,
                &data.name,
                EventKind::Span { dur_us },
                data.fields,
            );
        }
    }
}

thread_local! {
    static AMBIENT: RefCell<Vec<Tracer>> = const { RefCell::new(Vec::new()) };
}

/// Install `tracer` as this thread's ambient tracer until the returned
/// guard drops. Nested installs form a stack; the innermost wins.
#[must_use = "the ambient tracer is uninstalled when the guard drops"]
pub fn set_ambient(tracer: Tracer) -> AmbientGuard {
    AMBIENT.with(|stack| stack.borrow_mut().push(tracer));
    AmbientGuard { _priv: () }
}

/// Uninstalls the ambient tracer installed by [`set_ambient`] on drop.
pub struct AmbientGuard {
    _priv: (),
}

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        AMBIENT.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

/// The current thread's ambient tracer ([`Tracer::disabled`] if none).
pub fn ambient() -> Tracer {
    AMBIENT.with(|stack| stack.borrow().last().cloned().unwrap_or_default())
}

/// Whether an enabled ambient tracer is installed on this thread.
pub fn enabled() -> bool {
    AMBIENT.with(|stack| {
        stack
            .borrow()
            .last()
            .map(|t| t.is_enabled())
            .unwrap_or(false)
    })
}

/// Start a timed span on the ambient tracer.
pub fn span(phase: &str, name: &str) -> Span {
    ambient().span(phase, name)
}

/// Start a timed span with initial fields on the ambient tracer.
pub fn span_with(phase: &str, name: &str, fields: &[(&str, FieldValue)]) -> Span {
    ambient().span_with(phase, name, fields)
}

/// Emit a counter on the ambient tracer.
pub fn counter(phase: &str, name: &str, value: u64) {
    ambient().counter(phase, name, value)
}

/// Emit a counter with a payload on the ambient tracer.
pub fn counter_with(phase: &str, name: &str, value: u64, fields: &[(&str, FieldValue)]) {
    ambient().counter_with(phase, name, value, fields)
}

/// Emit a point event on the ambient tracer.
pub fn point(phase: &str, name: &str, fields: &[(&str, FieldValue)]) {
    ambient().point(phase, name, fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn disabled_tracer_emits_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        tracer.counter("normalize", "rule_fired", 3);
        let mut span = tracer.span("synthesize", "join");
        assert!(!span.is_enabled());
        span.record("round", 1u64);
        drop(span);
        // Nothing to assert against — the point is that none of the
        // above panics or allocates a sink.
    }

    #[test]
    fn events_are_sequenced_and_stamped() {
        let sink = CollectingSink::new();
        let tracer = Tracer::from_sink(sink.clone());
        tracer.counter("normalize", "rule_fired", 2);
        tracer.point("lift", "aux_discovered", &[("hint", "min".into())]);
        {
            let mut span = tracer.span("synthesize", "join");
            span.record("vars", 3usize);
        }
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(events[0].kind, EventKind::Counter { value: 2 });
        assert_eq!(events[1].fields["hint"], FieldValue::Str("min".into()));
        match events[2].kind {
            EventKind::Span { .. } => {}
            ref other => panic!("expected span end, got {other:?}"),
        }
        assert_eq!(events[2].fields["vars"], FieldValue::Int(3));
    }

    #[test]
    fn ambient_stack_nests_and_restores() {
        assert!(!enabled());
        let outer = CollectingSink::new();
        let inner = CollectingSink::new();
        {
            let _outer = set_ambient(Tracer::from_sink(outer.clone()));
            counter("execute", "chunks", 1);
            {
                let _inner = set_ambient(Tracer::from_sink(inner.clone()));
                counter("execute", "chunks", 10);
            }
            counter("execute", "chunks", 2);
        }
        assert!(!enabled());
        counter("execute", "chunks", 99); // dropped: no ambient tracer
        let outer_total: u64 = outer
            .events()
            .iter()
            .map(|e| match e.kind {
                EventKind::Counter { value } => value,
                _ => 0,
            })
            .sum();
        assert_eq!(outer_total, 3);
        assert_eq!(inner.events().len(), 1);
    }

    #[test]
    fn jsonl_round_trip() {
        let sink = Arc::new(WriterSink::new(Vec::<u8>::new()));
        let tracer = Tracer::new(sink.clone());
        tracer.counter_with("normalize", "rule_fired", 5, &[("rule", "fold-add".into())]);
        {
            let _span = tracer.span("verify", "cross_check");
        }
        tracer.point("synthesize", "cegis_round", &[("round", 0u64.into())]);
        drop(tracer);
        let bytes = sink.clone_buffer();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let event: Event = serde_json::from_str(line).unwrap();
            let back = serde_json::to_string(&event).unwrap();
            let reparsed: Event = serde_json::from_str(&back).unwrap();
            assert_eq!(event, reparsed);
        }
        let first: Event = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first.kind, EventKind::Counter { value: 5 });
        assert_eq!(first.fields["rule"], FieldValue::Str("fold-add".into()));
    }

    #[test]
    fn phase_aggregator_sums_spans_and_counters() {
        let agg = PhaseAggregator::new();
        let tracer = Tracer::from_sink(agg.clone());
        tracer.emit(
            "normalize",
            "pass",
            EventKind::Span { dur_us: 1500 },
            BTreeMap::new(),
        );
        tracer.emit(
            "normalize",
            "pass",
            EventKind::Span { dur_us: 500 },
            BTreeMap::new(),
        );
        tracer.counter("normalize", "rule_fired", 4);
        tracer.counter("normalize", "rule_fired", 6);
        tracer.point("synthesize", "cegis_round", &[]);
        tracer.point("synthesize", "cegis_round", &[]);
        let timings = agg.phase_timings();
        assert_eq!(timings["normalize"], Duration::from_micros(2000));
        let counters = agg.counters();
        assert_eq!(counters["normalize.rule_fired"], 10);
        assert_eq!(counters["synthesize.cegis_round"], 2);
    }

    #[test]
    fn span_with_carries_initial_fields() {
        let sink = CollectingSink::new();
        let tracer = Tracer::from_sink(sink.clone());
        {
            let mut span = tracer.span_with("serve", "request", &[("request_id", "req-42".into())]);
            span.record("status", 200u64);
        }
        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].fields["request_id"],
            FieldValue::Str("req-42".into())
        );
        assert_eq!(events[0].fields["status"], FieldValue::Int(200));
    }

    #[test]
    fn tagged_sink_stamps_every_event_without_clobbering() {
        let sink = CollectingSink::new();
        let tagged = TaggedSink::new(
            Arc::new(sink.clone()),
            &[
                ("request_id", "req-7".into()),
                ("status", "tag-must-lose".into()),
            ],
        );
        let tracer = Tracer::from_sink(tagged);
        tracer.counter("synthesize", "cegis_round", 1);
        tracer.point("serve", "done", &[("status", 206u64.into())]);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        for event in &events {
            assert_eq!(event.fields["request_id"], FieldValue::Str("req-7".into()));
        }
        // The event's own field wins over the tag.
        assert_eq!(events[1].fields["status"], FieldValue::Int(206));
    }

    #[test]
    fn fanout_reaches_every_sink() {
        let a = CollectingSink::new();
        let b = CollectingSink::new();
        let fan = FanoutSink::new(vec![
            Arc::new(a.clone()) as Arc<dyn TraceSink>,
            Arc::new(b.clone()),
        ]);
        let tracer = Tracer::from_sink(fan);
        tracer.counter("execute", "joins", 7);
        assert_eq!(a.events().len(), 1);
        assert_eq!(b.events().len(), 1);
    }
}
