//! The [`Pipeline`] builder — the observable entry point to the
//! Figure-7 schema.
//!
//! A `Pipeline` run returns the [`Parallelization`] and also *observes*
//! it: every
//! instrumented stage (rewrite-rule firings, enumerator candidates,
//! CEGIS rounds, lifting attempts, per-phase wall clock) is streamed as
//! [`parsynt_trace`] events to an optional user sink and folded into the
//! [`PipelineReport`]'s `phase_timings` / `counters`.
//!
//! A run is configured through exactly one surface, [`PipelineConfig`],
//! applied with [`Pipeline::configure`]:
//!
//! ```
//! use parsynt_core::{Pipeline, PipelineConfig};
//! let p = parsynt_lang::parse(
//!     "input a : seq<seq<int>>; state s : int = 0;\n\
//!      for i in 0 .. len(a) { for j in 0 .. len(a[i]) { s = s + a[i][j]; } }",
//! ).unwrap();
//! let report = Pipeline::new(&p)
//!     .configure(PipelineConfig::default().with_seed(7))
//!     .run()
//!     .unwrap();
//! assert!(report.parallelization.is_divide_and_conquer());
//! assert!(report.phase_timings.contains_key("total"));
//! ```
//!
//! Attaching a [`SolutionCache`] with [`Pipeline::cache`] short-circuits
//! the run when the program's normalized-form [`crate::fingerprint`] has
//! been solved before: the cached [`Parallelization`] and plan are
//! re-served without any synthesis, and the report carries a
//! `cache.hit` counter and no synthesis phase timings.

use crate::cache::{CachedSolution, SolutionCache};
use crate::exec::run_plan_checked;
use crate::fingerprint::{fingerprint, fingerprint_hex};
use crate::proof::homomorphism_law_checks;
use crate::schema::{run_schema, Outcome, Parallelization, Report};
use crate::stream::{run_stream_rows, StreamSnapshot};
use parsynt_lang::ast::Program;
use parsynt_lang::error::Result;
use parsynt_lang::interp::StateVec;
use parsynt_lang::Value;
use parsynt_runtime::RunConfig;
use parsynt_synth::examples::InputProfile;
use parsynt_synth::report::SynthConfig;
use parsynt_trace as trace;
use parsynt_trace::sinks::{FanoutSink, PhaseAggregator};
use parsynt_trace::TraceSink;
use serde::{Deserialize, Serialize, Serializer};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Version of the [`PipelineReportJson`] wire format. Bumped whenever a
/// field is added, removed, or changes meaning; consumers (the CLI's
/// `--json` output and the daemon's responses share this one shape)
/// should reject versions they do not understand.
pub const SCHEMA_VERSION: u32 = 1;

/// The unified configuration surface of a pipeline run: what to
/// synthesize with ([`SynthConfig`], including the search caps
/// `max_sketch_tries`, `search_examples` and `verify_examples`), how to
/// execute the result ([`RunConfig`]), and which input distribution to
/// verify against ([`InputProfile`]). What to observe is not
/// configuration: attach a sink with [`Pipeline::sink`].
///
/// ```
/// use parsynt_core::PipelineConfig;
/// let cfg = PipelineConfig::default()
///     .with_synth_threads(4)
///     .with_run_threads(8)
///     .with_seed(7);
/// assert_eq!(cfg.synth.threads, 4);
/// assert_eq!(cfg.run.threads, 8);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PipelineConfig {
    /// Synthesis-engine knobs (examples, sketches, screening threads).
    pub synth: SynthConfig,
    /// Execution knobs for [`PipelineReport::execute`] (threads, grain,
    /// backend).
    pub run: RunConfig,
    /// Shape/value distribution used for example generation and bounded
    /// verification.
    pub profile: InputProfile,
}

impl PipelineConfig {
    /// Replace the synthesis configuration.
    pub fn with_synth(mut self, synth: SynthConfig) -> Self {
        self.synth = synth;
        self
    }

    /// Replace the execution configuration.
    pub fn with_run(mut self, run: RunConfig) -> Self {
        self.run = run;
        self
    }

    /// Set the input profile (shape/value distribution for bounded
    /// verification).
    pub fn with_profile(mut self, profile: InputProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Set the candidate-screening thread count of the synthesis
    /// engine (clamped to at least 1; 1 = sequential CEGIS).
    pub fn with_synth_threads(mut self, threads: usize) -> Self {
        self.synth = self.synth.with_threads(threads);
        self
    }

    /// Set the worker-thread count used to execute the synthesized
    /// parallelization.
    pub fn with_run_threads(mut self, threads: usize) -> Self {
        self.run = self.run.with_threads(threads);
        self
    }

    /// Override the synthesis RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.synth = self.synth.with_seed(seed);
        self
    }

    /// Bound the synthesis search with a [`parsynt_trace::Deadline`];
    /// when it expires the run reports `Unparallelizable` with a
    /// `deadline exceeded` reason instead of searching further.
    ///
    /// There is exactly one deadline slot: this method and
    /// [`PipelineConfig::with_timeout_ms`] both write it, and the **last
    /// call wins** — `with_timeout_ms(5).with_deadline(Deadline::none())`
    /// is unlimited, and `with_deadline(d).with_timeout_ms(5)` is a 5 ms
    /// budget regardless of `d`.
    pub fn with_deadline(mut self, deadline: parsynt_trace::Deadline) -> Self {
        self.synth = self.synth.with_deadline(deadline);
        self
    }

    /// Shorthand for [`PipelineConfig::with_deadline`] with a deadline
    /// of `ms` milliseconds from now. Shares the single deadline slot
    /// with `with_deadline` — the last call wins.
    pub fn with_timeout_ms(mut self, ms: u64) -> Self {
        self.synth = self.synth.with_timeout_ms(ms);
        self
    }
}

/// Builder for one observable schema run over a borrowed program.
///
/// Construction is cheap; nothing happens until [`Pipeline::run`].
/// The canonical form is `Pipeline::new(program).configure(cfg).run()`;
/// everything a run needs besides the program, a sink, and a cache
/// lives in the [`PipelineConfig`].
pub struct Pipeline<'p> {
    program: &'p Program,
    config: PipelineConfig,
    sink: Option<Arc<dyn TraceSink>>,
    cache: Option<Arc<SolutionCache>>,
}

impl<'p> Pipeline<'p> {
    /// A pipeline over `program` with the default configuration.
    pub fn new(program: &'p Program) -> Self {
        Pipeline {
            program,
            config: PipelineConfig::default(),
            sink: None,
            cache: None,
        }
    }

    /// Set the full [`PipelineConfig`] (synthesis, execution and
    /// profile). This is the single configuration entry point; the
    /// pre-0.3 per-part setters (`profile`, `config`, `budget`) were
    /// removed in 0.4.0.
    pub fn configure(mut self, config: PipelineConfig) -> Self {
        self.config = config;
        self
    }

    /// Stream trace events to `sink` during the run. Sinks whose clones
    /// share state (e.g. `CollectingSink`) let the caller keep one end:
    /// `.sink(collecting.clone())`.
    pub fn sink<S: TraceSink + 'static>(self, sink: S) -> Self {
        self.sink_arc(Arc::new(sink))
    }

    /// Like [`Pipeline::sink`], for an already-shared sink.
    pub fn sink_arc(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Consult (and fill) `cache` during [`Pipeline::run`]: the
    /// program's normalized-form fingerprint is looked up first, and a
    /// hit re-serves the stored [`Parallelization`] and plan without
    /// running any synthesis. Fresh divide-and-conquer and map-only
    /// solutions are inserted after a miss; deadline-curtailed and
    /// unparallelizable outcomes are never cached (a retry with a larger
    /// budget could do better).
    pub fn cache(mut self, cache: Arc<SolutionCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Run the Figure-7 schema under an ambient tracer and aggregate the
    /// event stream into a [`PipelineReport`].
    ///
    /// # Errors
    ///
    /// Propagates interpreter/program errors; *failure to parallelize*
    /// is an outcome inside the report, not an error.
    pub fn run(self) -> Result<PipelineReport> {
        let PipelineConfig {
            synth: cfg,
            run,
            profile,
        } = self.config;

        let key = self.cache.as_ref().map(|cache| {
            let key = fingerprint(self.program);
            (Arc::clone(cache), key)
        });
        if let Some((cache, key)) = &key {
            let started = Instant::now();
            if let Some(cached) = cache.lookup(*key) {
                let mut phase_timings = BTreeMap::new();
                phase_timings.insert("total".to_owned(), started.elapsed());
                let mut counters = BTreeMap::new();
                counters.insert("cache.hit".to_owned(), 1);
                return Ok(PipelineReport {
                    parallelization: cached.parallelization,
                    phase_timings,
                    counters,
                    degraded: false,
                    cache_hit: true,
                    plan: cached.plan,
                    profile,
                    seed: cached.seed,
                    run,
                    stream: None,
                });
            }
        }

        let aggregator = PhaseAggregator::new();
        let tracer = match &self.sink {
            None => trace::Tracer::from_sink(aggregator.clone()),
            Some(user) => trace::Tracer::new(Arc::new(FanoutSink::new(vec![
                Arc::new(aggregator.clone()),
                Arc::clone(user),
            ]))),
        };
        let guard = trace::set_ambient(tracer.clone());
        let started = Instant::now();
        let outcome = run_schema(self.program, &profile, &cfg);
        let total = started.elapsed();
        drop(guard);
        tracer.flush();
        let parallelization = outcome?;
        let plan = parallelization.render_plan();

        if let Some((cache, key)) = &key {
            let worth_caching = !parallelization.report.deadline_exceeded
                && !matches!(parallelization.outcome, Outcome::Unparallelizable { .. });
            if worth_caching {
                cache.insert(
                    *key,
                    CachedSolution {
                        fingerprint: fingerprint_hex(*key),
                        parallelization: parallelization.clone(),
                        plan: plan.clone(),
                        seed: cfg.seed,
                    },
                );
            }
        }

        let mut phase_timings = aggregator.phase_timings();
        phase_timings.insert("total".to_owned(), total);
        Ok(PipelineReport {
            parallelization,
            phase_timings,
            counters: aggregator.counters(),
            degraded: false,
            cache_hit: false,
            plan,
            profile,
            seed: cfg.seed,
            run,
            stream: None,
        })
    }
}

/// Everything one schema run produced: the parallelization itself plus
/// the aggregated observations.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The transformed program, outcome, and Table-1 statistics.
    pub parallelization: Parallelization,
    /// Total span wall-clock per phase (`analyze`, `summarize`,
    /// `join_search`, `normalize`, `synthesize`, `verify`, …) plus the
    /// overall `total`. Phases nest (e.g. `normalize` time also elapses
    /// inside `join_search`), so entries do not sum to `total`. A cache
    /// hit has only `total` — no synthesis ran.
    pub phase_timings: BTreeMap<String, Duration>,
    /// Event counters keyed `"phase.name"` (e.g.
    /// `"synthesize.cegis_round"`, `"normalize.rule_fired"`). A cache
    /// hit has exactly one counter, `"cache.hit"`.
    pub counters: BTreeMap<String, u64>,
    /// Whether any [`PipelineReport::execute`] call on this report had
    /// to abandon its parallel plan and recover by re-running the same
    /// task sequentially, compiled kernels included (after a persistent
    /// worker panic), or any [`PipelineReport::execute_stream`] call had
    /// a stream chunk do so.
    pub degraded: bool,
    /// Whether this report was re-served from a [`SolutionCache`]
    /// instead of a fresh synthesis run.
    pub cache_hit: bool,
    plan: String,
    profile: InputProfile,
    seed: u64,
    run: RunConfig,
    stream: Option<StreamReportJson>,
}

impl PipelineReport {
    /// The Table-1 statistics of the underlying run.
    pub fn report(&self) -> &Report {
        &self.parallelization.report
    }

    /// The rendered parallel plan. On a cache hit this is the stored
    /// byte-for-byte plan from the original synthesis.
    pub fn plan_text(&self) -> &str {
        &self.plan
    }

    /// The input profile the run used (kept for re-verification).
    pub fn profile(&self) -> &InputProfile {
        &self.profile
    }

    /// The RNG seed the run used.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The execution configuration [`PipelineReport::execute`] uses.
    pub fn run_config(&self) -> &RunConfig {
        &self.run
    }

    /// Execute the synthesized parallelization on `inputs` with the
    /// pipeline's [`RunConfig`] (backend, thread count and grain):
    /// divide-and-conquer plans run chunked with the synthesized join,
    /// map-only plans run the parallel map plus sequential fold. The
    /// plan is lowered to fused native chunk kernels first
    /// ([`crate::compile`]), falling back to the interpreter (with a
    /// `compile_fallback` trace event) for plan shapes the compiler does
    /// not cover.
    ///
    /// Worker panics are isolated: a panicking chunk is retried once,
    /// and persistent failures re-execute sequentially — in that case
    /// [`PipelineReport::degraded`] is set and a `fallback_sequential`
    /// trace event is emitted.
    ///
    /// # Errors
    ///
    /// Fails if the outcome is unparallelizable, on any interpreter
    /// error, or when even the sequential fallback panics.
    pub fn execute(&mut self, inputs: &[Value]) -> Result<StateVec> {
        let outcome = run_plan_checked(&self.parallelization, inputs, &self.run)?;
        self.degraded |= outcome.degraded;
        Ok(outcome.state)
    }

    /// Execute the synthesized parallelization as an online aggregation:
    /// the main input is consumed in `chunk_rows`-row chunks, each chunk
    /// summarized in parallel and folded into the running state (by the
    /// synthesized join for divide-and-conquer plans, by continuing the
    /// sequential outer fold for map-only plans). The end-of-input state
    /// is byte-identical to [`PipelineReport::execute`] on the whole
    /// input, and the run is summarized in the report's
    /// [`stream`](PipelineReport::stream_report) block.
    ///
    /// # Errors
    ///
    /// As [`PipelineReport::execute`], plus an error on an empty stream
    /// (zero rows leave input-dependent initializers undefined).
    pub fn execute_stream(&mut self, inputs: &[Value], chunk_rows: usize) -> Result<StateVec> {
        self.execute_stream_with(inputs, chunk_rows, 0, |_| {})
    }

    /// Like [`PipelineReport::execute_stream`], additionally handing
    /// every `snapshot_every`-th progressive partial-prefix
    /// [`StreamSnapshot`] to `on_snapshot` (0 = no snapshots).
    ///
    /// # Errors
    ///
    /// As [`PipelineReport::execute_stream`].
    pub fn execute_stream_with<F>(
        &mut self,
        inputs: &[Value],
        chunk_rows: usize,
        snapshot_every: usize,
        on_snapshot: F,
    ) -> Result<StateVec>
    where
        F: FnMut(&StreamSnapshot),
    {
        let out = run_stream_rows(
            &self.parallelization,
            inputs,
            chunk_rows,
            self.run,
            snapshot_every,
            on_snapshot,
        )?;
        self.degraded |= out.degraded_chunks > 0;
        self.stream = Some(StreamReportJson {
            chunks: out.chunks,
            elements: out.elements,
            snapshots: out.snapshots,
            degraded_chunks: out.degraded_chunks,
            recovered_chunks: out.recovered_chunks,
            elapsed_secs: out.elapsed.as_secs_f64(),
        });
        Ok(out.state)
    }

    /// The summary of the last [`PipelineReport::execute_stream`] run on
    /// this report, if any. Batch-only reports carry no stream block and
    /// serialize byte-identically to pre-0.4 documents.
    pub fn stream_report(&self) -> Option<&StreamReportJson> {
        self.stream.as_ref()
    }

    /// Re-check the homomorphism law `h(x • y) = h(x) ⊙ h(y)` on
    /// `tests` random splits drawn from the run's own profile and seed.
    /// Returns the number of checks performed.
    ///
    /// # Errors
    ///
    /// Fails on the first violated instance, on interpreter errors, or
    /// if the plan is not divide-and-conquer.
    pub fn check_homomorphism(&self, tests: usize) -> Result<usize> {
        homomorphism_law_checks(&self.parallelization, &self.profile, tests, self.seed)
    }

    /// The serializable view of this report.
    pub fn to_json_struct(&self) -> PipelineReportJson {
        let report = self.report();
        let (outcome, reason) = match &self.parallelization.outcome {
            Outcome::DivideAndConquer { .. } => ("divide_and_conquer", None),
            Outcome::MapOnly => ("map_only", None),
            Outcome::Unparallelizable { reason } => ("unparallelizable", Some(reason.clone())),
        };
        PipelineReportJson {
            schema_version: SCHEMA_VERSION,
            outcome: outcome.to_owned(),
            reason,
            loop_depth: report.loop_depth,
            summarized_depth: report.summarized_depth,
            aux_memoryless: report.aux_memoryless.clone(),
            aux_homomorphism: report.aux_homomorphism.clone(),
            already_memoryless: report.already_memoryless,
            looped_join: report.looped_join,
            deadline_exceeded: report.deadline_exceeded,
            degraded: self.degraded,
            cache_hit: self.cache_hit,
            seed: self.seed,
            phase_timings: self
                .phase_timings
                .iter()
                .map(|(phase, d)| (phase.clone(), d.as_secs_f64()))
                .collect(),
            counters: self.counters.clone(),
            stream: self.stream.clone(),
        }
    }

    /// One-line JSON rendering of [`PipelineReport::to_json_struct`].
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_json_struct()).expect("report serializes")
    }

    /// Pretty-printed JSON rendering.
    pub fn to_json_pretty(&self) -> String {
        serde_json::to_string_pretty(&self.to_json_struct()).expect("report serializes")
    }
}

impl Serialize for PipelineReport {
    fn serialize<S: Serializer>(&self, serializer: S) -> std::result::Result<S::Ok, S::Error> {
        self.to_json_struct().serialize(serializer)
    }
}

/// The JSON shape of a [`PipelineReport`] — flat, stable, versioned,
/// and round-trippable (timings as fractional seconds). This is the one
/// wire format: the CLI's `--json` output and the daemon's responses
/// both serialize exactly this struct.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineReportJson {
    /// Wire-format version ([`SCHEMA_VERSION`]). Absent in pre-0.3
    /// documents, which deserialize as version 0.
    #[serde(default)]
    pub schema_version: u32,
    /// `"divide_and_conquer"`, `"map_only"`, or `"unparallelizable"`.
    pub outcome: String,
    /// Failure reason when `outcome == "unparallelizable"`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub reason: Option<String>,
    /// Loop-nest depth `n`.
    pub loop_depth: usize,
    /// Summarized depth `k`.
    pub summarized_depth: usize,
    /// Auxiliaries added by the memoryless lift.
    pub aux_memoryless: Vec<String>,
    /// Auxiliaries added by the homomorphism lift.
    pub aux_homomorphism: Vec<String>,
    /// Whether the loop was memoryless as written.
    pub already_memoryless: bool,
    /// Whether the synthesized join contains a loop.
    pub looped_join: bool,
    /// Whether the synthesis search was cut short by its deadline.
    #[serde(default)]
    pub deadline_exceeded: bool,
    /// Whether an execution of this plan degraded to the sequential
    /// fallback after a persistent worker panic.
    #[serde(default)]
    pub degraded: bool,
    /// Whether the report was re-served from the solution cache.
    #[serde(default)]
    pub cache_hit: bool,
    /// RNG seed the run used.
    pub seed: u64,
    /// Per-phase wall clock, in seconds.
    pub phase_timings: BTreeMap<String, f64>,
    /// Event counters keyed `"phase.name"`.
    pub counters: BTreeMap<String, u64>,
    /// Streaming-execution summary, present only when the report ran
    /// [`PipelineReport::execute_stream`]. Batch responses omit the key
    /// entirely, keeping them byte-identical to pre-0.4 documents under
    /// the same [`SCHEMA_VERSION`].
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub stream: Option<StreamReportJson>,
}

/// The `stream` block of a [`PipelineReportJson`]: how the online
/// aggregation consumed its input.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamReportJson {
    /// Stream chunks consumed.
    pub chunks: usize,
    /// Outer-dimension elements consumed.
    pub elements: u64,
    /// Progressive snapshots emitted.
    pub snapshots: usize,
    /// Chunks that degraded to a sequential re-run after persistent
    /// faults.
    pub degraded_chunks: usize,
    /// Panicking attempts recovered by a retry.
    pub recovered_chunks: usize,
    /// Wall clock of the whole streaming run, in seconds.
    pub elapsed_secs: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsynt_lang::parse;
    use parsynt_trace::sinks::CollectingSink;

    fn sum2d() -> Program {
        parse(
            "input a : seq<seq<int>>; state s : int = 0;\n\
             for i in 0 .. len(a) { for j in 0 .. len(a[i]) { s = s + a[i][j]; } }",
        )
        .unwrap()
    }

    #[test]
    fn pipeline_matches_free_function_outcome() {
        let p = sum2d();
        let report = Pipeline::new(&p).run().unwrap();
        assert!(report.parallelization.is_divide_and_conquer());
        assert_eq!(report.report().aux_count(), 0);
        assert!(!report.cache_hit);
        assert!(report.plan_text().contains("divide-and-conquer"));
    }

    #[test]
    fn phase_timings_cover_the_figure_seven_stages() {
        let p = sum2d();
        let report = Pipeline::new(&p).run().unwrap();
        for phase in ["analyze", "summarize", "join_search", "synthesize", "total"] {
            assert!(
                report.phase_timings.contains_key(phase),
                "missing phase `{phase}`: {:?}",
                report.phase_timings.keys().collect::<Vec<_>>()
            );
        }
        assert!(report.phase_timings["total"] > Duration::ZERO);
        assert_eq!(report.counters["schema.outcome"], 1);
    }

    #[test]
    fn user_sink_sees_the_event_stream() {
        let p = sum2d();
        let sink = CollectingSink::new();
        let report = Pipeline::new(&p).sink(sink.clone()).run().unwrap();
        assert!(report.parallelization.is_divide_and_conquer());
        assert!(!sink.is_empty());
        let names: Vec<String> = sink.events().iter().map(|e| e.name.clone()).collect();
        assert!(names.iter().any(|n| n == "cegis_round"), "{names:?}");
        assert!(names.iter().any(|n| n == "outcome"), "{names:?}");
    }

    #[test]
    fn check_homomorphism_reuses_run_profile() {
        let p = sum2d();
        let report = Pipeline::new(&p).run().unwrap();
        assert_eq!(report.check_homomorphism(20).unwrap(), 20);
    }

    #[test]
    fn pipeline_config_builders_compose() {
        let cfg = PipelineConfig::default()
            .with_synth(SynthConfig::default().with_depth(5))
            .with_run(RunConfig::static_schedule(2))
            .with_synth_threads(4)
            .with_run_threads(6)
            .with_profile(InputProfile::default())
            .with_seed(99);
        assert_eq!(cfg.synth.enum_cfg.max_size, 5);
        assert_eq!(cfg.synth.threads, 4);
        assert_eq!(cfg.synth.seed, 99);
        assert_eq!(cfg.run.threads, 6);
    }

    #[test]
    fn deadline_and_timeout_share_one_slot_last_call_wins() {
        use parsynt_trace::Deadline;
        // timeout then unlimited deadline → unlimited
        let cfg = PipelineConfig::default()
            .with_timeout_ms(5)
            .with_deadline(Deadline::none());
        assert!(!cfg.synth.deadline.is_limited());
        // unlimited deadline then timeout → limited
        let cfg = PipelineConfig::default()
            .with_deadline(Deadline::none())
            .with_timeout_ms(5);
        assert!(cfg.synth.deadline.is_limited());
        // two timeouts → still the later one (limited, and expiring)
        let cfg = PipelineConfig::default()
            .with_timeout_ms(60_000)
            .with_timeout_ms(0);
        assert!(cfg.synth.deadline.is_expired());
    }

    #[test]
    fn configured_pipeline_executes_its_plan() {
        let p = sum2d();
        let mut report = Pipeline::new(&p)
            .configure(PipelineConfig::default().with_run_threads(3))
            .run()
            .unwrap();
        assert_eq!(report.run_config().threads, 3);
        let input = parsynt_lang::Value::seq2_of_ints(&[vec![1, 2], vec![3], vec![4, 5, 6]]);
        let par = report.execute(std::slice::from_ref(&input)).unwrap();
        let seq = parsynt_lang::interp::run_program(
            &report.parallelization.program,
            std::slice::from_ref(&input),
        )
        .unwrap();
        assert_eq!(par, seq);
    }

    #[test]
    fn report_json_round_trips() {
        let p = sum2d();
        let report = Pipeline::new(&p).run().unwrap();
        let json = report.to_json();
        let back: PipelineReportJson = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report.to_json_struct());
        assert_eq!(back.schema_version, SCHEMA_VERSION);
        assert_eq!(back.outcome, "divide_and_conquer");
        assert!(back.phase_timings["total"] > 0.0);
        // Batch responses never carry the 0.4 stream block — the
        // serialized document is byte-identical to pre-0.4 output.
        assert!(back.stream.is_none());
        assert!(!json.contains("\"stream\""), "{json}");
    }

    #[test]
    fn execute_stream_matches_batch_and_fills_the_stream_block() {
        let p = sum2d();
        let mut report = Pipeline::new(&p)
            .configure(PipelineConfig::default().with_run_threads(3))
            .run()
            .unwrap();
        let input = parsynt_lang::Value::seq2_of_ints(&[
            vec![1, 2],
            vec![3],
            vec![4, 5, 6],
            vec![-7],
            vec![8, 9],
        ]);
        let inputs = vec![input];
        let batch = report.execute(&inputs).unwrap();
        assert!(report.stream_report().is_none(), "batch run adds no block");

        let mut snaps = Vec::new();
        let streamed = report
            .execute_stream_with(&inputs, 2, 1, |s| snaps.push(s.clone()))
            .unwrap();
        assert_eq!(streamed, batch);
        let block = report.stream_report().expect("stream block recorded");
        assert_eq!((block.chunks, block.elements), (3, 5));
        assert_eq!(block.snapshots, snaps.len());
        assert_eq!(block.degraded_chunks, 0);
        assert_eq!(snaps.last().map(|s| s.elements), Some(5));

        // The JSON now carries the stream block and still round-trips.
        let json = report.to_json();
        assert!(json.contains("\"stream\""), "{json}");
        let back: PipelineReportJson = serde_json::from_str(&json).unwrap();
        assert_eq!(back.stream.as_ref(), Some(block));

        // An empty stream is a typed error, not a bogus state.
        let empty = vec![parsynt_lang::Value::seq2_of_ints(&[])];
        assert!(report.execute_stream(&empty, 4).is_err());
    }

    #[test]
    fn cache_hit_skips_synthesis_and_reserves_the_same_plan() {
        let p = sum2d();
        let cache = Arc::new(SolutionCache::in_memory(8));
        let first = Pipeline::new(&p).cache(Arc::clone(&cache)).run().unwrap();
        assert!(!first.cache_hit);
        assert_eq!(cache.stats().misses, 1);

        let second = Pipeline::new(&p).cache(Arc::clone(&cache)).run().unwrap();
        assert!(second.cache_hit);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(second.plan_text(), first.plan_text());
        assert_eq!(second.seed(), first.seed());
        // No synthesis ran: only the total timing, only the hit counter.
        assert_eq!(
            second.phase_timings.keys().collect::<Vec<_>>(),
            vec!["total"]
        );
        assert_eq!(second.counters.get("cache.hit"), Some(&1));
        assert!(!second.phase_timings.contains_key("synthesize"));
    }

    #[test]
    fn deadline_curtailed_runs_are_not_cached() {
        let p = sum2d();
        let cache = Arc::new(SolutionCache::in_memory(8));
        let report = Pipeline::new(&p)
            .configure(PipelineConfig::default().with_timeout_ms(0))
            .cache(Arc::clone(&cache))
            .run()
            .unwrap();
        assert!(report.report().deadline_exceeded);
        assert_eq!(
            cache.stats().resident,
            0,
            "curtailed run must not be cached"
        );
        // A later unconstrained run misses, synthesizes, and caches.
        let fresh = Pipeline::new(&p).cache(Arc::clone(&cache)).run().unwrap();
        assert!(!fresh.cache_hit);
        assert!(fresh.parallelization.is_divide_and_conquer());
        assert_eq!(cache.stats().resident, 1);
    }
}
