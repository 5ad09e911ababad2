//! End-to-end, layer-by-layer benchmark of synthesized parsynt plans.
//!
//! Usage: `e2ebench --workload <synth_cold|exec_batch|stream_serve>
//!         --seed <n> --seconds <s> --trace <0|1> --parsynt <path>
//!         [--trace-out <file.jsonl>] [--tiny]`
//!
//! The benchmark drives only the public API — `Pipeline::run`,
//! `PipelineReport::execute`, `PipelineReport::execute_stream_with` —
//! and a `parsynt serve` child process over loopback HTTP. It checks
//! every result and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics (from spans the
//! benchmark records around each public call) with `--trace 1`.
//! README.md describes every metric and workload.

mod inputs;
mod layers;
mod serve;
mod spec;
mod stats;

use inputs::{leaves, Domain, Rng};
use parsynt_core::{
    fingerprint, fingerprint_hex, CachedSolution, Pipeline, PipelineConfig, PipelineReport,
    SolutionCache,
};
use parsynt_lang::functional::RightwardFn;
use parsynt_lang::interp::StateVec;
use parsynt_lang::{parse, Program, Value};
use parsynt_suite::Benchmark;
use serve::Daemon;
use spec::{Spec, HITS_PER_BATCH, HIT_CORPUS, MISS_TEMPLATE, ORACLE_LEAVES};
use stats::{median, Samples, Tracer};
use std::collections::btree_map::{BTreeMap, Entry};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up runs this many times; `setup_s` is the median.
const SETUP_REPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
    parsynt: PathBuf,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let need = |flag: &str| get(flag).ok_or_else(|| format!("missing {flag}"));
    let num = |flag: &str| -> Result<u64, String> {
        need(flag)?.parse().map_err(|e| format!("bad {flag}: {e}"))
    };
    Ok(Args {
        workload: need("--workload")?,
        seed: num("--seed")?,
        seconds: num("--seconds")?,
        trace: num("--trace")? != 0,
        tiny: argv.iter().any(|a| a == "--tiny"),
        parsynt: need("--parsynt")?.into(),
        trace_out: get("--trace-out").map(Into::into),
    })
}

/// A synthesized plan with two reports over the same parallelization:
/// `nt` runs with the default `RunConfig` (nproc threads), `one` with
/// one thread.
pub struct Plan {
    pub id: &'static str,
    pub source: &'static str,
    pub program: Program,
    pub bench: Benchmark,
    pub domain: Domain,
    pub nt: PipelineReport,
    pub one: PipelineReport,
    pub compiled: bool,
}

impl Plan {
    fn config(bench: &Benchmark) -> PipelineConfig {
        PipelineConfig::default().with_profile(bench.profile.clone())
    }

    /// One cold `Pipeline::run` (default config, no cache), parse
    /// included.
    fn synthesize(bench: &Benchmark) -> Result<PipelineReport, String> {
        let program = parse(bench.source).map_err(|e| format!("{}: {e}", bench.id))?;
        Pipeline::new(&program)
            .configure(Self::config(bench))
            .run()
            .map_err(|e| format!("{}: {e}", bench.id))
    }

    /// Wrap a synthesized report; the 1-thread report is re-served from
    /// a one-entry cache holding the same parallelization.
    fn new(bench: Benchmark, nt: PipelineReport) -> Result<Plan, String> {
        let program = parse(bench.source).map_err(|e| e.to_string())?;
        let cache = Arc::new(SolutionCache::in_memory(1));
        let key = fingerprint(&program);
        cache.insert(
            key,
            CachedSolution {
                fingerprint: fingerprint_hex(key),
                parallelization: nt.parallelization.clone(),
                plan: nt.plan_text().to_owned(),
                seed: nt.seed(),
            },
        );
        let one = Pipeline::new(&program)
            .configure(Self::config(&bench).with_run_threads(1))
            .cache(cache)
            .run()
            .map_err(|e| e.to_string())?;
        if !one.cache_hit || one.plan_text() != nt.plan_text() {
            return Err(format!(
                "{}: 1-thread report is not the same plan",
                bench.id
            ));
        }
        if nt.parallelization.is_unparallelizable() {
            return Err(format!("{}: not parallelized", bench.id));
        }
        Ok(Plan {
            id: bench.id,
            source: bench.source,
            domain: Domain::of(&program, &bench.profile),
            compiled: parsynt_core::compile_plan(&nt.parallelization).is_ok(),
            program,
            bench,
            nt,
            one,
        })
    }

    /// Check the plan against the sequential interpreter on `inputs`:
    /// the interpreted lifted program must agree with the source
    /// program on every returned variable, and both reports' `execute`
    /// must equal the interpreted state. Returns that state.
    fn oracle(&mut self, inputs: &[Value]) -> Result<StateVec, String> {
        let err = |e: parsynt_lang::LangError| format!("{}: {e}", self.id);
        let lifted = &self.nt.parallelization.program;
        let expected = RightwardFn::new(lifted)
            .and_then(|f| f.apply(inputs))
            .map_err(err)?;
        let source = RightwardFn::new(&self.program)
            .and_then(|f| f.apply(inputs))
            .map_err(err)?;
        for &sym in &self.program.returns {
            let name = self.program.name(sym);
            if source.value_named(&self.program, name) != expected.value_named(lifted, name) {
                return Err(format!("{}: lifted program disagrees on `{name}`", self.id));
            }
        }
        for report in [&mut self.one, &mut self.nt] {
            let got = report.execute(inputs).map_err(err)?;
            if got != expected || report.degraded {
                return Err(format!("{}: plan disagrees with the interpreter", self.id));
            }
        }
        Ok(expected)
    }
}

/// Everything set-up builds. Inputs are keyed by size, then domain.
pub struct Fixture {
    pub benches: Vec<Benchmark>,
    pub plans: Vec<Option<Plan>>,
    pub inputs: BTreeMap<usize, BTreeMap<Domain, Vec<Value>>>,
    /// Expected results keyed by (slot, input size).
    pub refs: BTreeMap<(usize, usize), StateVec>,
    /// First synthesized plan text per slot (synthesis is deterministic).
    pub plan_texts: BTreeMap<usize, String>,
    pub daemon: Daemon,
    /// The daemon's plan for each hit-corpus program.
    pub hits: Vec<(String, String)>,
    pub next_miss: u64,
    /// The fallback probe plan and its oracle-size input.
    pub probe: Option<(Plan, Vec<Value>)>,
}

impl Fixture {
    pub fn input(&self, leaves: usize, domain: &Domain) -> &[Value] {
        &self.inputs[&leaves][domain]
    }
}

/// Run state: samples, spans and the operation count.
pub struct Bench<'a> {
    pub spec: &'a Spec,
    pub seed: u64,
    pub tracer: Tracer,
    pub e2e: Samples,
    /// Per-layer values that are not span durations (counts, report
    /// fields), keyed like spans.
    pub extra: Samples,
    /// Traced ÷ untraced time of each doubled end-to-end operation.
    pub overhead: Vec<f64>,
    /// Per slot: t₁ / tₙ of adjacent `execute` pairs.
    pub pairs: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Bench<'_> {
    /// Count one checked operation.
    pub fn account<T>(&mut self, what: &str, out: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match out {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                if self.failed <= 10 {
                    eprintln!("e2ebench: FAILED {what}: {e}");
                }
                None
            }
        }
    }

    /// Record the synthesis report's own phase times (traced runs).
    fn report_fields(&mut self, id: &'static str, report: &PipelineReport) {
        if self.tracer.enabled {
            let r = report.report();
            let extra = &mut self.extra;
            extra.push("synth.join", id, r.join_time.as_secs_f64(), 0);
            extra.push(
                "synth.summarization",
                id,
                r.summarization_time.as_secs_f64(),
                0,
            );
        }
    }

    /// One timed end-to-end operation: run `f`, check its result, and
    /// record the wall time. When tracing, also run it inside a span,
    /// alternately before and after the untraced call so that warm-up
    /// favours neither, and record traced ÷ untraced time.
    pub fn op<T>(
        &mut self,
        name: &'static str,
        program: &'static str,
        elements: u64,
        mut f: impl FnMut() -> Result<T, String>,
        mut check: impl FnMut(&T) -> Result<(), String>,
    ) -> Option<(T, f64)> {
        let traced_first = self.tracer.enabled && self.overhead.len() % 2 == 1;
        let mut traced = None;
        if traced_first {
            traced = self.traced_op(name, program, elements, &mut f, &mut check);
        }
        let started = Instant::now();
        let out = f();
        let secs = started.elapsed().as_secs_f64();
        let out = self.account(name, out.and_then(|v| check(&v).map(|()| v)));
        if out.is_some() {
            self.e2e.push(name, program, secs, elements);
        }
        if self.tracer.enabled && !traced_first {
            traced = self.traced_op(name, program, elements, &mut f, &mut check);
        }
        if let (Some(t), Some(_)) = (traced, &out) {
            self.overhead.push(t / secs);
        }
        out.map(|v| (v, secs))
    }

    /// The traced copy of an end-to-end operation: its span's seconds.
    fn traced_op<T>(
        &mut self,
        name: &'static str,
        program: &'static str,
        elements: u64,
        f: &mut impl FnMut() -> Result<T, String>,
        check: &mut impl FnMut(&T) -> Result<(), String>,
    ) -> Option<f64> {
        let (out, secs) = self.tracer.span(name, program, elements, f);
        self.account(name, out.and_then(|v| check(&v)))
            .map(|()| secs)
    }
}

/// Compare with the stored reference for `key`, or store the first.
fn check_ref(
    refs: &mut BTreeMap<(usize, usize), StateVec>,
    key: (usize, usize),
    got: &StateVec,
) -> Result<(), String> {
    match refs.get(&key) {
        Some(expected) if expected != got => Err("result differs from the reference".into()),
        Some(_) => Ok(()),
        None => {
            refs.insert(key, got.clone());
            Ok(())
        }
    }
}

/// Generate the inputs, then start and warm the daemon.
fn setup(spec: &Spec, args: &Args) -> Result<Fixture, String> {
    let benches: Vec<Benchmark> = spec
        .programs
        .iter()
        .map(|id| parsynt_suite::benchmark(id).ok_or(format!("no benchmark `{id}`")))
        .collect::<Result<_, _>>()?;
    let mut domains = Vec::new();
    for b in &benches {
        let program = parse(b.source).map_err(|e| e.to_string())?;
        domains.push(Domain::of(&program, &b.profile));
    }
    let mut inputs: BTreeMap<usize, BTreeMap<Domain, Vec<Value>>> = BTreeMap::new();
    for size in [ORACLE_LEAVES, spec.exec_leaves, spec.stream_leaves] {
        for d in &domains {
            let by_domain = inputs.entry(size).or_default();
            if !by_domain.contains_key(d) {
                let mut rng = Rng::new(args.seed, d.salt(size));
                by_domain.insert(d.clone(), vec![d.generate(size, &mut rng)]);
            }
        }
    }

    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let daemon = Daemon::start(&args.parsynt, workers)?;
    let mut hits = Vec::new();
    for id in HIT_CORPUS {
        let b = parsynt_suite::benchmark(id).ok_or(format!("no benchmark `{id}`"))?;
        let resp = daemon.parallelize(b.source)?;
        if resp.cache_hit || resp.report.outcome != "divide_and_conquer" {
            return Err(format!("warm-up of `{id}` was not a fresh d&c synthesis"));
        }
        hits.push((b.source.to_owned(), resp.plan));
    }
    Ok(Fixture {
        plans: benches.iter().map(|_| None).collect(),
        benches,
        inputs,
        refs: BTreeMap::new(),
        plan_texts: BTreeMap::new(),
        daemon,
        hits,
        next_miss: 2 + args.seed % 997 * 1_000_000,
        probe: None,
    })
}

/// One slot of the timed loop: everything the workload does with one
/// program.
fn slot(bench: &mut Bench<'_>, fx: &mut Fixture, slot: usize) {
    let spec = bench.spec;
    let id = spec.programs[slot];

    // Cold synthesis. The slot's calls below run the plan it produced,
    // which must equal the plan of the first round.
    let b = fx.benches[slot].clone();
    let texts = &mut fx.plan_texts;
    let synthesized = bench.op(
        "synth",
        id,
        0,
        || Plan::synthesize(&b),
        |r| {
            let text = texts
                .entry(slot)
                .or_insert_with(|| r.plan_text().to_owned());
            if *text == r.plan_text() {
                Ok(())
            } else {
                Err("synthesis is not deterministic".into())
            }
        },
    );
    if let Some((report, _)) = synthesized {
        bench.report_fields(id, &report);
        let mut plan = bench.account("plan", Plan::new(b, report));
        if let Some(p) = plan.as_mut() {
            let input = fx.input(ORACLE_LEAVES, &p.domain);
            if let Some(state) = bench.account("oracle", p.oracle(input)) {
                fx.refs.insert((slot, ORACLE_LEAVES), state);
            }
        }
        fx.plans[slot] = plan;
    }

    let Some(plan) = fx.plans[slot].as_mut() else {
        return;
    };
    if plan.compiled {
        let exec_input = &fx.inputs[&spec.exec_leaves][&plan.domain];
        let elements = leaves(&exec_input[0]);
        for _ in 0..spec.exec_pairs {
            let refs = &mut fx.refs;
            let key = (slot, spec.exec_leaves);
            let t1 = bench.op(
                "exec_1t",
                id,
                elements,
                || execute(&mut plan.one, exec_input),
                |s| check_ref(refs, key, s),
            );
            let tn = bench.op(
                "exec_nt",
                id,
                elements,
                || execute(&mut plan.nt, exec_input),
                |s| check_ref(refs, key, s),
            );
            if let (Some((_, t1)), Some((_, tn))) = (t1, tn) {
                bench.pairs.entry(id).or_default().push(t1 / tn);
            }
        }

        let stream_input = &fx.inputs[&spec.stream_leaves][&plan.domain];
        let key = (slot, spec.stream_leaves);
        if let Entry::Vacant(reference) = fx.refs.entry(key) {
            let state = execute(&mut plan.one, stream_input);
            if let Some(state) = bench.account("stream reference", state) {
                reference.insert(state);
            }
        }
        let elements = leaves(&stream_input[0]);
        let rows = stream_input[0].len().unwrap_or(1);
        let chunk_rows = rows.div_ceil(spec.stream_chunks);
        for _ in 0..spec.stream_calls {
            let refs = &mut fx.refs;
            let streamed = bench.op(
                "stream",
                id,
                elements,
                || stream(&mut plan.one, stream_input, chunk_rows),
                |(s, _)| check_ref(refs, key, s),
            );
            if let Some(((_, first), _)) = streamed {
                bench.e2e.push("stream_first", id, first, 0);
            }
        }
    }

    for _ in 0..spec.serve_batches {
        serve_batch(bench, fx);
    }

    if bench.tracer.enabled {
        layers::slot(bench, fx, slot);
    }
}

fn execute(report: &mut PipelineReport, inputs: &[Value]) -> Result<StateVec, String> {
    let state = report.execute(inputs).map_err(|e| e.to_string())?;
    if report.degraded {
        return Err("execution degraded to sequential".into());
    }
    Ok(state)
}

/// `execute_stream_with` with a snapshot after every chunk; returns the
/// final state and the seconds from the call to the first snapshot.
fn stream(
    report: &mut PipelineReport,
    inputs: &[Value],
    chunk_rows: usize,
) -> Result<(StateVec, f64), String> {
    let started = Instant::now();
    let mut first = None;
    let state = report
        .execute_stream_with(inputs, chunk_rows, 1, |_| {
            first.get_or_insert_with(|| started.elapsed().as_secs_f64());
        })
        .map_err(|e| e.to_string())?;
    let summary = report.stream_report().ok_or("no stream report")?;
    if summary.degraded_chunks > 0 || summary.recovered_chunks > 0 || report.degraded {
        return Err("stream chunks degraded or recovered".into());
    }
    Ok((state, first.ok_or("no snapshot")?))
}

/// `HITS_PER_BATCH` requests for programs the daemon has served, with
/// one request for a program it has not seen in the middle.
fn serve_batch(bench: &mut Bench<'_>, fx: &mut Fixture) {
    for k in 0..=HITS_PER_BATCH {
        if k == HITS_PER_BATCH / 2 {
            let daemon = &fx.daemon;
            let next = &mut fx.next_miss;
            bench.op(
                "serve_miss",
                "daemon",
                0,
                || {
                    *next += 1;
                    daemon.parallelize(&MISS_TEMPLATE.replace("SCALE", &next.to_string()))
                },
                |r| {
                    if r.cache_hit || r.report.outcome != "divide_and_conquer" || r.plan.is_empty()
                    {
                        Err("miss was not a fresh d&c synthesis".into())
                    } else {
                        Ok(())
                    }
                },
            );
        } else {
            let (source, plan) = &fx.hits[k % fx.hits.len()];
            let daemon = &fx.daemon;
            bench.op(
                "serve_hit",
                "daemon",
                0,
                || daemon.parallelize(source),
                |r| {
                    if r.cache_hit && r.plan == *plan {
                        Ok(())
                    } else {
                        Err("hit was not the cached plan".into())
                    }
                },
            );
        }
    }
}

/// Host reference loops: three runs of each.
fn host_ref(cpu: &mut Vec<f64>, mem: &mut Vec<f64>) {
    let buf: Vec<u64> = (0..8u64 << 20).collect();
    for _ in 0..3 {
        cpu.push(stats::host_ref_cpu_ms());
        mem.push(stats::host_ref_mem_ms(&buf));
    }
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn end_to_end(bench: &Bench<'_>, setup_secs: &[f64], peak_rss_mb: f64) -> Metrics {
    let e = &bench.e2e;
    vec![
        ("setup_s", median(setup_secs), "s"),
        ("peak_rss_mb", peak_rss_mb, "MB"),
        ("synth_s", e.sum_of_medians("synth"), "s"),
        ("exec_1t_el_per_s", e.rate("exec_1t"), "el/s"),
        ("stream_el_per_s", e.rate("stream"), "el/s"),
        (
            "stream_first_snapshot_ms",
            e.mean_of_medians("stream_first") * 1e3,
            "ms",
        ),
        (
            "serve_hit_p50_ms",
            median(&e.pooled("serve_hit")) * 1e3,
            "ms",
        ),
        (
            "serve_miss_p50_ms",
            median(&e.pooled("serve_miss")) * 1e3,
            "ms",
        ),
    ]
}

/// Figure 9's metric: t₁ / tₙ of adjacent `execute` calls, median over
/// each plan's pairs, then the geometric mean over plans.
pub fn speedup(bench: &Bench<'_>) -> f64 {
    let logs: Vec<f64> = bench.pairs.values().map(|v| median(v).ln()).collect();
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Set up, run the timed loop, and compute the metrics; returns
/// `(attempted, failed, metrics)`.
fn run(args: &Args, process_start: Instant) -> Result<(u64, u64, Metrics), String> {
    let spec = &spec::spec(&args.workload, args.tiny)
        .ok_or_else(|| format!("unknown workload `{}`", args.workload))?;
    let mut bench = Bench {
        spec,
        seed: args.seed,
        tracer: Tracer::new(args.trace),
        e2e: Samples::default(),
        extra: Samples::default(),
        overhead: Vec::new(),
        pairs: BTreeMap::new(),
        attempted: 0,
        failed: 0,
    };

    let mut setup_secs = Vec::new();
    let mut fixture = None;
    for rep in 0..SETUP_REPS {
        drop(fixture.take());
        let started = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        fixture = Some(setup(spec, args)?);
        setup_secs.push(started.elapsed().as_secs_f64());
    }
    let mut fx = fixture.ok_or("no fixture")?;
    eprintln!("e2ebench: {} set up in {setup_secs:.2?} s", spec.name);

    let (mut cpu, mut mem) = (Vec::new(), Vec::new());
    host_ref(&mut cpu, &mut mem);

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut rounds = 0;
    // Peak RSS over set-up and the first round: the same work in every
    // run, where later rounds end wherever the deadline falls.
    let mut peak_rss_mb = f64::NAN;
    'timed: loop {
        let round = bench.tracer.begin("round", "");
        for s in 0..spec.programs.len() {
            let id = bench.tracer.begin("slot", spec.programs[s]);
            slot(&mut bench, &mut fx, s);
            bench.tracer.end(id, 0);
            if rounds > 0 && Instant::now() >= deadline {
                bench.tracer.end(round, 0);
                break 'timed;
            }
        }
        if bench.tracer.enabled {
            layers::round(&mut bench, &mut fx)?;
        }
        bench.tracer.end(round, 0);
        if rounds == 0 {
            peak_rss_mb = stats::peak_rss_mb();
        }
        rounds += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    host_ref(&mut cpu, &mut mem);
    eprintln!(
        "e2ebench: {rounds} round(s), {} operations, {} failed",
        bench.attempted, bench.failed
    );

    let metrics = if args.trace {
        let m = layers::metrics(&mut bench, &mut fx, median(&cpu), median(&mem))?;
        if let Some(path) = &args.trace_out {
            std::fs::write(path, bench.tracer.to_jsonl())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        m
    } else {
        end_to_end(&bench, &setup_secs, peak_rss_mb)
    };
    Ok((bench.attempted, bench.failed, metrics))
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    };
    let (attempted, failed, metrics) = match run(&args, process_start) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    };
    if let Some((name, value, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        eprintln!("e2ebench: metric {name} is not a number ({value})");
        std::process::exit(1);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        attempted,
        failed,
        body.join(", ")
    );
}
