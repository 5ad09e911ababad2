//! The `parsynt` command-line tool: parallelize sequential nested loops
//! from the command line.
//!
//! ```text
//! parsynt parallelize <file> [--values lo..hi | --brackets] [--seed N]
//!     Run the Figure-7 schema on a mini-language program; print the
//!     report, the transformed (lifted) program, the synthesized join
//!     and the proof obligations.
//!
//! parsynt run <file> --threads N [--rows R --cols C] [--values lo..hi]
//!     Parallelize, then execute the synthesized plan on N threads over
//!     a random input and cross-check against the sequential run.
//!
//! parsynt check <file> [--tests N]
//!     Parallelize, then property-check the homomorphism law
//!     h(x • y) = h(x) ⊙ h(y) on N random splits.
//!
//! parsynt bench-list
//!     List the built-in evaluation benchmarks (Table 1 of the paper).
//!
//! parsynt bench <id> [--threads N] [--grain G]
//!     Run the pipeline on a built-in benchmark by id, then execute its
//!     native workload on the work-stealing runtime.
//! ```
//!
//! Every pipeline-running command also accepts `--json` (emit the
//! machine-readable `PipelineReport` on stdout instead of prose),
//! `--trace <file>` (stream the structured event trace as JSON lines)
//! and `--synth-threads N` (parallel candidate screening inside the
//! synthesis engine; deterministic, 1 = fully sequential).

use parsynt::core::{
    proof_obligations, Outcome, Parallelization, Pipeline, PipelineConfig, PipelineReport,
    SolutionCache,
};
use parsynt::lang::interp::run_program;
use parsynt::lang::pretty::program_to_string;
use parsynt::lang::{parse, Program, Value};
use parsynt::suite::{all_benchmarks, benchmark, workload};
use parsynt::synth::examples::InputProfile;
use parsynt::synth::report::SynthConfig;
use parsynt::trace::sinks::WriterSink;
use parsynt::trace::{set_ambient, TraceSink, Tracer};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::BufWriter;
use std::process::ExitCode;
use std::sync::Arc;

/// Everything that can go wrong on the command line, with one exit code
/// per kind (`sysexits`-flavoured).
#[derive(Debug)]
enum CliError {
    /// Bad invocation: unknown command/flag, missing argument.
    Usage(String),
    /// A file could not be read or created.
    Io {
        /// The offending path.
        path: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The input program did not parse or type-check.
    Parse(String),
    /// The schema itself failed (interpreter error during synthesis).
    Synthesis(String),
    /// Executing or checking a synthesized plan failed.
    Exec(String),
    /// The synthesis search hit its `--timeout-ms` deadline.
    DeadlineExceeded(String),
    /// A worker panicked during execution and the run degraded to the
    /// sequential fallback (results were still produced and verified).
    Degraded(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Io { path, source } => write!(f, "{path}: {source}"),
            CliError::Parse(msg) => write!(f, "{msg}"),
            CliError::Synthesis(msg) => write!(f, "synthesis failed: {msg}"),
            CliError::Exec(msg) => write!(f, "{msg}"),
            CliError::DeadlineExceeded(msg) => write!(f, "synthesis deadline exceeded: {msg}"),
            CliError::Degraded(msg) => write!(f, "execution degraded: {msg}"),
        }
    }
}

impl CliError {
    fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io { .. } => 3,
            CliError::Parse(_) => 4,
            CliError::Synthesis(_) => 5,
            CliError::Exec(_) => 6,
            CliError::DeadlineExceeded(_) => 7,
            CliError::Degraded(_) => 8,
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match command.as_str() {
        "parallelize" => Cli::parse(&args[1..]).and_then(|cli| cmd_parallelize(&cli)),
        "run" => Cli::parse(&args[1..]).and_then(|cli| cmd_run(&cli)),
        "check" => Cli::parse(&args[1..]).and_then(|cli| cmd_check(&cli)),
        "bench-list" => cmd_bench_list(),
        "bench" => Cli::parse(&args[1..]).and_then(|cli| cmd_bench(&cli)),
        "serve" => Cli::parse(&args[1..]).and_then(|cli| cmd_serve(&cli)),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown command `{other}`\n{USAGE}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::from(err.exit_code())
        }
    }
}

const USAGE: &str = "parsynt — modular divide-and-conquer parallelization of nested loops

USAGE:
  parsynt parallelize <file> [--values lo..hi | --brackets]
                             [--pair-width W] [--seed N]
  parsynt run <file> --threads N [--rows R] [--cols C] [--values lo..hi]
              [--stream] [--chunk-rows R] [--snapshot-every K]
  parsynt check <file> [--tests N] [--values lo..hi | --brackets]
                       [--pair-width W]
  parsynt bench-list
  parsynt bench <id> [--threads N] [--grain G]
  parsynt serve [--addr HOST:PORT] [--workers N] [--queue N]
                [--cache-dir DIR] [--trace-dir DIR] [--timeout-ms T]

Observability (parallelize / run / check / bench):
  --json          print the machine-readable PipelineReport on stdout
  --trace <file>  stream the structured event trace as JSON lines

Caching (parallelize / run / check / bench / serve):
  --cache-dir DIR  persist synthesized solutions, keyed by the
                   normal-form fingerprint of the input program;
                   repeat invocations re-serve the plan without
                   re-running synthesis

Service (serve):
  --addr HOST:PORT  bind address (default 127.0.0.1:7341)
  --workers N       synthesis worker threads (default 4)
  --queue N         bounded request queue; overflow answers 503
  --trace-dir DIR   per-request JSONL traces as DIR/<request-id>.jsonl

Streaming (run):
  --stream            execute as an online aggregation: consume the
                      input in chunks, fold each into the running state
                      with the synthesized join, and print progressive
                      partial-prefix snapshots; the final state is
                      byte-identical to the batch run
  --chunk-rows R      rows of the outer dimension per stream chunk
                      (default 8)
  --snapshot-every K  print a snapshot every K chunks (default 1;
                      0 = only the final result)

Synthesis (parallelize / run / check / bench):
  --synth-threads N  screen join/merge candidates on N worker threads
                     (deterministic; 1 = sequential CEGIS, the default)

Robustness (parallelize / run / check / bench):
  --timeout-ms T  bound the synthesis search to a wall-clock deadline;
                  when it expires the loop is reported unparallelizable
                  with a `deadline exceeded` reason and exit code 7

Exit codes:
  0 success                2 usage      3 io      4 parse
  5 synthesis failed       6 execution/check failed
  7 synthesis deadline exceeded (--timeout-ms)
  8 execution degraded: a worker panicked and the run fell back to
    re-running the plan sequentially (results were still produced and
    verified)";

/// Flags that consume a value.
const VALUE_FLAGS: &[&str] = &[
    "--values",
    "--pair-width",
    "--seed",
    "--threads",
    "--rows",
    "--cols",
    "--tests",
    "--trace",
    "--grain",
    "--synth-threads",
    "--timeout-ms",
    "--cache-dir",
    "--addr",
    "--workers",
    "--queue",
    "--trace-dir",
    "--chunk-rows",
    "--snapshot-every",
];
/// Boolean switches.
const SWITCHES: &[&str] = &["--brackets", "--json", "--stream"];

/// Parsed command arguments: positionals, `--flag value` pairs, and
/// switches — rejecting anything unknown.
struct Cli {
    positionals: Vec<String>,
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, CliError> {
        let mut cli = Cli {
            positionals: Vec::new(),
            values: BTreeMap::new(),
            switches: Vec::new(),
        };
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if VALUE_FLAGS.contains(&arg.as_str()) {
                let value = iter
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("{arg} expects a value\n{USAGE}")))?;
                cli.values.insert(arg.clone(), value.clone());
            } else if SWITCHES.contains(&arg.as_str()) {
                cli.switches.push(arg.clone());
            } else if arg.starts_with("--") {
                return Err(CliError::Usage(format!("unknown flag `{arg}`\n{USAGE}")));
            } else {
                cli.positionals.push(arg.clone());
            }
        }
        Ok(cli)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        match self.value(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("bad value `{raw}` for {name}"))),
        }
    }

    fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

fn load_program(cli: &Cli) -> Result<Program, CliError> {
    let path = cli
        .positionals
        .first()
        .ok_or_else(|| CliError::Usage(format!("missing program file\n{USAGE}")))?;
    let src = std::fs::read_to_string(path).map_err(|source| CliError::Io {
        path: path.clone(),
        source,
    })?;
    parse(&src).map_err(|e| CliError::Parse(format!("{path}: {e}")))
}

fn profile_from(cli: &Cli) -> Result<InputProfile, CliError> {
    let mut profile = InputProfile::default();
    if cli.switch("--brackets") {
        profile = profile.with_choices(&[-1, 1]);
    } else if let Some(range) = cli.value("--values") {
        let (lo, hi) = range
            .split_once("..")
            .ok_or_else(|| CliError::Usage("--values expects lo..hi".to_owned()))?;
        profile = profile.with_value_range(
            lo.parse()
                .map_err(|_| CliError::Usage("bad --values lower bound".to_owned()))?,
            hi.parse()
                .map_err(|_| CliError::Usage("bad --values upper bound".to_owned()))?,
        );
    }
    // Fixed row width for programs that index rows at constant positions
    // (e.g. range pairs reading a[i][0] and a[i][1]).
    if let Some(w) = cli.parsed::<usize>("--pair-width")? {
        profile = profile.with_cols(w.max(1), w.max(1));
    }
    Ok(profile)
}

fn config_from(cli: &Cli) -> Result<SynthConfig, CliError> {
    let mut cfg = SynthConfig::default();
    if let Some(seed) = cli.parsed::<u64>("--seed")? {
        cfg = cfg.with_seed(seed);
    }
    if let Some(threads) = cli.parsed::<usize>("--synth-threads")? {
        cfg = cfg.with_threads(threads);
    }
    if let Some(ms) = cli.parsed::<u64>("--timeout-ms")? {
        cfg = cfg.with_timeout_ms(ms);
    }
    Ok(cfg)
}

/// Map a deadline-cut report onto its dedicated exit code; commands
/// call this after printing the (partial) report.
fn deadline_check(report: &PipelineReport) -> Result<(), CliError> {
    if report.report().deadline_exceeded {
        let reason = match &report.parallelization.outcome {
            Outcome::Unparallelizable { reason } => reason.clone(),
            _ => "deadline exceeded".to_owned(),
        };
        return Err(CliError::DeadlineExceeded(reason));
    }
    Ok(())
}

/// Open the `--trace` sink, if requested.
fn trace_sink(cli: &Cli) -> Result<Option<Arc<WriterSink<BufWriter<File>>>>, CliError> {
    match cli.value("--trace") {
        None => Ok(None),
        Some(path) => Ok(Some(Arc::new(WriterSink::to_file(path).map_err(
            |source| CliError::Io {
                path: path.to_owned(),
                source,
            },
        )?))),
    }
}

/// Open the `--cache-dir` persistent solution cache, if requested.
fn cache_from(cli: &Cli) -> Result<Option<Arc<SolutionCache>>, CliError> {
    match cli.value("--cache-dir") {
        None => Ok(None),
        Some(dir) => SolutionCache::persistent(
            std::path::Path::new(dir),
            parsynt::core::cache::DEFAULT_CAPACITY,
        )
        .map(|cache| Some(Arc::new(cache)))
        .map_err(|source| CliError::Io {
            path: dir.to_owned(),
            source,
        }),
    }
}

/// Run the observable pipeline, wiring in the `--trace` sink and the
/// `--cache-dir` solution cache.
fn run_pipeline(
    program: &Program,
    profile: InputProfile,
    cfg: SynthConfig,
    run: Option<parsynt::runtime::RunConfig>,
    sink: Option<&Arc<WriterSink<BufWriter<File>>>>,
    cache: Option<Arc<SolutionCache>>,
) -> Result<PipelineReport, CliError> {
    let mut pipeline_cfg = PipelineConfig::default()
        .with_profile(profile)
        .with_synth(cfg);
    if let Some(run) = run {
        pipeline_cfg = pipeline_cfg.with_run(run);
    }
    let mut pipeline = Pipeline::new(program).configure(pipeline_cfg);
    if let Some(sink) = sink {
        pipeline = pipeline.sink_arc(Arc::clone(sink) as Arc<dyn TraceSink>);
    }
    if let Some(cache) = cache {
        pipeline = pipeline.cache(cache);
    }
    pipeline
        .run()
        .map_err(|e| CliError::Synthesis(e.to_string()))
}

fn print_plan(plan: &Parallelization) {
    let r = &plan.report;
    println!(
        "loop depth n = {}, summarized depth k = {}",
        r.loop_depth, r.summarized_depth
    );
    println!(
        "summarization: {:.2?}   lifting: {:.2?}   join synthesis: {:.2?}",
        r.summarization_time, r.lift_time, r.join_time
    );
    if !r.aux_memoryless.is_empty() {
        println!("memoryless-lift auxiliaries: {:?}", r.aux_memoryless);
    }
    if !r.aux_homomorphism.is_empty() {
        println!("homomorphism-lift auxiliaries: {:?}", r.aux_homomorphism);
    }
    match &plan.outcome {
        Outcome::DivideAndConquer { join, .. } => {
            println!("\noutcome: divide-and-conquer");
            println!("\n== transformed (lifted) program ==");
            println!("{}", program_to_string(&plan.program));
            println!("== synthesized join ⊙ ==");
            println!("{}", join.render(&plan.program));
        }
        Outcome::MapOnly => {
            println!(
                "\noutcome: map-only (the paper's †) — inner nest parallel, outer fold sequential"
            );
            println!("\n== memoryless normal form ==");
            println!("{}", program_to_string(&plan.program));
        }
        Outcome::Unparallelizable { reason } => {
            println!("\noutcome: not parallelizable (✗) — {reason}");
        }
    }
}

fn cmd_parallelize(cli: &Cli) -> Result<(), CliError> {
    let program = load_program(cli)?;
    let sink = trace_sink(cli)?;
    let report = run_pipeline(
        &program,
        profile_from(cli)?,
        config_from(cli)?,
        None,
        sink.as_ref(),
        cache_from(cli)?,
    )?;
    if cli.switch("--json") {
        println!("{}", report.to_json_pretty());
        return deadline_check(&report);
    }
    print_plan(&report.parallelization);
    deadline_check(&report)?;
    if !report.parallelization.is_unparallelizable() {
        println!("\n{}", proof_obligations(&report.parallelization));
    }
    Ok(())
}

fn cmd_run(cli: &Cli) -> Result<(), CliError> {
    let threads = cli.parsed::<usize>("--threads")?.unwrap_or(4);
    let rows = cli.parsed::<usize>("--rows")?.unwrap_or(64);
    let cols = cli.parsed::<usize>("--cols")?.unwrap_or(16);
    let run_config = parsynt::runtime::RunConfig::default().with_threads(threads);
    let program = load_program(cli)?;
    let sink = trace_sink(cli)?;
    let mut report = run_pipeline(
        &program,
        profile_from(cli)?,
        config_from(cli)?,
        Some(run_config),
        sink.as_ref(),
        cache_from(cli)?,
    )?;
    let json = cli.switch("--json");
    let plan = &report.parallelization;
    if !json {
        print_plan(plan);
    }
    deadline_check(&report)?;

    // Generate a random input of the program's main-input type.
    let profile = profile_from(cli)?
        .with_rows(rows, rows)
        .with_cols(cols, cols);
    let f = parsynt::lang::functional::RightwardFn::new(&plan.program)
        .map_err(|e| CliError::Exec(e.to_string()))?;
    let mut rng = SmallRng::seed_from_u64(42);
    let inputs: Vec<Value> = parsynt::synth::examples::random_inputs(&f, &profile, &mut rng);

    // Execute under the same trace sink so executor events land in the
    // same JSONL stream as the synthesis events.
    let _guard = set_ambient(match &sink {
        Some(s) => Tracer::new(Arc::clone(s) as Arc<dyn TraceSink>),
        None => Tracer::disabled(),
    });
    let sequential =
        run_program(&plan.program, &inputs).map_err(|e| CliError::Exec(e.to_string()))?;

    if cli.switch("--stream") {
        return stream_run(cli, &mut report, &inputs, &sequential, threads, json);
    }

    if let Outcome::Unparallelizable { reason } = &plan.outcome {
        return Err(CliError::Exec(format!("nothing to run: {reason}")));
    }
    let state = report
        .execute(&inputs)
        .map_err(|e| CliError::Exec(e.to_string()))?;
    if state != sequential {
        return Err(CliError::Exec(
            "parallel result differs from sequential!".to_owned(),
        ));
    }
    if json {
        println!("{}", report.to_json_pretty());
    } else {
        println!("\nexecuted on {threads} threads over a random {rows}-row input: results agree ✓");
        let program = &report.parallelization.program;
        for (sym, value) in sequential.entries() {
            if program.returns.contains(sym) {
                println!("  {} = {}", program.name(*sym), value);
            }
        }
    }
    if report.degraded {
        return Err(CliError::Degraded(
            "a worker panicked; results recovered via the sequential fallback".to_owned(),
        ));
    }
    Ok(())
}

/// The `run --stream` mode: consume the generated input in
/// `--chunk-rows` chunks as an online aggregation, printing progressive
/// partial-prefix snapshots, then cross-check the end-of-input state
/// against the sequential run.
fn stream_run(
    cli: &Cli,
    report: &mut PipelineReport,
    inputs: &[Value],
    sequential: &parsynt::lang::interp::StateVec,
    threads: usize,
    json: bool,
) -> Result<(), CliError> {
    let chunk_rows = cli.parsed::<usize>("--chunk-rows")?.unwrap_or(8).max(1);
    let snapshot_every = cli.parsed::<usize>("--snapshot-every")?.unwrap_or(1);
    // The snapshot callback borrows the program while `report` is
    // mutably borrowed by the streaming run; clone what printing needs.
    let program = report.parallelization.program.clone();
    let streamed = report
        .execute_stream_with(inputs, chunk_rows, snapshot_every, |snap| {
            if json {
                return;
            }
            let values: Vec<String> = snap
                .state
                .entries()
                .iter()
                .filter(|(sym, _)| program.returns.contains(sym))
                .map(|(sym, value)| format!("{} = {}", program.name(*sym), value))
                .collect();
            println!(
                "  [stream] {:>6} rows in {:>3} chunks  {:>10.0} rows/s  {}",
                snap.elements,
                snap.chunks,
                snap.elements_per_sec(),
                values.join("  ")
            );
        })
        .map_err(|e| CliError::Exec(e.to_string()))?;
    if streamed != *sequential {
        return Err(CliError::Exec(
            "streamed result differs from sequential!".to_owned(),
        ));
    }
    let block = report
        .stream_report()
        .expect("streaming run records its block")
        .clone();
    if json {
        println!("{}", report.to_json_pretty());
    } else {
        println!(
            "\nstreamed {} rows as {} chunks of ≤{chunk_rows} on {threads} threads \
             ({} snapshots): end-of-input state matches the batch run ✓",
            block.elements, block.chunks, block.snapshots
        );
        for (sym, value) in streamed.entries() {
            if program.returns.contains(sym) {
                println!("  {} = {}", program.name(*sym), value);
            }
        }
    }
    if block.degraded_chunks > 0 {
        return Err(CliError::Degraded(format!(
            "{} stream chunk(s) degraded to a sequential re-run",
            block.degraded_chunks
        )));
    }
    Ok(())
}

fn cmd_check(cli: &Cli) -> Result<(), CliError> {
    let tests = cli.parsed::<usize>("--tests")?.unwrap_or(200);
    let program = load_program(cli)?;
    let sink = trace_sink(cli)?;
    let report = run_pipeline(
        &program,
        profile_from(cli)?,
        config_from(cli)?,
        None,
        sink.as_ref(),
        cache_from(cli)?,
    )?;
    deadline_check(&report)?;
    if !report.parallelization.is_divide_and_conquer() {
        return Err(CliError::Exec(
            "no join to check (not a divide-and-conquer plan)".to_owned(),
        ));
    }
    let _guard = set_ambient(match &sink {
        Some(s) => Tracer::new(Arc::clone(s) as Arc<dyn TraceSink>),
        None => Tracer::disabled(),
    });
    let checks = report
        .check_homomorphism(tests)
        .map_err(|e| CliError::Exec(e.to_string()))?;
    if cli.switch("--json") {
        println!("{}", report.to_json_pretty());
        return Ok(());
    }
    println!("homomorphism law h(x • y) = h(x) ⊙ h(y) held on {checks} random splits ✓");
    Ok(())
}

fn cmd_serve(cli: &Cli) -> Result<(), CliError> {
    let mut config = parsynt::serve::ServeConfig::default();
    if let Some(addr) = cli.value("--addr") {
        config.addr = addr.to_owned();
    }
    if let Some(workers) = cli.parsed::<usize>("--workers")? {
        config.workers = workers;
    }
    if let Some(depth) = cli.parsed::<usize>("--queue")? {
        config.queue_depth = depth;
    }
    config.cache_dir = cli.value("--cache-dir").map(Into::into);
    config.trace_dir = cli.value("--trace-dir").map(Into::into);
    config.default_timeout_ms = cli.parsed::<u64>("--timeout-ms")?;

    let addr = config.addr.clone();
    let server = parsynt::serve::Server::bind(config)
        .map_err(|source| CliError::Io { path: addr, source })?;
    println!("parsynt-serve listening on http://{}", server.local_addr());
    println!("  POST /parallelize   GET /healthz   GET /stats");
    server.run().map_err(|source| CliError::Io {
        path: "serve".to_owned(),
        source,
    })
}

fn cmd_bench_list() -> Result<(), CliError> {
    println!("{:<22} {:<20} {:>5} expected", "id", "paper name", "dim");
    for b in all_benchmarks() {
        println!(
            "{:<22} {:<20} {:>5} {:?}",
            b.id,
            b.display,
            format!("{:?}", b.dim),
            b.expected
        );
    }
    Ok(())
}

fn cmd_bench(cli: &Cli) -> Result<(), CliError> {
    let id = cli
        .positionals
        .first()
        .ok_or_else(|| CliError::Usage("missing benchmark id".to_owned()))?;
    let b = benchmark(id).ok_or_else(|| CliError::Usage(format!("unknown benchmark `{id}`")))?;
    let program = parse(b.source).map_err(|e| CliError::Parse(e.to_string()))?;
    let sink = trace_sink(cli)?;
    let report = run_pipeline(
        &program,
        b.profile.clone(),
        config_from(cli)?,
        None,
        sink.as_ref(),
        cache_from(cli)?,
    )?;
    let json = cli.switch("--json");
    if !json {
        println!("benchmark: {} ({})", b.id, b.display);
        print_plan(&report.parallelization);
    }
    if report.report().deadline_exceeded {
        if json {
            println!("{}", report.to_json_pretty());
        }
        return deadline_check(&report);
    }

    // Execute the native workload (when one is registered) on the
    // work-stealing runtime, under the same trace sink, so the JSONL
    // stream carries executor events next to the synthesis events.
    if !report.parallelization.is_unparallelizable() {
        if let Some(w) = workload(id) {
            let threads = cli.parsed::<usize>("--threads")?.unwrap_or(4).max(2);
            let total = 200_000;
            let grain = cli.parsed::<usize>("--grain")?.unwrap_or(1_000);
            let prepared = (w.prepare)(total, 7);
            let cfg = parsynt::runtime::RunConfig::default()
                .with_threads(threads)
                .with_grain(grain);
            let _guard = set_ambient(match &sink {
                Some(s) => Tracer::new(Arc::clone(s) as Arc<dyn TraceSink>),
                None => Tracer::disabled(),
            });
            let seq = prepared.sequential();
            let par = prepared.parallel(cfg);
            if par != seq {
                return Err(CliError::Exec(format!(
                    "native workload `{id}`: parallel digest differs from sequential"
                )));
            }
            if !json {
                println!(
                    "\nnative workload: {} outer elements on {threads} threads \
                     (grain {grain}): digests agree ✓",
                    prepared.outer_len()
                );
            }
        }
    }
    if json {
        println!("{}", report.to_json_pretty());
    }
    Ok(())
}
