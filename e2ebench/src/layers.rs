//! The traced run's per-layer operations. Each public call below runs
//! inside a span; the per-layer metrics are computed from the span
//! durations. README.md maps every metric to the end-to-end metric it
//! should move.

use crate::inputs::{leaves, Rng};
use crate::spec::{FALLBACK_PROBE, ORACLE_LEAVES};
use crate::stats::{median, quantile};
use crate::{check_ref, Bench, Fixture, Metrics, Plan};
use parsynt_core::{
    chunk_value_inputs, compile_plan, fingerprint, fingerprint_hex, run_plan_checked,
    run_stream_checked, CachedSolution, CompiledDncTask, RunConfig, SolutionCache,
};
use parsynt_lang::interp::StateVec;
use parsynt_lang::{parse, Value};
use parsynt_lift::homomorphism::{homomorphism_lift, HomLiftOutcome};
use parsynt_lift::memoryless::memoryless_lift;
use parsynt_runtime::Executor;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Joins timed per `compile.join` span.
const JOINS_PER_SPAN: u64 = 1_000;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// `got` must equal the reference result for `key`, when there is one.
fn agrees(fx: &Fixture, key: (usize, usize), got: &StateVec) -> Result<(), String> {
    match fx.refs.get(&key) {
        Some(r) if r != got => Err("differs from execute".into()),
        _ => Ok(()),
    }
}

/// Per-layer operations on the plan in `slot`.
pub fn slot(bench: &mut Bench<'_>, fx: &mut Fixture, slot: usize) {
    let Some(plan) = fx.plans[slot].as_mut() else {
        return;
    };
    let id = plan.id;
    let t = &mut bench.tracer;

    // lang
    let parsed: Vec<_> = (0..5)
        .map(|_| t.span("lang.parse", id, 0, || parse(plan.source)).0)
        .collect();
    for p in parsed {
        bench.account("lang.parse", p.map(drop).map_err(err));
    }

    // lift (memoryless, then homomorphism on its output, as the schema
    // runs them)
    let cfg = Plan::config(&plan.bench);
    let t = &mut bench.tracer;
    let (ml, _) = t.span("lift.memoryless", id, 0, || {
        memoryless_lift(&plan.program, &cfg.profile, &cfg.synth)
    });
    if let Some(ml) = bench.account("lift.memoryless", ml.map_err(err)) {
        let (hl, _) = bench.tracer.span("lift.homomorphism", id, 0, || {
            homomorphism_lift(&ml.program, &cfg.profile, &cfg.synth)
        });
        let hl = hl.map_err(err).and_then(|h| match h {
            HomLiftOutcome::Success { rounds, aux, .. } => Ok((rounds, aux.len())),
            HomLiftOutcome::Failure { .. } => Err("homomorphism lift failed".into()),
        });
        if let Some((rounds, aux)) = bench.account("lift.homomorphism", hl) {
            let extra = &mut bench.extra;
            extra.push("lift.memoryless_candidates", id, 0.0, ml.candidates as u64);
            extra.push("lift.rounds", id, 0.0, rounds as u64);
            extra.push("lift.aux_count", id, 0.0, (ml.aux_added.len() + aux) as u64);
        }
    }

    if plan.compiled {
        compiled_layers(bench, fx, slot);
    } else {
        let input = &fx.inputs[&ORACLE_LEAVES][&plan.domain];
        fallback(bench, input, plan, slot, &mut fx.refs);
    }

    // fingerprint, cache lookup and report serialization: the
    // in-process half of a daemon cache hit
    let plan = fx.plans[slot].as_mut().expect("plan checked above");
    let t = &mut bench.tracer;
    let key = (0..20)
        .map(|_| {
            t.span("fingerprint", id, 0, || fingerprint(&plan.program))
                .0
        })
        .last()
        .unwrap_or_default();
    let cache = SolutionCache::in_memory(16);
    cache.insert(
        key,
        CachedSolution {
            fingerprint: fingerprint_hex(key),
            parallelization: plan.nt.parallelization.clone(),
            plan: plan.nt.plan_text().to_owned(),
            seed: plan.nt.seed(),
        },
    );
    let found = (0..20)
        .map(|_| t.span("cache.lookup", id, 0, || cache.lookup(key)).0)
        .all(|hit| hit.is_some_and(|h| h.plan == plan.nt.plan_text()));
    bench.account(
        "cache.lookup",
        found
            .then_some(())
            .ok_or_else(|| "cache lookup missed".to_owned()),
    );
    let t = &mut bench.tracer;
    for _ in 0..5 {
        let (json, _) = t.span("report.to_json", id, 0, || plan.nt.to_json());
        black_box(json);
    }
}

/// Interpreter fallback: `execute` on a plan the compiler does not
/// cover, over the small oracle input.
fn fallback(
    bench: &mut Bench<'_>,
    input: &[Value],
    plan: &mut Plan,
    slot: usize,
    refs: &mut BTreeMap<(usize, usize), StateVec>,
) {
    let elements = leaves(&input[0]);
    for _ in 0..3 {
        let (out, _) = bench.tracer.span("exec.fallback", plan.id, elements, || {
            crate::execute(&mut plan.nt, input)
        });
        let out = out.and_then(|s| check_ref(refs, (slot, ORACLE_LEAVES), &s));
        bench.account("exec.fallback", out);
    }
}

/// Compiler, runtime, native, and stream layers of a compiled plan.
fn compiled_layers(bench: &mut Bench<'_>, fx: &Fixture, slot: usize) {
    let spec = bench.spec;
    let seed = bench.seed;
    let plan = fx.plans[slot].as_ref().expect("compiled plan");
    let (id, par) = (plan.id, &plan.nt.parallelization);
    let t = &mut bench.tracer;
    for _ in 0..5 {
        let _ = t.span("compile.plan", id, 0, || compile_plan(par).map(drop));
    }
    let Some(cp) = bench.account("compile.plan", compile_plan(par).map_err(err)) else {
        return;
    };
    let threads = RunConfig::default().threads;
    let key = (slot, spec.exec_leaves);

    let input = fx.input(spec.exec_leaves, &plan.domain);
    let elements = leaves(&input[0]);
    let t = &mut bench.tracer;
    let (flat, _) = t.span("compile.flatten", id, elements, || cp.flatten(&input[0]));
    let Some(flat) = bench.account(
        "compile.flatten",
        flat.ok_or_else(|| "input does not flatten".to_owned()),
    ) else {
        return;
    };
    let n = flat.outer_len();
    let t = &mut bench.tracer;
    let (kernel, _) = t.span("compile.kernel", id, elements, || cp.summarize(&flat, 0, n));
    let kernel = kernel.and_then(|s| agrees(fx, key, &cp.state_to_vec(&s)).map(|()| s));
    if let Some(state) = bench.account("compile.kernel", kernel) {
        let t = &mut bench.tracer;
        for _ in 0..5 {
            t.span("compile.join", id, JOINS_PER_SPAN, || {
                for _ in 0..JOINS_PER_SPAN {
                    let _ = black_box(cp.join(black_box(&state), black_box(&state)));
                }
            });
        }
    }

    // the fixed cost of one call: a 2-row input at nproc threads
    let oracle = fx.input(ORACLE_LEAVES, &plan.domain);
    let tiny = vec![Value::Seq(oracle[0].as_seq().unwrap_or(&[])[..2].to_vec())];
    let t = &mut bench.tracer;
    for _ in 0..20 {
        let (out, _) = t.span("exec.call_floor", id, 0, || {
            run_plan_checked(par, &tiny, &RunConfig::default()).map(drop)
        });
        if out.is_err() {
            bench.account("exec.call_floor", out.map_err(err));
            break;
        }
    }

    // the runtime executor over the pre-flattened input
    let task = CompiledDncTask::new(&cp, &flat).expect("divide-and-conquer plan");
    let items = task.items();
    for (name, threads) in [("runtime.run_1t", 1), ("runtime.run_nt", threads)] {
        let (out, _) = bench.tracer.span(name, id, elements, || {
            Executor::new(RunConfig::default().with_threads(threads)).run(&task, &items)
        });
        let out = out
            .map_err(err)
            .and_then(|o| agrees(fx, key, &cp.state_to_vec(&o.value)).map(|()| o.degraded));
        bench.account(
            name,
            out.and_then(|d| if d { Err("degraded".into()) } else { Ok(()) }),
        );
    }

    // suite::native, the hand-written ceiling, at the same size
    if let Some(w) = parsynt_suite::workload(id) {
        let prepared = (w.prepare)(spec.exec_leaves, seed);
        let total = spec.exec_leaves as u64;
        let t = &mut bench.tracer;
        let (seq, _) = t.span("native.seq", id, total, || prepared.sequential());
        let (par_digest, _) = t.span("native.par", id, total, || {
            prepared.parallel(RunConfig::default())
        });
        bench.account(
            "native",
            (seq == par_digest)
                .then_some(())
                .ok_or_else(|| "native parallel != sequential".to_owned()),
        );
    }

    // streaming: the runtime session over pre-flattened chunks, then
    // the core's chunking and push paths separately
    let stream_input = fx.input(spec.stream_leaves, &plan.domain);
    let skey = (slot, spec.stream_leaves);
    let elements = leaves(&stream_input[0]);
    let rows = stream_input[0].len().unwrap_or(1);
    let chunk_rows = rows.div_ceil(spec.stream_chunks);
    if let Some(sflat) = cp.flatten(&stream_input[0]) {
        let stask = CompiledDncTask::new(&cp, &sflat).expect("divide-and-conquer plan");
        let sitems = stask.items();
        let (out, _) = bench.tracer.span("runtime.stream", id, elements, || {
            let exec = Executor::new(RunConfig::default());
            let mut session = exec.stream(&stask);
            for chunk in sitems.chunks(chunk_rows) {
                session.push_chunk(chunk)?;
                black_box(session.snapshot());
            }
            Ok::<_, parsynt_runtime::RuntimeError>(session.finish())
        });
        let out = out.map_err(err).and_then(|o| {
            if o.degraded_chunks > 0 || o.recovered_chunks > 0 {
                return Err("stream degraded".into());
            }
            agrees(fx, skey, &cp.state_to_vec(&o.value))
        });
        bench.account("runtime.stream", out);
    }
    let t = &mut bench.tracer;
    let (chunks, _) = t.span("stream.chunking", id, 0, || {
        chunk_value_inputs(par, stream_input, chunk_rows)
    });
    if let Some(chunks) = bench.account("stream.chunking", chunks.map_err(err)) {
        bench
            .extra
            .push("stream.chunks", id, 0.0, chunks.len() as u64);
        let (out, _) = bench.tracer.span("stream.push", id, elements, || {
            run_stream_checked(par, chunks, RunConfig::default(), 1, |s| {
                black_box(s);
            })
        });
        let out = out.map_err(err).and_then(|o| {
            if o.degraded_chunks > 0 || o.recovered_chunks > 0 {
                return Err("stream degraded".into());
            }
            agrees(fx, skey, &o.state)
        });
        bench.account("stream.push", out);
    }
}

/// Once per traced round: the HTTP floor, and the interpreter fallback
/// probe when the workload's own list has no uncovered plan.
pub fn round(bench: &mut Bench<'_>, fx: &mut Fixture) -> Result<(), String> {
    for _ in 0..20 {
        let (out, _) = bench
            .tracer
            .span("serve.healthz", "daemon", 0, || fx.daemon.healthz());
        bench.account("serve.healthz", out);
    }
    let has_fallback = fx.plans.iter().flatten().any(|p| !p.compiled);
    if !has_fallback {
        if fx.probe.is_none() {
            let b = parsynt_suite::benchmark(FALLBACK_PROBE).ok_or("no fallback probe")?;
            let mut probe = Plan::new(b.clone(), Plan::synthesize(&b)?)?;
            let mut rng = Rng::new(bench.seed, probe.domain.salt(ORACLE_LEAVES));
            let input = vec![probe.domain.generate(ORACLE_LEAVES, &mut rng)];
            bench.account("oracle", probe.oracle(&input).map(drop));
            fx.probe = Some((probe, input));
        }
        let (probe, input) = fx.probe.as_mut().expect("probe set above");
        fallback(bench, input, probe, usize::MAX, &mut fx.refs);
    }
    Ok(())
}

/// The per-layer metrics of a traced run.
pub fn metrics(
    bench: &mut Bench<'_>,
    fx: &mut Fixture,
    cpu: f64,
    mem: f64,
) -> Result<Metrics, String> {
    let stats = fx.daemon.stats()?;
    let s = bench.tracer.samples();
    let x = &bench.extra;
    let e = &bench.e2e;
    let hits = e.pooled("serve_hit");
    let misses = e.pooled("serve_miss");
    let lookups = (stats.cache.hits + stats.cache.misses).max(1) as f64;
    let fallback_plans = fx.plans.iter().flatten().filter(|p| !p.compiled).count();
    let pct = (median(&bench.overhead) - 1.0) * 100.0;
    Ok(vec![
        ("host.threads", RunConfig::default().threads as f64, "count"),
        ("host.ref_cpu_ms", cpu, "ms"),
        ("host.ref_mem_ms", mem, "ms"),
        ("trace.overhead_pct", pct, "%"),
        ("lang.parse_us", s.sum_of_medians("lang.parse") * 1e6, "us"),
        (
            "lift.memoryless_s",
            s.sum_of_medians("lift.memoryless"),
            "s",
        ),
        (
            "lift.homomorphism_s",
            s.sum_of_medians("lift.homomorphism"),
            "s",
        ),
        (
            "lift.memoryless_candidates",
            x.sum_of_counts("lift.memoryless_candidates") as f64,
            "count",
        ),
        (
            "lift.rounds",
            x.sum_of_counts("lift.rounds") as f64,
            "count",
        ),
        (
            "lift.aux_count",
            x.sum_of_counts("lift.aux_count") as f64,
            "count",
        ),
        ("synth.join_s", x.sum_of_medians("synth.join"), "s"),
        (
            "synth.summarization_s",
            x.sum_of_medians("synth.summarization"),
            "s",
        ),
        (
            "compile.plan_us",
            s.sum_of_medians("compile.plan") * 1e6,
            "us",
        ),
        (
            "compile.flatten_el_per_s",
            s.rate("compile.flatten"),
            "el/s",
        ),
        ("compile.kernel_el_per_s", s.rate("compile.kernel"), "el/s"),
        (
            "compile.join_ns",
            s.mean_of_medians("compile.join") / JOINS_PER_SPAN as f64 * 1e9,
            "ns",
        ),
        ("exec.el_per_s", e.rate("exec_nt"), "el/s"),
        ("exec.speedup", crate::speedup(bench), "x"),
        (
            "exec.call_floor_us",
            s.mean_of_medians("exec.call_floor") * 1e6,
            "us",
        ),
        ("exec.fallback_el_per_s", s.rate("exec.fallback"), "el/s"),
        ("exec.fallback_plans", fallback_plans as f64, "count"),
        (
            "exec.vs_native_1t",
            e.rate("exec_1t") / s.rate("native.seq"),
            "ratio",
        ),
        ("runtime.run_1t_el_per_s", s.rate("runtime.run_1t"), "el/s"),
        ("runtime.run_el_per_s", s.rate("runtime.run_nt"), "el/s"),
        ("runtime.stream_el_per_s", s.rate("runtime.stream"), "el/s"),
        ("native.el_per_s_1t", s.rate("native.seq"), "el/s"),
        ("native.el_per_s", s.rate("native.par"), "el/s"),
        (
            "stream.chunking_ms",
            s.mean_of_medians("stream.chunking") * 1e3,
            "ms",
        ),
        ("stream.push_el_per_s", s.rate("stream.push"), "el/s"),
        ("stream.chunks", x.mean_of_counts("stream.chunks"), "count"),
        (
            "fingerprint.us",
            s.mean_of_medians("fingerprint") * 1e6,
            "us",
        ),
        (
            "cache.lookup_us",
            s.mean_of_medians("cache.lookup") * 1e6,
            "us",
        ),
        (
            "report.to_json_us",
            s.mean_of_medians("report.to_json") * 1e6,
            "us",
        ),
        (
            "serve.healthz_p50_ms",
            median(&s.pooled("serve.healthz")) * 1e3,
            "ms",
        ),
        ("serve.hit_p99_ms", quantile(&hits, 0.99) * 1e3, "ms"),
        ("serve.hit_samples", hits.len() as f64, "count"),
        ("serve.miss_p99_ms", quantile(&misses, 0.99) * 1e3, "ms"),
        ("serve.miss_samples", misses.len() as f64, "count"),
        ("serve.shed", stats.shed as f64, "count"),
        (
            "cache.hit_ratio",
            stats.cache.hits as f64 / lookups,
            "ratio",
        ),
    ])
}
