//! Cross-checks tying the three artifacts of each benchmark together:
//! the interpreted mini-language source must agree with the native
//! sequential implementation on shared inputs. (The native parallel ==
//! native sequential direction is covered by the property tests; the
//! synthesized-plan == interpreted-source direction by the pipeline
//! tests.)

use parsynt::lang::interp::run_program;
use parsynt::lang::{parse, Value};
use parsynt::suite::benchmark;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn rows(n: usize, m: usize, seed: u64, lo: i64, hi: i64) -> Vec<Vec<i64>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..m).map(|_| rng.gen_range(lo..=hi)).collect())
        .collect()
}

fn run_source(id: &str, input: Value) -> parsynt::lang::interp::StateVec {
    let b = benchmark(id).expect("known benchmark");
    let p = parse(b.source).expect("source parses");
    run_program(&p, &[input]).expect("source runs")
}

fn scalar(id: &str, input: Value, var: &str) -> i64 {
    let b = benchmark(id).unwrap();
    let p = parse(b.source).unwrap();
    run_program(&p, &[input])
        .unwrap()
        .scalar_named(&p, var)
        .unwrap_or_else(|| panic!("{id}: no scalar {var}"))
}

#[test]
fn sum_source_matches_native() {
    let data = rows(30, 7, 1, -50, 50);
    let native: i64 = data.iter().flatten().sum();
    assert_eq!(scalar("sum", Value::seq2_of_ints(&data), "s"), native);
}

#[test]
fn mbbs_source_matches_native() {
    let mut rng = SmallRng::seed_from_u64(2);
    let planes: Vec<Vec<Vec<i64>>> = (0..20)
        .map(|_| {
            (0..3)
                .map(|_| (0..4).map(|_| rng.gen_range(-9..=9)).collect())
                .collect()
        })
        .collect();
    let mut mbbs = 0i64;
    for p in &planes {
        let s: i64 = p.iter().flatten().sum();
        mbbs = (mbbs + s).max(0);
    }
    assert_eq!(scalar("mbbs", Value::seq3_of_ints(&planes), "mbbs"), mbbs);
}

#[test]
fn mtls_source_matches_brute_force() {
    let data = rows(12, 5, 3, -9, 9);
    let mut best = 0i64; // mtl starts at 0 in the source
    for i in 0..data.len() {
        for j in 0..data[0].len() {
            let s: i64 = (0..=i).map(|r| data[r][..=j].iter().sum::<i64>()).sum();
            best = best.max(s);
        }
    }
    assert_eq!(scalar("mtls", Value::seq2_of_ints(&data), "mtl"), best);
}

#[test]
fn bp_source_matches_native_fold() {
    // Mirror the native bp (map + fold) against the interpreted source.
    let mut rng = SmallRng::seed_from_u64(4);
    let lines: Vec<Vec<i64>> = (0..30)
        .map(|_| {
            (0..rng.gen_range(1..6))
                .map(|_| if rng.gen_bool(0.5) { 1 } else { -1 })
                .collect()
        })
        .collect();
    let (mut offset, mut bal, mut cnt) = (0i64, true, 0i64);
    for line in &lines {
        let (mut lo, mut mo) = (0i64, 0i64);
        for &c in line {
            lo += if c == 1 { 1 } else { -1 };
            mo = mo.min(lo);
        }
        bal = bal && offset + mo >= 0;
        offset += lo;
        if bal && lo == 0 && offset == 0 {
            cnt += 1;
        }
    }
    assert_eq!(scalar("bp", Value::seq2_of_ints(&lines), "cnt"), cnt);
}

#[test]
fn mode_source_matches_native() {
    let mut rng = SmallRng::seed_from_u64(5);
    let data: Vec<i64> = (0..200).map(|_| rng.gen_range(0..8)).collect();
    let mut counts = [0i64; 8];
    for &v in &data {
        counts[v as usize] += 1;
    }
    let native = counts.iter().copied().max().unwrap();
    assert_eq!(scalar("mode", Value::seq_of_ints(&data), "mode"), native);
}

#[test]
fn balanced_substrings_source_matches_native() {
    let mut rng = SmallRng::seed_from_u64(6);
    let data: Vec<i64> = (0..300)
        .map(|_| if rng.gen_bool(0.5) { 1 } else { -1 })
        .collect();
    let (mut matched, mut open) = (0i64, 0i64);
    for &c in &data {
        if c == 1 {
            open += 1;
        } else if open > 0 {
            open -= 1;
            matched += 1;
        }
    }
    assert_eq!(
        scalar("balanced_substrings", Value::seq_of_ints(&data), "matched"),
        matched
    );
}

#[test]
fn max_dist_source_matches_native() {
    let mut rng = SmallRng::seed_from_u64(7);
    let data: Vec<i64> = (0..150).map(|_| rng.gen_range(-50..=50)).collect();
    let native = data.windows(2).map(|w| (w[1] - w[0]).abs()).max().unwrap();
    assert_eq!(scalar("max_dist", Value::seq_of_ints(&data), "md"), native);
}

#[test]
fn range_counters_match_native_predicates() {
    let mut rng = SmallRng::seed_from_u64(8);
    let pairs: Vec<Vec<i64>> = (0..120)
        .map(|_| {
            let a = rng.gen_range(-30..=30);
            let b = rng.gen_range(-30..=30);
            vec![a, b]
        })
        .collect();
    let norm: Vec<(i64, i64)> = pairs
        .iter()
        .map(|p| (p[0].min(p[1]), p[0].max(p[1])))
        .collect();
    let count = |pred: &dyn Fn((i64, i64), (i64, i64)) -> bool| -> i64 {
        norm.windows(2).filter(|w| pred(w[0], w[1])).count() as i64
    };
    let input = Value::seq2_of_ints(&pairs);
    assert_eq!(
        scalar("intersecting_ranges", input.clone(), "cnt"),
        count(&|p, c| p.0.max(c.0) <= p.1.min(c.1))
    );
    assert_eq!(
        scalar("increasing_ranges", input.clone(), "cnt"),
        count(&|p, c| c.0 > p.0)
    );
    assert_eq!(
        scalar("overlapping_ranges", input.clone(), "cnt"),
        count(&|p, c| c.0 <= p.1 && c.1 > p.1)
    );
    assert_eq!(
        scalar("pyramid_ranges", input, "cnt"),
        count(&|p, c| p.0 < c.0 && c.1 < p.1)
    );
}

#[test]
fn strip_benchmarks_match_native() {
    let data = rows(25, 6, 9, -50, 50);
    let input = Value::seq2_of_ints(&data);
    let row_sums: Vec<i64> = data.iter().map(|r| r.iter().sum()).collect();

    // max top strip
    let mut cur = 0i64;
    let mut mts = 0i64;
    for &s in &row_sums {
        cur += s;
        mts = mts.max(cur);
    }
    assert_eq!(scalar("max_top_strip", input.clone(), "mts"), mts);

    // max bottom strip
    let mut mbs = 0i64;
    for &s in &row_sums {
        mbs = (mbs + s).max(0);
    }
    assert_eq!(scalar("max_bottom_strip", input.clone(), "mbs"), mbs);

    // max segment strip (Kadane)
    let mut k = 0i64;
    let mut best = 0i64;
    for &s in &row_sums {
        k = (k + s).max(0);
        best = best.max(k);
    }
    assert_eq!(scalar("max_segment_strip", input, "best"), best);
}

#[test]
fn sorted_source_detects_both_outcomes() {
    let asc = vec![vec![1, 2, 3], vec![4, 5, 6]];
    let out = run_source("sorted", Value::seq2_of_ints(&asc));
    let b = benchmark("sorted").unwrap();
    let p = parse(b.source).unwrap();
    assert_eq!(out.bool_named(&p, "srt"), Some(true));
    let desc = vec![vec![1, 5, 3], vec![4, 5, 6]];
    let out = run_source("sorted", Value::seq2_of_ints(&desc));
    assert_eq!(out.bool_named(&p, "srt"), Some(false));
}

#[test]
fn min_max_col_source_matches_native() {
    let data = rows(15, 4, 11, -50, 50);
    let b = benchmark("min_max_col").unwrap();
    let p = parse(b.source).unwrap();
    let out = run_program(&p, &[Value::seq2_of_ints(&data)]).unwrap();
    for j in 0..4 {
        let col: Vec<i64> = data.iter().map(|r| r[j]).collect();
        let cmin = out.value_named(&p, "cmin").unwrap().as_seq().unwrap()[j]
            .as_int()
            .unwrap();
        let cmax = out.value_named(&p, "cmax").unwrap().as_seq().unwrap()[j]
            .as_int()
            .unwrap();
        assert_eq!(cmin, col.iter().copied().min().unwrap());
        assert_eq!(cmax, col.iter().copied().max().unwrap());
    }
}

#[test]
fn lcs_source_is_longest_aligned_run() {
    let pairs = vec![
        vec![1, 1],
        vec![2, 2],
        vec![3, 0],
        vec![4, 4],
        vec![5, 5],
        vec![6, 6],
    ];
    assert_eq!(scalar("lcs", Value::seq2_of_ints(&pairs), "best"), 3);
}

// ---------------------------------------------------------------------------
// Engine differential coverage: the compiled fused-kernel engine must be
// byte-identical to the tree-walking interpreter — and both must agree
// with the native oracles above — over the shipped example programs.
// ---------------------------------------------------------------------------

mod engines {
    use super::rows;
    use parsynt::core::{
        chunk_value_inputs, compile_plan, run_plan_checked, run_plan_interpreted,
        run_stream_checked, run_stream_interpreted, Parallelization, Pipeline, PipelineConfig,
        RunConfig,
    };
    use parsynt::lang::interp::StateVec;
    use parsynt::lang::{parse, Value};
    use parsynt::suite::benchmark;
    use parsynt::trace::{set_ambient, CollectingSink, FieldValue, Tracer};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::sync::OnceLock;

    /// Synthesize one of the shipped `programs/*.psl` files, borrowing
    /// the bounded-verification input profile of the matching suite
    /// benchmark (brackets for bp, small matrices otherwise).
    fn synthesize_file(path: &str, profile_of: &str) -> Parallelization {
        let source = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let program = parse(&source).expect("program parses");
        let profile = benchmark(profile_of)
            .expect("profile source")
            .profile
            .clone();
        Pipeline::new(&program)
            .configure(PipelineConfig::default().with_profile(profile))
            .run()
            .unwrap_or_else(|e| panic!("pipeline error on {path}: {e}"))
            .parallelization
    }

    fn sum2d_plan() -> &'static Parallelization {
        static PLAN: OnceLock<Parallelization> = OnceLock::new();
        PLAN.get_or_init(|| synthesize_file("programs/sum2d.psl", "sum"))
    }

    fn mbbs_plan() -> &'static Parallelization {
        static PLAN: OnceLock<Parallelization> = OnceLock::new();
        PLAN.get_or_init(|| synthesize_file("programs/mbbs.psl", "mbbs"))
    }

    fn mbs_plan() -> &'static Parallelization {
        static PLAN: OnceLock<Parallelization> = OnceLock::new();
        PLAN.get_or_init(|| {
            let b = benchmark("max_bottom_strip").expect("known benchmark");
            let program = parse(b.source).expect("source parses");
            Pipeline::new(&program)
                .configure(PipelineConfig::default().with_profile(b.profile.clone()))
                .run()
                .expect("max_bottom_strip synthesizes")
                .parallelization
        })
    }

    /// Run the plan and its interpreted reference and insist they agree
    /// byte-for-byte; returns the (shared) final state.
    fn run_both(plan: &Parallelization, inputs: &[Value], threads: usize) -> StateVec {
        let run = RunConfig::work_stealing(threads);
        let interp = run_plan_interpreted(plan, inputs, &run).expect("interpreter reference runs");
        let compiled = run_plan_checked(plan, inputs, &run).expect("compiled engine runs");
        assert_eq!(
            interp.state, compiled.state,
            "engines disagree at {threads} threads"
        );
        assert!(!interp.degraded && !compiled.degraded);
        compiled.state
    }

    #[test]
    fn sum2d_psl_compiles_and_matches_native_oracle() {
        let plan = sum2d_plan();
        compile_plan(plan).expect("sum2d compiles to a fused kernel");
        let data = rows(37, 6, 21, -50, 50);
        let native: i64 = data.iter().flatten().sum();
        let input = Value::seq2_of_ints(&data);
        for threads in [1, 2, 3, 8] {
            let state = run_both(plan, std::slice::from_ref(&input), threads);
            assert_eq!(state.scalar_named(&plan.program, "s"), Some(native));
        }
    }

    #[test]
    fn mbbs_psl_compiles_and_matches_native_oracle() {
        let plan = mbbs_plan();
        compile_plan(plan).expect("mbbs compiles to a fused kernel");
        let mut rng = SmallRng::seed_from_u64(22);
        let planes: Vec<Vec<Vec<i64>>> = (0..24)
            .map(|_| {
                (0..3)
                    .map(|_| (0..4).map(|_| rng.gen_range(-9..=9)).collect())
                    .collect()
            })
            .collect();
        let mut native = 0i64;
        for p in &planes {
            let s: i64 = p.iter().flatten().sum();
            native = (native + s).max(0);
        }
        let input = Value::seq3_of_ints(&planes);
        for threads in [1, 3, 8] {
            let state = run_both(plan, std::slice::from_ref(&input), threads);
            assert_eq!(state.scalar_named(&plan.program, "mbbs"), Some(native));
        }
    }

    /// Completes the four-program `programs/*.psl` sweep. Synthesis for
    /// these two takes minutes even in release mode (~50 s for
    /// max_top_left_sum, ~4 min for balanced_parentheses), so the test is
    /// opt-in:
    /// `cargo test --release --test native_vs_interpreter -- --ignored`.
    #[test]
    #[ignore = "minutes of synthesis; run with cargo test --release --test native_vs_interpreter -- --ignored"]
    fn remaining_psl_programs_cross_check_or_fall_back() {
        // balanced_parentheses.psl: a map-only plan the kernel compiler
        // fully covers (bool state stored as 0/1).
        let plan = synthesize_file("programs/balanced_parentheses.psl", "bp");
        assert!(!plan.is_divide_and_conquer());
        compile_plan(&plan).expect("balanced_parentheses compiles");
        let mut rng = SmallRng::seed_from_u64(23);
        let lines: Vec<Vec<i64>> = (0..40)
            .map(|_| {
                (0..rng.gen_range(1..6))
                    .map(|_| if rng.gen_bool(0.5) { 1 } else { -1 })
                    .collect()
            })
            .collect();
        let (mut offset, mut bal, mut cnt) = (0i64, true, 0i64);
        for line in &lines {
            let (mut lo, mut mo) = (0i64, 0i64);
            for &c in line {
                lo += if c == 1 { 1 } else { -1 };
                mo = mo.min(lo);
            }
            bal = bal && offset + mo >= 0;
            offset += lo;
            if bal && lo == 0 && offset == 0 {
                cnt += 1;
            }
        }
        let input = Value::seq2_of_ints(&lines);
        for threads in [1, 4] {
            let state = run_both(&plan, std::slice::from_ref(&input), threads);
            assert_eq!(state.scalar_named(&plan.program, "cnt"), Some(cnt));
        }

        // max_top_left_sum.psl keeps a `seq<int>` auxiliary accumulator,
        // which the kernel compiler rejects — the compiled engine must
        // fall back to the interpreter and still match the brute-force
        // oracle.
        let plan = synthesize_file("programs/max_top_left_sum.psl", "mtls");
        let err = compile_plan(&plan).expect_err("seq<int> state must not compile");
        assert!(!err.reason().is_empty());
        let data = rows(12, 5, 24, -9, 9);
        let mut best = 0i64;
        for i in 0..data.len() {
            for j in 0..data[0].len() {
                let s: i64 = (0..=i).map(|r| data[r][..=j].iter().sum::<i64>()).sum();
                best = best.max(s);
            }
        }
        let input = Value::seq2_of_ints(&data);
        for threads in [1, 4] {
            let state = run_both(&plan, std::slice::from_ref(&input), threads);
            assert_eq!(state.scalar_named(&plan.program, "mtl"), Some(best));
        }
    }

    fn max_top_strip_plan() -> &'static Parallelization {
        static PLAN: OnceLock<Parallelization> = OnceLock::new();
        PLAN.get_or_init(|| {
            let b = benchmark("max_top_strip").expect("known benchmark");
            let program = parse(b.source).expect("source parses");
            Pipeline::new(&program)
                .configure(PipelineConfig::default().with_profile(b.profile.clone()))
                .run()
                .expect("max_top_strip synthesizes")
                .parallelization
        })
    }

    /// The superinstruction forms the lowering chose for `plan`, read
    /// from its `compile_plan` trace event.
    #[derive(Debug)]
    struct Fused {
        leaf_ops: i64,
        leaf_loads: i64,
        row_loops: i64,
        slice_folds: i64,
    }

    fn fused_forms(plan: &Parallelization) -> Fused {
        let sink = CollectingSink::new();
        {
            let _guard = set_ambient(Tracer::from_sink(sink.clone()));
            compile_plan(plan).expect("plan compiles");
        }
        let events = sink.events();
        let event = events
            .iter()
            .find(|e| e.name == "compile_plan")
            .expect("compile_plan event");
        let count = |key: &str| match event.fields.get(key) {
            Some(FieldValue::Int(n)) => *n,
            other => panic!("compile_plan.{key} = {other:?}"),
        };
        Fused {
            leaf_ops: count("leaf_ops"),
            leaf_loads: count("leaf_loads"),
            row_loops: count("row_loops"),
            slice_folds: count("slice_folds"),
        }
    }

    /// The Figure-9 plans must run on the superinstruction forms, not
    /// slide back to generic closures: each has a row loop folded over
    /// its rows and operators fused with their register operands.
    #[test]
    fn figure9_plans_take_the_fused_forms() {
        for (name, plan) in [
            ("sum", sum2d_plan()),
            ("max_top_strip", max_top_strip_plan()),
            ("mbbs", mbbs_plan()),
        ] {
            let fused = fused_forms(plan);
            assert!(fused.row_loops >= 1, "{name}: {fused:?}");
            assert!(fused.slice_folds >= 1, "{name}: {fused:?}");
            assert!(fused.leaf_ops >= 1, "{name}: {fused:?}");
        }
    }

    /// A divide-and-conquer plan over `source` with the join
    /// `v = v__l + v__r` (`&&` on booleans) and no synthesis. The join
    /// need not be right for the program; both engines run the same one,
    /// so they must agree byte for byte at every chunking.
    fn plan_of(source: &str) -> Parallelization {
        use parsynt::core::{Outcome, Report};
        use parsynt::lang::ast::{BinOp, Expr, LValue, Stmt};
        use parsynt::lang::Ty;
        use parsynt::synth::join::{JoinVocab, SynthesizedJoin};
        let mut program = parse(source).expect("source parses");
        let vocab = JoinVocab::install(&mut program);
        let stmts = program
            .state
            .iter()
            .map(|d| {
                let v = vocab.var(d.name).expect("state in the vocabulary");
                let op = if d.ty == Ty::Bool {
                    BinOp::And
                } else {
                    BinOp::Add
                };
                Stmt::Assign {
                    target: LValue::var(d.name),
                    value: Expr::bin(op, Expr::var(v.l), Expr::var(v.r)),
                }
            })
            .collect();
        Parallelization {
            program,
            outcome: Outcome::DivideAndConquer {
                join: SynthesizedJoin { stmts },
                vocab,
            },
            report: Report::default(),
        }
    }

    type Snapshots = Vec<(usize, u64, StateVec)>;

    /// Stream `input` in `chunk_rows`-row chunks with a snapshot after
    /// every chunk, compiled or (`reference`) interpreted.
    fn stream(
        plan: &Parallelization,
        input: &Value,
        chunk_rows: usize,
        reference: bool,
    ) -> (Result<StateVec, String>, Snapshots) {
        let chunks =
            chunk_value_inputs(plan, std::slice::from_ref(input), chunk_rows).expect("chunkable");
        let mut snaps = Vec::new();
        let run = RunConfig::work_stealing(2);
        let snap = |s: &parsynt::core::StreamSnapshot| {
            snaps.push((s.chunks, s.elements, s.state.clone()));
        };
        let out = if reference {
            run_stream_interpreted(plan, chunks, run, 1, snap)
        } else {
            run_stream_checked(plan, chunks, run, 1, snap)
        };
        (out.map(|o| o.state).map_err(|e| e.to_string()), snaps)
    }

    /// Both engines at 1, 2, 3 and 8 threads and as streams of 1-, 2-
    /// and 5-row chunks (a snapshot after every chunk): results, error
    /// messages and snapshots must be byte-identical. Returns the
    /// 1-thread result.
    fn engines_agree(plan: &Parallelization, input: &Value) -> Result<StateVec, String> {
        let inputs = [input.clone()];
        let batch = |threads: usize, reference: bool| {
            let run = RunConfig::work_stealing(threads);
            let out = if reference {
                run_plan_interpreted(plan, &inputs, &run)
            } else {
                run_plan_checked(plan, &inputs, &run)
            };
            out.map(|o| o.state).map_err(|e| e.to_string())
        };
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                batch(threads, false),
                batch(threads, true),
                "engines disagree at {threads} threads"
            );
        }
        if input.len().unwrap_or(0) > 0 {
            for chunk_rows in [1, 2, 5] {
                assert_eq!(
                    stream(plan, input, chunk_rows, false),
                    stream(plan, input, chunk_rows, true),
                    "streams disagree at {chunk_rows}-row chunks"
                );
            }
        }
        batch(1, false)
    }

    /// An input of the given depth: `n` outer elements, ragged and empty
    /// rows (rows of exactly `width` when pinned), values from `values`.
    fn input_of(depth: usize, n: usize, width: Option<usize>, values: &[i64], seed: u64) -> Value {
        let mut rng = SmallRng::seed_from_u64(seed);
        let row = |rng: &mut SmallRng| -> Vec<i64> {
            let len = width.unwrap_or_else(|| rng.gen_range(0..6));
            (0..len)
                .map(|_| values[rng.gen_range(0..values.len())])
                .collect()
        };
        match depth {
            1 => Value::seq_of_ints(
                &(0..n)
                    .map(|_| values[rng.gen_range(0..values.len())])
                    .collect::<Vec<_>>(),
            ),
            2 => Value::seq2_of_ints(&(0..n).map(|_| row(&mut rng)).collect::<Vec<_>>()),
            _ => Value::seq3_of_ints(
                &(0..n)
                    .map(|_| (0..rng.gen_range(0..4)).map(|_| row(&mut rng)).collect())
                    .collect::<Vec<_>>(),
            ),
        }
    }

    /// Values in `-20..=20`.
    fn small() -> Vec<i64> {
        (-20..=20).collect()
    }

    /// Rows at the `i64` limits, so sums and products wrap.
    fn extremes() -> Vec<Vec<i64>> {
        vec![
            vec![i64::MAX, 1, i64::MAX],
            vec![],
            vec![i64::MIN, -1],
            vec![i64::MAX, i64::MIN, i64::MIN, 3],
            vec![7],
        ]
    }

    /// The inputs every depth-2 differential test runs on: ragged rows
    /// with empty ones, wrapping rows, only empty rows, no rows.
    fn depth2_inputs() -> Vec<Value> {
        vec![
            input_of(2, 23, None, &small(), 7),
            Value::seq2_of_ints(&extremes()),
            Value::seq2_of_ints(&[vec![], vec![], vec![]]),
            Value::Seq(Vec::new()),
        ]
    }

    #[test]
    fn slice_folds_match_interpreter() {
        let plan = plan_of(
            "input a : seq<seq<int>>;\n\
             state s : int = 0; state mx : int = 0 - 1000; state mn : int = 1000;\n\
             state rows : int = 0;\n\
             for i in 0 .. len(a) {\n\
               for j in 0 .. len(a[i]) {\n\
                 s = s + a[i][j]; mx = max(mx, a[i][j]); mn = min(a[i][j], mn);\n\
               }\n\
               rows = rows + 1;\n\
             }",
        );
        let fused = fused_forms(&plan);
        assert_eq!((fused.row_loops, fused.slice_folds), (1, 3), "{fused:?}");
        for input in depth2_inputs() {
            engines_agree(&plan, &input).unwrap();
        }
        // Wrap-around at the limits: the fold wraps exactly like the
        // per-element loop.
        let state = engines_agree(&plan, &Value::seq2_of_ints(&extremes())).unwrap();
        let expected = extremes()
            .iter()
            .flatten()
            .fold(0i64, |s, &x| s.wrapping_add(x));
        assert_eq!(state.scalar_named(&plan.program, "s"), Some(expected));
    }

    #[test]
    fn general_row_loops_match_interpreter() {
        // Not a fold body: the loads read the loop's cached row span.
        let plan = plan_of(
            "input a : seq<seq<int>>;\n\
             state s : int = 0; state p : int = 0; state neg : bool = false;\n\
             for i in 0 .. len(a) {\n\
               let row : int = 0;\n\
               for j in 0 .. len(a[i]) {\n\
                 row = row + a[i][j] * 3;\n\
                 if (a[i][j] < 0 && !neg) { neg = true; }\n\
                 p = max(p, 0 - a[i][j]) + j;\n\
               }\n\
               s = s - row; p = p - 2;\n\
             }",
        );
        let fused = fused_forms(&plan);
        assert_eq!((fused.row_loops, fused.slice_folds), (1, 0), "{fused:?}");
        assert!(fused.leaf_ops >= 3 && fused.leaf_loads >= 4, "{fused:?}");
        for input in depth2_inputs() {
            engines_agree(&plan, &input).unwrap();
        }
    }

    #[test]
    fn row_loops_need_an_invariant_row() {
        // The body moves the row index `k`: `len(a[k])` is read once but
        // `a[k][j]` follows `k`, so no row span may be cached.
        let moving = plan_of(
            "input a : seq<seq<int>>; state s : int = 0; state k : int = 0;\n\
             for i in 0 .. len(a) {\n\
               for j in 0 .. len(a[k]) { s = s + a[k][j]; k = i; }\n\
             }",
        );
        assert_eq!(fused_forms(&moving).row_loops, 0);
        let rows = Value::seq2_of_ints(&[vec![1, 2, 3], vec![4], vec![5, 6], vec![7, 8, 9]]);
        engines_agree(&moving, &rows).unwrap_err();
        for input in depth2_inputs() {
            let _ = engines_agree(&moving, &input);
        }
        // The inner counter shadows the outer one: the bound reads row
        // `a[outer i]`, the body `a[inner i][inner i]`, a different row
        // on every iteration. Fold and general bodies alike.
        for body in ["s = s + a[i][i];", "s = s + a[i][i] * 2;"] {
            let shadow = plan_of(&format!(
                "input a : seq<seq<int>>; state s : int = 0;\n\
                 for i in 0 .. len(a) {{ for i in 0 .. len(a[i]) {{ {body} }} }}"
            ));
            assert_eq!(fused_forms(&shadow).row_loops, 0, "{body}");
            // The diagonal 1 + 5 + 10, once per outer row; the outer
            // rows' sums would give 46.
            let square = Value::seq2_of_ints(&[vec![1, 2, 3], vec![4, 5, 6], vec![7, 8, 10]]);
            let state = engines_agree(&shadow, &square).unwrap();
            let scale = if body.contains("* 2") { 2 } else { 1 };
            let diagonal = 3 * 16 * scale;
            assert_eq!(state.scalar_named(&shadow.program, "s"), Some(diagonal));
            for input in depth2_inputs() {
                let _ = engines_agree(&shadow, &input);
            }
        }
    }

    /// A loop counter that shadows a state variable or input is a type
    /// error naming it (the interpreter would unbind the state after the
    /// loop, the compiled engine keep the loop's last value); the same
    /// loop over a fresh counter runs identically under both engines.
    #[test]
    fn state_shadowing_counters_are_rejected() {
        let source = |counter: &str| {
            format!(
                "input a : seq<seq<int>>; state j : int = 7; state s : int = 0;\n\
                 for i in 0 .. len(a) {{ for {counter} in 0 .. len(a[i]) {{ s = s + a[i][{counter}]; }} }}"
            )
        };
        let err = parse(&source("j")).expect_err("counter shadows state `j`");
        assert!(err.to_string().contains("`j`"), "{err}");
        let plan = plan_of(&source("k"));
        for input in depth2_inputs() {
            let state = engines_agree(&plan, &input).expect("runs");
            assert_eq!(state.scalar_named(&plan.program, "j"), Some(7));
        }
    }

    #[test]
    fn out_of_bounds_indices_match_interpreter() {
        let width1 = Value::seq2_of_ints(&[vec![3], vec![4], vec![5]]);
        let cases = [
            // A pair benchmark's constant index on width-1 rows.
            "for i in 0 .. len(a) { s = s + a[i][1]; }",
            "for i in 0 .. len(a) { s = s + a[i][0 - 1]; }",
            // A register index past the chunk.
            "for i in 0 .. len(a) { let k : int = i + 1; s = s + a[k][0]; }",
            // A row-loop bound past the chunk, fold and general bodies.
            "for i in 0 .. len(a) { let k : int = i + 1; \
               for j in 0 .. len(a[k]) { s = s + a[k][j]; } }",
            "for i in 0 .. len(a) { let k : int = i + 1; \
               for j in 0 .. len(a[k]) { s = s + a[k][j] * 2; } }",
            // A row-relative load one past the row.
            "for i in 0 .. len(a) { for j in 0 .. len(a[i]) { s = s + a[i][j + 1]; } }",
        ];
        for body in cases {
            let plan = plan_of(&format!(
                "input a : seq<seq<int>>; state s : int = 0;\n{body}"
            ));
            compile_plan(&plan).expect("plan compiles");
            for input in [width1.clone(), input_of(2, 9, None, &small(), 9)] {
                let err = engines_agree(&plan, &input).unwrap_err();
                assert!(err.contains("out of bounds"), "{body}: {err}");
            }
        }
    }

    /// Both engines with chunking forced by a grain of a few leaves —
    /// the default 50 000-leaf grain keeps test-sized inputs in one
    /// chunk — under both backends at 2, 3 and 8 threads: results and
    /// error messages (the first in input order must win) must be
    /// byte-identical, so the engines' chunk joins are compared too.
    /// Returns every configuration's result.
    fn chunked_engines_agree(
        plan: &Parallelization,
        input: &Value,
    ) -> Vec<Result<StateVec, String>> {
        use parsynt::core::Backend;
        let inputs = [input.clone()];
        let mut results = Vec::new();
        for backend in [Backend::Static, Backend::WorkStealing] {
            for (threads, grain) in [(2, 1), (3, 3), (8, 1), (8, 7)] {
                let cfg = RunConfig::work_stealing(threads)
                    .with_backend(backend)
                    .with_grain(grain);
                let compiled = run_plan_checked(plan, &inputs, &cfg)
                    .map(|o| o.state)
                    .map_err(|e| e.to_string());
                let reference = run_plan_interpreted(plan, &inputs, &cfg)
                    .map(|o| o.state)
                    .map_err(|e| e.to_string());
                assert_eq!(
                    compiled, reference,
                    "{backend:?} {threads} threads grain {grain}"
                );
                results.push(compiled);
            }
        }
        results
    }

    #[test]
    fn engines_agree_at_small_grains() {
        let bodies = [
            "for i in 0 .. len(a) { s = s + a[i][1]; }",
            "for i in 0 .. len(a) { for j in 0 .. len(a[i]) { s = max(s, a[i][j]); } }",
            "for i in 0 .. len(a) { for j in 0 .. len(a[i]) { s = s + 100 / a[i][j]; } }",
        ];
        for body in bodies {
            let plan = plan_of(&format!(
                "input a : seq<seq<int>>; state s : int = 0;\n{body}"
            ));
            for input in depth2_inputs() {
                chunked_engines_agree(&plan, &input);
            }
        }
    }

    /// `suite_sources_agree_under_both_engines` with chunking forced:
    /// every compilable suite source, under its hand-written join, on
    /// ragged, wrapping and empty inputs.
    #[test]
    fn suite_sources_agree_when_chunked() {
        let small: Vec<i64> = (-9..=9).collect();
        let limits = [i64::MAX, i64::MIN, -1, 0, 1, i64::MAX - 1];
        let mut compiled = 0;
        for b in parsynt::suite::all_benchmarks() {
            let plan = plan_of(b.source);
            let Ok(cp) = compile_plan(&plan) else {
                continue;
            };
            compiled += 1;
            let depth = cp.input_depth();
            let pinned = (b.profile.cols.0 == b.profile.cols.1).then_some(b.profile.cols.0);
            let choices = if b.profile.choices.is_empty() {
                &small[..]
            } else {
                &b.profile.choices[..]
            };
            for input in [
                input_of(depth, 13, pinned, choices, 1),
                input_of(depth, 7, pinned, &limits, 2),
                input_of(depth, 0, pinned, choices, 3),
            ] {
                chunked_engines_agree(&plan, &input);
            }
        }
        assert!(compiled >= 15, "only {compiled} suite sources compiled");
    }

    #[test]
    fn division_by_zero_matches_interpreter() {
        let plan = plan_of(
            "input a : seq<seq<int>>; state q : int = 0; state r : int = 0; state w : int = 0;\n\
             for i in 0 .. len(a) {\n\
               for j in 0 .. len(a[i]) {\n\
                 q = q + 100 / a[i][j]; r = r + a[i][j] % (a[i][j] - 4); w = w + a[i][j] / (0 - 1);\n\
               }\n\
             }",
        );
        let zero = Value::seq2_of_ints(&[vec![5, 3], vec![2, 0, 1]]);
        let err = engines_agree(&plan, &zero).unwrap_err();
        assert_eq!(err, "evaluation error: division by zero");
        let rem = Value::seq2_of_ints(&[vec![5, 3], vec![4]]);
        let err = engines_agree(&plan, &rem).unwrap_err();
        assert_eq!(err, "evaluation error: remainder by zero");
        // `i64::MIN / -1` wraps, as in the interpreter.
        let wrap = Value::seq2_of_ints(&[vec![i64::MIN], vec![-1], vec![7]]);
        let state = engines_agree(&plan, &wrap).unwrap();
        let w = i64::MIN.wrapping_div(-1).wrapping_add(1).wrapping_add(-7);
        assert_eq!(state.scalar_named(&plan.program, "w"), Some(w));
    }

    #[test]
    fn depth1_and_depth3_row_loops_match_interpreter() {
        let flat = plan_of(
            "input a : seq<int>; state s : int = 0; state m : int = 0;\n\
             for i in 0 .. len(a) { s = s + a[i]; m = max(m, a[i]); }",
        );
        assert_eq!(fused_forms(&flat).slice_folds, 2);
        let general = plan_of(
            "input a : seq<int>; state d : int = 0; state last : int = 0; state seen : bool = false;\n\
             for i in 0 .. len(a) {\n\
               if (seen) { d = max(d, max(a[i] - last, last - a[i])); }\n\
               last = a[i]; seen = true;\n\
             }",
        );
        let cube = plan_of(
            "input a : seq<seq<seq<int>>>; state s : int = 0; state q : int = 0;\n\
             for i in 0 .. len(a) {\n\
               let plane : int = 0;\n\
               for j in 0 .. len(a[i]) {\n\
                 for k in 0 .. len(a[i][j]) { plane = plane + a[i][j][k]; }\n\
                 for k in 0 .. len(a[i][j]) { q = q + a[i][j][k] * a[i][j][k]; }\n\
               }\n\
               s = max(s + plane, 0);\n\
             }",
        );
        let fused = fused_forms(&cube);
        assert_eq!((fused.row_loops, fused.slice_folds), (2, 1), "{fused:?}");
        for input in [
            Value::seq_of_ints(&[3, -7, i64::MAX, 2, i64::MIN, 0, 9]),
            Value::seq_of_ints(&[]),
        ] {
            engines_agree(&flat, &input).unwrap();
            engines_agree(&general, &input).unwrap();
        }
        engines_agree(&cube, &input_of(3, 9, None, &small(), 11)).unwrap();
        engines_agree(
            &cube,
            &Value::seq3_of_ints(&[vec![vec![i64::MAX, 2]], vec![]]),
        )
        .unwrap();
    }

    /// Every compilable suite benchmark source, under the fused
    /// lowering, agrees with the interpreter on ragged, empty, wrapping
    /// and (for pair benchmarks) too-narrow inputs, including the
    /// out-of-bounds errors the latter raise.
    #[test]
    fn suite_sources_agree_under_both_engines() {
        let small: Vec<i64> = (-9..=9).collect();
        let limits = [i64::MAX, i64::MIN, -1, 0, 1, i64::MAX - 1];
        let mut compiled = 0;
        for b in parsynt::suite::all_benchmarks() {
            let plan = plan_of(b.source);
            let Ok(cp) = compile_plan(&plan) else {
                continue;
            };
            compiled += 1;
            let depth = cp.input_depth();
            let pinned = (b.profile.cols.0 == b.profile.cols.1).then_some(b.profile.cols.0);
            let choices = if b.profile.choices.is_empty() {
                &small[..]
            } else {
                &b.profile.choices[..]
            };
            for input in [
                input_of(depth, 13, pinned, choices, 1),
                input_of(depth, 7, pinned, &limits, 2),
                input_of(depth, 0, pinned, choices, 3),
            ] {
                // Sources that assume rectangular rows fail on ragged
                // ones; `engines_agree` holds the errors equal too.
                let _ = engines_agree(&plan, &input);
            }
            if let Some(width) = pinned {
                // A pair benchmark's `a[i][1]` on rows one too narrow.
                let narrow = input_of(depth, 5, Some(width - 1), choices, 5);
                let err = engines_agree(&plan, &narrow).expect_err("rows too narrow");
                assert!(err.contains("out of bounds"), "{}: {err}", b.id);
            }
        }
        assert!(compiled >= 15, "only {compiled} suite sources compiled");
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(40))]

            /// Compiled and interpreted engines agree on arbitrary ragged
            /// inputs and thread counts (hence chunkings), for both a
            /// plain additive join and a max/ite join.
            #[test]
            fn engines_agree_on_random_inputs(
                data in proptest::collection::vec(
                    proptest::collection::vec(-50i64..51, 0..7), 0..24),
                threads in 1usize..9,
            ) {
                let input = Value::seq2_of_ints(&data);
                run_both(sum2d_plan(), std::slice::from_ref(&input), threads);
                run_both(mbs_plan(), &[input], threads);
            }

            /// The same synthesized plans with chunking forced: both
            /// engines agree, and the synthesized join combines the
            /// chunks into the sequential result.
            #[test]
            fn chunked_plans_equal_the_sequential_run(
                data in proptest::collection::vec(
                    proptest::collection::vec(-50i64..51, 0..7), 0..24),
            ) {
                let input = Value::seq2_of_ints(&data);
                for plan in [sum2d_plan(), mbs_plan()] {
                    let sequential = parsynt::lang::interp::run_program(
                        &plan.program,
                        std::slice::from_ref(&input),
                    )
                    .map_err(|e| e.to_string());
                    for chunked in chunked_engines_agree(plan, &input) {
                        prop_assert_eq!(&chunked, &sequential);
                    }
                }
            }
        }
    }

    /// 16-seed fault sweeps over the compiled kernel running as a
    /// runtime task, mirroring `tests/fault_injection.rs`: transient
    /// faults must recover via the retry without degrading; persistent
    /// faults may degrade to the sequential fallback but must stay
    /// byte-identical.
    #[cfg(feature = "fault-inject")]
    mod faulty {
        use super::*;
        use parsynt::core::{CState, CompiledDncTask};
        use parsynt::runtime::{Backend, Executor, FaultPlan};
        use std::time::Duration;

        fn mixed_plan(seed: u64) -> FaultPlan {
            FaultPlan::seeded(seed)
                .with_panic_rate(0.25)
                .with_poison_rate(0.15)
                .with_delay(0.1, Duration::from_millis(1))
        }

        #[test]
        fn compiled_kernel_fault_sweep_is_byte_identical() {
            let plan = sum2d_plan();
            let compiled = compile_plan(plan).expect("sum2d compiles");
            let data = rows(120, 5, 25, -50, 50);
            let input = Value::seq2_of_ints(&data);
            let flat = compiled.flatten(&input).expect("flattenable input");
            let task = CompiledDncTask::new(&compiled, &flat).expect("dnc task");
            let items = task.items();
            let baseline: CState = Executor::default().run_sequential(&task, &items);
            for seed in 0..16u64 {
                for backend in [Backend::Static, Backend::WorkStealing] {
                    let cfg = RunConfig::work_stealing(4)
                        .with_grain(7)
                        .with_backend(backend);
                    let out = Executor::new(cfg)
                        .with_faults(mixed_plan(seed))
                        .run(&task, &items)
                        .unwrap_or_else(|e| panic!("seed {seed} {backend:?}: {e}"));
                    assert_eq!(out.value, baseline, "seed {seed} {backend:?}");
                    assert!(!out.degraded, "seed {seed} {backend:?}");
                }
                let out = Executor::new(RunConfig::work_stealing(4).with_grain(7))
                    .with_faults(mixed_plan(seed).persistent(true))
                    .run(&task, &items)
                    .unwrap_or_else(|e| panic!("seed {seed} persistent: {e}"));
                assert_eq!(out.value, baseline, "seed {seed} persistent");
            }
        }
    }
}
