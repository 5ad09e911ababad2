//! The §2.2 motivating example: **maximum top-left subarray sum**
//! (mtls) — summarization keeps the loop 2-deep, the lifting needs an
//! *array* of accumulators (`max_rec[]`, Figure 5(c)), and the join is
//! itself a loop (Figure 6).
//!
//! ```sh
//! cargo run --release --example max_top_left_sum
//! ```

use parsynt::core::{run_plan_checked, Outcome, Pipeline, RunConfig};
use parsynt::lang::interp::run_program;
use parsynt::lang::{parse, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = parse(
        "input a : seq<seq<int>>;\n\
         state rec : seq<int> = zeros(len(a[0]));\n\
         state mtl : int = 0;\n\
         for i in 0 .. len(a) {\n\
           let rpre : int = 0;\n\
           for j in 0 .. len(a[i]) {\n\
             rpre = rpre + a[i][j];\n\
             rec[j] = rec[j] + rpre;\n\
             mtl = max(mtl, rec[j]);\n\
           }\n\
         }\n\
         return mtl;",
    )?;

    println!("running the pipeline on mtls (looped join synthesis, ~minutes)...");
    let plan = Pipeline::new(&program).run()?.parallelization;
    let Outcome::DivideAndConquer { join, .. } = &plan.outcome else {
        panic!("mtls lifts to a homomorphism with an array accumulator");
    };
    assert!(plan.report.looped_join, "the join must loop (Figure 6)");
    println!(
        "array auxiliaries discovered: {:?} (the paper's max_rec[])",
        plan.report.aux_homomorphism
    );
    println!("== synthesized looped join (compare Figure 6) ==");
    println!("{}", join.render(&plan.program));

    // Execute the plan in parallel and cross-check.
    let rows: Vec<Vec<i64>> = (0..40)
        .map(|i| {
            (0..12)
                .map(|j| ((i * 7 + j * 13) % 19) as i64 - 9)
                .collect()
        })
        .collect();
    let input = Value::seq2_of_ints(&rows);
    let seq = run_program(&plan.program, std::slice::from_ref(&input))?;
    for threads in [2, 4, 8] {
        // One chunk per thread, so the looped join runs on this small
        // input.
        let run = RunConfig::static_schedule(threads).with_grain(1);
        let par = run_plan_checked(&plan, std::slice::from_ref(&input), &run)?.state;
        assert_eq!(
            par.scalar_named(&plan.program, "mtl"),
            seq.scalar_named(&plan.program, "mtl"),
            "{threads} threads"
        );
    }
    println!(
        "max top-left sum = {} (verified at 2/4/8 threads)",
        seq.scalar_named(&plan.program, "mtl").unwrap()
    );
    Ok(())
}
