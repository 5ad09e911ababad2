//! Quickstart: parallelize a sequential nested loop end to end.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Takes a 2-D summation loop through the full ParSynt pipeline
//! (Figure 7 of the paper): summarization, join synthesis, then executes
//! the synthesized divide-and-conquer plan on real threads and checks it
//! against the sequential run.

use parsynt::core::{run_plan_checked, Outcome, Pipeline, RunConfig};
use parsynt::lang::interp::run_program;
use parsynt::lang::{parse, Value};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A sequential nested loop in the mini language: the total sum of
    //    a 2-dimensional array.
    let program = parse(
        "input a : seq<seq<int>>;\n\
         state s : int = 0;\n\
         for i in 0 .. len(a) {\n\
           for j in 0 .. len(a[i]) { s = s + a[i][j]; }\n\
         }\n\
         return s;",
    )?;

    // 2. Run the parallelization schema through the observable
    //    pipeline builder.
    let report = Pipeline::new(&program).run()?;
    let plan = &report.parallelization;
    let Outcome::DivideAndConquer { join, .. } = &plan.outcome else {
        panic!("sum is a homomorphism and must parallelize");
    };
    println!("== synthesized join ⊙ ==");
    println!("{}", join.render(&plan.program));
    println!(
        "summarization: {:?}, join synthesis: {:?}, auxiliaries: {}",
        plan.report.summarization_time,
        plan.report.join_time,
        plan.report.aux_count()
    );
    if let Some(total) = report.phase_timings.get("total") {
        println!("total pipeline wall clock: {total:?}");
    }

    // 3. Execute the synthesized plan on worker threads and compare with
    //    the sequential interpreter.
    let rows: Vec<Vec<i64>> = (0..64)
        .map(|i| {
            (0..32)
                .map(|j| ((i * 31 + j * 17) % 23) as i64 - 11)
                .collect()
        })
        .collect();
    let input = Value::seq2_of_ints(&rows);
    let sequential = run_program(&plan.program, std::slice::from_ref(&input))?;
    // A grain of 256 leaves (the default is 50 000) splits this
    // 2 048-leaf input into chunks that the synthesized join combines.
    let run = RunConfig::work_stealing(8).with_grain(256);
    let parallel = run_plan_checked(plan, &[input], &run)?.state;
    assert_eq!(parallel, sequential);
    println!(
        "parallel (8 threads) == sequential: s = {}",
        parallel.scalar_named(&plan.program, "s").unwrap()
    );
    Ok(())
}
