//! The §2.1 motivating example: **balanced parentheses** — a loop nest
//! that is *not* memoryless and whose summarized loop is provably not
//! efficiently liftable to a homomorphism.
//!
//! ```sh
//! cargo run --release --example balanced_parentheses
//! ```
//!
//! The pipeline (i) discovers the `min_offset` inner accumulator
//! (Figure 4's memoryless lift), (ii) rewrites the program into
//! memoryless normal form, (iii) fails join synthesis — correctly — and
//! falls back to the **map-only** parallelization of Prop. 4.3: every
//! line's `(line_offset, min_offset)` is computed in parallel, the outer
//! fold stays sequential.

use parsynt::core::{run_plan_checked, Outcome, Pipeline, PipelineConfig, RunConfig};
use parsynt::lang::interp::run_program;
use parsynt::lang::pretty::program_to_string;
use parsynt::lang::{parse, Value};
use parsynt::synth::examples::InputProfile;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = parse(
        "input a : seq<seq<int>>;\n\
         state offset : int = 0;\n\
         state bal : bool = true;\n\
         state cnt : int = 0;\n\
         for i in 0 .. len(a) {\n\
           let lo : int = 0;\n\
           for j in 0 .. len(a[i]) {\n\
             lo = lo + (a[i][j] == 1 ? 1 : 0 - 1);\n\
             if (offset + lo < 0) { bal = false; }\n\
           }\n\
           offset = offset + lo;\n\
           if (bal && lo == 0 && offset == 0) { cnt = cnt + 1; }\n\
         }\n\
         return cnt;",
    )?;

    let profile = InputProfile::default().with_choices(&[-1, 1]);
    println!("running the pipeline on bp (lift + merge synthesis, ~minutes)...");
    let plan = Pipeline::new(&program)
        .configure(PipelineConfig::default().with_profile(profile))
        .run()?
        .parallelization;
    assert!(matches!(plan.outcome, Outcome::MapOnly), "bp is map-only");
    println!(
        "memoryless lift added: {:?} (the paper's min_offset)",
        plan.report.aux_memoryless
    );
    println!("== memoryless normal form (compare Figure 4) ==");
    println!("{}", program_to_string(&plan.program));

    // Execute: "( ( )" / ")" / "( )" — lines 1 and 3 are level.
    let input = Value::seq2_of_ints(&[vec![1, 1, -1], vec![-1], vec![1, -1]]);
    let seq = run_program(&plan.program, std::slice::from_ref(&input))?;
    let par = run_plan_checked(&plan, &[input], &RunConfig::static_schedule(4))?.state;
    assert_eq!(
        par.scalar_named(&plan.program, "cnt"),
        seq.scalar_named(&plan.program, "cnt")
    );
    println!(
        "level lines counted (parallel map, 4 threads): {}",
        par.scalar_named(&plan.program, "cnt").unwrap()
    );
    Ok(())
}
