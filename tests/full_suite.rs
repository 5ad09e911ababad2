//! The exhaustive pipeline sweep over all 27 benchmarks — the test-suite
//! twin of the `table1` harness binary. Marked `#[ignore]` because it
//! takes several minutes; run with
//!
//! ```sh
//! cargo test --release --test full_suite -- --ignored
//! ```

use parsynt::core::{
    run_plan_checked, run_plan_interpreted, Outcome, Pipeline, PipelineConfig, RunConfig,
};
use parsynt::lang::interp::run_program;
use parsynt::lang::parse;
use parsynt::suite::{all_benchmarks, ExpectedOutcome};
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
#[ignore = "runs the full synthesis pipeline on all 27 benchmarks (minutes)"]
fn every_benchmark_matches_the_paper_outcome() {
    for b in all_benchmarks() {
        let program = parse(b.source).expect(b.id);
        let plan = Pipeline::new(&program)
            .configure(PipelineConfig::default().with_profile(b.profile.clone()))
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", b.id))
            .parallelization;
        match b.expected {
            ExpectedOutcome::DivideAndConquer => assert!(
                plan.is_divide_and_conquer(),
                "{}: expected d&c, got {:?}",
                b.id,
                plan.outcome
            ),
            ExpectedOutcome::MapOnly => {
                assert!(plan.is_map_only(), "{}: {:?}", b.id, plan.outcome)
            }
            ExpectedOutcome::Fails => {
                assert!(plan.is_unparallelizable(), "{}: {:?}", b.id, plan.outcome)
            }
        }
        // Every plan respects the §6 complexity budget.
        parsynt::core::validate_budget(&plan).unwrap_or_else(|e| panic!("{}: {e}", b.id));
        // For every divide-and-conquer plan, execute it and cross-check.
        if let Outcome::DivideAndConquer { .. } = plan.outcome {
            let f = parsynt::lang::functional::RightwardFn::new(&plan.program).unwrap();
            let mut rng = SmallRng::seed_from_u64(77);
            for _ in 0..3 {
                let inputs = parsynt::synth::examples::random_inputs(&f, &b.profile, &mut rng);
                let seq = run_program(&plan.program, &inputs).unwrap();
                let run = RunConfig::static_schedule(4).with_grain(1);
                let par = run_plan_interpreted(&plan, &inputs, &run).unwrap().state;
                assert_eq!(par, seq, "{}: parallel != sequential", b.id);
                let compiled = run_plan_checked(&plan, &inputs, &run).unwrap().state;
                assert_eq!(compiled, seq, "{}: compiled != sequential", b.id);
            }
        }
        eprintln!("{}: ok", b.id);
    }
}
