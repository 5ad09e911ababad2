//! End-to-end pipeline tests on a fast subset of the suite: parse the
//! source, run the Figure-7 schema, check the expected outcome, and
//! execute the synthesized plan on threads against the sequential
//! interpreter. (The full 27-benchmark sweep is the `table1` harness
//! binary — it takes several minutes.)

use parsynt::core::{
    run_plan_checked, run_plan_interpreted, Outcome, Pipeline, PipelineConfig, RunConfig,
};
use parsynt::lang::interp::run_program;
use parsynt::lang::parse;
use parsynt::suite::{benchmark, ExpectedOutcome};
use parsynt::synth::examples::InputProfile;
use parsynt::synth::report::SynthConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn run_benchmark(id: &str) {
    let b = benchmark(id).expect("known benchmark");
    let program = parse(b.source).expect("parses");
    let cfg = SynthConfig::default();
    let plan = Pipeline::new(&program)
        .configure(
            PipelineConfig::default()
                .with_profile(b.profile.clone())
                .with_synth(cfg),
        )
        .run()
        .expect("pipeline runs")
        .parallelization;

    parsynt::core::validate_budget(&plan).expect("within the §6 budget");
    match b.expected {
        ExpectedOutcome::DivideAndConquer => {
            assert!(
                matches!(plan.outcome, Outcome::DivideAndConquer { .. }),
                "{id}: expected d&c, got {:?}",
                plan.outcome
            );
            // The join is associative (Definition 3.2).
            let checks = parsynt::core::check_join_associativity(&plan, &b.profile, 10, 5)
                .expect("associativity holds");
            assert_eq!(checks, 10);
            // Execute the synthesized plan and cross-check on random
            // inputs from the benchmark's own profile.
            let f = parsynt::lang::functional::RightwardFn::new(&plan.program).unwrap();
            let mut rng = SmallRng::seed_from_u64(123);
            for _ in 0..5 {
                let inputs = parsynt::synth::examples::random_inputs(&f, &b.profile, &mut rng);
                let seq = run_program(&plan.program, &inputs).unwrap();
                let run = RunConfig::static_schedule(3).with_grain(1);
                let par = run_plan_interpreted(&plan, &inputs, &run).unwrap().state;
                assert_eq!(par, seq, "{id}: parallel != sequential");
                let compiled = run_plan_checked(&plan, &inputs, &run).unwrap().state;
                assert_eq!(compiled, seq, "{id}: compiled != sequential");
            }
        }
        ExpectedOutcome::MapOnly => {
            assert!(matches!(plan.outcome, Outcome::MapOnly), "{id}");
        }
        ExpectedOutcome::Fails => {
            assert!(
                matches!(plan.outcome, Outcome::Unparallelizable { .. }),
                "{id}"
            );
        }
    }
}

#[test]
fn sum_end_to_end() {
    run_benchmark("sum");
}

#[test]
fn min_max_end_to_end() {
    run_benchmark("min_max");
}

#[test]
fn max_top_strip_end_to_end() {
    run_benchmark("max_top_strip");
}

#[test]
fn max_bottom_strip_end_to_end() {
    run_benchmark("max_bottom_strip");
}

#[test]
fn mbbs_end_to_end() {
    run_benchmark("mbbs");
}

#[test]
fn lcs_fails_as_in_the_paper() {
    run_benchmark("lcs");
}

#[test]
fn custom_profile_is_respected() {
    // A program dividing by elements: safe only with a positive profile.
    let program = parse(
        "input a : seq<int>; state s : int = 0;\n\
         for i in 0 .. len(a) { s = s + 100 / a[i]; } return s;",
    )
    .unwrap();
    let profile = InputProfile::default().with_value_range(1, 9);
    let report = Pipeline::new(&program)
        .configure(PipelineConfig::default().with_profile(profile))
        .run()
        .unwrap();
    assert!(report.parallelization.is_divide_and_conquer());
}
