//! The Figure-7 parallelization schema.

use parsynt_lang::analysis::analyze;
use parsynt_lang::ast::Program;
use parsynt_lang::error::Result;
use parsynt_lift::homomorphism::{homomorphism_lift, HomLiftOutcome};
use parsynt_lift::memoryless::memoryless_lift;
use parsynt_synth::examples::InputProfile;
use parsynt_synth::join::{JoinVocab, SynthesizedJoin};
use parsynt_synth::report::SynthConfig;
use parsynt_trace as trace;
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// How the loop nest was parallelized.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Outcome {
    /// A full divide-and-conquer parallelization: split the input along
    /// the outer dimension, run the (memoryless, lifted) loop on each
    /// chunk, combine with the synthesized join.
    DivideAndConquer {
        /// The synthesized join `⊙`.
        join: SynthesizedJoin,
        /// Its vocabulary over the final program.
        vocab: JoinVocab,
    },
    /// The inner loop nest is a parallel map (Prop. 4.3) but the outer
    /// loop stays sequential — the summarized loop is not efficiently
    /// liftable to a homomorphism (the §2.1 balanced-parentheses case).
    MapOnly,
    /// No efficient divide-and-conquer parallelization exists within the
    /// complexity budget (Definition 6.2 / Theorem 6.4) — the ✗ entries
    /// of Table 1.
    Unparallelizable {
        /// Human-readable reason (which step failed).
        reason: String,
    },
}

/// Timing and lifting statistics — one column of Table 1.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Report {
    /// Loop-nest depth `n`.
    pub loop_depth: usize,
    /// Summarized depth `k`.
    pub summarized_depth: usize,
    /// Time spent synthesizing the merge `⊚` ("summarization time").
    pub summarization_time: Duration,
    /// Time spent synthesizing the join `⊙` ("join synthesis time").
    pub join_time: Duration,
    /// Time spent in normalization-driven lifting (reported in §9 as
    /// "negligible", ≤ 12 ms).
    pub lift_time: Duration,
    /// Auxiliary accumulators added by the memoryless lift (the starred
    /// counts of Table 1).
    pub aux_memoryless: Vec<String>,
    /// Auxiliary accumulators added by the homomorphism lift.
    pub aux_homomorphism: Vec<String>,
    /// Whether the loop was memoryless as written.
    pub already_memoryless: bool,
    /// Whether the synthesized join contains a loop.
    pub looped_join: bool,
    /// Whether the run was cut short by the synthesis deadline. When
    /// set, the other fields describe the partial work done before the
    /// budget ran out.
    pub deadline_exceeded: bool,
}

impl Report {
    /// Total number of auxiliary accumulators ("# Aux required").
    pub fn aux_count(&self) -> usize {
        self.aux_memoryless.len() + self.aux_homomorphism.len()
    }
}

/// The result of running the schema on a program.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Parallelization {
    /// The final program: memoryless-transformed and lifted; its
    /// sequential semantics (projected to `return`s) equals the input
    /// program's.
    pub program: Program,
    /// The parallelization outcome.
    pub outcome: Outcome,
    /// Statistics for the evaluation tables.
    pub report: Report,
}

impl Parallelization {
    /// Whether a full divide-and-conquer solution was produced.
    pub fn is_divide_and_conquer(&self) -> bool {
        matches!(self.outcome, Outcome::DivideAndConquer { .. })
    }

    /// Whether only the inner map was parallelized.
    pub fn is_map_only(&self) -> bool {
        matches!(self.outcome, Outcome::MapOnly)
    }

    /// Whether parallelization failed outright.
    pub fn is_unparallelizable(&self) -> bool {
        matches!(self.outcome, Outcome::Unparallelizable { .. })
    }

    /// Render the plan deterministically: the transformed program text
    /// plus, for divide-and-conquer outcomes, the synthesized join.
    ///
    /// This is the canonical textual form stored in the solution cache
    /// and served by the daemon — two renders of the same
    /// `Parallelization` are byte-identical.
    pub fn render_plan(&self) -> String {
        use parsynt_lang::pretty::program_to_string;
        match &self.outcome {
            Outcome::DivideAndConquer { join, .. } => format!(
                "outcome: divide-and-conquer\n{}\njoin:\n{}\n",
                program_to_string(&self.program),
                join.render(&self.program)
            ),
            Outcome::MapOnly => {
                format!("outcome: map-only\n{}\n", program_to_string(&self.program))
            }
            Outcome::Unparallelizable { reason } => {
                format!("outcome: unparallelizable ({reason})\n")
            }
        }
    }
}

/// Record a deadline exhaustion as a trace point and build the
/// human-readable `Unparallelizable` reason for it.
fn emit_deadline_exceeded(candidates: usize) -> String {
    let reason = format!("deadline exceeded after {candidates} candidates");
    trace::point(
        "schema",
        "deadline_exceeded",
        &[
            ("reason", reason.as_str().into()),
            ("candidates", candidates.into()),
        ],
    );
    reason
}

/// Emit the final schema outcome as a trace point (one per run).
fn emit_outcome(outcome: &Outcome) {
    if trace::enabled() {
        let kind = match outcome {
            Outcome::DivideAndConquer { .. } => "divide_and_conquer",
            Outcome::MapOnly => "map_only",
            Outcome::Unparallelizable { .. } => "unparallelizable",
        };
        trace::point("schema", "outcome", &[("outcome", kind.into())]);
    }
}

/// The Figure-7 schema body behind [`crate::Pipeline`].
pub(crate) fn run_schema(
    program: &Program,
    profile: &InputProfile,
    cfg: &SynthConfig,
) -> Result<Parallelization> {
    let analysis = {
        let mut analyze_span = trace::span("analyze", "loop_nest");
        let analysis = analyze(program);
        analyze_span.record("loop_depth", analysis.loop_depth);
        analysis
    };
    let n = analysis.loop_depth;

    // Phase 1 (light grey in Figure 7): memorylessness, i.e. discovery
    // of the parallel map.
    let memoryless = memoryless_lift(program, profile, cfg)?;
    if memoryless.failed {
        let report = Report {
            loop_depth: n,
            summarized_depth: analysis.summarized_depth,
            summarization_time: memoryless.summarization_time,
            deadline_exceeded: memoryless.timed_out,
            ..Report::default()
        };
        let reason = if memoryless.timed_out {
            emit_deadline_exceeded(memoryless.candidates)
        } else {
            "no memoryless lift found (only the default lift of Prop. 5.4 applies)".to_owned()
        };
        let out = Parallelization {
            program: program.clone(),
            outcome: Outcome::Unparallelizable { reason },
            report,
        };
        emit_outcome(&out.outcome);
        return Ok(out);
    }
    let summarized = memoryless.program;
    let k = {
        let mut analyze_span = trace::span("analyze", "summarized_nest");
        let k = analyze(&summarized).summarized_depth;
        analyze_span.record("summarized_depth", k);
        k
    };

    // Phase 2 (light blue): parallelize the summarized loop — join
    // synthesis with homomorphism lifting.
    let hom = homomorphism_lift(&summarized, profile, cfg)?;
    match hom {
        HomLiftOutcome::Success {
            program: lifted,
            join,
            vocab,
            aux,
            join_time,
            lift_time,
            ..
        } => {
            let looped_join = join
                .stmts
                .iter()
                .any(|s| matches!(s, parsynt_lang::ast::Stmt::For { .. }));
            let report = Report {
                loop_depth: n,
                summarized_depth: k,
                summarization_time: memoryless.summarization_time,
                join_time,
                lift_time,
                aux_memoryless: memoryless.aux_added,
                aux_homomorphism: aux,
                already_memoryless: memoryless.already_memoryless,
                looped_join,
                deadline_exceeded: false,
            };
            let out = Parallelization {
                program: lifted,
                outcome: Outcome::DivideAndConquer { join, vocab },
                report,
            };
            emit_outcome(&out.outcome);
            Ok(out)
        }
        HomLiftOutcome::Failure {
            join_time,
            failed_var,
            timed_out,
            candidates,
        } => {
            let report = Report {
                loop_depth: n,
                summarized_depth: k,
                summarization_time: memoryless.summarization_time,
                join_time,
                aux_memoryless: memoryless.aux_added.clone(),
                already_memoryless: memoryless.already_memoryless,
                deadline_exceeded: timed_out,
                ..Report::default()
            };
            // A deadline exhaustion is not evidence the loop resists
            // parallelization — report it distinctly (with the partial
            // report) rather than claiming map-only is the best possible.
            let out = if timed_out {
                Parallelization {
                    program: summarized,
                    outcome: Outcome::Unparallelizable {
                        reason: emit_deadline_exceeded(memoryless.candidates + candidates),
                    },
                    report,
                }
            } else if n > k {
                // n > k: the inner nest still parallelizes as a map
                // (Prop. 4.3); otherwise summarization bought nothing and
                // the parallelization fails (§6.2).
                Parallelization {
                    program: summarized,
                    outcome: Outcome::MapOnly,
                    report,
                }
            } else {
                Parallelization {
                    program: summarized,
                    outcome: Outcome::Unparallelizable {
                        reason: format!(
                            "join synthesis failed{} and summarization does not reduce depth \
                             (n = k = {n})",
                            failed_var
                                .map(|v| format!(" at variable `{v}`"))
                                .unwrap_or_default()
                        ),
                    },
                    report,
                }
            };
            emit_outcome(&out.outcome);
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsynt_lang::parse;

    fn run_default(p: &Program) -> Parallelization {
        run_schema(p, &InputProfile::default(), &SynthConfig::default()).unwrap()
    }

    #[test]
    fn sum_parallelizes_without_aux() {
        let p = parse(
            "input a : seq<seq<int>>; state s : int = 0;\n\
             for i in 0 .. len(a) { for j in 0 .. len(a[i]) { s = s + a[i][j]; } }",
        )
        .unwrap();
        let out = run_default(&p);
        assert!(out.is_divide_and_conquer());
        assert_eq!(out.report.aux_count(), 0);
        // The inner loop updates `s` directly, so the schema synthesizes
        // the (trivial) merge `s = s + t` and summarizes.
        assert!(!out.report.already_memoryless);
        assert_eq!(out.report.loop_depth, 2);
        assert_eq!(out.report.summarized_depth, 1);
    }

    #[test]
    fn mbbs_needs_one_aux() {
        // Figure 1: mbbs lifts with aux_sum, then joins.
        let p = parse(
            "input a : seq<seq<seq<int>>>; state mbbs : int = 0;\n\
             for i in 0 .. len(a) {\n\
               let plane : int = 0;\n\
               for j in 0 .. len(a[i]) { for k in 0 .. len(a[i][j]) {\n\
                 plane = plane + a[i][j][k]; } }\n\
               mbbs = max(mbbs + plane, 0);\n\
             }\n\
             return mbbs;",
        )
        .unwrap();
        let out = run_default(&p);
        assert!(out.is_divide_and_conquer());
        assert_eq!(
            out.report.aux_count(),
            1,
            "aux: {:?}",
            out.report.aux_homomorphism
        );
        assert_eq!(out.report.loop_depth, 3);
        assert_eq!(out.report.summarized_depth, 1);
        assert!(!out.report.looped_join);
    }

    #[test]
    fn bp_is_map_only() {
        // §2.1: after the memoryless lift, the summarized loop is not a
        // homomorphism and cannot be efficiently lifted — map only.
        let p = parse(
            "input a : seq<seq<int>>;\n\
             state offset : int = 0; state bal : bool = true; state cnt : int = 0;\n\
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
        )
        .unwrap();
        let profile = InputProfile::default().with_choices(&[-1, 1]);
        let out = run_schema(&p, &profile, &SynthConfig::default()).unwrap();
        assert!(out.is_map_only(), "outcome: {:?}", out.outcome);
        assert_eq!(out.report.aux_memoryless.len(), 1);
    }

    #[test]
    fn mtls_parallelizes_with_looped_join() {
        let p = parse(
            "input a : seq<seq<int>>; state rec : seq<int> = zeros(len(a[0]));\n\
             state mtl : int = 0;\n\
             for i in 0 .. len(a) { for j in 0 .. len(a[i]) {\n\
               rec[j] = rec[j] + a[i][j]; mtl = max(mtl, rec[j]); } }\n\
             return mtl;",
        )
        .unwrap();
        let out = run_default(&p);
        assert!(out.is_divide_and_conquer(), "outcome: {:?}", out.outcome);
        assert!(out.report.looped_join);
        // §2.2: the max_rec[] array accumulator is required.
        assert!(out.report.aux_count() >= 1);
    }
}
