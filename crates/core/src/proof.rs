//! Correctness artifacts for a synthesized parallelization.
//!
//! The paper (§9 "Correctness") verifies solutions in two steps: Rosette
//! performs bounded verification, and a Dafny proof-generation scheme
//! (from \[11\]) establishes correctness over all inputs. Offline we
//! mirror this with (a) randomized checking of the homomorphism law
//! through the reference interpreter, and (b) emission of the Dafny-style
//! proof obligations as text, including the vector lemmas the bold
//! benchmarks of Table 1 additionally needed (e.g.
//! `x⃗ + max(y⃗, z⃗) = max(x⃗ + y⃗, x⃗ + z⃗)`).

use crate::schema::{Outcome, Parallelization};
use parsynt_lang::error::{LangError, Result};
use parsynt_lang::functional::RightwardFn;
use parsynt_lang::pretty::program_to_string;
use parsynt_lang::Value;
use parsynt_synth::examples::{random_inputs, InputProfile};
use parsynt_synth::join::apply_join;
use parsynt_trace as trace;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Randomly check the homomorphism law `h(x • y) = h(x) ⊙ h(y)` for a
/// divide-and-conquer parallelization over `tests` random inputs and
/// split points (`PipelineReport::check_homomorphism`). Returns the
/// number of checks performed.
///
/// # Errors
///
/// Fails on the first violated instance (with a description), on
/// interpreter errors, or if the plan is not divide-and-conquer.
pub(crate) fn homomorphism_law_checks(
    parallelization: &Parallelization,
    profile: &InputProfile,
    tests: usize,
    seed: u64,
) -> Result<usize> {
    let mut verify_span = trace::span("verify", "homomorphism_law");
    verify_span.record("tests", tests);
    let Outcome::DivideAndConquer { join, vocab } = &parallelization.outcome else {
        return Err(LangError::eval("not a divide-and-conquer parallelization"));
    };
    let program = &parallelization.program;
    let f = RightwardFn::new(program)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut performed = 0usize;
    while performed < tests {
        let inputs: Vec<Value> = random_inputs(&f, profile, &mut rng);
        let n = inputs[f.main_input()].len().unwrap_or(0);
        if n < 2 {
            continue;
        }
        let p = rng.gen_range(1..n);
        let left = f.apply_slice(&inputs, 0, p)?;
        let right = f.apply_slice(&inputs, p, n)?;
        let whole = f.apply(&inputs)?;
        let joined = apply_join(program, vocab, join, &left, &right)?;
        if joined != whole {
            return Err(LangError::eval(format!(
                "homomorphism law violated at split {p} of an input with {n} rows"
            )));
        }
        performed += 1;
    }
    Ok(performed)
}

/// Randomly check that the synthesized join is *associative*
/// (Definition 3.2 notes `⊙` is necessarily associative because
/// concatenation is): `(a ⊙ b) ⊙ c = a ⊙ (b ⊙ c)` over random
/// three-way splits. Returns the number of checks performed.
///
/// # Errors
///
/// Fails on the first violated instance or interpreter error.
pub fn check_join_associativity(
    parallelization: &Parallelization,
    profile: &InputProfile,
    tests: usize,
    seed: u64,
) -> Result<usize> {
    let Outcome::DivideAndConquer { join, vocab } = &parallelization.outcome else {
        return Err(LangError::eval("not a divide-and-conquer parallelization"));
    };
    let program = &parallelization.program;
    let f = RightwardFn::new(program)?;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut performed = 0usize;
    while performed < tests {
        let inputs: Vec<Value> = random_inputs(&f, profile, &mut rng);
        let n = inputs[f.main_input()].len().unwrap_or(0);
        if n < 3 {
            continue;
        }
        let p1 = rng.gen_range(1..n - 1);
        let p2 = rng.gen_range(p1 + 1..n);
        let a = f.apply_slice(&inputs, 0, p1)?;
        let b = f.apply_slice(&inputs, p1, p2)?;
        let c = f.apply_slice(&inputs, p2, n)?;
        let left_first = apply_join(
            program,
            vocab,
            join,
            &apply_join(program, vocab, join, &a, &b)?,
            &c,
        )?;
        let right_first = apply_join(
            program,
            vocab,
            join,
            &a,
            &apply_join(program, vocab, join, &b, &c)?,
        )?;
        if left_first != right_first {
            return Err(LangError::eval(format!(
                "join is not associative at splits ({p1}, {p2}) of {n} rows"
            )));
        }
        performed += 1;
    }
    Ok(performed)
}

/// *Exhaustively* check the homomorphism law over every small input:
/// all shapes with up to `max_rows` rows (each of uniform width up to
/// `max_cols`, and depth ≤ 2 for 3-D inputs) and elements drawn from
/// `values`, at every split point. This is the closest offline analogue
/// of Rosette's bounded verification — complete within the bound rather
/// than sampled. Returns the number of (input, split) instances checked.
///
/// The instance count grows as `|values|^(rows·cols)`; keep
/// `max_rows·max_cols·|values|` small (e.g. 3·2 over {-1,0,1} ≈ 10³
/// instances).
///
/// # Errors
///
/// Fails on the first violated instance or interpreter error.
pub fn check_homomorphism_law_exhaustive(
    parallelization: &Parallelization,
    max_rows: usize,
    max_cols: usize,
    values: &[i64],
) -> Result<usize> {
    let Outcome::DivideAndConquer { join, vocab } = &parallelization.outcome else {
        return Err(LangError::eval("not a divide-and-conquer parallelization"));
    };
    let program = &parallelization.program;
    let f = RightwardFn::new(program)?;
    let dim = program.inputs[f.main_input()].ty.dim();
    let mut performed = 0usize;
    for rows in 2..=max_rows {
        for cols in 1..=max_cols {
            let scalars_per_row = match dim {
                1 => 1,
                2 => cols,
                _ => cols * 2, // 3-D: rows-within-plane fixed at 2
            };
            let total = rows * scalars_per_row;
            let instances = values.len().checked_pow(total as u32).unwrap_or(usize::MAX);
            if instances > 200_000 {
                continue; // keep the bound tractable
            }
            let mut assignment = vec![0usize; total];
            loop {
                // Materialize the input for this assignment.
                let flat: Vec<i64> = assignment.iter().map(|&i| values[i]).collect();
                let input = match dim {
                    1 => Value::Seq(flat.iter().map(|&v| Value::Int(v)).collect()),
                    2 => Value::Seq(
                        flat.chunks(cols)
                            .map(|r| Value::Seq(r.iter().map(|&v| Value::Int(v)).collect()))
                            .collect(),
                    ),
                    _ => Value::Seq(
                        flat.chunks(cols * 2)
                            .map(|plane| {
                                Value::Seq(
                                    plane
                                        .chunks(cols)
                                        .map(|r| {
                                            Value::Seq(r.iter().map(|&v| Value::Int(v)).collect())
                                        })
                                        .collect(),
                                )
                            })
                            .collect(),
                    ),
                };
                let inputs = vec![input];
                let whole = f.apply(&inputs)?;
                for p in 1..rows {
                    let left = f.apply_slice(&inputs, 0, p)?;
                    let right = f.apply_slice(&inputs, p, rows)?;
                    let joined = apply_join(program, vocab, join, &left, &right)?;
                    if joined != whole {
                        return Err(LangError::eval(format!(
                            "homomorphism law violated exhaustively at split {p}                              of a {rows}x{cols} input"
                        )));
                    }
                    performed += 1;
                }
                // Next assignment (odometer).
                let mut k = 0;
                loop {
                    if k == total {
                        break;
                    }
                    assignment[k] += 1;
                    if assignment[k] < values.len() {
                        break;
                    }
                    assignment[k] = 0;
                    k += 1;
                }
                if k == total {
                    break;
                }
            }
        }
    }
    Ok(performed)
}

/// Emit the Dafny-style proof obligations for a parallelization: the
/// homomorphism lemma, the auxiliary-invariant lemmas, and the generic
/// vector lemmas. The output is documentation-grade Dafny-like text (no
/// Dafny toolchain is available offline); the bounded analogue is
/// `PipelineReport::check_homomorphism`.
pub fn proof_obligations(parallelization: &Parallelization) -> String {
    let program = &parallelization.program;
    let mut out = String::new();
    out.push_str("// ==== ParSynt proof obligations (Dafny-style) ====\n");
    out.push_str("// Source program (after lifting / summarization):\n");
    for line in program_to_string(program).lines() {
        out.push_str("//   ");
        out.push_str(line);
        out.push('\n');
    }
    out.push('\n');
    match &parallelization.outcome {
        Outcome::DivideAndConquer { join, .. } => {
            out.push_str(
                "lemma HomomorphismJoin(x: seq<Row>, y: seq<Row>)\n  \
                 ensures H(x + y) == Join(H(x), H(y))\n{\n  \
                 // by induction on y, using LemmaFoldUnroll and the\n  \
                 // accumulator invariants below\n}\n\n",
            );
            for name in &parallelization.report.aux_homomorphism {
                out.push_str(&format!(
                    "lemma AuxInvariant_{name}(x: seq<Row>)\n  \
                     ensures H(x).{name} == Spec_{name}(x)\n\n"
                ));
            }
            if parallelization.report.looped_join {
                out.push_str(
                    "// Vector lemmas required for looped joins (the bold\n\
                     // benchmarks of Table 1):\n\
                     lemma VecAddMaxDistributes(x: Vec, y: Vec, z: Vec)\n  \
                     ensures VecAdd(x, VecMax(y, z)) == VecMax(VecAdd(x, y), VecAdd(x, z))\n\n",
                );
            }
            out.push_str("// Synthesized join ⊙:\n");
            for line in join.render(program).lines() {
                out.push_str("//   ");
                out.push_str(line);
                out.push('\n');
            }
        }
        Outcome::MapOnly => {
            out.push_str(
                "lemma MemorylessMap(d: State, row: Row)\n  \
                 ensures Step(d, row) == Merge(d, InnerFromZero(row))\n{\n  \
                 // Prop. 7.2: every member of the inner family is\n  \
                 // ⊚-homomorphic\n}\n",
            );
        }
        Outcome::Unparallelizable { reason } => {
            out.push_str(&format!("// no obligations: {reason}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::run_schema;
    use parsynt_lang::parse;
    use parsynt_synth::report::SynthConfig;

    fn parallelize(p: &parsynt_lang::ast::Program) -> Parallelization {
        run_schema(p, &InputProfile::default(), &SynthConfig::default()).unwrap()
    }

    #[test]
    fn law_holds_for_synthesized_sum_join() {
        let p = parse(
            "input a : seq<seq<int>>; state s : int = 0;\n\
             for i in 0 .. len(a) { for j in 0 .. len(a[i]) { s = s + a[i][j]; } }",
        )
        .unwrap();
        let plan = parallelize(&p);
        let checks = homomorphism_law_checks(&plan, &InputProfile::default(), 50, 42).unwrap();
        assert_eq!(checks, 50);
    }

    #[test]
    fn exhaustive_check_covers_all_small_sums() {
        let p = parse(
            "input a : seq<seq<int>>; state s : int = 0;\n\
             for i in 0 .. len(a) { for j in 0 .. len(a[i]) { s = s + a[i][j]; } }",
        )
        .unwrap();
        let plan = parallelize(&p);
        let checks = check_homomorphism_law_exhaustive(&plan, 3, 2, &[-1, 0, 1]).unwrap();
        // 2x1: 9 inputs x 1 split; 2x2: 81 x 1; 3x1: 27 x 2; 3x2: 729 x 2.
        assert_eq!(checks, 9 + 81 + 54 + 1458);
    }

    #[test]
    fn obligations_mention_join_and_lemmas() {
        let p = parse(
            "input a : seq<int>; state m : int = 0;\n\
             for i in 0 .. len(a) { m = max(m + a[i], 0); } return m;",
        )
        .unwrap();
        let plan = parallelize(&p);
        let text = proof_obligations(&plan);
        assert!(text.contains("HomomorphismJoin"));
        assert!(text.contains("AuxInvariant"), "text:\n{text}");
        assert!(text.contains("Synthesized join"));
    }
}
