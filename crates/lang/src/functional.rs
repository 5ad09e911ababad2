//! Functional (rightward) form of a loop nest — Definition 4.1.
//!
//! A [`RightwardFn`] wraps a program whose body is an outermost loop over
//! the first dimension of a designated *main input*. It exposes the
//! operations the synthesis pipeline needs:
//!
//! * `f(σ)` — run on a whole input ([`RightwardFn::apply`]),
//! * `f` on a slice of the outer dimension ([`RightwardFn::apply_slice`]),
//!   which realizes `h(x)` and `h(y)` for the homomorphism check
//!   `h(x • y) = h(x) ⊙ h(y)`,
//! * one fold step `s ⊕ a` ([`RightwardFn::outer_step`]),
//! * the inner loop nest in isolation, `𝒢(d)(δ)` and `𝒢(0̸)(δ)`
//!   ([`RightwardFn::inner_phase`]), which drive the memorylessness test
//!   and the synthesis of the merge operator `⊚` (Prop. 7.2).

use crate::ast::{Expr, Program, Stmt, Sym};
use crate::error::{LangError, Result};
use crate::interp::{exec_stmts, init_env, read_state, Env, StateVec};
use crate::ty::Ty;
use crate::value::Value;

/// The result of running the inner phase of one outer iteration: the
/// valuation of the inner accumulators (`let` variables) and of any outer
/// state variables the inner nest writes. This is the `t_i` of Figure 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InnerResult {
    entries: Vec<(Sym, Value)>,
}

impl InnerResult {
    /// The `(symbol, value)` pairs, in a deterministic order.
    pub fn entries(&self) -> &[(Sym, Value)] {
        &self.entries
    }

    /// Value of one inner accumulator.
    pub fn get(&self, sym: Sym) -> Option<&Value> {
        self.entries.iter().find(|(s, _)| *s == sym).map(|(_, v)| v)
    }
}

/// A loop nest in functional form. See the module docs.
#[derive(Debug, Clone)]
pub struct RightwardFn<'p> {
    program: &'p Program,
    main_input: usize,
    /// Statements of the outer body up to and including the last inner
    /// loop (the "inner phase"), plus the `let`s that precede it.
    inner_phase: Vec<Stmt>,
    /// The remaining loop-free statements (the `⊗` computation).
    outer_phase: Vec<Stmt>,
    /// The outer loop variable.
    loop_var: Sym,
    /// Inner accumulators: `let`-declared variables of the outer body and
    /// outer state variables written inside inner loops.
    inner_vars: Vec<(Sym, Ty)>,
}

impl<'p> RightwardFn<'p> {
    /// Build the functional form of `program`.
    ///
    /// # Errors
    ///
    /// Fails if the program has no outermost loop, or the loop bound is
    /// not `len(input)` for a declared input.
    pub fn new(program: &'p Program) -> Result<Self> {
        let (_, outer, _) = program
            .outer_loop()
            .ok_or_else(|| LangError::ty("program has no outermost loop"))?;
        let Stmt::For { var, bound, body } = outer else {
            unreachable!("outer_loop returns a For");
        };
        let main_input = match bound {
            Expr::Len(inner) => match inner.as_ref() {
                Expr::Var(s) => program
                    .inputs
                    .iter()
                    .position(|i| i.name == *s)
                    .ok_or_else(|| {
                        LangError::ty("outer loop bound is not the length of an input")
                    })?,
                _ => {
                    return Err(LangError::ty(
                        "outer loop bound must be `len(input)` for a declared input",
                    ))
                }
            },
            _ => {
                return Err(LangError::ty(
                    "outer loop bound must be `len(input)` for a declared input",
                ))
            }
        };

        // Split the outer body at the last top-level inner loop, unless
        // a transformation recorded an explicit split point.
        let split = match program.summarize_split {
            Some(split) => split.min(body.len()),
            None => body
                .iter()
                .rposition(|s| matches!(s, Stmt::For { .. }))
                .map_or(0, |i| i + 1),
        };
        let inner_phase: Vec<Stmt> = body[..split].to_vec();
        let outer_phase: Vec<Stmt> = body[split..].to_vec();

        // Inner accumulators: top-level lets of the inner phase plus any
        // outer state written inside inner loops.
        let mut inner_vars: Vec<(Sym, Ty)> = Vec::new();
        for stmt in &inner_phase {
            if let Stmt::Let { name, ty, .. } = stmt {
                inner_vars.push((*name, ty.clone()));
            }
        }
        for stmt in &inner_phase {
            if let Stmt::For { .. } = stmt {
                stmt.walk(&mut |s| {
                    if let Stmt::Assign { target, .. } = s {
                        if program.is_state(target.base)
                            && !inner_vars.iter().any(|(v, _)| *v == target.base)
                        {
                            let ty = program.decl_ty(target.base).cloned().unwrap_or(Ty::Int);
                            inner_vars.push((target.base, ty));
                        }
                    }
                });
            }
        }

        Ok(RightwardFn {
            program,
            main_input,
            inner_phase,
            outer_phase,
            loop_var: *var,
            inner_vars,
        })
    }

    /// The wrapped program.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// Index of the main input (the collection the outer loop traverses).
    pub fn main_input(&self) -> usize {
        self.main_input
    }

    /// The inner accumulators (`t_i` fields), in a deterministic order.
    pub fn inner_vars(&self) -> &[(Sym, Ty)] {
        &self.inner_vars
    }

    /// The loop-free outer-phase statements (`⊗`).
    pub fn outer_phase(&self) -> &[Stmt] {
        &self.outer_phase
    }

    /// The inner-phase statements (lets + inner loop nest).
    pub fn inner_phase(&self) -> &[Stmt] {
        &self.inner_phase
    }

    /// The outer loop variable.
    pub fn loop_var(&self) -> Sym {
        self.loop_var
    }

    /// Run the program on the full input: `f(σ)`.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors.
    pub fn apply(&self, inputs: &[Value]) -> Result<StateVec> {
        crate::interp::run_program(self.program, inputs)
    }

    /// Run the program on `σ[lo..hi]` of the outer dimension: `h` on a
    /// chunk, starting from the declared initial state.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors; fails if the range is out of bounds.
    pub fn apply_slice(&self, inputs: &[Value], lo: usize, hi: usize) -> Result<StateVec> {
        let sliced = self.slice_inputs(inputs, lo, hi)?;
        crate::interp::run_program(self.program, &sliced)
    }

    /// Run the program on `σ[lo..hi]` starting from an explicit state
    /// (the rightward fold from an intermediate point).
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors.
    pub fn apply_slice_from(
        &self,
        inputs: &[Value],
        lo: usize,
        hi: usize,
        init: &StateVec,
    ) -> Result<StateVec> {
        let sliced = self.slice_inputs(inputs, lo, hi)?;
        crate::interp::run_program_from(self.program, &sliced, init)
    }

    /// The inputs with the main one replaced by its `lo..hi` slice; only
    /// the slice and the other inputs are copied.
    ///
    /// # Errors
    ///
    /// Fails when the main input is missing, is not a sequence, or is
    /// shorter than `hi`.
    pub fn slice_inputs(&self, inputs: &[Value], lo: usize, hi: usize) -> Result<Vec<Value>> {
        let main = inputs
            .get(self.main_input)
            .ok_or_else(|| LangError::eval("missing main input"))?;
        let len = main
            .len()
            .ok_or_else(|| LangError::eval("main input is not a sequence"))?;
        if lo > hi || hi > len {
            return Err(LangError::eval(format!(
                "slice {lo}..{hi} out of bounds (len {len})"
            )));
        }
        Ok(inputs
            .iter()
            .enumerate()
            .map(|(k, v)| {
                if k == self.main_input {
                    v.slice(lo, hi)
                } else {
                    v.clone()
                }
            })
            .collect())
    }

    /// One full outer step `s ⊕ a_i`: run the entire outer body for
    /// absolute row index `i`, starting from state `state`.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors.
    pub fn outer_step(&self, inputs: &[Value], i: usize, state: &StateVec) -> Result<StateVec> {
        let mut env = self.env_for_row(inputs, i, state)?;
        exec_stmts(&mut env, &self.inner_phase)?;
        exec_stmts(&mut env, &self.outer_phase)?;
        read_state(self.program, &env)
    }

    /// Run only the inner phase for row `i` from state `state`, returning
    /// both the inner result `t_i` and the (possibly updated) state. This
    /// is `𝒢(d)(δ)` of Definition 4.1.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors.
    pub fn inner_phase_from(
        &self,
        inputs: &[Value],
        i: usize,
        state: &StateVec,
    ) -> Result<(InnerResult, StateVec)> {
        let mut env = self.env_for_row(inputs, i, state)?;
        exec_stmts(&mut env, &self.inner_phase)?;
        let mut entries = Vec::with_capacity(self.inner_vars.len());
        for (sym, _) in &self.inner_vars {
            entries.push((*sym, env.get(*sym)?.clone()));
        }
        let state_after = read_state(self.program, &env)?;
        Ok((InnerResult { entries }, state_after))
    }

    /// Run only the outer phase (`⊗`/`⊚`) for row `i`: the inner
    /// accumulators are taken from a precomputed [`InnerResult`] instead
    /// of re-running the inner nest. This is the sequential fold step of
    /// a map-only parallelization (Prop. 4.3).
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors.
    pub fn outer_phase_from(
        &self,
        inputs: &[Value],
        i: usize,
        state: &StateVec,
        inner: &InnerResult,
    ) -> Result<StateVec> {
        let mut env = self.env_for_row(inputs, i, state)?;
        for (sym, value) in &inner.entries {
            env.set(*sym, value.clone());
        }
        exec_stmts(&mut env, &self.outer_phase)?;
        read_state(self.program, &env)
    }

    /// Run the inner phase for row `i` from the *declared initial* state:
    /// `𝒢(0̸)(δ)`, the memoryless instance of the inner nest.
    ///
    /// # Errors
    ///
    /// Propagates interpreter errors.
    pub fn inner_phase_from_zero(&self, inputs: &[Value], i: usize) -> Result<InnerResult> {
        let env = init_env(self.program, inputs)?;
        let zero = read_state(self.program, &env)?;
        Ok(self.inner_phase_from(inputs, i, &zero)?.0)
    }

    fn env_for_row(&self, inputs: &[Value], i: usize, state: &StateVec) -> Result<Env> {
        let mut env = init_env(self.program, inputs)?;
        state.load_into(&mut env);
        env.set(self.loop_var, Value::Int(i as i64));
        Ok(env)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn mbbs_program() -> Program {
        parse(
            "input a : seq<seq<seq<int>>>; state mbbs : int = 0;\n\
             for i in 0 .. len(a) {\n\
               let plane : int = 0;\n\
               for j in 0 .. len(a[i]) { for k in 0 .. len(a[i][j]) {\n\
                 plane = plane + a[i][j][k]; } }\n\
               mbbs = max(mbbs + plane, 0);\n\
             }",
        )
        .unwrap()
    }

    #[test]
    fn splits_inner_and_outer_phase() {
        let p = mbbs_program();
        let f = RightwardFn::new(&p).unwrap();
        assert_eq!(f.inner_phase().len(), 2); // let + for
        assert_eq!(f.outer_phase().len(), 1); // the mbbs update
        assert_eq!(f.inner_vars().len(), 1); // plane
    }

    #[test]
    fn fold_decomposes_into_outer_steps() {
        let p = mbbs_program();
        let f = RightwardFn::new(&p).unwrap();
        let input = Value::seq3_of_ints(&[
            vec![vec![1, -2], vec![3, 4]],
            vec![vec![-5, 1], vec![0, 2]],
            vec![vec![7, 0], vec![-1, -1]],
        ]);
        let inputs = vec![input];
        let whole = f.apply(&inputs).unwrap();
        // Replay as explicit fold steps.
        let mut state = f.apply_slice(&inputs, 0, 0).unwrap();
        for i in 0..3 {
            state = f.outer_step(&inputs, i, &state).unwrap();
        }
        assert_eq!(state, whole);
    }

    #[test]
    fn slices_compose() {
        let p = mbbs_program();
        let f = RightwardFn::new(&p).unwrap();
        let input =
            Value::seq3_of_ints(&[vec![vec![5]], vec![vec![-3]], vec![vec![4]], vec![vec![-1]]]);
        let inputs = vec![input];
        let hx = f.apply_slice(&inputs, 0, 2).unwrap();
        let whole = f.apply(&inputs).unwrap();
        let resumed = f.apply_slice_from(&inputs, 2, 4, &hx).unwrap();
        assert_eq!(resumed, whole);
    }

    #[test]
    fn inner_phase_is_state_independent_for_mbbs() {
        // mbbs is memoryless: 𝒢(d)(δ) produces the same t for any d.
        let p = mbbs_program();
        let f = RightwardFn::new(&p).unwrap();
        let input = Value::seq3_of_ints(&[vec![vec![2, 3], vec![-1, 4]]]);
        let inputs = vec![input];
        let from_zero = f.inner_phase_from_zero(&inputs, 0).unwrap();
        let mbbs = p.sym("mbbs").unwrap();
        let weird = StateVec::new(vec![(mbbs, Value::Int(999))]);
        let (from_weird, _) = f.inner_phase_from(&inputs, 0, &weird).unwrap();
        assert_eq!(from_zero, from_weird);
        assert_eq!(from_zero.get(p.sym("plane").unwrap()), Some(&Value::Int(8)));
    }

    #[test]
    fn rejects_program_without_loop() {
        let p = parse("input a : seq<int>; state s : int = 0;").unwrap();
        assert!(RightwardFn::new(&p).is_err());
    }

    #[test]
    fn rejects_non_len_bound() {
        let p = parse(
            "input a : seq<int>; state s : int = 0;\n\
             for i in 0 .. 10 { s = s + 1; }",
        )
        .unwrap();
        assert!(RightwardFn::new(&p).is_err());
    }

    #[test]
    fn one_dimensional_program_has_empty_inner_phase() {
        let p = parse(
            "input a : seq<int>; state s : int = 0;\n\
             for i in 0 .. len(a) { s = s + a[i]; }",
        )
        .unwrap();
        let f = RightwardFn::new(&p).unwrap();
        assert!(f.inner_phase().is_empty());
        assert_eq!(f.outer_phase().len(), 1);
        assert!(f.inner_vars().is_empty());
    }
}
