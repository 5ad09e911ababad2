//! Reference interpreter — the semantic oracle for the whole pipeline.
//!
//! Bounded verification in the synthesizer, memorylessness testing, and
//! all cross-checks against native Rust implementations go through this
//! module. Integer arithmetic wraps (synthesis enumerates arbitrary
//! candidate expressions, which must never abort the process).

use crate::ast::{BinOp, Expr, LValue, Program, Stmt, Sym, UnOp};
use crate::error::{LangError, Result};
use crate::value::Value;
use std::borrow::Cow;

/// A variable environment indexed by [`Sym`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Env {
    slots: Vec<Option<Value>>,
}

impl Env {
    /// An environment with room for every symbol of `program`.
    pub fn for_program(program: &Program) -> Env {
        Env {
            slots: vec![None; program.interner.len()],
        }
    }

    /// Read a variable.
    ///
    /// # Errors
    ///
    /// Fails if the variable has not been bound.
    pub fn get(&self, sym: Sym) -> Result<&Value> {
        self.slots
            .get(sym.index())
            .and_then(Option::as_ref)
            .ok_or_else(|| LangError::eval(format!("unbound variable #{}", sym.0)))
    }

    /// Bind or overwrite a variable.
    pub fn set(&mut self, sym: Sym, value: Value) {
        if sym.index() >= self.slots.len() {
            self.slots.resize(sym.index() + 1, None);
        }
        self.slots[sym.index()] = Some(value);
    }

    /// Remove a binding (used when leaving a scope).
    pub fn unset(&mut self, sym: Sym) {
        if let Some(slot) = self.slots.get_mut(sym.index()) {
            *slot = None;
        }
    }

    /// Whether the variable is currently bound.
    pub fn is_bound(&self, sym: Sym) -> bool {
        self.slots.get(sym.index()).is_some_and(Option::is_some)
    }
}

/// The final (or intermediate) valuation of a program's state variables,
/// in declaration order. This is an element of the domain `D` of §4.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateVec {
    entries: Vec<(Sym, Value)>,
}

impl StateVec {
    /// Build from `(symbol, value)` pairs in declaration order.
    pub fn new(entries: Vec<(Sym, Value)>) -> Self {
        StateVec { entries }
    }

    /// The `(symbol, value)` pairs in declaration order.
    pub fn entries(&self) -> &[(Sym, Value)] {
        &self.entries
    }

    /// The value of state variable `sym`.
    pub fn get(&self, sym: Sym) -> Option<&Value> {
        self.entries.iter().find(|(s, _)| *s == sym).map(|(_, v)| v)
    }

    /// The value of the state variable called `name`.
    pub fn value_named<'a>(&'a self, program: &Program, name: &str) -> Option<&'a Value> {
        let sym = program.sym(name)?;
        self.get(sym)
    }

    /// The integer value of the state variable called `name`.
    pub fn scalar_named(&self, program: &Program, name: &str) -> Option<i64> {
        self.value_named(program, name).and_then(Value::as_int)
    }

    /// The boolean value of the state variable called `name`.
    pub fn bool_named(&self, program: &Program, name: &str) -> Option<bool> {
        self.value_named(program, name).and_then(Value::as_bool)
    }

    /// Restrict to the `return`ed variables of `program` — the observable
    /// output (the projection `π_D` of Definition 5.1).
    pub fn project_returns(&self, program: &Program) -> StateVec {
        StateVec {
            entries: self
                .entries
                .iter()
                .filter(|(s, _)| program.returns.contains(s))
                .cloned()
                .collect(),
        }
    }

    /// Load this state into an environment.
    pub fn load_into(&self, env: &mut Env) {
        for (sym, value) in &self.entries {
            env.set(*sym, value.clone());
        }
    }
}

/// Evaluate an expression in an environment.
///
/// # Errors
///
/// Fails on unbound variables, out-of-bounds indexing, division by zero,
/// or `zeros` with a negative length.
pub fn eval_expr(env: &Env, e: &Expr) -> Result<Value> {
    match e {
        Expr::Int(n) => Ok(Value::Int(*n)),
        Expr::Bool(b) => Ok(Value::Bool(*b)),
        Expr::Var(sym) => env.get(*sym).cloned(),
        Expr::Index(..) => eval_place(env, e).map(Cow::into_owned),
        Expr::Len(inner) => eval_place(env, inner)?
            .len()
            .map(|n| Value::Int(n as i64))
            .ok_or_else(|| LangError::eval("`len` of a non-sequence")),
        Expr::Zeros(n) => {
            let n = eval_expr(env, n)?
                .as_int()
                .ok_or_else(|| LangError::eval("`zeros` length is not an integer"))?;
            let n =
                usize::try_from(n).map_err(|_| LangError::eval("`zeros` with negative length"))?;
            Ok(Value::Seq(vec![Value::Int(0); n]))
        }
        Expr::Unary(op, inner) => {
            let v = eval_expr(env, inner)?;
            match (op, v) {
                (UnOp::Neg, Value::Int(n)) => Ok(Value::Int(n.wrapping_neg())),
                (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                _ => Err(LangError::eval("ill-typed unary operation")),
            }
        }
        Expr::Binary(op, a, b) => {
            // Short-circuit boolean operators.
            if matches!(op, BinOp::And | BinOp::Or) {
                let av = eval_expr(env, a)?
                    .as_bool()
                    .ok_or_else(|| LangError::eval("boolean operator on non-bool"))?;
                return match (op, av) {
                    (BinOp::And, false) => Ok(Value::Bool(false)),
                    (BinOp::Or, true) => Ok(Value::Bool(true)),
                    _ => {
                        let bv = eval_expr(env, b)?
                            .as_bool()
                            .ok_or_else(|| LangError::eval("boolean operator on non-bool"))?;
                        Ok(Value::Bool(bv))
                    }
                };
            }
            let av = eval_expr(env, a)?;
            let bv = eval_expr(env, b)?;
            eval_binop(*op, &av, &bv)
        }
        Expr::Ite(c, t, e2) => {
            let cv = eval_expr(env, c)?
                .as_bool()
                .ok_or_else(|| LangError::eval("`?:` condition is not a bool"))?;
            if cv {
                eval_expr(env, t)
            } else {
                eval_expr(env, e2)
            }
        }
    }
}

/// Evaluate `e` by reference where it names a variable or an element of
/// one (`a`, `a[i]`, `a[i][j]`, ...), so reading an element or a length
/// copies only what it returns, never the whole sequence; any other
/// expression evaluates to an owned value.
fn eval_place<'e>(env: &'e Env, e: &Expr) -> Result<Cow<'e, Value>> {
    match e {
        Expr::Var(sym) => env.get(*sym).map(Cow::Borrowed),
        Expr::Index(base, idx) => {
            let base_v = eval_place(env, base)?;
            let idx_v = eval_expr(env, idx)?
                .as_int()
                .ok_or_else(|| LangError::eval("index is not an integer"))?;
            Ok(match base_v {
                Cow::Borrowed(v) => Cow::Borrowed(element(v, idx_v)?),
                Cow::Owned(v) => Cow::Owned(element(&v, idx_v)?.clone()),
            })
        }
        _ => eval_expr(env, e).map(Cow::Owned),
    }
}

/// Element `idx` of the sequence `base`.
fn element(base: &Value, idx: i64) -> Result<&Value> {
    let items = base
        .as_seq()
        .ok_or_else(|| LangError::eval("indexing a non-sequence"))?;
    usize::try_from(idx)
        .ok()
        .and_then(|i| items.get(i))
        .ok_or_else(|| LangError::eval(format!("index {idx} out of bounds (len {})", items.len())))
}

/// Apply a binary operator to two evaluated operands.
///
/// # Errors
///
/// Fails on ill-typed operands or division/remainder by zero.
pub fn eval_binop(op: BinOp, a: &Value, b: &Value) -> Result<Value> {
    match op {
        BinOp::Eq => Ok(Value::Bool(a == b)),
        BinOp::Ne => Ok(Value::Bool(a != b)),
        BinOp::And | BinOp::Or => match (a.as_bool(), b.as_bool()) {
            (Some(x), Some(y)) => Ok(Value::Bool(if op == BinOp::And { x && y } else { x || y })),
            _ => Err(LangError::eval("boolean operator on non-bool")),
        },
        _ => {
            let (x, y) = match (a.as_int(), b.as_int()) {
                (Some(x), Some(y)) => (x, y),
                _ => return Err(LangError::eval(format!("`{op}` on non-integers"))),
            };
            let v = match op {
                BinOp::Add => Value::Int(x.wrapping_add(y)),
                BinOp::Sub => Value::Int(x.wrapping_sub(y)),
                BinOp::Mul => Value::Int(x.wrapping_mul(y)),
                BinOp::Div => {
                    if y == 0 {
                        return Err(LangError::eval("division by zero"));
                    }
                    Value::Int(x.wrapping_div(y))
                }
                BinOp::Rem => {
                    if y == 0 {
                        return Err(LangError::eval("remainder by zero"));
                    }
                    Value::Int(x.wrapping_rem(y))
                }
                BinOp::Min => Value::Int(x.min(y)),
                BinOp::Max => Value::Int(x.max(y)),
                BinOp::Lt => Value::Bool(x < y),
                BinOp::Le => Value::Bool(x <= y),
                BinOp::Gt => Value::Bool(x > y),
                BinOp::Ge => Value::Bool(x >= y),
                BinOp::Eq | BinOp::Ne | BinOp::And | BinOp::Or => unreachable!(),
            };
            Ok(v)
        }
    }
}

/// Execute a single statement, mutating `env`.
///
/// # Errors
///
/// Propagates any evaluation error from contained expressions.
pub fn exec_stmt(env: &mut Env, stmt: &Stmt) -> Result<()> {
    match stmt {
        Stmt::Let { name, init, .. } => {
            let v = eval_expr(env, init)?;
            env.set(*name, v);
            Ok(())
        }
        Stmt::Assign { target, value } => {
            let v = eval_expr(env, value)?;
            assign_lvalue(env, target, v)
        }
        Stmt::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let c = eval_expr(env, cond)?
                .as_bool()
                .ok_or_else(|| LangError::eval("`if` condition is not a bool"))?;
            let branch = if c { then_branch } else { else_branch };
            exec_stmts(env, branch)
        }
        Stmt::For { var, bound, body } => {
            let n = eval_expr(env, bound)?
                .as_int()
                .ok_or_else(|| LangError::eval("loop bound is not an integer"))?;
            for i in 0..n.max(0) {
                env.set(*var, Value::Int(i));
                exec_stmts(env, body)?;
            }
            env.unset(*var);
            Ok(())
        }
    }
}

/// Execute a statement sequence.
///
/// # Errors
///
/// Propagates the first statement error.
pub fn exec_stmts(env: &mut Env, stmts: &[Stmt]) -> Result<()> {
    for stmt in stmts {
        exec_stmt(env, stmt)?;
    }
    Ok(())
}

fn assign_lvalue(env: &mut Env, target: &LValue, value: Value) -> Result<()> {
    if target.indices.is_empty() {
        env.set(target.base, value);
        return Ok(());
    }
    // Evaluate all indices first (they may read the target variable).
    let mut idxs = Vec::with_capacity(target.indices.len());
    for idx in &target.indices {
        let i = eval_expr(env, idx)?
            .as_int()
            .ok_or_else(|| LangError::eval("index is not an integer"))?;
        idxs.push(i);
    }
    let mut current = env.get(target.base)?.clone();
    {
        let mut slot = &mut current;
        for &i in &idxs {
            let items = match slot {
                Value::Seq(items) => items,
                _ => return Err(LangError::eval("indexed assignment into non-sequence")),
            };
            let len = items.len();
            slot = usize::try_from(i)
                .ok()
                .and_then(|i| items.get_mut(i))
                .ok_or_else(|| LangError::eval(format!("index {i} out of bounds (len {len})")))?;
        }
        *slot = value;
    }
    env.set(target.base, current);
    Ok(())
}

/// Bind the program's inputs and initialize its state variables.
///
/// # Errors
///
/// Fails if the number of inputs differs from the declaration list or a
/// state initializer fails to evaluate.
pub fn init_env(program: &Program, inputs: &[Value]) -> Result<Env> {
    if inputs.len() != program.inputs.len() {
        return Err(LangError::eval(format!(
            "program expects {} input(s), got {}",
            program.inputs.len(),
            inputs.len()
        )));
    }
    let mut env = Env::for_program(program);
    for (decl, value) in program.inputs.iter().zip(inputs) {
        env.set(decl.name, value.clone());
    }
    for decl in &program.state {
        let v = eval_expr(&env, &decl.init)?;
        env.set(decl.name, v);
    }
    Ok(env)
}

/// Read the current state-variable valuation out of an environment.
///
/// # Errors
///
/// Fails if some state variable is unbound.
pub fn read_state(program: &Program, env: &Env) -> Result<StateVec> {
    let mut entries = Vec::with_capacity(program.state.len());
    for decl in &program.state {
        entries.push((decl.name, env.get(decl.name)?.clone()));
    }
    Ok(StateVec::new(entries))
}

/// Run a program to completion on the given inputs.
///
/// # Errors
///
/// Propagates any runtime error.
///
/// # Example
///
/// ```
/// use parsynt_lang::{parse, interp::run_program, Value};
/// let p = parse("input a : seq<int>; state s : int = 0;\n\
///                for i in 0 .. len(a) { s = max(s, a[i]); }").unwrap();
/// let out = run_program(&p, &[Value::seq_of_ints(&[3, 9, 2])]).unwrap();
/// assert_eq!(out.scalar_named(&p, "s"), Some(9));
/// ```
pub fn run_program(program: &Program, inputs: &[Value]) -> Result<StateVec> {
    let mut env = init_env(program, inputs)?;
    exec_stmts(&mut env, &program.body)?;
    read_state(program, &env)
}

/// Run a program starting from an explicit initial state instead of the
/// declared initializers (used to exercise the rightward fold `h(x) ⊕ a`
/// from arbitrary intermediate states).
///
/// # Errors
///
/// Propagates any runtime error.
pub fn run_program_from(program: &Program, inputs: &[Value], init: &StateVec) -> Result<StateVec> {
    let mut env = init_env(program, inputs)?;
    init.load_into(&mut env);
    exec_stmts(&mut env, &program.body)?;
    read_state(program, &env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn runs_nested_sum() {
        let p = parse(
            "input a : seq<seq<int>>; state s : int = 0;\n\
             for i in 0 .. len(a) { for j in 0 .. len(a[i]) { s = s + a[i][j]; } }",
        )
        .unwrap();
        let input = Value::seq2_of_ints(&[vec![1, 2], vec![3, 4, 5]]);
        let out = run_program(&p, &[input]).unwrap();
        assert_eq!(out.scalar_named(&p, "s"), Some(15));
    }

    #[test]
    fn runs_mbbs_from_figure_1() {
        let p = parse(
            "input a : seq<seq<seq<int>>>;\n\
             state mbbs : int = 0;\n\
             for i in 0 .. len(a) {\n\
               let plane_sum : int = 0;\n\
               for j in 0 .. len(a[i]) { for k in 0 .. len(a[i][j]) {\n\
                 plane_sum = plane_sum + a[i][j][k]; } }\n\
               mbbs = max(mbbs + plane_sum, 0);\n\
             }",
        )
        .unwrap();
        // Two 1x1 planes: [5], [-3]; best bottom box is max(0, -3, 5-3) = 2.
        let input = Value::seq3_of_ints(&[vec![vec![5]], vec![vec![-3]]]);
        let out = run_program(&p, &[input]).unwrap();
        assert_eq!(out.scalar_named(&p, "mbbs"), Some(2));
    }

    #[test]
    fn indexed_assignment_updates_array_state() {
        let p = parse(
            "input a : seq<seq<int>>; state rec : seq<int> = zeros(len(a[0]));\n\
             for i in 0 .. len(a) { for j in 0 .. len(a[i]) {\n\
               rec[j] = rec[j] + a[i][j]; } }",
        )
        .unwrap();
        let input = Value::seq2_of_ints(&[vec![1, 2], vec![10, 20]]);
        let out = run_program(&p, &[input]).unwrap();
        assert_eq!(
            out.value_named(&p, "rec"),
            Some(&Value::seq_of_ints(&[11, 22]))
        );
    }

    #[test]
    fn ternary_and_comparisons() {
        let p = parse(
            "input a : seq<int>; state pos : int = 0;\n\
             for i in 0 .. len(a) { pos = pos + (a[i] > 0 ? 1 : 0); }",
        )
        .unwrap();
        let out = run_program(&p, &[Value::seq_of_ints(&[1, -2, 3, 0])]).unwrap();
        assert_eq!(out.scalar_named(&p, "pos"), Some(2));
    }

    #[test]
    fn run_from_custom_state_composes_like_a_fold() {
        let p = parse(
            "input a : seq<int>; state s : int = 0;\n\
             for i in 0 .. len(a) { s = s + a[i]; }",
        )
        .unwrap();
        let x = Value::seq_of_ints(&[1, 2]);
        let y = Value::seq_of_ints(&[3, 4]);
        let hx = run_program(&p, std::slice::from_ref(&x)).unwrap();
        let hxy = run_program_from(&p, std::slice::from_ref(&y), &hx).unwrap();
        let whole = run_program(&p, &[x.concat(&y)]).unwrap();
        assert_eq!(hxy, whole);
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let p = parse(
            "input a : seq<int>; state s : int = 0;\n\
             for i in 0 .. len(a) { s = s / a[i]; }",
        )
        .unwrap();
        let err = run_program(&p, &[Value::seq_of_ints(&[0])]).unwrap_err();
        assert!(err.to_string().contains("division by zero"));
    }

    #[test]
    fn out_of_bounds_index_is_an_error() {
        let p = parse(
            "input a : seq<int>; state s : int = 0;\n\
             for i in 0 .. len(a) { s = a[i + 1]; }",
        )
        .unwrap();
        let err = run_program(&p, &[Value::seq_of_ints(&[7])]).unwrap_err();
        assert!(err.to_string().contains("out of bounds"));
    }

    #[test]
    fn wrong_arity_is_reported() {
        let p = parse("input a : seq<int>; state s : int = 0;").unwrap();
        assert!(run_program(&p, &[]).is_err());
    }

    #[test]
    fn state_projection_keeps_returns_only() {
        let p = parse(
            "input a : seq<int>; state s : int = 0; state aux : int = 0;\n\
             for i in 0 .. len(a) { s = s + a[i]; aux = max(aux, a[i]); }\n\
             return s;",
        )
        .unwrap();
        let out = run_program(&p, &[Value::seq_of_ints(&[4, 6])]).unwrap();
        let proj = out.project_returns(&p);
        assert_eq!(proj.entries().len(), 1);
        assert_eq!(proj.scalar_named(&p, "s"), Some(10));
        assert_eq!(proj.scalar_named(&p, "aux"), None);
    }
}
