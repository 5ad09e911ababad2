//! Type and scope checking.
//!
//! Beyond ordinary type checking, the checker enforces the paper's program
//! model (§3.1): inputs are read-only, loop counters are not assignable,
//! and every `return`ed name is a declared state variable.

use crate::ast::{BinOp, Expr, LValue, Program, Stmt, Sym, UnOp};
use crate::error::{LangError, Result};
use crate::ty::Ty;
use std::collections::HashMap;

/// A lexical scope stack mapping symbols to types, with flags for
/// assignability.
#[derive(Debug, Default)]
struct Scopes {
    frames: Vec<HashMap<Sym, Binding>>,
}

#[derive(Debug, Clone)]
struct Binding {
    ty: Ty,
    assignable: bool,
    counter: bool,
}

impl Scopes {
    fn push(&mut self) {
        self.frames.push(HashMap::new());
    }

    fn pop(&mut self) {
        self.frames.pop();
    }

    fn declare(&mut self, sym: Sym, ty: Ty, assignable: bool) {
        self.bind(
            sym,
            Binding {
                ty,
                assignable,
                counter: false,
            },
        );
    }

    fn bind(&mut self, sym: Sym, binding: Binding) {
        self.frames
            .last_mut()
            .expect("at least one scope frame")
            .insert(sym, binding);
    }

    fn lookup(&self, sym: Sym) -> Option<&Binding> {
        self.frames.iter().rev().find_map(|f| f.get(&sym))
    }
}

/// The checker context.
struct Checker<'p> {
    program: &'p Program,
    scopes: Scopes,
}

/// Type-check `program` in place.
///
/// # Errors
///
/// Returns a [`LangError::Type`] describing the first violation: an
/// undeclared or shadowed variable, a type mismatch, an assignment to an
/// input or loop counter, or a `return` of a non-state variable.
pub fn check_program(program: &mut Program) -> Result<()> {
    let mut checker = Checker {
        program,
        scopes: Scopes::default(),
    };
    checker.scopes.push();

    // Inputs: visible, not assignable.
    for input in &program.inputs {
        if !input.ty.is_seq() {
            return Err(LangError::ty(format!(
                "input `{}` must have a sequence type, found `{}`",
                program.name(input.name),
                input.ty
            )));
        }
        checker.scopes.declare(input.name, input.ty.clone(), false);
    }

    // State variables: visible, assignable; inits may reference inputs
    // (for shapes, e.g. `zeros(len(a[0]))`) and previously declared state.
    for decl in &program.state {
        let init_ty = checker.expr_ty(&decl.init)?;
        if init_ty != decl.ty {
            return Err(LangError::ty(format!(
                "state `{}` declared `{}` but initialized with `{}`",
                program.name(decl.name),
                decl.ty,
                init_ty
            )));
        }
        checker.scopes.declare(decl.name, decl.ty.clone(), true);
    }

    checker.check_block(&program.body)?;

    for &ret in &program.returns {
        if !program.is_state(ret) {
            return Err(LangError::ty(format!(
                "`return {}`: not a declared state variable",
                program.name(ret)
            )));
        }
    }
    Ok(())
}

impl Checker<'_> {
    fn check_block(&mut self, stmts: &[Stmt]) -> Result<()> {
        self.scopes.push();
        for stmt in stmts {
            self.check_stmt(stmt)?;
        }
        self.scopes.pop();
        Ok(())
    }

    fn check_stmt(&mut self, stmt: &Stmt) -> Result<()> {
        match stmt {
            Stmt::Let { name, ty, init } => {
                let init_ty = self.expr_ty(init)?;
                if &init_ty != ty {
                    return Err(LangError::ty(format!(
                        "`let {}` declared `{}` but initialized with `{}`",
                        self.program.name(*name),
                        ty,
                        init_ty
                    )));
                }
                self.scopes.declare(*name, ty.clone(), true);
                Ok(())
            }
            Stmt::Assign { target, value } => {
                let target_ty = self.lvalue_ty(target)?;
                let value_ty = self.expr_ty(value)?;
                if target_ty != value_ty {
                    return Err(LangError::ty(format!(
                        "assignment to `{}`: expected `{}`, found `{}`",
                        self.program.name(target.base),
                        target_ty,
                        value_ty
                    )));
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cond_ty = self.expr_ty(cond)?;
                if cond_ty != Ty::Bool {
                    return Err(LangError::ty(format!(
                        "`if` condition must be `bool`, found `{cond_ty}`"
                    )));
                }
                self.check_block(then_branch)?;
                self.check_block(else_branch)
            }
            Stmt::For { var, bound, body } => {
                let bound_ty = self.expr_ty(bound)?;
                if bound_ty != Ty::Int {
                    return Err(LangError::ty(format!(
                        "loop bound must be `int`, found `{bound_ty}`"
                    )));
                }
                // A counter may shadow an outer counter, but not an
                // input, state variable or local: the loop would hide
                // (and, in the interpreter, unbind) it.
                if self.scopes.lookup(*var).is_some_and(|b| !b.counter) {
                    return Err(LangError::ty(format!(
                        "loop counter `{}` shadows a variable of the same name",
                        self.program.name(*var)
                    )));
                }
                self.scopes.push();
                let counter = Binding {
                    ty: Ty::Int,
                    assignable: false,
                    counter: true,
                };
                self.scopes.bind(*var, counter);
                for stmt in body {
                    self.check_stmt(stmt)?;
                }
                self.scopes.pop();
                Ok(())
            }
        }
    }

    fn lvalue_ty(&mut self, lv: &LValue) -> Result<Ty> {
        let binding = self
            .scopes
            .lookup(lv.base)
            .ok_or_else(|| {
                LangError::ty(format!(
                    "assignment to undeclared variable `{}`",
                    self.program.name(lv.base)
                ))
            })?
            .clone();
        if !binding.assignable {
            return Err(LangError::ty(format!(
                "`{}` is read-only (input or loop counter) and cannot be assigned",
                self.program.name(lv.base)
            )));
        }
        let mut ty = binding.ty;
        for idx in &lv.indices {
            let idx_ty = self.expr_ty(idx)?;
            if idx_ty != Ty::Int {
                return Err(LangError::ty(format!(
                    "index expression must be `int`, found `{idx_ty}`"
                )));
            }
            ty = match ty {
                Ty::Seq(elem) => *elem,
                other => {
                    return Err(LangError::ty(format!(
                        "cannot index into non-sequence type `{other}`"
                    )))
                }
            };
        }
        Ok(ty)
    }

    /// Compute the type of an expression under the current scopes.
    fn expr_ty(&self, e: &Expr) -> Result<Ty> {
        match e {
            Expr::Int(_) => Ok(Ty::Int),
            Expr::Bool(_) => Ok(Ty::Bool),
            Expr::Var(sym) => self
                .scopes
                .lookup(*sym)
                .map(|b| b.ty.clone())
                .ok_or_else(|| {
                    LangError::ty(format!("undeclared variable `{}`", self.program.name(*sym)))
                }),
            Expr::Index(base, idx) => {
                let base_ty = self.expr_ty(base)?;
                let idx_ty = self.expr_ty(idx)?;
                if idx_ty != Ty::Int {
                    return Err(LangError::ty(format!(
                        "index expression must be `int`, found `{idx_ty}`"
                    )));
                }
                match base_ty {
                    Ty::Seq(elem) => Ok(*elem),
                    other => Err(LangError::ty(format!(
                        "cannot index into non-sequence type `{other}`"
                    ))),
                }
            }
            Expr::Len(inner) => {
                let t = self.expr_ty(inner)?;
                if t.is_seq() {
                    Ok(Ty::Int)
                } else {
                    Err(LangError::ty(format!(
                        "`len` requires a sequence, found `{t}`"
                    )))
                }
            }
            Expr::Zeros(n) => {
                let t = self.expr_ty(n)?;
                if t == Ty::Int {
                    Ok(Ty::seq(Ty::Int))
                } else {
                    Err(LangError::ty(format!(
                        "`zeros` requires an `int` length, found `{t}`"
                    )))
                }
            }
            Expr::Unary(op, inner) => {
                let t = self.expr_ty(inner)?;
                match op {
                    UnOp::Neg if t == Ty::Int => Ok(Ty::Int),
                    UnOp::Not if t == Ty::Bool => Ok(Ty::Bool),
                    UnOp::Neg => Err(LangError::ty(format!("`-` requires `int`, found `{t}`"))),
                    UnOp::Not => Err(LangError::ty(format!("`!` requires `bool`, found `{t}`"))),
                }
            }
            Expr::Binary(op, a, b) => {
                let ta = self.expr_ty(a)?;
                let tb = self.expr_ty(b)?;
                match op {
                    BinOp::And | BinOp::Or => {
                        if ta == Ty::Bool && tb == Ty::Bool {
                            Ok(Ty::Bool)
                        } else {
                            Err(LangError::ty(format!(
                                "`{op}` requires `bool` operands, found `{ta}` and `{tb}`"
                            )))
                        }
                    }
                    BinOp::Eq | BinOp::Ne => {
                        if ta == tb && ta.is_scalar() {
                            Ok(Ty::Bool)
                        } else {
                            Err(LangError::ty(format!(
                                "`{op}` requires matching scalar operands, found `{ta}` and `{tb}`"
                            )))
                        }
                    }
                    _ => {
                        if ta == Ty::Int && tb == Ty::Int {
                            Ok(op.result_ty())
                        } else {
                            Err(LangError::ty(format!(
                                "`{op}` requires `int` operands, found `{ta}` and `{tb}`"
                            )))
                        }
                    }
                }
            }
            Expr::Ite(c, t, e2) => {
                let tc = self.expr_ty(c)?;
                if tc != Ty::Bool {
                    return Err(LangError::ty(format!(
                        "`?:` condition must be `bool`, found `{tc}`"
                    )));
                }
                let tt = self.expr_ty(t)?;
                let te = self.expr_ty(e2)?;
                if tt == te {
                    Ok(tt)
                } else {
                    Err(LangError::ty(format!(
                        "`?:` branches disagree: `{tt}` vs `{te}`"
                    )))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::parse;

    #[test]
    fn accepts_well_typed_program() {
        assert!(parse(
            "input a : seq<seq<int>>; state s : int = 0;\n\
             for i in 0 .. len(a) { for j in 0 .. len(a[i]) { s = s + a[i][j]; } }"
        )
        .is_ok());
    }

    #[test]
    fn rejects_assignment_to_input() {
        let err = parse(
            "input a : seq<int>; state s : int = 0;\n\
             for i in 0 .. len(a) { a[i] = 0; }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("read-only"));
    }

    #[test]
    fn rejects_assignment_to_loop_counter() {
        let err = parse(
            "input a : seq<int>; state s : int = 0;\n\
             for i in 0 .. len(a) { i = 0; }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("read-only"));
    }

    #[test]
    fn rejects_type_mismatch_in_assignment() {
        let err = parse(
            "input a : seq<int>; state s : int = 0;\n\
             for i in 0 .. len(a) { s = a[i] > 0; }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("expected `int`"));
    }

    #[test]
    fn rejects_bool_loop_bound() {
        let err = parse(
            "input a : seq<int>; state s : int = 0;\n\
             for i in 0 .. true { s = 0; }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("loop bound"));
    }

    #[test]
    fn rejects_scalar_input() {
        let err = parse("input a : int; state s : int = 0;").unwrap_err();
        assert!(err.to_string().contains("sequence type"));
    }

    #[test]
    fn rejects_return_of_non_state() {
        let err = parse(
            "input a : seq<int>; state s : int = 0;\n\
             for i in 0 .. len(a) { s = s + a[i]; } return a;",
        )
        .unwrap_err();
        assert!(err.to_string().contains("not a declared state variable"));
    }

    #[test]
    fn accepts_zeros_initialized_array_state() {
        assert!(parse(
            "input a : seq<seq<int>>; state rec : seq<int> = zeros(len(a[0]));\n\
             state m : int = 0;\n\
             for i in 0 .. len(a) { for j in 0 .. len(a[i]) {\n\
               rec[j] = rec[j] + a[i][j]; m = max(m, rec[j]); } }"
        )
        .is_ok());
    }

    #[test]
    fn rejects_undeclared_variable() {
        let err = parse(
            "input a : seq<int>; state s : int = 0;\n\
             for i in 0 .. len(a) { s = s + ghost; }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("undeclared"));
    }

    #[test]
    fn let_scoped_to_block() {
        // `t` is declared in the inner loop body and used outside it.
        let err = parse(
            "input a : seq<seq<int>>; state s : int = 0;\n\
             for i in 0 .. len(a) {\n\
               for j in 0 .. len(a[i]) { let t : int = a[i][j]; }\n\
               s = s + t;\n\
             }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("undeclared"));
    }

    #[test]
    fn loop_counter_must_not_shadow_state_or_input() {
        let err = parse(
            "input a : seq<seq<int>>; state j : int = 7;\n\
             for i in 0 .. len(a) { for j in 0 .. len(a[i]) { } }",
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("loop counter `j` shadows"),
            "{err}"
        );
        let err = parse(
            "input a : seq<int>; state s : int = 0;\n\
             for a in 0 .. 3 { s = s + 1; }",
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("loop counter `a` shadows"),
            "{err}"
        );
        // Shadowing an outer loop counter stays allowed.
        assert!(parse(
            "input a : seq<seq<int>>; state s : int = 0;\n\
             for i in 0 .. len(a) { for i in 0 .. len(a[i]) { s = s + i; } }"
        )
        .is_ok());
    }

    #[test]
    fn ite_branch_types_must_agree() {
        let err = parse(
            "input a : seq<int>; state s : int = 0;\n\
             for i in 0 .. len(a) { s = a[i] > 0 ? 1 : false; }",
        )
        .unwrap_err();
        assert!(err.to_string().contains("branches disagree"));
    }
}
