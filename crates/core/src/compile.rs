//! Compilation of synthesized plans to fused native chunk kernels.
//!
//! The interpreter-backed tasks in [`crate::exec`] walk interpreted
//! AST terms per element, which costs an order of magnitude in dispatch
//! overhead at Figure-9 scale. This module lowers a [`Parallelization`] — the
//! transformed program's loop nest plus the synthesized join `⊙` — to
//! specialized closure trees over a register file of `i64` scalars and a
//! flattened, offset-indexed view of the main input ([`FlatInput`]), so
//! a chunk summarization is one fused loop with no `Value` allocation
//! on the hot path.
//!
//! Every closure call costs a few nanoseconds, so the lowering fuses
//! the common shapes into superinstructions (counted on the
//! `compile_plan` trace event):
//!
//! * **Leaf operands.** Registers and folded constants are never
//!   closures: the operator, load, condition or loop bound that consumes
//!   one reads `ctx.regs` (or the immediate) directly. Each operator is
//!   its own monomorphized closure, with no operator `match` at run
//!   time, and an assignment `x = a ⊕ b` stores its result itself.
//! * **Register- and constant-indexed loads.** `a[i][j]` and `len(a[i])`
//!   walk the offset tables with the indices read straight from
//!   registers, each level bounds-checked with the interpreter's
//!   `index … out of bounds (len …)` error.
//! * **Row loops.** `for v in 0 .. len(a[..])` over one row of scalars,
//!   whose row is not indexed by `v` and whose body assigns neither `v`
//!   nor the row's index variables, computes the row's span once (with
//!   `len`'s errors). A body made of accumulations `acc = acc ⊕ a[..][v]`
//!   (⊕ ∈ `+`, `max`, `min`, one statement per accumulator) becomes one
//!   slice fold per accumulator; any other body runs per element, its
//!   `a[..][v]` loads reading the cached span. `v` ends at the value the
//!   per-element loop leaves.
//!
//! Shapes that match no form lower to generic closures with the same
//! semantics.
//!
//! The compiler is deliberately partial: it covers the scalar-state
//! plan shapes the Figure-9 suite produces (single `seq<int>^{1..3}`
//! input, constant state initializers, no array-shaped state) and
//! reports everything else as [`CompileError`], at which point
//! [`crate::run_plan_checked`] falls back to the interpreter and emits
//! a `compile_fallback` trace event. A compiled plan runs on
//! `parsynt_runtime::Executor` as a [`CompiledDncTask`] or
//! [`CompiledMapOnlyTask`]. The interpreter remains the semantic
//! oracle: compiled kernels replicate its wrapping arithmetic,
//! short-circuit booleans, lazy conditionals and runtime error messages
//! exactly, and the differential suites assert byte-identical results.

#![warn(clippy::unwrap_used)]

use crate::exec::{leaves, InterpDncTask, PlanAcc};
use crate::schema::{Outcome, Parallelization};
use parsynt_lang::ast::{BinOp, Expr, Program, Stmt, Sym, UnOp};
use parsynt_lang::error::{LangError, Result as LangResult};
use parsynt_lang::functional::RightwardFn;
use parsynt_lang::interp::StateVec;
use parsynt_lang::{Ty, Value};
use parsynt_runtime::{RangeMapTask, RangeTask};
use parsynt_trace as trace;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Why a plan could not be compiled (the fallback reason surfaced in the
/// `compile_fallback` trace event).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    reason: String,
}

impl CompileError {
    fn new(reason: impl Into<String>) -> Self {
        CompileError {
            reason: reason.into(),
        }
    }

    /// The human-readable reason.
    pub fn reason(&self) -> &str {
        &self.reason
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "plan not compilable: {}", self.reason)
    }
}

impl std::error::Error for CompileError {}

type CResult<T> = std::result::Result<T, CompileError>;

fn unsupported<T>(reason: impl Into<String>) -> CResult<T> {
    Err(CompileError::new(reason))
}

/// A flattened, offset-indexed view of the main input: the leaf scalars
/// in one contiguous `i64` buffer plus per-level offset tables, so the
/// compiled kernels index with integer arithmetic instead of walking
/// nested [`Value`] vectors.
///
/// * depth 1 — `data[i]` is element `i`;
/// * depth 2 — row `i` is `data[off1[i]..off1[i + 1]]`;
/// * depth 3 — plane `i` spans rows `off1[i]..off1[i + 1]`, and row `r`
///   is `data[off2[r]..off2[r + 1]]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlatInput {
    depth: usize,
    n: usize,
    data: Vec<i64>,
    off1: Vec<usize>,
    off2: Vec<usize>,
}

impl FlatInput {
    /// Flatten `value` as a `depth`-dimensional integer sequence.
    /// Returns `None` when the value does not have that shape (a boolean
    /// leaf, a scalar where a sequence is expected, ...). Empty
    /// sequences are accepted at any level.
    pub fn from_value(value: &Value, depth: usize) -> Option<FlatInput> {
        FlatInput::from_rows(value.as_seq()?, depth)
    }

    /// Flatten `rows`, the outer elements of a `depth`-dimensional
    /// integer sequence (a whole input, or one chunk's rows of it),
    /// into a view whose row 0 is `rows[0]`. `None` as for
    /// [`FlatInput::from_value`].
    pub fn from_rows(rows: &[Value], depth: usize) -> Option<FlatInput> {
        if !(1..=3).contains(&depth) {
            return None;
        }
        let mut flat = FlatInput {
            n: rows.len(),
            data: Vec::with_capacity(leaves(rows, depth)),
            ..FlatInput::empty(depth)
        };
        match depth {
            1 => push_ints(&mut flat.data, rows)?,
            2 => {
                flat.off1.reserve(rows.len());
                for row in rows {
                    push_ints(&mut flat.data, row.as_seq()?)?;
                    flat.off1.push(flat.data.len());
                }
            }
            _ => {
                flat.off1.reserve(rows.len());
                for plane in rows {
                    for row in plane.as_seq()? {
                        push_ints(&mut flat.data, row.as_seq()?)?;
                        flat.off2.push(flat.data.len());
                    }
                    flat.off1.push(flat.off2.len() - 1);
                }
            }
        }
        Some(flat)
    }

    /// An empty input of the given depth.
    fn empty(depth: usize) -> FlatInput {
        FlatInput {
            depth,
            n: 0,
            data: Vec::new(),
            off1: if depth >= 2 { vec![0] } else { Vec::new() },
            off2: if depth == 3 { vec![0] } else { Vec::new() },
        }
    }

    /// Number of outer-dimension elements.
    pub fn outer_len(&self) -> usize {
        self.n
    }

    /// Number of leaf scalars.
    pub(crate) fn leaves(&self) -> usize {
        self.data.len()
    }

    /// The nesting depth this view was flattened at.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

/// Append the integer scalars `items` to `data`; `None` on any other
/// value.
fn push_ints(data: &mut Vec<i64>, items: &[Value]) -> Option<()> {
    for item in items {
        data.push(item.as_int()?);
    }
    Some(())
}

/// A compiled state tuple: one `i64` slot per state declaration, in
/// declaration order (booleans stored as 0/1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CState(pub Vec<i64>);

/// Kernel evaluation context: the flattened input, the chunk window
/// (`base`/`rows` over the outer dimension), the scalar register file,
/// and the first runtime error if any.
struct Ctx<'a> {
    flat: &'a FlatInput,
    base: usize,
    rows: usize,
    regs: Vec<i64>,
    err: Option<String>,
}

impl Ctx<'_> {
    #[cold]
    fn fail(&mut self, msg: impl Into<String>) -> i64 {
        if self.err.is_none() {
            self.err = Some(msg.into());
        }
        0
    }

    #[cold]
    fn fail_oob(&mut self, idx: i64, len: usize) -> i64 {
        self.fail(format!("index {idx} out of bounds (len {len})"))
    }

    /// The span `(start, len)` of the main input's view `a[c0]..[ck]`:
    /// outer rows of the chunk window for an empty chain, then one
    /// offset table per level (`off1`, then `off2`), ending in `data`
    /// when the chain is one short of the input depth. Records the
    /// interpreter's out-of-bounds error and returns `None` when an
    /// index misses.
    fn span(&mut self, chain: &[Operand]) -> Option<(usize, usize)> {
        let mut span = (self.base, self.rows);
        for (level, ix) in chain.iter().enumerate() {
            let iv = ix.eval(self);
            let Some(i) = in_bounds(iv, span.1) else {
                self.fail_oob(iv, span.1);
                return None;
            };
            let at = span.0 + i;
            let off = if level == 0 {
                &self.flat.off1
            } else {
                &self.flat.off2
            };
            span = (off[at], off[at + 1] - off[at]);
        }
        Some(span)
    }

    /// Element `iv` of the data span `(start, len)`, bounds-checked.
    #[inline]
    fn pick(&mut self, (start, len): (usize, usize), iv: i64) -> i64 {
        match in_bounds(iv, len) {
            Some(i) => self.flat.data[start + i],
            None => self.fail_oob(iv, len),
        }
    }
}

type IntOp = Box<dyn Fn(&mut Ctx<'_>) -> i64 + Send + Sync>;
type StmtOp = Box<dyn Fn(&mut Ctx<'_>) + Send + Sync>;

/// A lowered expression. Leaves — registers and folded constants —
/// stay symbolic, so the operator, load or statement consuming them
/// reads the register file (or the immediate) directly instead of
/// calling a closure.
enum Operand {
    Reg(usize),
    Const(i64),
    /// `a[..][v]` inside a row loop over that row: the loop variable's
    /// register and the registers caching the row span.
    Elem {
        var: usize,
        start: usize,
        len: usize,
    },
    Op(IntOp),
}

impl Operand {
    #[inline(always)]
    fn eval(&self, ctx: &mut Ctx<'_>) -> i64 {
        match self {
            Operand::Reg(r) => ctx.regs[*r],
            Operand::Const(k) => *k,
            Operand::Elem { var, start, len } => {
                let span = (ctx.regs[*start] as usize, ctx.regs[*len] as usize);
                let iv = ctx.regs[*var];
                ctx.pick(span, iv)
            }
            Operand::Op(op) => op(ctx),
        }
    }

    /// Registers and constants: operands that cannot fail.
    fn is_leaf(&self) -> bool {
        matches!(self, Operand::Reg(_) | Operand::Const(_))
    }
}

fn run_ops(ops: &[StmtOp], ctx: &mut Ctx<'_>) {
    for op in ops {
        op(ctx);
    }
}

#[inline]
fn in_bounds(idx: i64, len: usize) -> Option<usize> {
    usize::try_from(idx).ok().filter(|&i| i < len)
}

/// Where a fused operator's value goes: back to the enclosing
/// expression ([`Yield`]), or straight into the register an assignment
/// targets ([`Store`]), which saves the statement a closure call.
trait Sink: Copy {
    type Op;

    fn op<F>(self, f: F) -> Self::Op
    where
        F: Fn(&mut Ctx<'_>) -> i64 + Send + Sync + 'static;
}

#[derive(Clone, Copy)]
struct Yield;

impl Sink for Yield {
    type Op = IntOp;

    fn op<F>(self, f: F) -> IntOp
    where
        F: Fn(&mut Ctx<'_>) -> i64 + Send + Sync + 'static,
    {
        Box::new(f)
    }
}

#[derive(Clone, Copy)]
struct Store(usize);

impl Sink for Store {
    type Op = StmtOp;

    fn op<F>(self, f: F) -> StmtOp
    where
        F: Fn(&mut Ctx<'_>) -> i64 + Send + Sync + 'static,
    {
        let Store(reg) = self;
        Box::new(move |ctx| {
            let v = f(ctx);
            ctx.regs[reg] = v;
        })
    }
}

/// Fuse a binary operator with its operands into one closure,
/// monomorphized per operator (`f`); leaf operands are read straight
/// from the register file. Operands evaluate left to right, like the
/// interpreter (leaves cannot fail, so reading them first is
/// unobservable).
fn fuse2<S: Sink, F>(sink: S, a: Operand, b: Operand, f: F) -> S::Op
where
    F: Fn(&mut Ctx<'_>, i64, i64) -> i64 + Send + Sync + 'static,
{
    match (a, b) {
        (Operand::Reg(x), Operand::Reg(y)) => sink.op(move |ctx| {
            let (p, q) = (ctx.regs[x], ctx.regs[y]);
            f(ctx, p, q)
        }),
        (Operand::Reg(x), Operand::Const(k)) => sink.op(move |ctx| {
            let p = ctx.regs[x];
            f(ctx, p, k)
        }),
        (Operand::Const(k), Operand::Reg(y)) => sink.op(move |ctx| {
            let q = ctx.regs[y];
            f(ctx, k, q)
        }),
        (a, b) => sink.op(move |ctx| {
            let p = a.eval(ctx);
            let q = b.eval(ctx);
            f(ctx, p, q)
        }),
    }
}

/// Unary counterpart of [`fuse2`].
fn fuse1<F>(a: Operand, f: F) -> IntOp
where
    F: Fn(i64) -> i64 + Send + Sync + 'static,
{
    match a {
        Operand::Reg(r) => Box::new(move |ctx| f(ctx.regs[r])),
        a => Box::new(move |ctx| f(a.eval(ctx))),
    }
}

/// Constant-fold a closed expression (booleans as 0/1). Division and
/// remainder by a constant zero are left unfolded so the runtime error
/// surfaces exactly where the interpreter raises it.
fn const_fold(e: &Expr) -> Option<i64> {
    match e {
        Expr::Int(n) => Some(*n),
        Expr::Bool(b) => Some(i64::from(*b)),
        Expr::Unary(UnOp::Neg, a) => Some(const_fold(a)?.wrapping_neg()),
        Expr::Unary(UnOp::Not, a) => Some(i64::from(const_fold(a)? == 0)),
        Expr::Binary(op, a, b) => {
            let a = const_fold(a)?;
            let b = const_fold(b)?;
            if matches!(op, BinOp::Div | BinOp::Rem) && b == 0 {
                return None;
            }
            Some(eval_pure_binop(*op, a, b))
        }
        Expr::Ite(c, t, e2) => {
            if const_fold(c)? != 0 {
                const_fold(t)
            } else {
                const_fold(e2)
            }
        }
        _ => None,
    }
}

/// Evaluate a binary operator on `i64` operands (constant folding
/// only; kernels use the per-operator closures of [`fuse2`]). `Div`/
/// `Rem` must be guarded by the caller (zero divisors wrap to the
/// dividend here only because `wrapping_div` would panic; callers never
/// pass them).
fn eval_pure_binop(op: BinOp, a: i64, b: i64) -> i64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => a.wrapping_div(b),
        BinOp::Rem => a.wrapping_rem(b),
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
        BinOp::And => i64::from(a != 0 && b != 0),
        BinOp::Or => i64::from(a != 0 || b != 0),
        BinOp::Eq => i64::from(a == b),
        BinOp::Ne => i64::from(a != b),
        BinOp::Lt => i64::from(a < b),
        BinOp::Le => i64::from(a <= b),
        BinOp::Gt => i64::from(a > b),
        BinOp::Ge => i64::from(a >= b),
    }
}

/// How many times the lowering chose each superinstruction form, as
/// reported on the `compile_plan` trace event; a plan whose counts are
/// all zero runs entirely on generic closures.
#[derive(Debug, Clone, Copy, Default)]
struct FusedForms {
    /// Unary and binary operators reading at least one register or
    /// constant operand directly.
    leaf_ops: usize,
    /// Loads and `len`s of the main input whose indices are all
    /// registers or constants.
    leaf_loads: usize,
    /// Loops `for v in 0 .. len(a[..])` over one row of scalars whose
    /// row span is computed once per loop.
    row_loops: usize,
    /// Row-loop accumulations `acc = acc ⊕ a[..][v]` run as slice folds.
    slice_folds: usize,
}

/// A row loop's accumulation operator.
#[derive(Debug, Clone, Copy)]
enum FoldOp {
    Add,
    Max,
    Min,
}

impl FoldOp {
    fn of(op: BinOp) -> Option<FoldOp> {
        match op {
            BinOp::Add => Some(FoldOp::Add),
            BinOp::Max => Some(FoldOp::Max),
            BinOp::Min => Some(FoldOp::Min),
            _ => None,
        }
    }

    /// `acc ⊕ row[0] ⊕ row[1] ⊕ ..`, left to right with wrapping
    /// addition — the value the per-element loop would leave.
    fn fold(self, acc: i64, row: &[i64]) -> i64 {
        match self {
            FoldOp::Add => row.iter().fold(acc, |s, &x| s.wrapping_add(x)),
            FoldOp::Max => row.iter().fold(acc, |m, &x| m.max(x)),
            FoldOp::Min => row.iter().fold(acc, |m, &x| m.min(x)),
        }
    }
}

/// A row loop being lowered: its row chain and loop variable (as
/// written), the variable's register, and the two registers its row
/// span is cached in for row-relative loads.
struct RowScope {
    chain: Vec<Expr>,
    var: Sym,
    var_reg: usize,
    start: usize,
    len: usize,
}

/// Whether any statement in `stmts` (recursively) assigns or declares
/// `sym`, including as a loop variable.
fn assigns(stmts: &[Stmt], sym: Sym) -> bool {
    let mut hit = false;
    for s in stmts {
        s.walk(&mut |s| {
            hit |= match s {
                Stmt::Let { name, .. } => *name == sym,
                Stmt::Assign { target, .. } => target.base == sym,
                Stmt::For { var, .. } => *var == sym,
                Stmt::If { .. } => false,
            };
        });
    }
    hit
}

/// Expression/statement lowering state: the register allocation (one
/// `i64` slot per symbol, plus anonymous slots for cached row spans),
/// which input accesses are legal in the current context (the join body
/// must not touch the input), the enclosing row loops, and the
/// superinstruction counts.
struct Compiler<'p> {
    program: &'p Program,
    main: Sym,
    depth: usize,
    regs: HashMap<Sym, usize>,
    n_regs: usize,
    allow_input: bool,
    rows: Vec<RowScope>,
    fused: FusedForms,
}

impl Compiler<'_> {
    fn reg(&mut self, sym: Sym) -> usize {
        let next = self.n_regs;
        let reg = *self.regs.entry(sym).or_insert(next);
        if reg == next {
            self.n_regs += 1;
        }
        reg
    }

    fn fresh_reg(&mut self) -> usize {
        self.n_regs += 1;
        self.n_regs - 1
    }

    /// Decompose an index chain `v[e0][e1]..` into its base symbol and
    /// index expressions, outermost dimension first.
    fn split_chain(e: &Expr) -> Option<(Sym, Vec<&Expr>)> {
        let mut idxs = Vec::new();
        let mut cur = e;
        loop {
            match cur {
                Expr::Index(base, idx) => {
                    idxs.push(idx.as_ref());
                    cur = base;
                }
                Expr::Var(sym) => {
                    idxs.reverse();
                    return Some((*sym, idxs));
                }
                _ => return None,
            }
        }
    }

    fn require_main_chain<'e>(&self, e: &'e Expr) -> CResult<Vec<&'e Expr>> {
        let Some((sym, idxs)) = Self::split_chain(e) else {
            return unsupported("index chain with a non-variable base");
        };
        if sym != self.main {
            return unsupported(format!(
                "indexing variable '{}' (only the main input is compiled)",
                self.program.name(sym)
            ));
        }
        if !self.allow_input {
            return unsupported("join body references the input");
        }
        Ok(idxs)
    }

    fn lower_chain(&mut self, idxs: &[&Expr]) -> CResult<Vec<Operand>> {
        let chain: Vec<Operand> = idxs
            .iter()
            .map(|e| self.lower_expr(e))
            .collect::<CResult<_>>()?;
        if chain.iter().all(Operand::is_leaf) {
            self.fused.leaf_loads += 1;
        }
        Ok(chain)
    }

    /// Lower a full-depth load `a[e0]..[e_{d-1}]` to a guarded offset
    /// walk. The first index is relative to the chunk window (`base`),
    /// matching the interpreter on a sliced input. Inside a row loop
    /// over this load's row, indexed by the loop variable, the load
    /// reads the loop's cached row span instead.
    fn lower_load(&mut self, idxs: &[&Expr]) -> CResult<Operand> {
        if idxs.len() != self.depth {
            return unsupported(format!(
                "partial index chain ({} of {} dimensions)",
                idxs.len(),
                self.depth
            ));
        }
        let (last, prefix) = idxs.split_last().expect("input depth is at least 1");
        let scope = self.rows.iter().rev().find(|s| {
            **last == Expr::Var(s.var)
                && prefix.len() == s.chain.len()
                && prefix.iter().zip(&s.chain).all(|(a, b)| *a == b)
        });
        if let Some(&RowScope {
            var_reg,
            start,
            len,
            ..
        }) = scope
        {
            self.fused.leaf_loads += 1;
            return Ok(Operand::Elem {
                var: var_reg,
                start,
                len,
            });
        }
        let mut chain = self.lower_chain(idxs)?;
        let last = chain.pop().expect("input depth is at least 1");
        Ok(Operand::Op(Box::new(move |ctx| match ctx.span(&chain) {
            Some(span) => {
                let iv = last.eval(ctx);
                ctx.pick(span, iv)
            }
            None => 0,
        })))
    }

    /// Lower `len(chain)` over the main input.
    fn lower_len(&mut self, inner: &Expr) -> CResult<Operand> {
        let idxs = self.require_main_chain(inner)?;
        if idxs.len() >= self.depth {
            return unsupported(format!(
                "`len` of a depth-{} view of a depth-{} input",
                self.depth as i64 - idxs.len() as i64,
                self.depth
            ));
        }
        if idxs.is_empty() {
            return Ok(Operand::Op(Box::new(|ctx| ctx.rows as i64)));
        }
        let chain = self.lower_chain(&idxs)?;
        Ok(Operand::Op(Box::new(move |ctx| {
            ctx.span(&chain).map_or(0, |(_, len)| len as i64)
        })))
    }

    /// Lower the binary operation `a op b`, delivering its value to
    /// `sink`.
    fn lower_binary<S: Sink>(&mut self, sink: S, op: BinOp, a: &Expr, b: &Expr) -> CResult<S::Op> {
        let a = self.lower_expr(a)?;
        let b = self.lower_expr(b)?;
        if a.is_leaf() || b.is_leaf() {
            self.fused.leaf_ops += 1;
        }
        Ok(match op {
            // Short-circuit booleans, like the interpreter; a
            // leaf right operand has nothing to skip.
            BinOp::And if !b.is_leaf() => sink.op(move |ctx| {
                if a.eval(ctx) != 0 {
                    i64::from(b.eval(ctx) != 0)
                } else {
                    0
                }
            }),
            BinOp::Or if !b.is_leaf() => sink.op(move |ctx| {
                if a.eval(ctx) == 0 {
                    i64::from(b.eval(ctx) != 0)
                } else {
                    1
                }
            }),
            BinOp::Add => fuse2(sink, a, b, |_, x, y| x.wrapping_add(y)),
            BinOp::Sub => fuse2(sink, a, b, |_, x, y| x.wrapping_sub(y)),
            BinOp::Mul => fuse2(sink, a, b, |_, x, y| x.wrapping_mul(y)),
            BinOp::Div => fuse2(sink, a, b, |ctx, x, y| {
                if y == 0 {
                    ctx.fail("division by zero")
                } else {
                    x.wrapping_div(y)
                }
            }),
            BinOp::Rem => fuse2(sink, a, b, |ctx, x, y| {
                if y == 0 {
                    ctx.fail("remainder by zero")
                } else {
                    x.wrapping_rem(y)
                }
            }),
            BinOp::Min => fuse2(sink, a, b, |_, x, y| x.min(y)),
            BinOp::Max => fuse2(sink, a, b, |_, x, y| x.max(y)),
            BinOp::And => fuse2(sink, a, b, |_, x, y| i64::from(x != 0 && y != 0)),
            BinOp::Or => fuse2(sink, a, b, |_, x, y| i64::from(x != 0 || y != 0)),
            BinOp::Eq => fuse2(sink, a, b, |_, x, y| i64::from(x == y)),
            BinOp::Ne => fuse2(sink, a, b, |_, x, y| i64::from(x != y)),
            BinOp::Lt => fuse2(sink, a, b, |_, x, y| i64::from(x < y)),
            BinOp::Le => fuse2(sink, a, b, |_, x, y| i64::from(x <= y)),
            BinOp::Gt => fuse2(sink, a, b, |_, x, y| i64::from(x > y)),
            BinOp::Ge => fuse2(sink, a, b, |_, x, y| i64::from(x >= y)),
        })
    }

    /// Lower `reg = value`. A binary operation stores its result itself.
    fn lower_store(&mut self, reg: usize, value: &Expr) -> CResult<StmtOp> {
        match value {
            Expr::Binary(op, a, b) if const_fold(value).is_none() => {
                self.lower_binary(Store(reg), *op, a, b)
            }
            _ => {
                let value = self.lower_expr(value)?;
                Ok(Box::new(move |ctx| {
                    let v = value.eval(ctx);
                    ctx.regs[reg] = v;
                }))
            }
        }
    }

    fn lower_expr(&mut self, e: &Expr) -> CResult<Operand> {
        if let Some(k) = const_fold(e) {
            return Ok(Operand::Const(k));
        }
        match e {
            Expr::Int(_) | Expr::Bool(_) => unreachable!("constants fold"),
            Expr::Var(sym) => {
                if *sym == self.main {
                    return unsupported("whole-sequence use of the main input");
                }
                if let Some(ty) = self.program.decl_ty(*sym) {
                    if !ty.is_scalar() {
                        return unsupported(format!(
                            "sequence-valued variable '{}'",
                            self.program.name(*sym)
                        ));
                    }
                }
                Ok(Operand::Reg(self.reg(*sym)))
            }
            Expr::Index(..) => {
                let idxs = self.require_main_chain(e)?;
                self.lower_load(&idxs)
            }
            Expr::Len(inner) => self.lower_len(inner),
            Expr::Zeros(_) => unsupported("`zeros` (array-shaped state)"),
            Expr::Unary(op, a) => {
                let a = self.lower_expr(a)?;
                if a.is_leaf() {
                    self.fused.leaf_ops += 1;
                }
                Ok(Operand::Op(match op {
                    UnOp::Neg => fuse1(a, i64::wrapping_neg),
                    UnOp::Not => fuse1(a, |x| i64::from(x == 0)),
                }))
            }
            Expr::Binary(op, a, b) => Ok(Operand::Op(self.lower_binary(Yield, *op, a, b)?)),
            Expr::Ite(c, t, e2) => {
                let c = self.lower_expr(c)?;
                let t = self.lower_expr(t)?;
                let e2 = self.lower_expr(e2)?;
                Ok(Operand::Op(Box::new(move |ctx| {
                    // Lazy, like the interpreter: only the taken branch
                    // evaluates (it may divide or index).
                    if c.eval(ctx) != 0 {
                        t.eval(ctx)
                    } else {
                        e2.eval(ctx)
                    }
                })))
            }
        }
    }

    /// The row chain of a row loop `for var in 0 .. len(a[c0]..[ck])`:
    /// the bound views one row of scalars (`k + 1` is the input depth),
    /// every index is a constant or a register other than `var`'s, and
    /// `body` assigns neither `var` nor any index variable, so the row
    /// is the same on every iteration. (A counter may shadow an outer
    /// one, as in `for i .. len(a[i])`: the bound reads the outer `i`,
    /// the body the inner, on one shared register.) `None` for any
    /// other loop.
    fn row_chain<'e>(&self, var: Sym, bound: &'e Expr, body: &[Stmt]) -> Option<Vec<&'e Expr>> {
        let Expr::Len(inner) = bound else {
            return None;
        };
        let (sym, idxs) = Self::split_chain(inner)?;
        let invariant = |e: &Expr| match e {
            Expr::Var(s) => *s != var && *s != self.main && !assigns(body, *s),
            e => const_fold(e).is_some(),
        };
        (sym == self.main
            && self.allow_input
            && idxs.len() + 1 == self.depth
            && !assigns(body, var)
            && idxs.iter().all(|e| invariant(e)))
        .then_some(idxs)
    }

    /// The accumulations of a row-loop body whose every statement is
    /// `acc = acc ⊕ a[chain][var]` (or `a[chain][var] ⊕ acc`) with
    /// ⊕ ∈ {`+`, `max`, `min`} and pairwise distinct accumulators: the
    /// statements then never read each other, so each is one fold over
    /// the row. `None` if any statement has another shape.
    fn slice_folds(
        &mut self,
        var: Sym,
        chain: &[&Expr],
        body: &[Stmt],
    ) -> CResult<Option<Vec<(usize, FoldOp)>>> {
        let is_elem = |e: &Expr| {
            Self::split_chain(e).is_some_and(|(sym, idxs)| {
                sym == self.main
                    && idxs.len() == chain.len() + 1
                    && idxs[..chain.len()] == *chain
                    && *idxs[chain.len()] == Expr::Var(var)
            })
        };
        let mut accs: Vec<Sym> = Vec::with_capacity(body.len());
        let mut ops = Vec::with_capacity(body.len());
        for stmt in body {
            let Stmt::Assign { target, value } = stmt else {
                return Ok(None);
            };
            let Expr::Binary(op, a, b) = value else {
                return Ok(None);
            };
            let acc = target.base;
            let reads_acc = |e: &Expr| *e == Expr::Var(acc);
            let Some(op) = FoldOp::of(*op) else {
                return Ok(None);
            };
            if !target.indices.is_empty()
                || accs.contains(&acc)
                || !((reads_acc(a) && is_elem(b)) || (is_elem(a) && reads_acc(b)))
            {
                return Ok(None);
            }
            accs.push(acc);
            ops.push(op);
        }
        let mut folds = Vec::with_capacity(accs.len());
        for (acc, op) in accs.into_iter().zip(ops) {
            let Operand::Reg(reg) = self.lower_expr(&Expr::Var(acc))? else {
                return Ok(None);
            };
            folds.push((reg, op));
        }
        Ok(Some(folds))
    }

    /// Lower a row loop (see [`Compiler::row_chain`]). The row span is
    /// computed once, with `len`'s errors; a body of accumulations
    /// becomes slice folds, any other body runs per element with its
    /// `a[chain][var]` loads reading the cached span. Either way the
    /// loop variable ends at the last iteration's value, as on the
    /// generic path.
    fn lower_row_loop(&mut self, var: Sym, chain: &[&Expr], body: &[Stmt]) -> CResult<StmtOp> {
        let var_reg = self.reg(var);
        let chain_ops = self.lower_chain(chain)?;
        self.fused.row_loops += 1;
        if let Some(folds) = self.slice_folds(var, chain, body)? {
            self.fused.slice_folds += folds.len();
            return Ok(Box::new(move |ctx| {
                let span = ctx.span(&chain_ops);
                let (Some((start, len)), None) = (span, &ctx.err) else {
                    return;
                };
                if len == 0 {
                    return;
                }
                let flat = ctx.flat;
                let row = &flat.data[start..start + len];
                for &(acc, op) in &folds {
                    ctx.regs[acc] = op.fold(ctx.regs[acc], row);
                }
                ctx.regs[var_reg] = len as i64 - 1;
            }));
        }
        let (start_reg, len_reg) = (self.fresh_reg(), self.fresh_reg());
        self.rows.push(RowScope {
            chain: chain.iter().map(|e| (*e).clone()).collect(),
            var,
            var_reg,
            start: start_reg,
            len: len_reg,
        });
        let body_ops = self.lower_stmts(body);
        self.rows.pop();
        let body_ops = body_ops?;
        Ok(Box::new(move |ctx| {
            let span = ctx.span(&chain_ops);
            let (Some((start, len)), None) = (span, &ctx.err) else {
                return;
            };
            ctx.regs[start_reg] = start as i64;
            ctx.regs[len_reg] = len as i64;
            for i in 0..len as i64 {
                ctx.regs[var_reg] = i;
                run_ops(&body_ops, ctx);
                if ctx.err.is_some() {
                    return;
                }
            }
        }))
    }

    fn lower_stmt(&mut self, stmt: &Stmt) -> CResult<StmtOp> {
        match stmt {
            Stmt::Let { name, ty, init } => {
                if !ty.is_scalar() {
                    return unsupported(format!(
                        "sequence-typed local '{}'",
                        self.program.name(*name)
                    ));
                }
                let reg = self.reg(*name);
                self.lower_store(reg, init)
            }
            Stmt::Assign { target, value } => {
                if !target.indices.is_empty() {
                    return unsupported(format!(
                        "indexed assignment to '{}'",
                        self.program.name(target.base)
                    ));
                }
                let reg = self.reg(target.base);
                self.lower_store(reg, value)
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cond = self.lower_expr(cond)?;
                let then_ops = self.lower_stmts(then_branch)?;
                let else_ops = self.lower_stmts(else_branch)?;
                Ok(Box::new(move |ctx| {
                    let c = cond.eval(ctx);
                    if ctx.err.is_some() {
                        return;
                    }
                    if c != 0 {
                        run_ops(&then_ops, ctx);
                    } else {
                        run_ops(&else_ops, ctx);
                    }
                }))
            }
            Stmt::For { var, bound, body } => {
                if let Some(chain) = self.row_chain(*var, bound, body) {
                    return self.lower_row_loop(*var, &chain, body);
                }
                let bound = self.lower_expr(bound)?;
                let var_reg = self.reg(*var);
                let body_ops = self.lower_stmts(body)?;
                Ok(Box::new(move |ctx| {
                    let n = bound.eval(ctx);
                    if ctx.err.is_some() {
                        return;
                    }
                    for i in 0..n.max(0) {
                        ctx.regs[var_reg] = i;
                        run_ops(&body_ops, ctx);
                        if ctx.err.is_some() {
                            return;
                        }
                    }
                }))
            }
        }
    }

    fn lower_stmts(&mut self, stmts: &[Stmt]) -> CResult<Vec<StmtOp>> {
        stmts.iter().map(|s| self.lower_stmt(s)).collect()
    }
}

/// Binding of one state slot to its join vocabulary registers.
struct JoinBind {
    slot: usize,
    l: usize,
    r: usize,
}

enum Kind {
    Dnc {
        body: Vec<StmtOp>,
        join_stmts: Vec<StmtOp>,
        join_bind: Vec<JoinBind>,
    },
    MapOnly {
        inner: Vec<StmtOp>,
        outer: Vec<StmtOp>,
        inner_regs: Vec<usize>,
        loop_reg: usize,
    },
}

/// A plan lowered to native chunk kernels: `summarize` (divide-and-
/// conquer work), `join`, and `map_rows`/`fold_rows` (map-only), all
/// over [`CState`] tuples and a [`FlatInput`] view.
pub struct CompiledPlan {
    kind: Kind,
    n_regs: usize,
    main_index: usize,
    depth: usize,
    state_regs: Vec<usize>,
    state_syms: Vec<Sym>,
    state_bool: Vec<bool>,
    init: Vec<i64>,
    empty: FlatInput,
}

impl fmt::Debug for CompiledPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledPlan")
            .field(
                "kind",
                &match self.kind {
                    Kind::Dnc { .. } => "divide-and-conquer",
                    Kind::MapOnly { .. } => "map-only",
                },
            )
            .field("n_regs", &self.n_regs)
            .field("depth", &self.depth)
            .field("state_slots", &self.state_regs.len())
            .finish()
    }
}

impl CompiledPlan {
    /// Index of the main input in the program's input list.
    pub fn main_index(&self) -> usize {
        self.main_index
    }

    /// Nesting depth of the main input.
    pub fn input_depth(&self) -> usize {
        self.depth
    }

    /// Whether this is a divide-and-conquer plan (map-only otherwise).
    pub fn is_divide_and_conquer(&self) -> bool {
        matches!(self.kind, Kind::Dnc { .. })
    }

    /// Number of state slots.
    pub fn state_arity(&self) -> usize {
        self.state_regs.len()
    }

    /// Number of inner-accumulator values per mapped row (map-only).
    pub fn inner_arity(&self) -> usize {
        match &self.kind {
            Kind::MapOnly { inner_regs, .. } => inner_regs.len(),
            Kind::Dnc { .. } => 0,
        }
    }

    /// Flatten `value` at this plan's input depth.
    pub fn flatten(&self, value: &Value) -> Option<FlatInput> {
        FlatInput::from_value(value, self.depth)
    }

    /// The initial state (constant-folded declaration initializers).
    pub fn init_state(&self) -> CState {
        CState(self.init.clone())
    }

    fn ctx<'a>(&self, flat: &'a FlatInput, base: usize, rows: usize) -> Ctx<'a> {
        Ctx {
            flat,
            base,
            rows,
            regs: vec![0; self.n_regs],
            err: None,
        }
    }

    fn read_state(&self, ctx: &Ctx<'_>) -> CState {
        CState(self.state_regs.iter().map(|&r| ctx.regs[r]).collect())
    }

    /// Summarize rows `lo..hi` from the initial state — the compiled
    /// `h` on one chunk (divide-and-conquer work function).
    ///
    /// # Errors
    ///
    /// Returns the interpreter-equivalent runtime error message.
    pub fn summarize(
        &self,
        flat: &FlatInput,
        lo: usize,
        hi: usize,
    ) -> std::result::Result<CState, String> {
        self.summarize_impl(flat, lo, hi, None)
    }

    /// Summarize rows `lo..hi` continuing from an explicit state (the
    /// rightward fold from an intermediate point; used by the stream
    /// degrade path).
    ///
    /// # Errors
    ///
    /// Returns the interpreter-equivalent runtime error message.
    pub fn summarize_from(
        &self,
        flat: &FlatInput,
        lo: usize,
        hi: usize,
        from: &CState,
    ) -> std::result::Result<CState, String> {
        self.summarize_impl(flat, lo, hi, Some(from))
    }

    fn summarize_impl(
        &self,
        flat: &FlatInput,
        lo: usize,
        hi: usize,
        from: Option<&CState>,
    ) -> std::result::Result<CState, String> {
        let Kind::Dnc { body, .. } = &self.kind else {
            return Err("summarize on a map-only plan".to_owned());
        };
        let mut ctx = self.ctx(flat, lo, hi - lo);
        let init = from.map_or(self.init.as_slice(), |s| s.0.as_slice());
        for (&reg, &v) in self.state_regs.iter().zip(init) {
            ctx.regs[reg] = v;
        }
        run_ops(body, &mut ctx);
        match ctx.err.take() {
            None => Ok(self.read_state(&ctx)),
            Some(msg) => Err(msg),
        }
    }

    /// The compiled join `⊙`.
    ///
    /// # Errors
    ///
    /// Returns the interpreter-equivalent runtime error message.
    pub fn join(&self, left: &CState, right: &CState) -> std::result::Result<CState, String> {
        let Kind::Dnc {
            join_stmts,
            join_bind,
            ..
        } = &self.kind
        else {
            return Err("join on a map-only plan".to_owned());
        };
        let mut ctx = self.ctx(&self.empty, 0, 0);
        for bind in join_bind {
            // Convention of `apply_join`: each state variable starts at
            // its left value, with `v__l`/`v__r` bound alongside.
            ctx.regs[self.state_regs[bind.slot]] = left.0[bind.slot];
            ctx.regs[bind.l] = left.0[bind.slot];
            ctx.regs[bind.r] = right.0[bind.slot];
        }
        run_ops(join_stmts, &mut ctx);
        match ctx.err.take() {
            None => Ok(self.read_state(&ctx)),
            Some(msg) => Err(msg),
        }
    }

    /// Map rows `lo..hi` from the zero state (map-only): each row's
    /// inner phase runs with the state reset to the initializers, and
    /// its inner-accumulator values are appended to the returned buffer
    /// (`inner_arity` values per row). Indices are absolute within
    /// `flat`, matching the interpreter's map phase on the full input.
    ///
    /// # Errors
    ///
    /// Returns the interpreter-equivalent runtime error message.
    pub fn map_rows(
        &self,
        flat: &FlatInput,
        lo: usize,
        hi: usize,
    ) -> std::result::Result<Vec<i64>, String> {
        let Kind::MapOnly {
            inner,
            inner_regs,
            loop_reg,
            ..
        } = &self.kind
        else {
            return Err("map_rows on a divide-and-conquer plan".to_owned());
        };
        let mut out = Vec::with_capacity((hi - lo) * inner_regs.len());
        let mut ctx = self.ctx(flat, 0, flat.n);
        for i in lo..hi {
            for (&reg, &v) in self.state_regs.iter().zip(&self.init) {
                ctx.regs[reg] = v;
            }
            ctx.regs[*loop_reg] = i as i64;
            run_ops(inner, &mut ctx);
            if let Some(msg) = ctx.err.take() {
                return Err(msg);
            }
            out.extend(inner_regs.iter().map(|&r| ctx.regs[r]));
        }
        Ok(out)
    }

    /// Fold mapped rows `lo..hi` into the outer state sequentially,
    /// starting from `from` (map-only ⊚). `mapped` must be the
    /// `map_rows` buffer for exactly this range.
    ///
    /// # Errors
    ///
    /// Returns the interpreter-equivalent runtime error message.
    pub fn fold_rows(
        &self,
        flat: &FlatInput,
        lo: usize,
        hi: usize,
        mapped: &[i64],
        from: &CState,
    ) -> std::result::Result<CState, String> {
        let Kind::MapOnly {
            outer,
            inner_regs,
            loop_reg,
            ..
        } = &self.kind
        else {
            return Err("fold_rows on a divide-and-conquer plan".to_owned());
        };
        let arity = inner_regs.len();
        debug_assert_eq!(mapped.len(), (hi - lo) * arity);
        let mut state = from.clone();
        let mut ctx = self.ctx(flat, 0, flat.n);
        for (offset, i) in (lo..hi).enumerate() {
            for (&reg, &v) in self.state_regs.iter().zip(&state.0) {
                ctx.regs[reg] = v;
            }
            for (&reg, &v) in inner_regs.iter().zip(&mapped[offset * arity..]) {
                ctx.regs[reg] = v;
            }
            ctx.regs[*loop_reg] = i as i64;
            run_ops(outer, &mut ctx);
            if let Some(msg) = ctx.err.take() {
                return Err(msg);
            }
            state = self.read_state(&ctx);
        }
        Ok(state)
    }

    /// Convert a compiled state tuple to the interpreter's [`StateVec`].
    pub fn state_to_vec(&self, state: &CState) -> StateVec {
        StateVec::new(
            self.state_syms
                .iter()
                .zip(&state.0)
                .zip(&self.state_bool)
                .map(|((&sym, &v), &is_bool)| {
                    let value = if is_bool {
                        Value::Bool(v != 0)
                    } else {
                        Value::Int(v)
                    };
                    (sym, value)
                })
                .collect(),
        )
    }

    /// A kernel result as a task accumulator.
    fn plan_acc(&self, state: std::result::Result<CState, String>) -> PlanAcc {
        state
            .map(|s| self.state_to_vec(&s))
            .map_err(LangError::eval)
    }

    /// A task accumulator as a compiled state (its error passed on).
    fn cstate(&self, acc: PlanAcc) -> LangResult<CState> {
        self.state_from_vec(&acc?).map_err(LangError::eval)
    }

    /// Convert an interpreter [`StateVec`] to a compiled state tuple.
    ///
    /// # Errors
    ///
    /// Fails when a state variable is missing or not scalar.
    pub fn state_from_vec(&self, state: &StateVec) -> std::result::Result<CState, String> {
        let mut slots = Vec::with_capacity(self.state_syms.len());
        for &sym in &self.state_syms {
            let v = match state.get(sym) {
                Some(Value::Int(n)) => *n,
                Some(Value::Bool(b)) => i64::from(*b),
                _ => return Err("state not representable in compiled form".to_owned()),
            };
            slots.push(v);
        }
        Ok(CState(slots))
    }
}

/// Lower `plan` to native chunk kernels.
///
/// # Errors
///
/// Returns [`CompileError`] for plan shapes outside the compiler's
/// coverage (multiple inputs, boolean or deeper-than-3D inputs,
/// array-shaped state, non-constant initializers, statements outside
/// the outer loop, `zeros`, indexed assignment, ...). Callers fall back
/// to the interpreter.
pub fn compile_plan(plan: &Parallelization) -> std::result::Result<CompiledPlan, CompileError> {
    let program = &plan.program;
    if let Outcome::Unparallelizable { reason } = &plan.outcome {
        return unsupported(format!("unparallelizable plan ({reason})"));
    }
    let f = RightwardFn::new(program).map_err(|e| CompileError::new(e.to_string()))?;
    if program.inputs.len() != 1 {
        return unsupported(format!(
            "{} inputs (only 1 supported)",
            program.inputs.len()
        ));
    }
    let main_index = f.main_input();
    let main_decl = &program.inputs[main_index];
    let depth = main_decl.ty.dim();
    if !(1..=3).contains(&depth) || main_decl.ty.base() != &Ty::Int {
        return unsupported(format!("input type {}", main_decl.ty));
    }
    let Some((pre, _, post)) = program.outer_loop() else {
        return unsupported("program has no outer loop");
    };
    if !pre.is_empty() || !post.is_empty() {
        return unsupported("statements outside the outer loop");
    }

    let mut state_syms = Vec::with_capacity(program.state.len());
    let mut state_bool = Vec::with_capacity(program.state.len());
    let mut init = Vec::with_capacity(program.state.len());
    for decl in &program.state {
        if !decl.ty.is_scalar() {
            return unsupported(format!(
                "sequence-typed state '{}'",
                program.name(decl.name)
            ));
        }
        let Some(v) = const_fold(&decl.init) else {
            return unsupported(format!(
                "non-constant initializer for '{}'",
                program.name(decl.name)
            ));
        };
        state_syms.push(decl.name);
        state_bool.push(decl.ty == Ty::Bool);
        init.push(v);
    }

    let mut c = Compiler {
        program,
        main: main_decl.name,
        depth,
        regs: HashMap::new(),
        n_regs: 0,
        allow_input: true,
        rows: Vec::new(),
        fused: FusedForms::default(),
    };
    let state_regs: Vec<usize> = program.state.iter().map(|d| c.reg(d.name)).collect();

    let kind = match &plan.outcome {
        Outcome::DivideAndConquer { join, vocab } => {
            let body = c.lower_stmts(&program.body)?;
            let mut join_bind = Vec::with_capacity(program.state.len());
            for (slot, decl) in program.state.iter().enumerate() {
                let Some(var) = vocab.var(decl.name) else {
                    return unsupported(format!(
                        "state '{}' missing from the join vocabulary",
                        program.name(decl.name)
                    ));
                };
                join_bind.push(JoinBind {
                    slot,
                    l: c.reg(var.l),
                    r: c.reg(var.r),
                });
            }
            c.allow_input = false;
            let join_stmts = c.lower_stmts(&join.stmts)?;
            Kind::Dnc {
                body,
                join_stmts,
                join_bind,
            }
        }
        Outcome::MapOnly => {
            // The compiled map phase runs inner nests from the zero
            // state; sound only for (transformed) memoryless programs —
            // same precondition as `InterpMapOnlyTask`.
            if !parsynt_lang::analysis::analyze(program).is_syntactically_memoryless() {
                return unsupported("map-only plan over a non-memoryless program");
            }
            let loop_reg = c.reg(f.loop_var());
            let inner = c.lower_stmts(f.inner_phase())?;
            let outer = c.lower_stmts(f.outer_phase())?;
            let mut inner_regs = Vec::with_capacity(f.inner_vars().len());
            for (sym, ty) in f.inner_vars() {
                if !ty.is_scalar() {
                    return unsupported(format!(
                        "sequence-typed inner accumulator '{}'",
                        program.name(*sym)
                    ));
                }
                inner_regs.push(c.reg(*sym));
            }
            Kind::MapOnly {
                inner,
                outer,
                inner_regs,
                loop_reg,
            }
        }
        Outcome::Unparallelizable { .. } => unreachable!("rejected above"),
    };

    let compiled = CompiledPlan {
        n_regs: c.n_regs,
        main_index,
        depth,
        state_regs,
        state_syms,
        state_bool,
        init,
        empty: FlatInput::empty(depth),
        kind,
    };
    if trace::enabled() {
        trace::point(
            "execute",
            "compile_plan",
            &[
                (
                    "kind",
                    if compiled.is_divide_and_conquer() {
                        "divide_and_conquer".into()
                    } else {
                        "map_only".into()
                    },
                ),
                ("regs", compiled.n_regs.into()),
                ("state_slots", compiled.state_arity().into()),
                ("leaf_ops", c.fused.leaf_ops.into()),
                ("leaf_loads", c.fused.leaf_loads.into()),
                ("row_loops", c.fused.row_loops.into()),
                ("slice_folds", c.fused.slice_folds.into()),
            ],
        );
    }
    Ok(compiled)
}

/// Trace that something runs on the interpreter instead of compiled
/// kernels, and why; `chunks` counts the executor chunks that did.
pub(crate) fn emit_compile_fallback(reason: &str, chunks: Option<usize>) {
    if trace::enabled() {
        let mut fields = vec![("reason", reason.into())];
        fields.extend(chunks.map(|n| ("chunks", n.into())));
        trace::point("execute", "compile_fallback", &fields);
    }
}

/// A compiled divide-and-conquer plan as a runtime task over the rows
/// of one input: a pre-flattened [`FlatInput`] ([`CompiledDncTask::new`])
/// or, as [`crate::run_plan_checked`] and plan streaming run it, the
/// borrowed rows of a `Value` input, each chunk flattening only its own
/// rows. A chunk whose rows do not flatten (a boolean leaf, a scalar
/// where a row belongs) runs on the interpreter instead.
///
/// As a [`RangeTask`], chunks are row ranges and the accumulator is a
/// [`PlanAcc`], the interpreter's state vector or the first runtime
/// error in input order, so compiled and interpreted chunks join
/// interchangeably. As a slice [`parsynt_runtime::DncTask`], items are
/// row ids (contiguous ascending runs, as [`CompiledDncTask::items`]
/// lists them), the accumulator is the compiled state, and kernel
/// runtime errors panic; the slice form and `items` are kept only for
/// the end-to-end benchmark's kernel timing (`e2ebench`), which calls
/// them, and go when it moves to the range form.
pub struct CompiledDncTask<'a> {
    compiled: &'a CompiledPlan,
    source: Source<'a>,
}

/// Where a [`CompiledDncTask`] reads its rows.
enum Source<'a> {
    /// An input flattened up front.
    Flat(&'a FlatInput),
    /// Rows `base..base + main.len()` of the main input of `inputs`,
    /// flattened per chunk; a chunk that does not flatten runs on
    /// `plan`'s interpreter, counted in `interpreted`.
    Rows {
        plan: &'a Parallelization,
        inputs: &'a [Value],
        main: &'a [Value],
        base: usize,
        interpreted: AtomicUsize,
    },
}

impl<'a> CompiledDncTask<'a> {
    /// Build the task; fails for map-only plans.
    pub fn new(compiled: &'a CompiledPlan, flat: &'a FlatInput) -> Option<Self> {
        compiled.is_divide_and_conquer().then_some(CompiledDncTask {
            compiled,
            source: Source::Flat(flat),
        })
    }

    /// The task over the rows `rows` (all of them when `None`) of the
    /// main input of `inputs`, for `compiled`, the divide-and-conquer
    /// compiled form of `plan`.
    ///
    /// # Errors
    ///
    /// Fails when the main input is not a sequence.
    pub(crate) fn over_rows(
        compiled: &'a CompiledPlan,
        plan: &'a Parallelization,
        inputs: &'a [Value],
        rows: Option<Range<usize>>,
    ) -> LangResult<Self> {
        let main = inputs
            .get(compiled.main_index)
            .and_then(Value::as_seq)
            .ok_or_else(|| LangError::eval("main input is not a sequence"))?;
        let rows = rows.unwrap_or(0..main.len());
        Ok(CompiledDncTask {
            compiled,
            source: Source::Rows {
                plan,
                inputs,
                base: rows.start,
                main: &main[rows],
                interpreted: AtomicUsize::new(0),
            },
        })
    }

    /// The row ids the slice form executes over: `0..len` (one `u64` a
    /// row; the range form needs none).
    pub fn items(&self) -> Vec<u64> {
        (0..RangeTask::len(self) as u64).collect()
    }

    /// Chunk attempts so far whose rows did not flatten and ran on the
    /// interpreter.
    pub(crate) fn interpreted_chunks(&self) -> usize {
        match &self.source {
            Source::Flat(_) => 0,
            Source::Rows { interpreted, .. } => interpreted.load(Ordering::Relaxed),
        }
    }

    /// Rows `lo..hi`, flattened, or, when they do not flatten, the
    /// interpreter task over exactly those rows (counted in
    /// `interpreted`).
    ///
    /// # Errors
    ///
    /// Fails when the interpreter task cannot be built.
    fn chunk(&self, lo: usize, hi: usize) -> LangResult<ChunkRows<'_, 'a>> {
        Ok(match &self.source {
            Source::Flat(flat) => ChunkRows::Flat(Cow::Borrowed(flat), lo..hi),
            Source::Rows {
                plan,
                inputs,
                main,
                base,
                interpreted,
            } => match FlatInput::from_rows(&main[lo..hi], self.compiled.depth) {
                Some(flat) => ChunkRows::Flat(Cow::Owned(flat), 0..hi - lo),
                None => {
                    interpreted.fetch_add(1, Ordering::Relaxed);
                    let task = InterpDncTask::new(plan, inputs)?;
                    ChunkRows::Interpreted(task.window(base + lo..base + hi))
                }
            },
        })
    }
}

/// One chunk of a [`CompiledDncTask`]'s rows, ready to run.
enum ChunkRows<'t, 'a> {
    /// Rows `range` of a flat input, for the compiled kernel.
    Flat(Cow<'t, FlatInput>, Range<usize>),
    /// The interpreter over rows that do not flatten.
    Interpreted(InterpDncTask<'a>),
}

impl RangeTask for CompiledDncTask<'_> {
    type Acc = PlanAcc;

    fn len(&self) -> usize {
        match &self.source {
            Source::Flat(flat) => flat.outer_len(),
            Source::Rows { main, .. } => main.len(),
        }
    }

    fn leaves(&self) -> usize {
        match &self.source {
            Source::Flat(flat) => flat.leaves(),
            Source::Rows { main, .. } => leaves(main, self.compiled.depth),
        }
    }

    fn work(&self, lo: usize, hi: usize) -> PlanAcc {
        match self.chunk(lo, hi)? {
            ChunkRows::Flat(flat, rows) => self
                .compiled
                .plan_acc(self.compiled.summarize(&flat, rows.start, rows.end)),
            ChunkRows::Interpreted(task) => RangeTask::work(&task, 0, hi - lo),
        }
    }

    fn join(&self, left: PlanAcc, right: PlanAcc) -> PlanAcc {
        let (left, right) = (self.compiled.cstate(left)?, self.compiled.cstate(right)?);
        self.compiled.plan_acc(self.compiled.join(&left, &right))
    }

    fn resume(&self, prefix: &PlanAcc, lo: usize, hi: usize) -> Option<PlanAcc> {
        let from = match self.compiled.cstate(prefix.clone()) {
            Ok(from) => from,
            Err(e) => return Some(Err(e)),
        };
        match self.chunk(lo, hi) {
            Ok(ChunkRows::Flat(flat, rows)) => Some(
                self.compiled.plan_acc(
                    self.compiled
                        .summarize_from(&flat, rows.start, rows.end, &from),
                ),
            ),
            Ok(ChunkRows::Interpreted(task)) => task.resume(prefix, 0, hi - lo),
            Err(e) => Some(Err(e)),
        }
    }
}

impl parsynt_runtime::DncTask for CompiledDncTask<'_> {
    type Item = u64;
    type Acc = CState;

    fn identity(&self) -> CState {
        self.compiled.init_state()
    }

    fn work(&self, chunk: &[u64]) -> CState {
        let Some(&first) = chunk.first() else {
            return self.compiled.init_state();
        };
        let lo = first as usize;
        let hi = lo + chunk.len();
        let Ok(ChunkRows::Flat(flat, rows)) = self.chunk(lo, hi) else {
            panic!("compiled kernel error: rows {lo}..{hi} do not flatten");
        };
        match self.compiled.summarize(&flat, rows.start, rows.end) {
            Ok(state) => state,
            Err(msg) => panic!("compiled kernel error: {msg}"),
        }
    }

    fn join(&self, left: CState, right: CState) -> CState {
        match self.compiled.join(&left, &right) {
            Ok(state) => state,
            Err(msg) => panic!("compiled join error: {msg}"),
        }
    }
}

/// A compiled map-only plan as a runtime task over the rows of one
/// flattened input, borrowed ([`CompiledMapOnlyTask::new`]) or owned:
/// a block is the mapped rows' inner-accumulator values, the fold is
/// the compiled outer phase, and the accumulator is a [`PlanAcc`].
pub struct CompiledMapOnlyTask<'a> {
    compiled: &'a CompiledPlan,
    flat: Cow<'a, FlatInput>,
}

impl<'a> CompiledMapOnlyTask<'a> {
    /// Build the task; fails for divide-and-conquer plans.
    pub fn new(compiled: &'a CompiledPlan, flat: &'a FlatInput) -> Option<Self> {
        Self::with_flat(compiled, Cow::Borrowed(flat))
    }

    /// The task owning its flattened input; `None` as for
    /// [`CompiledMapOnlyTask::new`].
    pub(crate) fn with_flat(compiled: &'a CompiledPlan, flat: Cow<'a, FlatInput>) -> Option<Self> {
        (!compiled.is_divide_and_conquer()).then_some(CompiledMapOnlyTask { compiled, flat })
    }
}

impl RangeMapTask for CompiledMapOnlyTask<'_> {
    type Block = std::result::Result<Vec<i64>, String>;
    type Acc = PlanAcc;

    fn len(&self) -> usize {
        self.flat.outer_len()
    }

    fn init(&self) -> PlanAcc {
        self.compiled.plan_acc(Ok(self.compiled.init_state()))
    }

    fn map(&self, lo: usize, hi: usize) -> Self::Block {
        self.compiled.map_rows(&self.flat, lo, hi)
    }

    fn fold(&self, acc: PlanAcc, lo: usize, hi: usize, block: Self::Block) -> PlanAcc {
        let from = self.compiled.cstate(acc)?;
        let state =
            block.and_then(|block| self.compiled.fold_rows(&self.flat, lo, hi, &block, &from));
        self.compiled.plan_acc(state)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::exec::{run_plan_checked, run_plan_interpreted};
    use crate::testplans;
    use parsynt_lang::interp::run_program;
    use parsynt_runtime::RunConfig;

    fn rows(n: usize) -> Vec<Vec<i64>> {
        (0..n)
            .map(|i| {
                (0..2 + i % 5)
                    .map(|j| ((i * 7 + j * 13) % 29) as i64 - 14)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn flatten_depth2_offsets() {
        let v = Value::seq2_of_ints(&[vec![1, 2], vec![], vec![3]]);
        let flat = FlatInput::from_value(&v, 2).unwrap();
        assert_eq!(flat.outer_len(), 3);
        assert_eq!(flat.data, vec![1, 2, 3]);
        assert_eq!(flat.off1, vec![0, 2, 2, 3]);
        // Shape mismatches are rejected, not mis-flattened.
        assert!(FlatInput::from_value(&v, 1).is_none());
        assert!(FlatInput::from_value(&v, 3).is_none());
        assert!(FlatInput::from_value(&Value::Int(3), 1).is_none());
    }

    #[test]
    fn rows_flatten_as_their_own_input() {
        let v = Value::seq3_of_ints(&[vec![vec![9]], vec![vec![1], vec![2, 3]], vec![vec![4]]]);
        let rows = &v.as_seq().unwrap()[1..];
        let expected = Value::Seq(rows.to_vec());
        assert_eq!(
            FlatInput::from_rows(rows, 3),
            FlatInput::from_value(&expected, 3)
        );
        let flat = FlatInput::from_rows(rows, 3).unwrap();
        assert_eq!((flat.outer_len(), flat.leaves()), (2, 4));
        // A boolean leaf or a scalar row does not flatten.
        let with_bool = [Value::Seq(vec![Value::Int(1), Value::Bool(true)])];
        assert!(FlatInput::from_rows(&with_bool, 2).is_none());
        assert!(FlatInput::from_rows(&[Value::Int(1)], 2).is_none());
        assert!(FlatInput::from_rows(&[], 4).is_none());
    }

    #[test]
    fn flatten_depth3_offsets() {
        let v = Value::seq3_of_ints(&[vec![vec![1], vec![2, 3]], vec![], vec![vec![4]]]);
        let flat = FlatInput::from_value(&v, 3).unwrap();
        assert_eq!(flat.outer_len(), 3);
        assert_eq!(flat.off1, vec![0, 2, 2, 3]);
        assert_eq!(flat.off2, vec![0, 1, 3, 4]);
        assert_eq!(flat.data, vec![1, 2, 3, 4]);
    }

    #[test]
    fn const_fold_is_lazy_and_wraps() {
        assert_eq!(const_fold(&Expr::int(7)), Some(7));
        assert_eq!(
            const_fold(&Expr::add(Expr::int(i64::MAX), Expr::int(1))),
            Some(i64::MIN)
        );
        // Division by a constant zero is left for the runtime error.
        assert_eq!(
            const_fold(&Expr::bin(BinOp::Div, Expr::int(1), Expr::int(0))),
            None
        );
        // A constant condition folds only the taken branch.
        let mut interner = parsynt_lang::ast::Interner::new();
        let x = interner.intern("x");
        let e = Expr::ite(Expr::Bool(true), Expr::int(3), Expr::var(x));
        assert_eq!(const_fold(&e), Some(3));
    }

    #[test]
    fn sum2d_compiles_and_matches_interpreter() {
        let plan = testplans::sum2d();
        let compiled = compile_plan(plan).unwrap();
        assert!(compiled.is_divide_and_conquer());
        let input = Value::seq2_of_ints(&rows(23));
        let inputs = vec![input];
        let sequential = run_program(&plan.program, &inputs).unwrap();
        for threads in [1, 2, 3, 8] {
            let cfg = RunConfig::work_stealing(threads).with_threads(threads);
            let out = run_plan_checked(plan, &inputs, &cfg).unwrap();
            assert_eq!(out.state, sequential, "threads = {threads}");
            assert!(!out.degraded);
            let interp = run_plan_interpreted(plan, &inputs, &cfg).unwrap();
            assert_eq!(interp.state, out.state);
        }
    }

    #[test]
    fn sum2d_compiled_join_matches_apply_join() {
        let plan = testplans::sum2d();
        let Outcome::DivideAndConquer { join, vocab } = &plan.outcome else {
            panic!("sum2d is divide-and-conquer");
        };
        let compiled = compile_plan(plan).unwrap();
        let input = Value::seq2_of_ints(&rows(12));
        let flat = compiled.flatten(&input).unwrap();
        let left = compiled.summarize(&flat, 0, 5).unwrap();
        let right = compiled.summarize(&flat, 5, 12).unwrap();
        let joined = compiled.join(&left, &right).unwrap();
        let interp_join = parsynt_synth::join::apply_join(
            &plan.program,
            vocab,
            join,
            &compiled.state_to_vec(&left),
            &compiled.state_to_vec(&right),
        )
        .unwrap();
        assert_eq!(compiled.state_to_vec(&joined), interp_join);
    }

    #[test]
    fn balanced_parens_map_only_matches_interpreter() {
        let plan = testplans::balanced_parens();
        let compiled = compile_plan(plan).unwrap();
        assert!(!compiled.is_divide_and_conquer());
        let input = Value::seq2_of_ints(&[
            vec![1, 1, -1],
            vec![-1],
            vec![1, -1],
            vec![1, -1, 1, -1],
            vec![-1, 1],
            vec![],
            vec![1, 1, -1, -1],
        ]);
        let inputs = vec![input];
        let sequential = run_program(&plan.program, &inputs).unwrap();
        for threads in [1, 2, 4] {
            let cfg = RunConfig::work_stealing(threads).with_threads(threads);
            let out = run_plan_checked(plan, &inputs, &cfg).unwrap();
            assert_eq!(out.state, sequential, "threads = {threads}");
        }
    }

    #[test]
    fn empty_input_matches_interpreter() {
        let plan = testplans::sum2d();
        let inputs = vec![Value::Seq(Vec::new())];
        let cfg = RunConfig::work_stealing(2).with_threads(2);
        let compiled = run_plan_checked(plan, &inputs, &cfg).unwrap();
        let interp = run_plan_interpreted(plan, &inputs, &cfg).unwrap();
        assert_eq!(compiled.state, interp.state);
    }

    #[test]
    fn uncovered_plan_falls_back_to_interpreter() {
        // Mutate the state declaration to a sequence type: the compiler
        // must refuse it, and the dispatcher must still produce the
        // interpreter's (unchanged) result.
        let mut plan = testplans::sum2d().clone();
        plan.program.state[0].ty = Ty::seq(Ty::Int);
        let err = compile_plan(&plan).unwrap_err();
        assert!(err.reason().contains("sequence-typed state"), "{err}");
        let input = Value::seq2_of_ints(&rows(9));
        let inputs = vec![input];
        let cfg = RunConfig::work_stealing(3).with_threads(3);
        let fallback = run_plan_checked(&plan, &inputs, &cfg).unwrap();
        let sequential = run_program(&plan.program, &inputs).unwrap();
        assert_eq!(fallback.state, sequential);
    }

    #[test]
    fn chunked_summaries_join_to_the_whole() {
        let plan = testplans::sum2d();
        let compiled = compile_plan(plan).unwrap();
        let input = Value::seq2_of_ints(&rows(17));
        let flat = compiled.flatten(&input).unwrap();
        let whole = compiled.summarize(&flat, 0, 17).unwrap();
        for size in [17, 9, 4, 1] {
            let mut acc: Option<CState> = None;
            for lo in (0..17).step_by(size) {
                let hi = (lo + size).min(17);
                let part = compiled.summarize(&flat, lo, hi).unwrap();
                acc = Some(match acc {
                    None => part,
                    Some(left) => compiled.join(&left, &part).unwrap(),
                });
            }
            assert_eq!(acc.unwrap(), whole, "size = {size}");
        }
    }

    #[test]
    fn runtime_task_bridge_matches_batch() {
        let plan = testplans::sum2d();
        let compiled = compile_plan(plan).unwrap();
        let input = Value::seq2_of_ints(&rows(31));
        let inputs = vec![input];
        let flat = compiled.flatten(&inputs[0]).unwrap();
        let task = CompiledDncTask::new(&compiled, &flat).unwrap();
        let items = task.items();
        let exec = parsynt_runtime::Executor::new(RunConfig::work_stealing(4).with_grain(7));
        let out = exec.run(&task, &items).unwrap();
        let sequential = run_program(&plan.program, &inputs).unwrap();
        assert_eq!(compiled.state_to_vec(&out.value), sequential);
    }

    /// Lower `source`'s body alone, run it over `input` from zeroed
    /// registers, and return the final register of `name` (loop
    /// variables are scoped, so no program can read one afterwards).
    fn final_register(source: &str, input: &Value, name: &str) -> (i64, FusedForms) {
        let program = parsynt_lang::parse(source).unwrap();
        let decl = &program.inputs[0];
        let mut c = Compiler {
            program: &program,
            main: decl.name,
            depth: decl.ty.dim(),
            regs: HashMap::new(),
            n_regs: 0,
            allow_input: true,
            rows: Vec::new(),
            fused: FusedForms::default(),
        };
        let ops = c.lower_stmts(&program.body).unwrap();
        let reg = c.reg(program.sym(name).unwrap());
        let flat = FlatInput::from_value(input, decl.ty.dim()).unwrap();
        let mut ctx = Ctx {
            flat: &flat,
            base: 0,
            rows: flat.n,
            regs: vec![0; c.n_regs],
            err: None,
        };
        run_ops(&ops, &mut ctx);
        assert!(ctx.err.is_none());
        (ctx.regs[reg], c.fused)
    }

    #[test]
    fn row_loop_variable_ends_where_the_generic_loop_leaves_it() {
        let head = "input a : seq<seq<int>>; state s : int = 0; for i in 0 .. len(a) {";
        let fold = format!("{head} for j in 0 .. len(a[i]) {{ s = s + a[i][j]; }} }}");
        let general = format!("{head} for j in 0 .. len(a[i]) {{ s = s + a[i][j] * 2; }} }}");
        let generic = format!("{head} for j in 0 .. len(a[i]) + 0 {{ s = s + a[i][j]; }} }}");
        // An empty last row leaves the variable where the row before
        // left it; an empty first row leaves it untouched.
        for (rows, j) in [(vec![vec![4, 5, 6], vec![]], 2), (vec![vec![], vec![1]], 0)] {
            let input = Value::seq2_of_ints(&rows);
            let (fold_j, fused) = final_register(&fold, &input, "j");
            assert_eq!(fused.slice_folds, 1);
            let (general_j, fused) = final_register(&general, &input, "j");
            assert_eq!((fused.row_loops, fused.slice_folds), (1, 0));
            let (generic_j, fused) = final_register(&generic, &input, "j");
            assert_eq!(fused.row_loops, 0);
            assert_eq!((fold_j, general_j, generic_j), (j, j, j), "{rows:?}");
        }
    }
}
