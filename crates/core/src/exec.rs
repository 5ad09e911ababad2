//! Parallel execution of a synthesized parallelization.
//!
//! Every plan runs as a task on [`parsynt_runtime::Executor`], which
//! schedules the chunks and owns the catch → retry-once → degrade
//! recovery. This module picks the task: the compiled fused kernels of
//! [`crate::compile`] ([`CompiledDncTask`], [`CompiledMapOnlyTask`])
//! when the engine is [`Engine::Compiled`] and the plan and input are
//! covered, otherwise the interpreter-backed [`InterpDncTask`] or
//! [`InterpMapOnlyTask`], which run the synthesized artifacts
//! themselves (the transformed program and the synthesized join) — the
//! semantic cross-check that the plan is a faithful parallelization.
//!
//! All four tasks share the accumulator [`PlanAcc`], so chunks of both
//! engines join (and stream) interchangeably, and a runtime error
//! passes through the executor unretried, the first one in input order
//! winning.
//!
//! The divide-and-conquer tasks report the leaf scalars of their main
//! input ([`RangeTask::leaves`]), so the config's grain counts leaves
//! (the unit of the paper's 50k-element grain) and the executor
//! converts it to rows at the input's density: a 2-D input of long rows
//! still splits into many chunks.

use crate::compile::{
    compile_plan, emit_compile_fallback, CompiledDncTask, CompiledMapOnlyTask, CompiledPlan,
};
use crate::schema::{Outcome, Parallelization};
use parsynt_lang::error::{LangError, Result};
use parsynt_lang::functional::{InnerResult, RightwardFn};
use parsynt_lang::interp::StateVec;
use parsynt_lang::{Program, Value};
use parsynt_runtime::{
    Engine, Executor, RangeMapTask, RangeTask, RunConfig, RunOutcome, RuntimeError,
};
use parsynt_synth::join::{apply_join, JoinVocab, SynthesizedJoin};
use parsynt_trace as trace;

/// The accumulator of every plan task: the state vector over a range,
/// or the first runtime error in input order.
pub type PlanAcc = Result<StateVec>;

/// Outcome of a panic-isolated plan execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// The final state vector.
    pub state: StateVec,
    /// Whether the parallel plan was abandoned and the state recomputed
    /// by the sequential fallback.
    pub degraded: bool,
    /// Chunks whose first attempt panicked and whose retry succeeded.
    pub recovered_chunks: usize,
}

/// A divide-and-conquer plan on the interpreter: a chunk is the
/// transformed program run over a slice of the main input's rows, the
/// join is the synthesized `⊙` applied by the interpreter.
pub struct InterpDncTask<'a> {
    f: RightwardFn<'a>,
    inputs: &'a [Value],
    join: &'a SynthesizedJoin,
    vocab: &'a JoinVocab,
    rows: usize,
    leaves: usize,
}

impl<'a> InterpDncTask<'a> {
    /// Build the task over `inputs`.
    ///
    /// # Errors
    ///
    /// Fails if the plan is not divide-and-conquer or the main input is
    /// not a sequence.
    pub fn new(plan: &'a Parallelization, inputs: &'a [Value]) -> Result<Self> {
        let Outcome::DivideAndConquer { join, vocab } = &plan.outcome else {
            return Err(LangError::eval("not a divide-and-conquer parallelization"));
        };
        let f = RightwardFn::new(&plan.program)?;
        let rows = main_rows(&f, inputs)?;
        let leaves = leaves(&inputs[f.main_input()]);
        Ok(InterpDncTask {
            f,
            inputs,
            join,
            vocab,
            rows,
            leaves,
        })
    }
}

impl RangeTask for InterpDncTask<'_> {
    type Acc = PlanAcc;

    fn len(&self) -> usize {
        self.rows
    }

    fn leaves(&self) -> usize {
        self.leaves
    }

    fn work(&self, lo: usize, hi: usize) -> PlanAcc {
        if (lo, hi) == (0, self.rows) {
            self.f.apply(self.inputs)
        } else {
            self.f.apply_slice(self.inputs, lo, hi)
        }
    }

    fn join(&self, left: PlanAcc, right: PlanAcc) -> PlanAcc {
        // The left error is the first in input order.
        let (left, right) = (left?, right?);
        apply_join(self.f.program(), self.vocab, self.join, &left, &right)
    }

    fn resume(&self, prefix: &PlanAcc, lo: usize, hi: usize) -> Option<PlanAcc> {
        Some(match prefix {
            Ok(from) => self.f.apply_slice_from(self.inputs, lo, hi, from),
            Err(e) => Err(e.clone()),
        })
    }
}

/// A map-only plan on the interpreter (Prop. 4.3): a block is the inner
/// loop nests of a range of rows, each from the zero state; the fold
/// continues the outer phase over them.
pub struct InterpMapOnlyTask<'a> {
    f: RightwardFn<'a>,
    inputs: &'a [Value],
    rows: usize,
}

impl<'a> InterpMapOnlyTask<'a> {
    /// Build the task over `inputs`.
    ///
    /// # Errors
    ///
    /// Fails if the program is not memoryless (the map phase runs every
    /// inner nest from the zero state, which is only sound for the
    /// transformed program) or the main input is not a sequence.
    pub fn new(program: &'a Program, inputs: &'a [Value]) -> Result<Self> {
        if !parsynt_lang::analysis::analyze(program).is_syntactically_memoryless() {
            return Err(LangError::eval(
                "map-only execution requires a memoryless program (run the schema first)",
            ));
        }
        let f = RightwardFn::new(program)?;
        let rows = main_rows(&f, inputs)?;
        Ok(InterpMapOnlyTask { f, inputs, rows })
    }
}

impl RangeMapTask for InterpMapOnlyTask<'_> {
    type Block = Result<Vec<InnerResult>>;
    type Acc = PlanAcc;

    fn len(&self) -> usize {
        self.rows
    }

    fn init(&self) -> PlanAcc {
        let program = self.f.program();
        let env = parsynt_lang::interp::init_env(program, self.inputs)?;
        parsynt_lang::interp::read_state(program, &env)
    }

    fn map(&self, lo: usize, hi: usize) -> Self::Block {
        (lo..hi)
            .map(|i| self.f.inner_phase_from_zero(self.inputs, i))
            .collect()
    }

    fn fold(&self, acc: PlanAcc, lo: usize, _hi: usize, block: Self::Block) -> PlanAcc {
        let mut state = acc?;
        for (i, inner) in (lo..).zip(block?) {
            state = self.f.outer_phase_from(self.inputs, i, &state, &inner)?;
        }
        Ok(state)
    }
}

/// The number of rows of the main input.
pub(crate) fn main_rows(f: &RightwardFn<'_>, inputs: &[Value]) -> Result<usize> {
    inputs
        .get(f.main_input())
        .and_then(Value::len)
        .ok_or_else(|| LangError::eval("main input is not a sequence"))
}

/// The number of leaf scalars in `value`.
fn leaves(value: &Value) -> usize {
    match value {
        Value::Seq(items) => items.iter().map(leaves).sum(),
        _ => 1,
    }
}

/// Map a runtime failure (a chunk that panicked through retry and
/// fallback) to the interpreter's error type.
pub(crate) fn runtime_error(e: RuntimeError) -> LangError {
    LangError::eval(e.to_string())
}

fn outcome(out: RunOutcome<PlanAcc>) -> Result<ExecOutcome> {
    Ok(ExecOutcome {
        state: out.value?,
        degraded: out.degraded,
        recovered_chunks: out.recovered_chunks,
    })
}

/// Run a divide-and-conquer plan task on `exec`.
fn run_dnc(task: &impl RangeTask<Acc = PlanAcc>, exec: &Executor) -> Result<ExecOutcome> {
    outcome(exec.run_range(task).map_err(runtime_error)?)
}

/// Run a map-only plan task on `exec`.
fn run_map(task: &impl RangeMapTask<Acc = PlanAcc>, exec: &Executor) -> Result<ExecOutcome> {
    outcome(exec.run_map_range(task).map_err(runtime_error)?)
}

/// Compile `plan` when `run` selects the compiled engine; `None` (with
/// a `compile_fallback` trace event) when the compiler does not cover
/// it.
pub(crate) fn compile_for(plan: &Parallelization, run: &RunConfig) -> Option<CompiledPlan> {
    if run.engine != Engine::Compiled {
        return None;
    }
    compile_plan(plan)
        .map_err(|e| emit_compile_fallback(e.reason()))
        .ok()
}

/// Execute `plan` on `inputs` under `run`: pick the task (compiled
/// kernels when the engine is [`Engine::Compiled`] and the plan and
/// input are covered, emitting `compile_plan`; the interpreter
/// otherwise, emitting `compile_fallback` with the reason) and run it on
/// [`Executor`] with the config's backend, thread count and grain.
/// Both engines cut the same chunks, so results and error messages are
/// byte-identical.
///
/// # Errors
///
/// Fails on unparallelizable plans, on runtime errors (identical
/// messages for both engines), and when even the sequential fallback
/// panics.
pub fn run_plan_checked(
    plan: &Parallelization,
    inputs: &[Value],
    run: &RunConfig,
) -> Result<ExecOutcome> {
    if let Outcome::Unparallelizable { reason } = &plan.outcome {
        return Err(LangError::eval(format!(
            "cannot execute an unparallelizable plan ({reason})"
        )));
    }
    let exec = Executor::new(*run);
    let mut span = trace::span("execute", "run_plan");
    if let Some(compiled) = compile_for(plan, run) {
        match inputs
            .get(compiled.main_index())
            .and_then(|v| compiled.flatten(v))
        {
            Some(flat) => {
                span.record("engine", "compiled");
                span.record("rows", flat.outer_len());
                return match CompiledDncTask::new(&compiled, &flat) {
                    Some(task) => run_dnc(&task, &exec),
                    None => match CompiledMapOnlyTask::new(&compiled, &flat) {
                        Some(task) => run_map(&task, &exec),
                        None => unreachable!("a compiled plan is divide-and-conquer or map-only"),
                    },
                };
            }
            None => emit_compile_fallback("main input is not a flattenable int sequence"),
        }
    }
    span.record("engine", "interp");
    match &plan.outcome {
        Outcome::DivideAndConquer { .. } => {
            let task = InterpDncTask::new(plan, inputs)?;
            span.record("rows", task.rows);
            run_dnc(&task, &exec)
        }
        Outcome::MapOnly => {
            let task = InterpMapOnlyTask::new(&plan.program, inputs)?;
            span.record("rows", task.rows);
            run_map(&task, &exec)
        }
        Outcome::Unparallelizable { .. } => unreachable!("rejected above"),
    }
}

/// Execute a divide-and-conquer parallelization on `inputs` with
/// `threads` worker threads through the interpreter: the outer
/// dimension is cut into one chunk per thread whatever the input's size
/// (static schedule, grain of one leaf), the chunks run in parallel and
/// their results are combined in order with the synthesized join — so
/// the join runs even on a test-sized input. Panic isolation is
/// [`Executor`]'s.
///
/// # Errors
///
/// Fails if the parallelization is not divide-and-conquer, on any
/// interpreter error, or when even the sequential fallback panics.
pub fn run_divide_and_conquer(
    parallelization: &Parallelization,
    inputs: &[Value],
    threads: usize,
) -> Result<StateVec> {
    let task = InterpDncTask::new(parallelization, inputs)?;
    let exec = Executor::new(RunConfig::static_schedule(threads).with_grain(1));
    run_dnc(&task, &exec).map(|o| o.state)
}

/// Execute a map-only parallelization through the interpreter: all
/// instances of the inner loop nest run in parallel from the initial
/// state (the memoryless map of Prop. 4.3); the outer loop folds their
/// results sequentially.
///
/// # Errors
///
/// Fails on interpreter errors; the program must be memoryless (its
/// outer phase may only consume the inner results).
pub fn run_map_only(
    parallelization: &Parallelization,
    inputs: &[Value],
    threads: usize,
) -> Result<StateVec> {
    let task = InterpMapOnlyTask::new(&parallelization.program, inputs)?;
    let exec = Executor::new(RunConfig::static_schedule(threads));
    run_map(&task, &exec).map(|o| o.state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testplans;

    #[test]
    fn dnc_execution_matches_sequential() {
        let plan = testplans::sum2d();
        let input = Value::seq2_of_ints(&[
            vec![1, 2, 3],
            vec![-4, 5, 6],
            vec![7, -8, 9],
            vec![1, 1, 1],
            vec![0, 2, -3],
        ]);
        let seq =
            parsynt_lang::interp::run_program(&plan.program, std::slice::from_ref(&input)).unwrap();
        for threads in [1, 2, 3, 8] {
            let par = run_divide_and_conquer(plan, std::slice::from_ref(&input), threads).unwrap();
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn map_only_execution_matches_sequential() {
        let plan = testplans::balanced_parens();
        assert!(plan.is_map_only());
        // "(()" ")" "()" rows
        let input = Value::seq2_of_ints(&[vec![1, 1, -1], vec![-1], vec![1, -1]]);
        let seq =
            parsynt_lang::interp::run_program(&plan.program, std::slice::from_ref(&input)).unwrap();
        let par = run_map_only(plan, &[input], 3).unwrap();
        assert_eq!(
            par.scalar_named(&plan.program, "cnt"),
            seq.scalar_named(&plan.program, "cnt")
        );
    }
}
