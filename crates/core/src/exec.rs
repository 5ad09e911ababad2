//! Parallel execution of a synthesized parallelization.
//!
//! Every plan runs as a task on [`parsynt_runtime::Executor`], which
//! schedules the chunks and owns the catch → retry-once → degrade
//! recovery. One private chooser picks the task, for batch runs and for
//! every stream chunk alike: the compiled fused kernels of
//! [`crate::compile`] ([`CompiledDncTask`], [`CompiledMapOnlyTask`])
//! when the compiler covers the plan and the main input flattens,
//! otherwise the interpreter-backed [`InterpDncTask`] or
//! [`InterpMapOnlyTask`], which run the synthesized artifacts
//! themselves (the transformed program and the synthesized join).
//!
//! The interpreter is also the reference the tests compare against:
//! [`run_plan_interpreted`] (and
//! [`crate::stream::run_stream_interpreted`]) is [`run_plan_checked`]
//! with the compiler skipped.
//!
//! All four tasks share the accumulator [`PlanAcc`], so compiled and
//! interpreted chunks join (and stream) interchangeably, and a runtime
//! error passes through the executor unretried, the first one in input
//! order winning.
//!
//! The divide-and-conquer tasks report the leaf scalars of their main
//! input ([`RangeTask::leaves`]), so the config's grain counts leaves
//! (the unit of the paper's 50k-element grain) and the executor
//! converts it to rows at the input's density: a 2-D input of long rows
//! still splits into many chunks.

use crate::compile::{
    compile_plan, emit_compile_fallback, CompiledDncTask, CompiledMapOnlyTask, CompiledPlan,
    FlatInput,
};
use crate::schema::{Outcome, Parallelization};
use parsynt_lang::error::{LangError, Result};
use parsynt_lang::functional::{InnerResult, RightwardFn};
use parsynt_lang::interp::StateVec;
use parsynt_lang::{Program, Value};
use parsynt_runtime::{Executor, RangeMapTask, RangeTask, RunConfig, RuntimeError, StreamSession};
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
fn runtime_error(e: RuntimeError) -> LangError {
    LangError::eval(e.to_string())
}

/// `plan`'s compiled form when `compile` is set and the compiler covers
/// the plan; `None` otherwise, with a `compile_fallback` trace event
/// when the compiler refused it.
pub(crate) fn compile_if(plan: &Parallelization, compile: bool) -> Option<CompiledPlan> {
    if !compile {
        return None;
    }
    compile_plan(plan)
        .map_err(|e| emit_compile_fallback(e.reason()))
        .ok()
}

/// The task that runs a plan over one input set (a batch run or one
/// stream chunk).
pub(crate) enum PlanTask<'a> {
    CompiledDnc(CompiledDncTask<'a>),
    CompiledMapOnly(CompiledMapOnlyTask<'a>),
    InterpDnc(InterpDncTask<'a>),
    InterpMapOnly(InterpMapOnlyTask<'a>),
}

impl<'a> PlanTask<'a> {
    /// Choose the task for `inputs`: `compiled`'s kernels when it is
    /// given and the main input flattens (into `flat`, which the task
    /// borrows), the interpreter otherwise — after a `compile_fallback`
    /// trace event when the input was the reason.
    ///
    /// # Errors
    ///
    /// Fails on an unparallelizable plan, or when the interpreter task
    /// rejects the plan or input.
    pub(crate) fn choose(
        plan: &'a Parallelization,
        compiled: Option<&'a CompiledPlan>,
        inputs: &'a [Value],
        flat: &'a mut Option<FlatInput>,
    ) -> Result<Self> {
        if let Some(cp) = compiled {
            match inputs.get(cp.main_index()).and_then(|v| cp.flatten(v)) {
                Some(f) => {
                    let flat = flat.insert(f);
                    if let Some(task) = CompiledDncTask::new(cp, flat) {
                        return Ok(PlanTask::CompiledDnc(task));
                    }
                    if let Some(task) = CompiledMapOnlyTask::new(cp, flat) {
                        return Ok(PlanTask::CompiledMapOnly(task));
                    }
                }
                None => emit_compile_fallback("main input is not a flattenable int sequence"),
            }
        }
        match &plan.outcome {
            Outcome::DivideAndConquer { .. } => {
                InterpDncTask::new(plan, inputs).map(PlanTask::InterpDnc)
            }
            Outcome::MapOnly => {
                InterpMapOnlyTask::new(&plan.program, inputs).map(PlanTask::InterpMapOnly)
            }
            Outcome::Unparallelizable { reason } => Err(LangError::eval(format!(
                "cannot execute an unparallelizable plan ({reason})"
            ))),
        }
    }

    /// Which engine runs the task, as the trace reports it.
    fn engine(&self) -> &'static str {
        match self {
            PlanTask::CompiledDnc(_) | PlanTask::CompiledMapOnly(_) => "compiled",
            PlanTask::InterpDnc(_) | PlanTask::InterpMapOnly(_) => "interp",
        }
    }

    /// The rows of the main input.
    fn rows(&self) -> usize {
        match self {
            PlanTask::CompiledDnc(t) => RangeTask::len(t),
            PlanTask::CompiledMapOnly(t) => RangeMapTask::len(t),
            PlanTask::InterpDnc(t) => t.rows,
            PlanTask::InterpMapOnly(t) => t.rows,
        }
    }

    /// Run the task as a batch on `exec`.
    fn run(&self, exec: &Executor) -> Result<ExecOutcome> {
        let out = match self {
            PlanTask::CompiledDnc(t) => exec.run_range(t),
            PlanTask::CompiledMapOnly(t) => exec.run_map_range(t),
            PlanTask::InterpDnc(t) => exec.run_range(t),
            PlanTask::InterpMapOnly(t) => exec.run_map_range(t),
        }
        .map_err(runtime_error)?;
        Ok(ExecOutcome {
            state: out.value?,
            degraded: out.degraded,
            recovered_chunks: out.recovered_chunks,
        })
    }

    /// Push the task as the next chunk of `stream`.
    pub(crate) fn push(&self, stream: &mut StreamSession<'_, PlanAcc>) -> Result<()> {
        match self {
            PlanTask::CompiledDnc(t) => stream.push(t),
            PlanTask::CompiledMapOnly(t) => stream.push_map(t),
            PlanTask::InterpDnc(t) => stream.push(t),
            PlanTask::InterpMapOnly(t) => stream.push_map(t),
        }
        .map_err(runtime_error)
    }
}

/// Execute `plan` on `inputs` under `run`: compiled kernels when the
/// compiler covers the plan and the main input flattens (emitting
/// `compile_plan`), the interpreter otherwise (emitting
/// `compile_fallback` with the reason), on [`Executor`] with the
/// config's backend, thread count and grain. Both cut the same chunks,
/// so results and error messages equal [`run_plan_interpreted`]'s byte
/// for byte.
///
/// # Errors
///
/// Fails on unparallelizable plans, on runtime errors, and when even
/// the sequential fallback panics.
pub fn run_plan_checked(
    plan: &Parallelization,
    inputs: &[Value],
    run: &RunConfig,
) -> Result<ExecOutcome> {
    run_plan(plan, inputs, run, true)
}

/// The reference for [`run_plan_checked`]: the same run with the
/// compiler skipped, so every chunk and join goes through the
/// interpreter. Pass `RunConfig::static_schedule(t).with_grain(1)` for
/// one chunk per thread whatever the input's size.
///
/// # Errors
///
/// As [`run_plan_checked`].
pub fn run_plan_interpreted(
    plan: &Parallelization,
    inputs: &[Value],
    run: &RunConfig,
) -> Result<ExecOutcome> {
    run_plan(plan, inputs, run, false)
}

fn run_plan(
    plan: &Parallelization,
    inputs: &[Value],
    run: &RunConfig,
    compile: bool,
) -> Result<ExecOutcome> {
    let mut span = trace::span("execute", "run_plan");
    let compiled = compile_if(plan, compile);
    let mut flat = None;
    let task = PlanTask::choose(plan, compiled.as_ref(), inputs, &mut flat)?;
    span.record("engine", task.engine());
    span.record("rows", task.rows());
    task.run(&Executor::new(*run))
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
            let run = RunConfig::static_schedule(threads).with_grain(1);
            let par = run_plan_interpreted(plan, std::slice::from_ref(&input), &run).unwrap();
            assert_eq!(par.state, seq, "threads = {threads}");
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
        let par = run_plan_interpreted(plan, &[input], &RunConfig::static_schedule(3)).unwrap();
        assert_eq!(
            par.state.scalar_named(&plan.program, "cnt"),
            seq.scalar_named(&plan.program, "cnt")
        );
    }
}
