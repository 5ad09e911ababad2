//! Parallel execution of a synthesized parallelization.
//!
//! Every plan runs as a task on [`parsynt_runtime::Executor`], which
//! schedules the chunks and owns the catch → retry-once → degrade
//! recovery. One private chooser picks the task, for batch runs and for
//! every stream chunk alike: the compiled fused kernels of
//! [`crate::compile`] ([`CompiledDncTask`], [`CompiledMapOnlyTask`])
//! when the compiler covers the plan, otherwise the interpreter-backed
//! [`InterpDncTask`] or [`InterpMapOnlyTask`], which run the
//! synthesized artifacts themselves (the transformed program and the
//! synthesized join). The compiled divide-and-conquer task borrows the
//! main input's rows and flattens each chunk's own; a chunk whose rows
//! do not flatten runs on the interpreter. A compiled map-only task
//! flattens its whole input first, and runs on the interpreter when it
//! does not flatten.
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
//! input ([`RangeTask::leaves`], counted from the row lengths without
//! reading a scalar), so the config's grain counts leaves
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
use std::borrow::Cow;
use std::ops::Range;

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
    depth: usize,
    /// The rows the task runs over: `base..base + main.len()` of the
    /// main input.
    main: &'a [Value],
    base: usize,
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
        let main = main_seq(&f, inputs)?;
        let depth = plan.program.inputs[f.main_input()].ty.dim();
        Ok(InterpDncTask {
            f,
            inputs,
            join,
            vocab,
            depth,
            main,
            base: 0,
        })
    }

    /// The task narrowed to its rows `rows`, which run as the input set
    /// with the main input sliced to them.
    pub(crate) fn window(self, rows: Range<usize>) -> Self {
        InterpDncTask {
            base: self.base + rows.start,
            main: &self.main[rows],
            ..self
        }
    }
}

impl RangeTask for InterpDncTask<'_> {
    type Acc = PlanAcc;

    fn len(&self) -> usize {
        self.main.len()
    }

    fn leaves(&self) -> usize {
        leaves(self.main, self.depth)
    }

    fn work(&self, lo: usize, hi: usize) -> PlanAcc {
        let (lo, hi) = (self.base + lo, self.base + hi);
        if lo == 0 && self.inputs[self.f.main_input()].len() == Some(hi) {
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
            Ok(from) => self
                .f
                .apply_slice_from(self.inputs, self.base + lo, self.base + hi, from),
            Err(e) => Err(e.clone()),
        })
    }
}

/// A map-only plan on the interpreter (Prop. 4.3): a block is the inner
/// loop nests of a range of rows, each from the zero state; the fold
/// continues the outer phase over them.
pub struct InterpMapOnlyTask<'a> {
    f: RightwardFn<'a>,
    inputs: Cow<'a, [Value]>,
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
        Ok(InterpMapOnlyTask {
            f,
            inputs: Cow::Borrowed(inputs),
            rows,
        })
    }

    /// The task over the input set with the main input sliced to `rows`
    /// (copied, since the map phase and the initializers read the input
    /// set whole).
    ///
    /// # Errors
    ///
    /// Fails when `rows` is out of bounds.
    fn window(self, rows: Range<usize>) -> Result<Self> {
        if rows == (0..self.rows) {
            return Ok(self);
        }
        let inputs = self.f.slice_inputs(&self.inputs, rows.start, rows.end)?;
        Ok(InterpMapOnlyTask {
            inputs: Cow::Owned(inputs),
            rows: rows.len(),
            ..self
        })
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
        let env = parsynt_lang::interp::init_env(program, &self.inputs)?;
        parsynt_lang::interp::read_state(program, &env)
    }

    fn map(&self, lo: usize, hi: usize) -> Self::Block {
        (lo..hi)
            .map(|i| self.f.inner_phase_from_zero(&self.inputs, i))
            .collect()
    }

    fn fold(&self, acc: PlanAcc, lo: usize, _hi: usize, block: Self::Block) -> PlanAcc {
        let mut state = acc?;
        for (i, inner) in (lo..).zip(block?) {
            state = self.f.outer_phase_from(&self.inputs, i, &state, &inner)?;
        }
        Ok(state)
    }
}

/// The rows of the main input.
fn main_seq<'v>(f: &RightwardFn<'_>, inputs: &'v [Value]) -> Result<&'v [Value]> {
    inputs
        .get(f.main_input())
        .and_then(Value::as_seq)
        .ok_or_else(|| LangError::eval("main input is not a sequence"))
}

/// The number of rows of the main input.
pub(crate) fn main_rows(f: &RightwardFn<'_>, inputs: &[Value]) -> Result<usize> {
    main_seq(f, inputs).map(<[Value]>::len)
}

/// The leaf scalars under `rows`, the outer elements of a
/// `depth`-dimensional input, counted from the sequence lengths one
/// level above the scalars so that no scalar is read. A scalar where a
/// sequence belongs counts as one leaf.
pub(crate) fn leaves(rows: &[Value], depth: usize) -> usize {
    if depth <= 1 {
        return rows.len();
    }
    rows.iter()
        .map(|row| row.as_seq().map_or(1, |inner| leaves(inner, depth - 1)))
        .sum()
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
        .map_err(|e| emit_compile_fallback(e.reason(), None))
        .ok()
}

/// The reason a chunk of a compiled plan runs on the interpreter.
const UNFLATTENABLE: &str = "main input is not a flattenable int sequence";

/// The task that runs a plan over one input set (a batch run or one
/// stream chunk).
pub(crate) enum PlanTask<'a> {
    CompiledDnc(CompiledDncTask<'a>),
    CompiledMapOnly(CompiledMapOnlyTask<'a>),
    InterpDnc(InterpDncTask<'a>),
    InterpMapOnly(InterpMapOnlyTask<'a>),
}

impl<'a> PlanTask<'a> {
    /// Choose the task for the rows `rows` of the main input of
    /// `inputs` (all of them when `None`), run as the input set with the
    /// main input sliced to them: `compiled`'s kernels when it is given,
    /// the interpreter otherwise. A compiled divide-and-conquer task
    /// borrows the rows and flattens each chunk's own; a compiled
    /// map-only task flattens all its rows up front, and runs on the
    /// interpreter after a `compile_fallback` trace event when they do
    /// not flatten.
    ///
    /// # Errors
    ///
    /// Fails on an unparallelizable plan, or when the interpreter task
    /// rejects the plan or input.
    pub(crate) fn choose(
        plan: &'a Parallelization,
        compiled: Option<&'a CompiledPlan>,
        inputs: &'a [Value],
        rows: Option<Range<usize>>,
    ) -> Result<Self> {
        match &plan.outcome {
            Outcome::DivideAndConquer { .. } => match compiled {
                Some(cp) if cp.is_divide_and_conquer() => {
                    CompiledDncTask::over_rows(cp, plan, inputs, rows).map(PlanTask::CompiledDnc)
                }
                _ => {
                    let task = InterpDncTask::new(plan, inputs)?;
                    let rows = rows.unwrap_or(0..task.main.len());
                    Ok(PlanTask::InterpDnc(task.window(rows)))
                }
            },
            Outcome::MapOnly => {
                if let Some(cp) = compiled {
                    let main = inputs.get(cp.main_index()).and_then(Value::as_seq);
                    let flat = main.and_then(|main| {
                        let rows = rows.clone().unwrap_or(0..main.len());
                        FlatInput::from_rows(&main[rows], cp.input_depth())
                    });
                    match flat.and_then(|flat| CompiledMapOnlyTask::with_flat(cp, Cow::Owned(flat)))
                    {
                        Some(compiled) => return Ok(PlanTask::CompiledMapOnly(compiled)),
                        None => emit_compile_fallback(UNFLATTENABLE, None),
                    }
                }
                let task = InterpMapOnlyTask::new(&plan.program, inputs)?;
                let rows = rows.unwrap_or(0..task.rows);
                task.window(rows).map(PlanTask::InterpMapOnly)
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
            PlanTask::InterpDnc(t) => RangeTask::len(t),
            PlanTask::InterpMapOnly(t) => t.rows,
        }
    }

    /// Emit a `compile_fallback` trace event counting the chunk attempts
    /// of a compiled task whose rows did not flatten. Chunks run on
    /// worker threads, which have no tracer, so the count is reported
    /// from the calling thread once the run is over.
    fn report_interpreted_chunks(&self) {
        if let PlanTask::CompiledDnc(t) = self {
            let chunks = t.interpreted_chunks();
            if chunks > 0 {
                emit_compile_fallback(UNFLATTENABLE, Some(chunks));
            }
        }
    }

    /// Run the task as a batch on `exec`.
    fn run(&self, exec: &Executor) -> Result<ExecOutcome> {
        let out = match self {
            PlanTask::CompiledDnc(t) => exec.run_range(t),
            PlanTask::CompiledMapOnly(t) => exec.run_map_range(t),
            PlanTask::InterpDnc(t) => exec.run_range(t),
            PlanTask::InterpMapOnly(t) => exec.run_map_range(t),
        };
        self.report_interpreted_chunks();
        let out = out.map_err(runtime_error)?;
        Ok(ExecOutcome {
            state: out.value?,
            degraded: out.degraded,
            recovered_chunks: out.recovered_chunks,
        })
    }

    /// Push the task as the next chunk of `stream`.
    pub(crate) fn push(&self, stream: &mut StreamSession<'_, PlanAcc>) -> Result<()> {
        let pushed = match self {
            PlanTask::CompiledDnc(t) => stream.push(t),
            PlanTask::CompiledMapOnly(t) => stream.push_map(t),
            PlanTask::InterpDnc(t) => stream.push(t),
            PlanTask::InterpMapOnly(t) => stream.push_map(t),
        };
        self.report_interpreted_chunks();
        pushed.map_err(runtime_error)
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
    let task = PlanTask::choose(plan, compiled.as_ref(), inputs, None)?;
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
    fn leaves_are_counted_from_row_lengths() {
        let v = Value::seq3_of_ints(&[vec![vec![1, 2], vec![]], vec![vec![3, 4, 5]]]);
        let rows = v.as_seq().unwrap();
        assert_eq!(leaves(rows, 3), 5);
        assert_eq!(leaves(&rows[1..], 3), 3);
        assert_eq!(leaves(rows, 1), 2);
        // A scalar where a row belongs counts as one leaf.
        let ragged = [Value::seq_of_ints(&[1, 2]), Value::Int(7)];
        assert_eq!(leaves(&ragged, 2), 3);
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
