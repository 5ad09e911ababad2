//! The divide-and-conquer task traits.
//!
//! The executor schedules index ranges `lo..hi` of the outer dimension:
//! [`RangeTask`] and [`RangeMapTask`] are what it runs. The slice-based
//! [`DncTask`] and [`MapOnlyTask`] are the convenient form for tasks
//! over an in-memory slice of items; the crate-internal `Slice` and
//! `SliceMap` adapt them to ranges.

/// A divide-and-conquer computation over a slice of items: the three
/// components of the skeleton (§1: "the programmer has to specify a
/// split, a work, and a join function"; the split is fixed to the
/// inverse of concatenation).
///
/// Joins must satisfy the homomorphism law
/// `work(x • y) = join(work(x), work(y))` for the executors to be
/// equivalent to the sequential run; they need **not** be commutative —
/// the runtime always joins adjacent chunks in order.
pub trait DncTask: Sync {
    /// Input element type (a row/plane of the outer dimension).
    type Item: Sync;
    /// The accumulator (the loop state `D`, including lifted
    /// auxiliaries).
    type Acc: Send;

    /// `work([])` — the state on an empty chunk (the unit of the join).
    fn identity(&self) -> Self::Acc;

    /// The sequential single-pass loop on one chunk.
    fn work(&self, chunk: &[Self::Item]) -> Self::Acc;

    /// The synthesized join `⊙`, combining adjacent chunk results.
    fn join(&self, left: Self::Acc, right: Self::Acc) -> Self::Acc;
}

/// A map-only parallelization (Prop. 4.3): the inner loop nest runs in
/// parallel as `map`, the outer fold stays sequential.
pub trait MapOnlyTask: Sync {
    /// Input element type.
    type Item: Sync;
    /// The inner nest's from-zero result `𝒢(0̸)(δ)`.
    type Mapped: Send;
    /// The outer loop state.
    type Acc: Send;

    /// The initial outer state.
    fn init(&self) -> Self::Acc;

    /// The inner loop nest from the fixed initial state (the parallel
    /// part).
    fn map(&self, item: &Self::Item) -> Self::Mapped;

    /// The sequential combine `⊚` folding one mapped result into the
    /// outer state.
    fn fold(&self, acc: Self::Acc, mapped: Self::Mapped) -> Self::Acc;
}

/// A divide-and-conquer computation over the index range `0..len()`:
/// the form the executor schedules. `work(0, len())` is the sequential
/// run; the join must satisfy the homomorphism law over adjacent
/// ranges.
///
/// A task that can fail returns a fallible accumulator (e.g. a
/// `Result`) whose join keeps the left error: only panics are retried,
/// so an error passes through unretried and the first one in input
/// order wins.
pub trait RangeTask: Sync {
    /// The accumulator.
    type Acc: Send;

    /// Number of outer-dimension items.
    fn len(&self) -> usize;

    /// Whether there are no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The work units under all items that the config's grain counts:
    /// one per item by default; a plan over nested sequences reports
    /// its leaf scalars (the paper's unit), and the executor converts
    /// the grain to items at that density.
    fn leaves(&self) -> usize {
        self.len()
    }

    /// The sequential loop over items `lo..hi`.
    fn work(&self, lo: usize, hi: usize) -> Self::Acc;

    /// The join `⊙`, combining the results of adjacent ranges.
    fn join(&self, left: Self::Acc, right: Self::Acc) -> Self::Acc;

    /// The sequential loop over `lo..hi` continued from `prefix`, or
    /// `None` when the task cannot resume from a state. A stream whose
    /// join keeps panicking re-runs its chunk this way.
    fn resume(&self, _prefix: &Self::Acc, _lo: usize, _hi: usize) -> Option<Self::Acc> {
        None
    }
}

/// A map-only computation over the index range `0..len()`: `map` runs
/// one block of items in parallel, `fold` consumes blocks sequentially
/// in input order.
pub trait RangeMapTask: Sync {
    /// The mapped results of one range.
    type Block: Send;
    /// The outer loop state.
    type Acc: Send;

    /// Number of outer-dimension items.
    fn len(&self) -> usize;

    /// Whether there are no items.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The initial outer state.
    fn init(&self) -> Self::Acc;

    /// The inner loop nests of items `lo..hi`, each from the fixed
    /// initial state (the parallel part).
    fn map(&self, lo: usize, hi: usize) -> Self::Block;

    /// Fold the block mapped from `lo..hi` into the outer state.
    fn fold(&self, acc: Self::Acc, lo: usize, hi: usize, block: Self::Block) -> Self::Acc;
}

/// A [`DncTask`] over a slice, as a [`RangeTask`].
pub(crate) struct Slice<'a, T: DncTask> {
    task: &'a T,
    data: &'a [T::Item],
}

impl<'a, T: DncTask> Slice<'a, T> {
    /// Adapt `task` over `data`.
    pub(crate) fn new(task: &'a T, data: &'a [T::Item]) -> Self {
        Slice { task, data }
    }
}

impl<T: DncTask> RangeTask for Slice<'_, T> {
    type Acc = T::Acc;

    fn len(&self) -> usize {
        self.data.len()
    }

    fn work(&self, lo: usize, hi: usize) -> T::Acc {
        self.task.work(&self.data[lo..hi])
    }

    fn join(&self, left: T::Acc, right: T::Acc) -> T::Acc {
        self.task.join(left, right)
    }
}

/// A [`MapOnlyTask`] over a slice, as a [`RangeMapTask`].
pub(crate) struct SliceMap<'a, T: MapOnlyTask> {
    task: &'a T,
    data: &'a [T::Item],
}

impl<'a, T: MapOnlyTask> SliceMap<'a, T> {
    /// Adapt `task` over `data`.
    pub(crate) fn new(task: &'a T, data: &'a [T::Item]) -> Self {
        SliceMap { task, data }
    }
}

impl<T: MapOnlyTask> RangeMapTask for SliceMap<'_, T> {
    type Block = Vec<T::Mapped>;
    type Acc = T::Acc;

    fn len(&self) -> usize {
        self.data.len()
    }

    fn init(&self) -> T::Acc {
        self.task.init()
    }

    fn map(&self, lo: usize, hi: usize) -> Vec<T::Mapped> {
        self.data[lo..hi].iter().map(|x| self.task.map(x)).collect()
    }

    fn fold(&self, acc: T::Acc, _lo: usize, _hi: usize, block: Vec<T::Mapped>) -> T::Acc {
        block.into_iter().fold(acc, |acc, m| self.task.fold(acc, m))
    }
}
