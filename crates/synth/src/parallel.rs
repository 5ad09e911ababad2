//! First-verified-solution-wins parallel candidate screening.
//!
//! [`screen_batch`] fans a slice of candidates out over a scoped thread
//! pool and returns the **minimum index** that passes the test — the
//! same candidate a sequential left-to-right scan would return, so
//! parallel synthesis stays byte-for-byte deterministic. Workers claim
//! indices in ascending order from a shared counter and cooperatively
//! cancel as soon as every index they could still claim is larger than
//! the best hit found so far.
//!
//! [`BatchScreen`] adapts this to the synthesizer's streaming
//! `check(&Expr) -> bool` protocol: candidates are buffered in
//! generation order and flushed in geometrically growing batches (small
//! first, so an early winner costs little wasted work; large later, so
//! thread startup amortizes over long fruitless searches).

use crate::solver::CaseSet;
use parsynt_lang::ast::{Expr, Stmt, Sym};
use parsynt_trace as trace;
use parsynt_trace::Deadline;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// What one [`screen_batch`] call observed.
#[derive(Debug)]
pub struct ScreenOutcome {
    /// Minimum passing index, if any candidate passed.
    pub winner: Option<usize>,
    /// Candidates actually tested, per worker.
    pub per_worker: Vec<u64>,
    /// Time between the first hit and the last worker stopping — how
    /// long cooperative cancellation took to drain the pool.
    pub cancel_latency_us: u64,
    /// Candidates whose test closure panicked (each is treated as
    /// rejected, so a panicking candidate can never become the winner).
    pub panics: u64,
}

/// Run `test` on one item, converting a panic into a rejection.
///
/// Screening closures evaluate synthesized candidate code through the
/// interpreter; a pathological candidate must only disqualify itself,
/// never tear down the worker pool (a panic crossing `thread::scope`
/// would abort the whole synthesis run).
fn test_isolated<T>(test: &(dyn Fn(&T) -> bool + Sync), item: &T, panics: &AtomicU64) -> bool {
    match catch_unwind(AssertUnwindSafe(|| test(item))) {
        Ok(passed) => passed,
        Err(_) => {
            panics.fetch_add(1, Ordering::Relaxed);
            false
        }
    }
}

/// Test every item and return the smallest passing index, sharding the
/// work over `threads` scoped workers.
///
/// Determinism: workers claim indices in ascending order and only skip
/// an index when a *smaller* one has already passed, so every index
/// below the final winner is tested and the result equals a sequential
/// scan's. A panicking test rejects its candidate; an expired
/// `deadline` makes every worker stop at its next claim.
pub fn screen_batch<T: Sync>(
    threads: usize,
    items: &[T],
    test: &(dyn Fn(&T) -> bool + Sync),
) -> ScreenOutcome {
    screen_batch_deadline(threads, items, &Deadline::none(), test)
}

/// [`screen_batch`] with a cooperative wall-clock deadline.
pub fn screen_batch_deadline<T: Sync>(
    threads: usize,
    items: &[T],
    deadline: &Deadline,
    test: &(dyn Fn(&T) -> bool + Sync),
) -> ScreenOutcome {
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    let panics = AtomicU64::new(0);
    if threads <= 1 {
        let mut tested = 0u64;
        for (i, item) in items.iter().enumerate() {
            if deadline.is_expired() {
                break;
            }
            tested += 1;
            if test_isolated(test, item, &panics) {
                return ScreenOutcome {
                    winner: Some(i),
                    per_worker: vec![tested],
                    cancel_latency_us: 0,
                    panics: panics.into_inner(),
                };
            }
        }
        return ScreenOutcome {
            winner: None,
            per_worker: vec![tested],
            cancel_latency_us: 0,
            panics: panics.into_inner(),
        };
    }

    let next = AtomicUsize::new(0);
    let best = AtomicUsize::new(usize::MAX);
    let counts: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let first_win_us = AtomicU64::new(u64::MAX);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for tally in &counts {
            let (next, best, first_win_us, started) = (&next, &best, &first_win_us, &started);
            let panics = &panics;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // `next` is monotone, so once a claimed index exceeds
                // the best hit every later claim will too: stop.
                if i > best.load(Ordering::Acquire) {
                    break;
                }
                if deadline.is_expired() {
                    break;
                }
                tally.fetch_add(1, Ordering::Relaxed);
                if test_isolated(test, &items[i], panics) {
                    best.fetch_min(i, Ordering::AcqRel);
                    first_win_us.fetch_min(
                        u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
                        Ordering::Relaxed,
                    );
                }
            });
        }
    });
    let total_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
    let win = best.load(Ordering::Acquire);
    ScreenOutcome {
        winner: (win != usize::MAX).then_some(win),
        per_worker: counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        cancel_latency_us: if win != usize::MAX {
            total_us.saturating_sub(first_win_us.load(Ordering::Relaxed))
        } else {
            0
        },
        panics: panics.into_inner(),
    }
}

/// Streaming adapter between a sequential candidate generator and
/// [`screen_batch`].
///
/// The generator offers candidates one at a time (in its deterministic
/// order); the screen buffers them and flushes batches to the pool.
/// Because batches are screened in offer order and a flush returns the
/// minimum passing index, the recorded winner is exactly the candidate
/// the sequential path would have accepted first.
pub struct BatchScreen<'a> {
    threads: usize,
    batch_cap: usize,
    pending: Vec<Expr>,
    winner: Option<Expr>,
    cases: &'a CaseSet,
    target: Sym,
    build: &'a (dyn Fn(&Expr) -> Stmt + Sync),
    per_worker: Vec<u64>,
    flushes: u64,
    cancel_latency_us: u64,
    panics: u64,
    deadline: Deadline,
}

/// First flush after this many candidates per worker; doubles per flush.
const INITIAL_BATCH_PER_THREAD: usize = 4;
/// Batch growth ceiling.
const MAX_BATCH: usize = 4096;

impl<'a> BatchScreen<'a> {
    /// A screen testing candidates with
    /// [`CaseSet::accepts_pure`]`(&[build(e)], target)` on `threads`
    /// workers.
    pub fn new(
        threads: usize,
        cases: &'a CaseSet,
        target: Sym,
        build: &'a (dyn Fn(&Expr) -> Stmt + Sync),
    ) -> Self {
        let threads = threads.max(1);
        BatchScreen {
            threads,
            batch_cap: (threads * INITIAL_BATCH_PER_THREAD).min(MAX_BATCH),
            pending: Vec::new(),
            winner: None,
            cases,
            target,
            build,
            per_worker: vec![0; threads],
            flushes: 0,
            cancel_latency_us: 0,
            panics: 0,
            deadline: Deadline::none(),
        }
    }

    /// Attach a wall-clock deadline: once expired, [`BatchScreen::offer`]
    /// tells the generator to stop and the tail is never flushed.
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = deadline;
        self
    }

    /// Offer the next candidate. Returns `true` once a winner is known
    /// (the generator should stop and the caller read it from
    /// [`BatchScreen::finish`]) or the deadline has expired (the caller
    /// distinguishes the two by checking the deadline).
    pub fn offer(&mut self, e: &Expr) -> bool {
        if self.winner.is_some() {
            return true;
        }
        if self.deadline.is_expired() {
            return true;
        }
        self.pending.push(e.clone());
        if self.pending.len() >= self.batch_cap {
            self.flush();
            self.batch_cap = (self.batch_cap * 2).min(MAX_BATCH);
        }
        self.winner.is_some()
    }

    fn flush(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let (cases, target, build) = (self.cases, self.target, self.build);
        let outcome =
            screen_batch_deadline(self.threads, &self.pending, &self.deadline, &|e: &Expr| {
                cases.accepts_pure(&[build(e)], target)
            });
        for (total, tested) in self.per_worker.iter_mut().zip(&outcome.per_worker) {
            *total += tested;
        }
        self.flushes += 1;
        self.cancel_latency_us += outcome.cancel_latency_us;
        self.panics += outcome.panics;
        if let Some(i) = outcome.winner {
            self.winner = Some(self.pending[i].clone());
        }
        self.pending.clear();
    }

    /// Flush any buffered candidates and return the winning expression,
    /// emitting the `synthesize` screening counters (the workers
    /// themselves cannot: the ambient tracer is thread-local to the
    /// synthesis thread). A screen whose deadline expired skips the
    /// tail flush and returns `None` immediately.
    pub fn finish(mut self) -> Option<Expr> {
        if self.winner.is_none() && !self.deadline.is_expired() {
            self.flush();
        }
        let screened: u64 = self.per_worker.iter().sum();
        if trace::enabled() && self.panics > 0 {
            trace::counter("synthesize", "screen_panic", self.panics);
        }
        if trace::enabled() && screened > 0 {
            trace::counter("synthesize", "par_screened", screened);
            for (worker, tested) in self.per_worker.iter().enumerate() {
                if *tested > 0 {
                    trace::point(
                        "synthesize",
                        "screen_worker",
                        &[("worker", worker.into()), ("screened", (*tested).into())],
                    );
                }
            }
            trace::point(
                "synthesize",
                "parallel_screen",
                &[
                    ("workers", self.threads.into()),
                    ("flushes", self.flushes.into()),
                    ("screened", screened.into()),
                    ("cancel_latency_us", self.cancel_latency_us.into()),
                    ("winner", self.winner.is_some().into()),
                ],
            );
        }
        self.winner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Case;
    use parsynt_lang::interp::{Env, StateVec};
    use parsynt_lang::Value;

    #[test]
    fn screen_batch_returns_minimum_passing_index() {
        let items: Vec<usize> = (0..500).collect();
        for threads in [1, 2, 4, 8] {
            let out = screen_batch(threads, &items, &|i: &usize| {
                i.is_multiple_of(7) && *i >= 91
            });
            assert_eq!(out.winner, Some(91), "threads = {threads}");
            assert_eq!(out.per_worker.len(), threads);
        }
    }

    #[test]
    fn screen_batch_handles_no_winner_and_empty_input() {
        let items: Vec<usize> = (0..64).collect();
        let out = screen_batch(4, &items, &|_| false);
        assert_eq!(out.winner, None);
        assert_eq!(out.per_worker.iter().sum::<u64>(), 64);
        let empty: Vec<usize> = Vec::new();
        assert_eq!(screen_batch(4, &empty, &|_| true).winner, None);
    }

    #[test]
    fn screen_batch_all_pass_picks_index_zero() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [2, 4] {
            assert_eq!(screen_batch(threads, &items, &|_| true).winner, Some(0));
        }
    }

    #[test]
    fn batch_screen_finds_the_first_sequential_winner() {
        // One case: `w` must end up 5; candidates are constants.
        let p = parsynt_lang::parse(
            "input q : seq<int>; state w : int = 0; for i in 0 .. len(q) { w = 0; }",
        )
        .unwrap();
        let w = p.sym("w").unwrap();
        let case = Case {
            env: Env::for_program(&p),
            expected: StateVec::new(vec![(w, Value::Int(5))]),
        };
        let cases = CaseSet::new(vec![case], Vec::new());
        let build = |e: &Expr| Stmt::Assign {
            target: parsynt_lang::ast::LValue::var(w),
            value: e.clone(),
        };
        let mut screen = BatchScreen::new(4, &cases, w, &build);
        let mut stopped_at = None;
        for n in 0..200 {
            // 5 and 5+0-style equivalents: the first hit is `5` itself.
            if screen.offer(&Expr::int(n)) {
                stopped_at = Some(n);
                break;
            }
        }
        let winner = screen.finish().expect("a constant matches");
        assert_eq!(winner, Expr::int(5));
        // The generator was cancelled at a batch boundary at or after 5.
        assert!(stopped_at.is_none() || stopped_at.unwrap() >= 5);
    }

    #[test]
    fn batch_screen_flushes_the_tail_on_finish() {
        let p = parsynt_lang::parse(
            "input q : seq<int>; state w : int = 0; for i in 0 .. len(q) { w = 0; }",
        )
        .unwrap();
        let w = p.sym("w").unwrap();
        let case = Case {
            env: Env::for_program(&p),
            expected: StateVec::new(vec![(w, Value::Int(3))]),
        };
        let cases = CaseSet::new(vec![case], Vec::new());
        let build = |e: &Expr| Stmt::Assign {
            target: parsynt_lang::ast::LValue::var(w),
            value: e.clone(),
        };
        let mut screen = BatchScreen::new(4, &cases, w, &build);
        // Fewer candidates than the first batch boundary: nothing
        // flushes until `finish`.
        for n in 0..3 {
            assert!(!screen.offer(&Expr::int(n)));
        }
        assert_eq!(screen.finish(), None);

        let mut screen = BatchScreen::new(4, &cases, w, &build);
        for n in 0..3 {
            screen.offer(&Expr::int(n));
        }
        screen.offer(&Expr::int(3));
        assert_eq!(screen.finish(), Some(Expr::int(3)));
    }
}
