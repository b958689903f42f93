//! A deterministic fan-out for independent experiment units, with one lane
//! budget per outermost call.
//!
//! Every run in a figure campaign is seeded and shares no mutable state
//! with its siblings, so a sweep is an embarrassingly parallel map.
//! [`par_map`] runs a slice of work items on scoped threads
//! ([`std::thread::scope`], no detached lifetimes, no extra dependencies)
//! and collects the results **by item index**, so the output order — and
//! therefore every derived report and manifest byte — is independent of
//! thread scheduling.
//!
//! # One lane budget
//!
//! The campaign fans experiments out, and most experiments fan their
//! workloads out again. So that nesting does not multiply threads, the
//! outermost call creates a budget of `jobs` **lanes**, and every call
//! made on one of its lanes — at any depth — draws from that budget. A
//! running thread holds one lane; the caller of the outermost call holds
//! the first. A call adds a helper thread only while the budget has a free
//! lane, and it looks at each item claim, so a lane that frees up late
//! still picks up the remaining items of a long call. At most `jobs`
//! threads work at once, apart from the short overdraft below; any others
//! alive are parked with their lane handed back. Calls on different
//! top-level threads have separate budgets.
//!
//! A thread hands its lane back while it blocks: the owner of a call
//! while it waits for its helpers' last items, and a run that waits on a
//! [`crate::checkpoint::RunMemo`] slot another lane is simulating
//! (`blocking`). On waking it takes the lane back without waiting, which
//! may overdraw the budget for a moment; the next helper to reach an item
//! claim while it is overdrawn leaves, repaying it. The owner of a call
//! never leaves, so every item is always claimed by someone.
//!
//! The caller's [`crate::checkpoint::CheckpointCtl`] is re-installed on
//! every helper, so a nested call's items see the outer item's control.
//!
//! Panic discipline: a panicking unit never takes its siblings down. Each
//! unit runs under [`std::panic::catch_unwind`]; after all units finish,
//! the first panic in *item order* (not completion order) is re-raised in
//! the caller via [`std::panic::resume_unwind`]. Callers that must survive
//! unit panics (the campaign layer) wrap their unit body in their own
//! `catch_unwind` and convert the payload into a failure outcome instead.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, Scope};

use crate::checkpoint::{self, CheckpointCtl};

/// The free lanes of one outermost [`par_map`] call. Negative while woken
/// threads have taken back more lanes than are free.
#[derive(Debug)]
struct Budget {
    free: AtomicIsize,
}

impl Budget {
    /// A budget of `lanes` lanes, one of which the creating thread holds.
    fn new(lanes: usize) -> Self {
        let free = isize::try_from(lanes.saturating_sub(1)).unwrap_or(isize::MAX);
        Self { free: AtomicIsize::new(free) }
    }

    /// Takes a free lane, if there is one.
    fn try_take(&self) -> bool {
        self.free
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| (n > 0).then(|| n - 1))
            .is_ok()
    }

    /// Hands back the lane, if that repays an overdraft.
    fn repay(&self) -> bool {
        self.free
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| (n < 0).then(|| n + 1))
            .is_ok()
    }

    fn give(&self) {
        self.free.fetch_add(1, Ordering::AcqRel);
    }

    /// Takes a lane back whether or not one is free.
    fn retake(&self) {
        self.free.fetch_sub(1, Ordering::AcqRel);
    }
}

thread_local! {
    /// The budget this thread holds a lane of, while it runs an outermost
    /// call or works as a helper.
    static LANE: RefCell<Option<Arc<Budget>>> = const { RefCell::new(None) };
}

/// Runs `f` holding a lane of `budget`; the previous lane (usually none)
/// is restored afterwards, even on unwind.
fn with_lane<R>(budget: Arc<Budget>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<Budget>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let prev = self.0.take();
            LANE.with(|l| *l.borrow_mut() = prev);
        }
    }
    let _restore = Restore(LANE.with(|l| l.borrow_mut().replace(budget)));
    f()
}

fn current_budget() -> Option<Arc<Budget>> {
    LANE.with(|l| l.borrow().clone())
}

/// Runs `f`, which blocks, with this thread's lane handed back to its
/// budget, and takes the lane back when `f` returns (or unwinds) without
/// waiting for one to be free. Outside a [`par_map`] lane this is `f()`.
pub(crate) fn blocking<R>(f: impl FnOnce() -> R) -> R {
    struct Retake(Arc<Budget>);
    impl Drop for Retake {
        fn drop(&mut self) {
            self.0.retake();
        }
    }
    let Some(budget) = current_budget() else { return f() };
    budget.give();
    let _retake = Retake(budget);
    f()
}

/// Maps `f` over `items` on up to `jobs` threads (the calling thread
/// counts as one), returning the results in item order.
///
/// `f` receives the item's index and a reference to the item. With
/// `jobs <= 1` — or a single item — this degenerates to a plain serial
/// loop on the calling thread, with no threads spawned and no unwinding
/// interposed; results are identical either way. Called on a lane of an
/// enclosing `par_map`, the call draws helpers from that call's budget
/// (see the module docs); otherwise it creates a budget of `jobs` lanes.
///
/// # Panics
///
/// If one or more units panic, the panic payload of the lowest-indexed
/// panicking unit is re-raised after every unit has finished.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let width = jobs.max(1).min(items.len().max(1));
    if width <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    match current_budget() {
        Some(budget) => fan_out(budget, width, items, &f),
        None => {
            let budget = Arc::new(Budget::new(jobs));
            with_lane(Arc::clone(&budget), || fan_out(budget, width, items, &f))
        }
    }
}

/// One fanned-out call: its items, their result slots, and its helpers.
struct Call<'a, T, R, F> {
    items: &'a [T],
    f: &'a F,
    /// One result slot per item; workers claim indices from `next`, so
    /// the assignment of items to threads is dynamic but the collection
    /// is strictly by index.
    slots: Vec<Mutex<Option<thread::Result<R>>>>,
    next: AtomicUsize,
    /// Helpers running, at most `max_helpers`; `done` is signalled when
    /// one leaves.
    helpers: Mutex<usize>,
    done: Condvar,
    max_helpers: usize,
    budget: Arc<Budget>,
    /// The checkpoint control is thread-local; helpers would otherwise
    /// silently run without it and never snapshot. The caller's control
    /// is all shared handles, so helpers cooperate on the same stop flag
    /// and used-file ledger.
    ckpt: Option<CheckpointCtl>,
}

fn fan_out<T, R, F>(budget: Arc<Budget>, width: usize, items: &[T], f: &F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let call = Call {
        items,
        f,
        slots: items.iter().map(|_| Mutex::new(None)).collect(),
        next: AtomicUsize::new(0),
        helpers: Mutex::new(0),
        done: Condvar::new(),
        max_helpers: width - 1,
        budget,
        ckpt: checkpoint::current(),
    };
    thread::scope(|s| {
        while call.run_next(s) {}
        call.wait_for_helpers();
    });

    let mut out = Vec::with_capacity(items.len());
    let mut first_panic = None;
    for slot in call.slots {
        let result = slot
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .expect("every item was claimed and every helper has left, so every slot is filled");
        match result {
            Ok(r) => out.push(r),
            Err(payload) => {
                if first_panic.is_none() {
                    first_panic = Some(payload);
                }
            }
        }
    }
    if let Some(payload) = first_panic {
        panic::resume_unwind(payload);
    }
    out
}

impl<'a, T, R, F> Call<'a, T, R, F>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    /// Claims and runs the next item; `false` once none is left.
    fn run_next<'s>(&'s self, s: &'s Scope<'s, '_>) -> bool {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = self.items.get(i) else { return false };
        self.add_helper(s);
        let result = panic::catch_unwind(AssertUnwindSafe(|| (self.f)(i, item)));
        // Storing a value cannot panic, so the lock is held only for the
        // move; a poisoned slot can only mean another worker crashed hard,
        // in which case its payload is what gets re-raised anyway.
        *self.slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        true
    }

    /// Starts a helper if an item is still unclaimed, the call is below
    /// its width and the budget has a free lane.
    fn add_helper<'s>(&'s self, s: &'s Scope<'s, '_>) {
        {
            let mut helpers = self.helpers.lock().unwrap_or_else(PoisonError::into_inner);
            if *helpers >= self.max_helpers
                || self.next.load(Ordering::Relaxed) >= self.items.len()
                || !self.budget.try_take()
            {
                return;
            }
            *helpers += 1;
        }
        if thread::Builder::new().spawn_scoped(s, move || self.help(s)).is_err() {
            // No thread, no helper: the items stay with the workers there are.
            self.budget.give();
            self.helper_left();
        }
    }

    /// A helper's life: claim items until none is left or the budget is
    /// overdrawn, then hand the lane back.
    fn help<'s>(&'s self, s: &'s Scope<'s, '_>) {
        let work = || loop {
            if self.budget.repay() {
                break;
            }
            if !self.run_next(s) {
                self.budget.give();
                break;
            }
        };
        with_lane(Arc::clone(&self.budget), || match self.ckpt.clone() {
            Some(ctl) => checkpoint::with_checkpointing(ctl, work),
            None => work(),
        });
        self.helper_left();
    }

    fn helper_left(&self) {
        *self.helpers.lock().unwrap_or_else(PoisonError::into_inner) -= 1;
        self.done.notify_all();
    }

    /// Waits, with the lane handed back, until every helper has left.
    fn wait_for_helpers(&self) {
        let helpers = self.helpers.lock().unwrap_or_else(PoisonError::into_inner);
        if *helpers == 0 {
            return;
        }
        let _idle = blocking(|| {
            self.done.wait_while(helpers, |n| *n > 0).unwrap_or_else(PoisonError::into_inner)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn results_keep_item_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(4, &items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 3
        });
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..57).collect();
        let f = |_: usize, &x: &u64| x.wrapping_mul(0x9E3779B97F4A7C15) >> 7;
        let serial = par_map(1, &items, f);
        for jobs in [2, 3, 4, 16] {
            assert_eq!(par_map(jobs, &items, f), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn handles_empty_and_single_item() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, &empty, |_, &x| x).is_empty());
        assert_eq!(par_map(4, &[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let items = [1u32, 2, 3];
        assert_eq!(par_map(64, &items, |_, &x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn first_panic_by_index_is_propagated_after_all_units_finish() {
        use std::sync::atomic::AtomicU32;
        let completed = AtomicU32::new(0);
        let items: Vec<usize> = (0..16).collect();
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            par_map(4, &items, |i, _| {
                if i == 3 {
                    panic!("unit three");
                }
                if i == 9 {
                    panic!("unit nine");
                }
                completed.fetch_add(1, Ordering::SeqCst);
            })
        }))
        .expect_err("a panicking unit must propagate");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "unit three", "lowest index wins");
        // Every non-panicking unit still ran to completion.
        assert_eq!(completed.load(Ordering::SeqCst), 14);
    }

    #[test]
    fn checkpoint_ctl_reaches_every_worker_thread() {
        use crate::checkpoint::{current, with_checkpointing, CheckpointCtl};
        let ctl = CheckpointCtl::new(std::path::PathBuf::from("/nonexistent"), "par-test");
        let items: Vec<u32> = (0..32).collect();
        let seen = with_checkpointing(ctl, || {
            let seen = par_map(4, &items, |_, _| current().map(|c| c.scope.clone()));
            assert!(current().is_some(), "caller's own control is untouched");
            seen
        });
        assert!(
            seen.iter().all(|s| s.as_deref() == Some("par-test")),
            "every unit must observe the caller's checkpoint control"
        );
        assert!(current().is_none(), "control is uninstalled after the scope ends");

        // Nested: each outer item installs its own scope, and every inner
        // item, on whichever thread it runs, sees its own outer item's.
        let scopes = ["outer-a", "outer-b", "outer-c"];
        let seen = par_map(2, &scopes, |_, &scope| {
            let ctl = CheckpointCtl::new(std::path::PathBuf::from("/nonexistent"), scope);
            with_checkpointing(ctl, || par_map(2, &items, |_, _| current().map(|c| c.scope)))
        });
        for (scope, inner) in scopes.iter().zip(&seen) {
            assert!(inner.iter().all(|s| s.as_deref() == Some(*scope)), "{scope}: {inner:?}");
        }
    }

    #[test]
    fn results_flow_even_when_r_is_a_result_type() {
        let items: Vec<u32> = (0..10).collect();
        let out: Vec<Result<u32, String>> = par_map(3, &items, |_, &x| {
            if x % 2 == 0 {
                Ok(x)
            } else {
                Err(format!("odd {x}"))
            }
        });
        let collected: Result<Vec<u32>, String> = out.into_iter().collect();
        assert_eq!(collected, Err("odd 1".to_owned()), "first error by index");
    }

    /// Counts items running at once and keeps the highest count seen.
    #[derive(Default)]
    struct InFlight {
        now: AtomicUsize,
        peak: AtomicUsize,
    }

    impl InFlight {
        fn run(&self, pause: Duration) {
            let now = self.now.fetch_add(1, Ordering::SeqCst) + 1;
            self.peak.fetch_max(now, Ordering::SeqCst);
            thread::sleep(pause);
            self.now.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn nested_calls_share_the_outer_budget() {
        let work = InFlight::default();
        let outer: Vec<u32> = (0..6).collect();
        let inner: Vec<u32> = (0..5).collect();
        let pause = Duration::from_millis(2);
        let out = par_map(2, &outer, |i, _| {
            work.run(pause);
            let nested = par_map(2, &inner, |j, _| {
                work.run(pause);
                j
            });
            work.run(pause);
            (i, nested)
        });
        let expected: Vec<_> = (0..6).map(|i| (i, vec![0, 1, 2, 3, 4])).collect();
        assert_eq!(out, expected);
        let peak = work.peak.load(Ordering::SeqCst);
        assert!(peak <= 2, "{peak} items ran at once on a 2-lane budget");
        assert!(current_budget().is_none(), "the budget ends with the outermost call");
    }

    #[test]
    fn nested_calls_contending_on_one_memo_key_all_finish() {
        use crate::checkpoint::{tests::stub, RunMemo};
        let memo = RunMemo::default();
        let simulating = InFlight::default();
        let outer: Vec<u32> = (0..4).collect();
        let inner: Vec<u32> = (0..4).collect();
        let cycles = par_map(2, &outer, |_, _| {
            par_map(2, &inner, |_, _| {
                let run = memo.run("one key".into(), || {
                    simulating.run(Duration::from_millis(20));
                    Ok(stub("one key", 5))
                });
                run.expect("the stored run").cycles
            })
        });
        assert!(cycles.iter().flatten().all(|&c| c == 5));
        assert_eq!(memo.counts(), (1, 15), "one run simulated, every other caller reused it");
        assert_eq!(simulating.peak.load(Ordering::SeqCst), 1);
    }

    /// Waits until `n` callers have arrived, for at most ten seconds;
    /// `false` if they did not all arrive.
    fn meet(arrived: &(Mutex<usize>, Condvar), n: usize) -> bool {
        let (count, cv) = arrived;
        let mut count = count.lock().unwrap_or_else(PoisonError::into_inner);
        *count += 1;
        cv.notify_all();
        let (count, _) = cv
            .wait_timeout_while(count, Duration::from_secs(10), |c| *c < n)
            .unwrap_or_else(PoisonError::into_inner);
        *count >= n
    }

    #[test]
    fn top_level_callers_on_separate_threads_have_separate_budgets() {
        // Both items of both calls must run at once: two lanes each.
        let arrived = (Mutex::new(0), Condvar::new());
        let items = [0u32, 1];
        let met = thread::scope(|s| {
            let callers: Vec<_> =
                (0..2).map(|_| s.spawn(|| par_map(2, &items, |_, _| meet(&arrived, 4)))).collect();
            callers.into_iter().flat_map(|c| c.join().expect("caller")).collect::<Vec<_>>()
        });
        assert_eq!(met, vec![true; 4], "a caller ran serially");
    }

    #[test]
    fn lanes_come_back_after_a_unit_panics() {
        let budget = Arc::new(Budget::new(4));
        let items: Vec<u32> = (0..12).collect();
        with_lane(Arc::clone(&budget), || {
            let err = panic::catch_unwind(AssertUnwindSafe(|| {
                par_map(4, &items, |i, _| {
                    par_map(4, &items, |j, _| {
                        thread::sleep(Duration::from_millis(1));
                        assert!(i + j != 7, "unit {i}/{j}");
                    })
                })
            }));
            assert!(err.is_err(), "the unit's panic is re-raised");
        });
        assert_eq!(budget.free.load(Ordering::SeqCst), 3, "every helper's lane came back");
        assert!(current_budget().is_none());

        let err = panic::catch_unwind(|| par_map(3, &items, |i, _| assert!(i != 5)));
        assert!(err.is_err());
        assert!(current_budget().is_none(), "a panicking outermost call still ends its budget");
    }
}
