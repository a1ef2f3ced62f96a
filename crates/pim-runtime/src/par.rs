//! Minimal fork-join parallelism for independent simulations.
//!
//! [`par_map`] fans a slice out over the calling thread plus scoped OS
//! threads. `PIM_RUN_THREADS=1` is the serial mode: the calling thread
//! maps the slice alone.
//!
//! Work is claimed, not pre-assigned: every worker repeatedly takes the
//! next unclaimed input index from one shared atomic counter, so a worker
//! that drew a short item goes back for another instead of idling behind
//! a fixed partition while one long item holds up the join. The calling
//! thread is one of the workers, so a fan-out over `w` workers spawns
//! `w - 1` threads. Each worker keeps `(index, result)` pairs, and after
//! the join every result is placed at its input index.
//!
//! Determinism: `f` sees each item exactly once (the counter hands out
//! every index once) and the output is assembled by input index alone, so
//! which thread ran which item, and in what order, is unobservable in the
//! result. Output order always matches input order, whatever the worker
//! count, so parallel sweeps stay deterministic.
//!
//! [`par_map_claiming`] hands the indices out in a caller-given order
//! instead of input order: a sweep whose items differ widely in cost
//! lists its heaviest first, so the longest item starts at once rather
//! than after the workers have drained the cheap ones in front of it.
//! Its results still come back in input order.
//!
//! A thread that is already one of a fixed pool of workers sharing the
//! machine (a daemon worker) runs inside [`on_worker`]: every fan-out it
//! starts maps serially on it, in claim order, rather than spawn threads
//! onto cores its fellow workers already hold. `par`'s own scoped threads
//! are not marked, so a fan-out nested inside a fan-out still spreads.

use std::cell::Cell;
use std::sync::OnceLock;

thread_local! {
    /// Set on a thread inside [`on_worker`].
    static ON_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Runs `f` with the calling thread marked as a worker: every
/// [`par_map`] or [`par_map_claiming`] inside `f` maps serially on this
/// thread, in claim order, whatever `PIM_RUN_THREADS` says. Results are
/// the same as unmarked (see the module docs), only who runs the items
/// changes. The previous mark comes back when `f` returns or unwinds, so
/// scopes nest.
pub fn on_worker<R>(f: impl FnOnce() -> R) -> R {
    /// Puts the mark it holds back on drop.
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            ON_WORKER.set(self.0);
        }
    }
    let _restore = Restore(ON_WORKER.replace(true));
    f()
}

/// Worker cap for one fan-out: 1 on a thread inside [`on_worker`],
/// otherwise the `PIM_RUN_THREADS` environment variable when set to a
/// positive integer, otherwise the machine's available parallelism.
/// Pinning `PIM_RUN_THREADS=1` takes the serial path — the thread-matrix
/// CI stage uses this to check that results do not depend on the worker
/// count. The variable is read on every call
/// (tests set it at run time); the machine's parallelism, a cgroup file
/// read on Linux, is read once per process.
fn thread_limit() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    if ON_WORKER.get() {
        return 1;
    }
    std::env::var("PIM_RUN_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| {
            *CORES.get_or_init(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
            })
        })
}

/// Maps `f` over `items` on up to `PIM_RUN_THREADS` worker threads
/// (default: the machine's available parallelism).
///
/// Results are returned in input order regardless of which thread ran
/// which item. A panic in `f` is re-raised on the caller with its
/// original payload.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    fan_out(thread_limit(), items, |claim| claim, f)
}

/// [`par_map`] that claims input indices in the order `order` lists them:
/// the `k`-th claim, on whichever worker makes it, maps
/// `items[order[k]]`. The serial mode maps them in that order too.
/// Results are returned in input order, as [`par_map`] returns them.
///
/// # Panics
///
/// When `order` is not a permutation of `0..items.len()`; a panic in `f`
/// is re-raised on the caller with its original payload.
pub fn par_map_claiming<T, R, F>(items: &[T], order: &[usize], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    fan_out(thread_limit(), items, claim_order(order, items.len()), f)
}

/// `order` as a claim-to-index map, once it is checked to list every index
/// of `0..len` exactly once.
fn claim_order(order: &[usize], len: usize) -> impl Fn(usize) -> usize + Sync + '_ {
    let mut seen = vec![false; len];
    for &index in order {
        assert!(
            index < len && !std::mem::replace(&mut seen[index], true),
            "claim order must list every index of 0..{len} once"
        );
    }
    assert_eq!(order.len(), len, "claim order must list every index once");
    |claim| order[claim]
}

/// [`par_map`] with an explicit worker cap: up to `workers` workers —
/// the calling thread and `workers - 1` scoped threads — take claims
/// `0, 1, ...` from one counter until none are left, and claim `k` maps
/// input index `index_of(k)`. One worker (or at most one item) maps
/// serially on the calling thread, in claim order.
fn fan_out<T, R, F>(
    workers: usize,
    items: &[T],
    index_of: impl Fn(usize) -> usize + Sync,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};

    let workers = workers.min(items.len());
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut done = Vec::new();
        loop {
            let claim = next.fetch_add(1, Ordering::Relaxed);
            if claim >= items.len() {
                return done;
            }
            let index = index_of(claim);
            done.push((index, f(&items[index])));
        }
    };
    if workers <= 1 {
        return place(items.len(), vec![claim()]);
    }
    // A panic in the caller's own share unwinds out of the scope, which
    // joins the spawned workers first and then re-raises that payload.
    let claimed: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(claim)).collect();
        let mut claimed = Vec::with_capacity(workers);
        claimed.push(claim());
        claimed.extend(
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))),
        );
        claimed
    });
    place(items.len(), claimed)
}

/// The workers' `(index, result)` pairs, placed at their input indices.
fn place<R>(len: usize, claimed: Vec<Vec<(usize, R)>>) -> Vec<R> {
    let mut results: Vec<Option<R>> = Vec::with_capacity(len);
    results.resize_with(len, || None);
    for (index, result) in claimed.into_iter().flatten() {
        results[index] = Some(result);
    }
    results
        .into_iter()
        .map(|r| r.expect("every index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = par_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_single_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn propagates_results_per_item() {
        let items = ["a", "bb", "ccc"];
        let out: Vec<Result<usize, String>> = par_map(&items, |s| {
            if s.len() < 3 {
                Ok(s.len())
            } else {
                Err(s.to_string())
            }
        });
        assert_eq!(out, vec![Ok(1), Ok(2), Err("ccc".to_string())]);
    }

    /// Any claim order, over 1, 2 and 3 workers: each item is mapped
    /// exactly once and the results come back in input order.
    #[test]
    fn claiming_maps_each_item_once_in_input_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        pim_common::rng::check(64, "par_map_claiming", |g| {
            let n = g.draw(0..40usize);
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, g.draw(0..=i));
            }
            for workers in 1..=3 {
                let runs: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let items: Vec<usize> = (0..n).collect();
                let out = fan_out(workers, &items, claim_order(&order, n), |&i| {
                    runs[i].fetch_add(1, Ordering::SeqCst);
                    i * 10
                });
                assert_eq!(out, items.iter().map(|i| i * 10).collect::<Vec<_>>());
                assert!(runs.iter().all(|r| r.load(Ordering::SeqCst) == 1));
            }
        });
    }

    /// The serial mode maps items in claim order, not input order.
    #[test]
    fn one_worker_maps_in_claim_order() {
        let seen = std::sync::Mutex::new(Vec::new());
        let order = [2, 0, 3, 1];
        let out = fan_out(1, &[0, 1, 2, 3], claim_order(&order, 4), |&i: &usize| {
            seen.lock().unwrap().push(i);
            i + 1
        });
        assert_eq!(out, vec![1, 2, 3, 4]);
        assert_eq!(seen.into_inner().unwrap(), order);
    }

    /// On a marked thread a fan-out maps every item on the caller, with
    /// the results it gives unmarked; the mark is off again afterwards.
    #[test]
    fn a_worker_maps_every_item_on_its_own_thread() {
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..64).collect();
        let square = |&i: &usize| (i * i, std::thread::current().id());
        let unmarked: Vec<usize> = par_map(&items, square).into_iter().map(|r| r.0).collect();
        let marked = on_worker(|| par_map(&items, square));
        assert!(
            marked.iter().all(|r| r.1 == caller),
            "a marked fan-out left the caller"
        );
        assert_eq!(
            marked.into_iter().map(|r| r.0).collect::<Vec<_>>(),
            unmarked
        );
        let order: Vec<usize> = (0..64).rev().collect();
        let seen = std::sync::Mutex::new(Vec::new());
        on_worker(|| {
            par_map_claiming(&items, &order, |&i| seen.lock().unwrap().push(i));
        });
        assert_eq!(
            seen.into_inner().unwrap(),
            order,
            "a marked fan-out maps in claim order"
        );
        assert!(!ON_WORKER.get());
    }

    /// A nested scope and a panic inside one both put the previous mark
    /// back.
    #[test]
    fn a_worker_scope_restores_the_previous_mark() {
        assert!(!ON_WORKER.get());
        on_worker(|| {
            on_worker(|| assert!(ON_WORKER.get()));
            assert!(ON_WORKER.get(), "a nested scope cleared its parent's mark");
            let caught = std::panic::catch_unwind(|| on_worker(|| panic!("boom")));
            assert!(caught.is_err());
            assert!(ON_WORKER.get(), "a panicking nested scope cleared the mark");
        });
        assert!(!ON_WORKER.get());
        let caught = std::panic::catch_unwind(|| on_worker(|| panic!("boom")));
        assert!(caught.is_err());
        assert!(!ON_WORKER.get(), "a panicking scope left the mark set");
    }

    #[test]
    #[should_panic(expected = "claim order")]
    fn a_claim_order_that_repeats_an_index_is_refused() {
        par_map_claiming(&[0, 1, 2], &[0, 1, 1], |&i: &usize| i);
    }

    #[test]
    #[should_panic(expected = "claim order")]
    fn a_claim_order_that_misses_an_index_is_refused() {
        par_map_claiming(&[0, 1, 2], &[2, 0], |&i: &usize| i);
    }

    mod claim_next {
        use super::super::fan_out;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::{Duration, Instant};

        const ITEMS: usize = 23;

        /// Item 0 spins until every other item has run. Claim-next lets
        /// the other workers drain the rest while it spins; a static
        /// partition would leave item 0's neighbours stuck behind it.
        #[test]
        fn skewed_first_item_runs_each_item_once_in_input_order() {
            for workers in 2..=4 {
                let runs: Vec<AtomicUsize> = (0..ITEMS).map(|_| AtomicUsize::new(0)).collect();
                let finished = AtomicUsize::new(0);
                let items: Vec<usize> = (0..ITEMS).collect();
                let out = fan_out(
                    workers,
                    &items,
                    |k| k,
                    |&i| {
                        runs[i].fetch_add(1, Ordering::SeqCst);
                        if i == 0 {
                            let deadline = Instant::now() + Duration::from_secs(10);
                            while finished.load(Ordering::SeqCst) < ITEMS - 1 {
                                assert!(
                                    Instant::now() < deadline,
                                    "{workers} workers left items unclaimed"
                                );
                                std::hint::spin_loop();
                            }
                        } else {
                            finished.fetch_add(1, Ordering::SeqCst);
                        }
                        i * 10
                    },
                );
                assert_eq!(out, items.iter().map(|i| i * 10).collect::<Vec<_>>());
                for (i, count) in runs.iter().enumerate() {
                    assert_eq!(
                        count.load(Ordering::SeqCst),
                        1,
                        "item {i} with {workers} workers"
                    );
                }
            }
        }

        #[derive(Debug, PartialEq)]
        struct Boom(usize);

        /// The serial mode (`PIM_RUN_THREADS=1`): every item runs once, in
        /// input order, on the calling thread.
        #[test]
        fn one_worker_runs_each_item_once_in_order_on_the_caller() {
            let caller = std::thread::current().id();
            let seen = std::sync::Mutex::new(Vec::new());
            let items: Vec<usize> = (0..ITEMS).collect();
            let out = fan_out(
                1,
                &items,
                |k| k,
                |&i| {
                    seen.lock().unwrap().push((i, std::thread::current().id()));
                    i * 10
                },
            );
            assert_eq!(out, items.iter().map(|i| i * 10).collect::<Vec<_>>());
            let expected: Vec<_> = items.iter().map(|&i| (i, caller)).collect();
            assert_eq!(seen.into_inner().unwrap(), expected);
        }

        /// The caller is one of the workers: every item not run on the
        /// caller waits until the caller has run one (at most
        /// `workers - 1` items are claimed elsewhere first), so the caller
        /// must map items itself, at most `workers - 1` other threads map
        /// the rest, and every item still lands once at its input index.
        #[test]
        fn the_caller_maps_items_alongside_the_spawned_workers() {
            let caller = std::thread::current().id();
            for workers in 2..=4 {
                let caller_ran = AtomicUsize::new(0);
                let ran_on = std::sync::Mutex::new(vec![None; ITEMS]);
                let items: Vec<usize> = (0..ITEMS).collect();
                let out = fan_out(
                    workers,
                    &items,
                    |k| k,
                    |&i| {
                        let me = std::thread::current().id();
                        if me == caller {
                            caller_ran.fetch_add(1, Ordering::SeqCst);
                        } else {
                            let deadline = Instant::now() + Duration::from_secs(10);
                            while caller_ran.load(Ordering::SeqCst) == 0 {
                                assert!(Instant::now() < deadline, "the caller mapped nothing");
                                std::hint::spin_loop();
                            }
                        }
                        let mut ran_on = ran_on.lock().unwrap();
                        assert!(ran_on[i].is_none(), "item {i} mapped twice");
                        ran_on[i] = Some(me);
                        i * 10
                    },
                );
                assert_eq!(out, items.iter().map(|i| i * 10).collect::<Vec<_>>());
                let ran_on = ran_on.into_inner().unwrap();
                assert!(ran_on.iter().all(Option::is_some), "{workers} workers");
                assert!(ran_on.contains(&Some(caller)), "{workers} workers");
                let threads: std::collections::HashSet<_> = ran_on.iter().flatten().collect();
                assert!(threads.len() <= workers, "{workers} workers");
            }
        }

        /// Only the caller's item panics, and every other item waits until
        /// the caller has claimed one: at most `workers - 1` items are
        /// claimed elsewhere first, so the caller must run an item, and its
        /// payload is the one re-raised.
        #[test]
        fn a_panic_in_the_callers_own_item_surfaces_its_payload() {
            let caller = std::thread::current().id();
            for workers in 2..=4 {
                let claimed_by_caller = AtomicUsize::new(0);
                let items: Vec<usize> = (0..ITEMS).collect();
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    fan_out(
                        workers,
                        &items,
                        |k| k,
                        |&i| {
                            if std::thread::current().id() == caller {
                                claimed_by_caller.store(1, Ordering::SeqCst);
                                std::panic::panic_any(Boom(i));
                            }
                            let deadline = Instant::now() + Duration::from_secs(10);
                            while claimed_by_caller.load(Ordering::SeqCst) == 0 {
                                assert!(Instant::now() < deadline, "the caller claimed nothing");
                                std::hint::spin_loop();
                            }
                            i
                        },
                    )
                }))
                .expect_err("the caller's item panics");
                let boom = caught.downcast_ref::<Boom>().expect("the caller's payload");
                assert!(boom.0 < ITEMS);
            }
        }

        #[test]
        fn a_panicking_item_surfaces_its_own_payload() {
            for workers in 1..=4 {
                let items: Vec<usize> = (0..ITEMS).collect();
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    fan_out(
                        workers,
                        &items,
                        |k| k,
                        |&i| {
                            if i == 7 {
                                std::panic::panic_any(Boom(i));
                            }
                            i
                        },
                    )
                }))
                .expect_err("item 7 panics");
                assert_eq!(caught.downcast_ref::<Boom>(), Some(&Boom(7)));
            }
        }
    }
}
