//! # paotr-par — a scoped-thread parallel map
//!
//! Each fan-out is one `std::thread::scope`: the caller plus `threads − 1`
//! scoped workers claim task indices one at a time from an atomic cursor,
//! so one slow task never serializes the range. Results come back in input
//! order, a worker's panic reaches the caller with its payload, and a
//! nested fan-out runs inline.
#![forbid(unsafe_code)]

mod pool;

use pool::fan_out;
pub use pool::ThreadCount;

/// Maps `f` over `items` in parallel, preserving input order.
pub fn par_map<T, R, F>(items: &[T], threads: ThreadCount, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_tasks(items.len(), threads, |i| f(&items[i]))
}

/// [`par_map`] with a per-thread state (e.g. a reusable scratch): `init`
/// runs once per participating thread.
pub fn par_map_init<T, R, S, I, F>(items: &[T], threads: ThreadCount, init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&T, &mut S) -> R + Sync,
{
    fan_out(items.len(), threads, init, |i, s| f(&items[i], s), |_| {})
}

/// Runs tasks `0..n` in parallel; results come back in index order.
pub fn par_tasks<R, F>(n: usize, threads: ThreadCount, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    par_tasks_with_progress(n, threads, f, |_| {})
}

/// [`par_tasks`] with a callback on the calling thread after each task
/// completes, given the count so far (strictly increasing, ending at `n`).
pub fn par_tasks_with_progress<R, F, P>(n: usize, threads: ThreadCount, f: F, progress: P) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    P: FnMut(usize),
{
    fan_out(n, threads, || (), |i, _| f(i), progress)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::{current, sleep};

    const TWO: ThreadCount = ThreadCount::Fixed(2);
    const FOUR: ThreadCount = ThreadCount::Fixed(4);

    #[test]
    fn map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, ThreadCount::Fixed(8), |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn indexed_map_sees_correct_indices() {
        let out = par_tasks(3, TWO, |i| format!("{i}{}", ["a", "b", "c"][i]));
        assert_eq!(out, ["0a", "1b", "2c"]);
    }

    #[test]
    fn tasks_handle_empty_and_single() {
        assert!(par_tasks(0, FOUR, |_| -> u32 { unreachable!() }).is_empty());
        assert_eq!(par_tasks(1, FOUR, |i| i + 10), [10]);
    }

    #[test]
    fn single_thread_path_matches_parallel_path() {
        let seq = par_tasks(100, ThreadCount::Fixed(1), |i| i * i);
        for threads in [ThreadCount::Fixed(0), FOUR, ThreadCount::Auto] {
            assert_eq!(seq, par_tasks(100, threads, |i| i * i));
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let (n, ran) = (10_000, AtomicUsize::new(0));
        let out = par_tasks(n, ThreadCount::Fixed(16), |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(ran.into_inner(), n);
        assert_eq!(out, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn uneven_workloads_balance_dynamically() {
        let out = par_tasks(64, ThreadCount::Fixed(8), |i| {
            if i % 16 == 0 {
                sleep(std::time::Duration::from_millis(5));
            }
            i * 3
        });
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn per_worker_state_is_reused_within_a_job() {
        let inits = AtomicUsize::new(0);
        let init = || (inits.fetch_add(1, Ordering::Relaxed), current().id());
        let out = par_map_init(&[(); 100], FOUR, init, |_, (_, id)| *id == current().id());
        assert_eq!(out, [true; 100], "each state stays on its thread");
        assert!((1..=4).contains(&inits.into_inner()));
    }

    #[test]
    fn progress_is_monotone_and_complete() {
        let mut seen = Vec::new();
        par_tasks_with_progress(50, FOUR, |i| i, |done| seen.push(done));
        assert_eq!(seen, (1..=50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic]
    fn worker_panics_propagate() {
        par_tasks(8, FOUR, |i| assert_ne!(i, 3, "boom"));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_reaches_the_caller_with_its_payload() {
        // The two tasks meet at the barrier: one runs on a worker.
        let (caller, barrier) = (current().id(), std::sync::Barrier::new(2));
        par_tasks(2, TWO, |_| {
            barrier.wait();
            if current().id() != caller {
                panic!("boom");
            }
        });
    }
}
