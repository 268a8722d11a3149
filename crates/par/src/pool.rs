//! The fan-out driver: for one call, the caller plus `threads − 1` scoped
//! workers claim task indices one at a time from an atomic cursor.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// How many threads a parallel operation should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThreadCount {
    /// `PAOTR_THREADS` if set and parseable, else the available parallelism.
    #[default]
    Auto,
    /// Exactly this many threads (clamped to at least 1).
    Fixed(usize),
}

impl ThreadCount {
    /// Resolves the policy to a concrete thread count (`>= 1`).
    pub fn resolve(self) -> usize {
        match self {
            ThreadCount::Fixed(n) => n.max(1),
            ThreadCount::Auto => std::env::var("PAOTR_THREADS")
                .ok()
                .and_then(|v| v.trim().parse::<usize>().ok())
                .or_else(|| std::thread::available_parallelism().ok().map(Into::into))
                .map_or(1, |n| n.max(1)),
        }
    }
}

thread_local! {
    /// True while this thread takes part in a fan-out.
    static IN_FAN_OUT: Cell<bool> = const { Cell::new(false) };
}

/// The driver behind every `par_*` function; nested fan-outs get no workers.
pub(crate) fn fan_out<R, S, I, F, P>(
    n: usize,
    threads: ThreadCount,
    init: I,
    f: F,
    mut progress: P,
) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> R + Sync,
    P: FnMut(usize),
{
    let nested = IN_FAN_OUT.replace(true);
    let participants = if nested { 1 } else { threads.resolve() };
    let (next, done) = (AtomicUsize::new(0), AtomicUsize::new(0));
    // One participant; its results come back through `join`, so `Relaxed` suffices.
    let drain = |after_each: &mut dyn FnMut()| {
        IN_FAN_OUT.set(true);
        let mut state = init();
        let mut ran = Vec::new();
        let claim = || Some(next.fetch_add(1, Ordering::Relaxed)).filter(|&i| i < n);
        while let Some(i) = claim() {
            ran.push((i, f(i, &mut state)));
            done.fetch_add(1, Ordering::Relaxed);
            after_each();
        }
        ran
    };
    let parts = catch_unwind(AssertUnwindSafe(|| {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (1..participants.min(n))
                .map(|_| scope.spawn(|| drain(&mut || {})))
                .collect();
            let mut reported = 0;
            let mut report = || {
                let now = done.load(Ordering::Relaxed);
                (std::mem::replace(&mut reported, now) + 1..=now).for_each(&mut progress);
            };
            let mut parts = vec![drain(&mut report)];
            for worker in workers {
                parts.push(worker.join().unwrap_or_else(|p| resume_unwind(p)));
            }
            report();
            parts
        })
    }));
    IN_FAN_OUT.set(nested);
    let parts = parts.unwrap_or_else(|p| resume_unwind(p));
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    for (i, r) in parts.into_iter().flatten() {
        out[i] = Some(r);
    }
    out.into_iter().map(|r| r.expect("task ran")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{par_tasks, par_tasks_with_progress};
    use std::thread::{current, sleep};

    const TWO: ThreadCount = ThreadCount::Fixed(2);
    const FOUR: ThreadCount = ThreadCount::Fixed(4);

    #[test]
    fn fixed_clamps_to_one() {
        assert_eq!(ThreadCount::Fixed(0).resolve(), 1);
        assert_eq!(ThreadCount::Fixed(5).resolve(), 5);
    }

    #[test]
    fn auto_is_positive() {
        assert!(ThreadCount::Auto.resolve() >= 1);
    }

    #[test]
    fn chunked_claiming_covers_every_task_for_awkward_shapes() {
        // n not divisible by the thread count, n smaller than 2×threads,
        // n equal to twice the thread count: every index exactly once, in order.
        for (n, threads) in [(97, 8), (5, 4), (16, 8), (3, 2), (1000, 3)] {
            let out = par_tasks(n, ThreadCount::Fixed(threads), |i| i);
            assert_eq!(out, (0..n).collect::<Vec<_>>(), "n={n} threads={threads}");
        }
    }

    #[test]
    fn one_slow_chunk_does_not_serialize_the_sweep() {
        // The first tasks are slow; the other participants keep claiming.
        let ran = AtomicUsize::new(0);
        let out = par_tasks(128, FOUR, |i| {
            if i < 8 {
                sleep(std::time::Duration::from_millis(2));
            }
            ran.fetch_add(1, Ordering::Relaxed);
            i * 3
        });
        assert_eq!(ran.into_inner(), 128);
        assert_eq!(out, (0..128).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn pool_panics_propagate_to_the_submitter() {
        let run = || par_tasks(8, TWO, |i| assert_ne!(i, 3, "boom"));
        assert!(catch_unwind(AssertUnwindSafe(run)).is_err());
        assert!(!IN_FAN_OUT.get(), "the next fan-out gets workers again");
        assert_eq!(par_tasks(4, TWO, |i| i), [0, 1, 2, 3]);
    }

    #[test]
    fn progress_panics_wait_for_workers_and_propagate() {
        // A panicking callback lets the workers drain, then propagates.
        let ran = AtomicUsize::new(0);
        let task = |_| ran.fetch_add(1, Ordering::Relaxed);
        let run = || par_tasks_with_progress(64, FOUR, task, |done| assert_ne!(done, 3));
        assert!(catch_unwind(AssertUnwindSafe(run)).is_err());
        assert_eq!(ran.load(Ordering::Relaxed), 64, "workers drained first");
        assert!(!IN_FAN_OUT.get(), "the next fan-out gets workers again");
        assert_eq!(par_tasks(4, TWO, |i| i), [0, 1, 2, 3]);
    }

    #[test]
    fn fanning_out_from_a_progress_callback_runs_inline() {
        let mut inline = Vec::new();
        let out = par_tasks_with_progress(
            6,
            TWO,
            |i| i,
            |_| {
                let me = current().id();
                inline.push(par_tasks(3, TWO, |_| current().id()) == [me; 3]);
            },
        );
        assert_eq!(out, [0, 1, 2, 3, 4, 5]);
        assert_eq!(inline, [true; 6]);
    }

    #[test]
    fn nested_submissions_run_inline() {
        let out = par_tasks(4, TWO, |i| {
            assert!(IN_FAN_OUT.get());
            let me = current().id();
            let inner = par_tasks(3, TWO, |j| (current().id() == me, i * 10 + j));
            assert!(inner.iter().all(|&(inline, _)| inline));
            inner.iter().map(|&(_, v)| v).sum::<usize>()
        });
        assert_eq!(
            out,
            (0..4)
                .map(|i| (0..3).map(|j| i * 10 + j).sum::<usize>())
                .collect::<Vec<_>>()
        );
    }
}
