//! Deterministic parallel executor for independent seeded tasks.
//!
//! Fleet-scale sweeps run thousands of *independent* per-device
//! sessions (calibration micro-benchmarks, per-SoC projections, sweep
//! points). Each task is a pure function of its index — it derives
//! its own RNG stream from `(seed, index)` and touches no shared
//! mutable state — so the only thing parallelism may change is
//! *wall-clock time*, never results. [`Executor`] enforces that shape:
//!
//! - tasks are identified by index `0..n`;
//! - workers are `std::thread::scope` threads claiming the next
//!   unclaimed index from one shared [`AtomicUsize`] until all are
//!   taken, so a worker that draws slow tasks simply claims fewer;
//! - each worker keeps its results tagged with their index, and after
//!   the join every result is written into its index's slot.
//!
//! Because the output vector is assembled *by index*, the merged
//! result is byte-for-byte independent of scheduling: `jobs = 1` and
//! `jobs = N` produce identical `Vec<T>` for any worker count, which
//! is the determinism contract `fleet_sweep --jobs N` is gated on
//! (see `PERFORMANCE.md`). With `jobs = 1` (the default everywhere)
//! no threads are spawned at all — tasks run inline on the caller, so
//! serial paths are bit-for-bit the pre-executor code path.
//!
//! # Examples
//!
//! ```
//! use heterollm::exec::Executor;
//!
//! // Each task derives everything from its index; the merged vector
//! // is identical whatever the worker count.
//! let serial: Vec<u64> = Executor::new(1).run(100, |i| (i as u64) * 3 + 1);
//! let parallel: Vec<u64> = Executor::new(4).run(100, |i| (i as u64) * 3 + 1);
//! assert_eq!(serial, parallel);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

/// A fixed-width pool of workers executing indexed independent tasks.
///
/// See the [module docs](self) for the determinism contract.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    jobs: usize,
}

impl Executor {
    /// New executor running `jobs` tasks concurrently (clamped up to
    /// at least 1). `Executor::new(1)` runs everything inline on the
    /// calling thread.
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Run `f(0), f(1), …, f(tasks - 1)` and return the results in
    /// index order.
    ///
    /// `f` must be a pure function of its index (derive any RNG
    /// stream from the index, share nothing mutable): the returned
    /// vector is then identical for every `jobs` value.
    ///
    /// # Panics
    ///
    /// Panics if `f` panics on any index (the panic is propagated to
    /// the caller when the worker scope joins).
    pub fn run<T, F>(&self, tasks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let workers = self.jobs.min(tasks);
        if workers <= 1 {
            // Inline serial path: no threads, no channels — exactly
            // the loop a pre-executor caller would have written.
            return (0..tasks).map(f).collect();
        }
        // The counter only hands out indices; results reach the caller
        // through the join, so `Relaxed` claims are enough.
        let next = AtomicUsize::new(0);
        let claim = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= tasks {
                    return done;
                }
                done.push((i, f(i)));
            }
        };
        let per_worker: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(claim)).collect();
            // Join explicitly so a worker's panic payload reaches the
            // caller verbatim instead of scope's generic message.
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|payload| std::panic::resume_unwind(payload))
                })
                .collect()
        });
        let mut slots: Vec<Option<T>> = (0..tasks).map(|_| None).collect();
        for (i, v) in per_worker.into_iter().flatten() {
            slots[i] = Some(v);
        }
        slots
            .into_iter()
            .map(|v| v.expect("every index is claimed exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_index_order_regardless_of_jobs() {
        let expect: Vec<usize> = (0..257).map(|i| i * i).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let got = Executor::new(jobs).run(257, |i| i * i);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        Executor::new(7).run(100, |i| counters[i].fetch_add(1, Ordering::SeqCst));
        for (i, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::SeqCst), 1, "task {i}");
        }
    }

    #[test]
    fn zero_tasks_and_oversubscription_are_fine() {
        assert_eq!(Executor::new(4).run(0, |i| i), Vec::<usize>::new());
        assert_eq!(Executor::new(64).run(3, |i| i), vec![0, 1, 2]);
        assert_eq!(Executor::new(0).jobs(), 1, "jobs clamp to at least 1");
    }

    #[test]
    fn uneven_splits_cover_every_index() {
        // 10 tasks over 3 workers: chunks 4/3/3.
        let got = Executor::new(3).run(10, |i| i);
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn stealing_balances_skewed_workloads() {
        // Worker 0's chunk is pathologically slow; the others must
        // steal from it for the run to finish promptly. Correctness
        // (not timing) is asserted — the result stays index-ordered.
        let got = Executor::new(4).run(64, |i| {
            if i < 16 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            i * 2
        });
        assert_eq!(got, (0..64).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "task 13 panicked")]
    fn worker_panics_propagate() {
        Executor::new(4).run(20, |i| {
            assert!(i != 13, "task 13 panicked");
            i
        });
    }
}
