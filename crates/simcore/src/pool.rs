//! A bounded, deterministic fork-join worker pool for independent jobs.
//!
//! The fleet loop advances one live simulation per replica between crash and
//! control instants. Those per-replica advances share nothing, so they can
//! run on any thread in any order — as long as the *results* are put back in
//! job order the outcome is bit-identical to a serial loop. [`run_indexed`]
//! does exactly that: it spawns at most [`worker_cap`] scoped threads that
//! pull job indices from a shared atomic counter, and returns the results in
//! index order; [`run_each_mut`] does the same for jobs that each mutate a
//! state of their own.
//!
//! Spawning one OS thread per replica (what the plain fleet used to do) falls
//! over at 100-replica fleets; the pool keeps thread count bounded by the
//! host's parallelism regardless of fleet size.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads the pool will use for `jobs` independent jobs:
/// `min(available_parallelism, jobs)`, and at least 1.
pub fn worker_cap(jobs: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    cores.min(jobs).max(1)
}

/// Runs `jobs` independent jobs on a bounded scoped thread pool and returns
/// their results in job-index order.
///
/// `f(i)` must be a pure function of `i` (plus shared read-only captures):
/// the pool guarantees nothing about which thread runs which index or in
/// what order, only that the returned `Vec` has `f(i)` at position `i`.
/// With one job (or one core) the pool degenerates to a serial loop on the
/// calling thread, so serial and parallel execution are bit-identical by
/// construction.
///
/// Panics in a job are propagated to the caller.
pub fn run_indexed<T, F>(jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    crate::profile::add_pool_jobs(jobs as u64);
    let workers = worker_cap(jobs);
    if workers <= 1 || jobs <= 1 {
        return (0..jobs).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut chunks: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
    for chunk in &mut chunks {
        for (i, value) in chunk.drain(..) {
            debug_assert!(slots[i].is_none(), "job {i} produced twice");
            slots[i] = Some(value);
        }
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| slot.unwrap_or_else(|| panic!("job {i} never ran")))
        .collect()
}

/// Runs `f` once on each of `items` on the bounded pool and returns the
/// results in item order — [`run_indexed`] for jobs that mutate state
/// they own, such as advancing one live replica simulation each.
pub fn run_each_mut<T, R, F>(items: Vec<&mut T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T) -> R + Sync,
{
    let items: Vec<Mutex<Option<&mut T>>> =
        items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    run_indexed(items.len(), |i| {
        let item = items[i]
            .lock()
            .expect("no job panicked holding an item")
            .take()
            .expect("each item runs once");
        f(item)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let squares = run_indexed(100, |i| i * i);
        assert_eq!(squares, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_one_job_work() {
        assert_eq!(run_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn matches_serial_execution_bitwise() {
        // A job whose output depends on per-job seeded randomness: identical
        // regardless of which worker runs it.
        let f = |i: usize| {
            let mut rng = crate::SimRng::seed(0xC0FFEE ^ i as u64);
            (0..50).map(|_| rng.uniform01()).sum::<f64>()
        };
        let parallel = run_indexed(64, f);
        let serial: Vec<f64> = (0..64).map(f).collect();
        assert_eq!(parallel.len(), serial.len());
        for (a, b) in parallel.iter().zip(&serial) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn worker_cap_is_bounded() {
        assert_eq!(worker_cap(0), 1);
        assert_eq!(worker_cap(1), 1);
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(worker_cap(10_000), cores.min(10_000));
    }
}
