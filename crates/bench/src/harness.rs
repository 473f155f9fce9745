//! Work-stealing parallel fan-out for Monte-Carlo experiments.
//!
//! A campaign is a fleet of independent jobs, and every figure and
//! table is a set of such campaigns, one per point. Each simulation
//! builds its own
//! [`Simulator`](lrs_netsim::sim::Simulator) with its own seeded RNG
//! streams, so runs are embarrassingly parallel and — crucially —
//! per-seed results are bit-identical regardless of how many worker
//! threads execute them or in which order jobs are stolen.
//!
//! No external dependencies: [`run_jobs`] is the one pool, workers
//! that are `std::thread::scope` threads pulling job indices from a
//! shared atomic counter (work stealing in its simplest form — the next
//! free worker takes the next job) and sending each output back to the
//! calling thread, which sees it tagged with its job index.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Runs `job(0)`..`job(n - 1)` on `threads` workers and hands each
/// `(index, output)` to `done` on the calling thread as the job
/// finishes, in completion order.
///
/// With `threads == 1` the jobs run inline, in index order. An error
/// from `done` stops the fleet: it is returned once the workers have
/// finished the jobs in hand, and they claim no more. A panicking job
/// propagates its panic.
pub fn run_jobs<O, E>(
    n: usize,
    threads: usize,
    job: impl Fn(usize) -> O + Sync,
    mut done: impl FnMut(usize, O) -> Result<(), E>,
) -> Result<(), E>
where
    O: Send,
{
    let threads = threads.max(1).min(n);
    if threads <= 1 {
        return (0..n).try_for_each(|i| done(i, job(i)));
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let (tx, next, job) = (tx.clone(), &next, &job);
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n || tx.send((i, job(i))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        rx.into_iter().try_for_each(|(i, out)| done(i, out))
    })
}

/// Applies `f` to every element of `items` on `threads` workers
/// ([`run_jobs`]) and returns the outputs in input order: each output
/// lands in its job's slot, so the result never depends on scheduling.
pub fn parallel_map<I, O, F>(items: &[I], threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let mut slots: Vec<Option<O>> = items.iter().map(|_| None).collect();
    let Ok(()) = run_jobs(
        items.len(),
        threads,
        |i| f(&items[i]),
        |i, out| {
            slots[i] = Some(out);
            Ok::<(), std::convert::Infallible>(())
        },
    );
    slots
        .into_iter()
        .map(|slot| slot.expect("every job ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = parallel_map(&items, 8, |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn one_thread_matches_many() {
        let items: Vec<u64> = (0..50).collect();
        let seq = parallel_map(&items, 1, |&x| x.wrapping_mul(0x9e3779b9) >> 7);
        let par = parallel_map(&items, 7, |&x| x.wrapping_mul(0x9e3779b9) >> 7);
        assert_eq!(seq, par);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let hits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..333).collect();
        let out = parallel_map(&items, 5, |&x| {
            hits.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(hits.load(Ordering::Relaxed), 333);
        assert_eq!(out.iter().copied().collect::<HashSet<_>>().len(), 333);
    }

    #[test]
    fn empty_input_is_fine() {
        let items: Vec<u32> = Vec::new();
        assert!(parallel_map(&items, 4, |&x| x).is_empty());
    }

    /// What `sweep::run_cells` hands `parallel_map`: one item per cell,
    /// each producing its own seeds in order.
    #[test]
    fn grid_groups_by_point_in_seed_order() {
        let points = [10u64, 20, 30];
        let grid = parallel_map(&points, 6, |&p| {
            (1..=4).map(|seed| p + seed).collect::<Vec<_>>()
        });
        assert_eq!(grid.len(), 3);
        assert_eq!(grid[0], vec![11, 12, 13, 14]);
        assert_eq!(grid[2], vec![31, 32, 33, 34]);
    }

    #[test]
    fn grid_matches_sequential_reference() {
        let points: Vec<u64> = (0..5).collect();
        let f = |&p: &u64| {
            (1..=3)
                .map(|s| p.wrapping_mul(31).wrapping_add(s))
                .collect::<Vec<_>>()
        };
        let par = parallel_map(&points, 8, f);
        let seq: Vec<Vec<u64>> = points.iter().map(f).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn one_thread_runs_inline_in_index_order() {
        let caller = std::thread::current().id();
        let mut seen = Vec::new();
        let result: Result<(), ()> = run_jobs(
            5,
            1,
            |i| (i, std::thread::current().id()),
            |i, (j, thread)| {
                assert_eq!((i, thread), (j, caller));
                seen.push(i);
                Ok(())
            },
        );
        assert_eq!(result, Ok(()));
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_callback_error_stops_the_fleet() {
        for threads in [1, 4] {
            let started = AtomicUsize::new(0);
            let result = run_jobs(
                200,
                threads,
                |i| {
                    started.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    i
                },
                |_, i| if i >= 3 { Err(i) } else { Ok(()) },
            );
            assert!(matches!(result, Err(i) if i >= 3), "threads {threads}");
            // Workers finish the jobs in hand and claim no more.
            let ran = started.load(Ordering::Relaxed);
            assert!(ran < 200, "threads {threads}: all {ran} jobs ran");
        }
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn a_worker_panic_propagates() {
        let _ = run_jobs(
            20,
            3,
            |i| assert!(i != 7, "job {i} failed"),
            |_, ()| Ok::<(), ()>(()),
        );
    }
}
