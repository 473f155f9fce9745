//! Work-stealing parallel fan-out for Monte-Carlo experiments.
//!
//! Every figure and table is an average over many independent
//! (sweep-point × seed) simulations. Each simulation builds its own
//! [`Simulator`](lrs_netsim::sim::Simulator) with its own seeded RNG
//! streams, so runs are embarrassingly parallel and — crucially —
//! per-seed results are bit-identical regardless of how many worker
//! threads execute them or in which order jobs are stolen.
//!
//! No external dependencies: workers are `std::thread::scope` threads
//! pulling job indices from a shared atomic counter (work stealing in
//! its simplest form — the next free worker takes the next job), and
//! results land in their job's slot so output order never depends on
//! scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads the harness should use.
///
/// The fallback when no `--threads N` was given (that flag is parsed by
/// [`Cli::threads`](crate::cli::Cli::threads)): the `LRS_THREADS`
/// environment variable, then the machine's available parallelism. The
/// floor is 1.
pub fn configured_threads() -> usize {
    if let Ok(v) = std::env::var("LRS_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Applies `f` to every element of `items` on `threads` workers and
/// returns the outputs in input order.
///
/// Jobs are claimed from a shared counter, so a long-running item only
/// occupies one worker while the rest steal ahead. With `threads == 1`
/// this degenerates to a sequential loop over the same order — outputs
/// are identical either way because each job is independent and results
/// are written to per-job slots.
pub fn parallel_map<I, O, F>(items: &[I], threads: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<O>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= items.len() {
                    break;
                }
                let out = f(&items[idx]);
                *slots[idx].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker exited without writing its slot")
        })
        .collect()
}

/// Fans the full (sweep-point × seed) product out over the harness
/// threads and regroups the results per point (inner `Vec` indexed by
/// seed − 1; seeds are `1..=seeds` as everywhere in the bench).
///
/// This is the shape every sweep wants: with `points × seeds` jobs
/// in one pool, the tail of a slow point overlaps the start of the next
/// instead of serializing on per-point barriers.
pub fn sample_grid<P, O, F>(points: &[P], seeds: u64, threads: usize, f: F) -> Vec<Vec<O>>
where
    P: Sync,
    O: Send,
    F: Fn(&P, u64) -> O + Sync,
{
    let jobs: Vec<(usize, u64)> = (0..points.len())
        .flat_map(|p| (1..=seeds).map(move |s| (p, s)))
        .collect();
    let flat = parallel_map(&jobs, threads, |&(p, s)| f(&points[p], s));
    let mut grouped: Vec<Vec<O>> = (0..points.len()).map(|_| Vec::new()).collect();
    for ((p, _), out) in jobs.into_iter().zip(flat) {
        grouped[p].push(out);
    }
    grouped
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

    #[test]
    fn grid_groups_by_point_in_seed_order() {
        let points = [10u64, 20, 30];
        let grid = sample_grid(&points, 4, 6, |&p, seed| p + seed);
        assert_eq!(grid.len(), 3);
        assert_eq!(grid[0], vec![11, 12, 13, 14]);
        assert_eq!(grid[2], vec![31, 32, 33, 34]);
    }

    #[test]
    fn grid_matches_sequential_reference() {
        let points: Vec<u64> = (0..5).collect();
        let f = |&p: &u64, s: u64| p.wrapping_mul(31).wrapping_add(s);
        let par = sample_grid(&points, 3, 8, f);
        let seq: Vec<Vec<u64>> = points
            .iter()
            .map(|p| (1..=3).map(|s| f(p, s)).collect())
            .collect();
        assert_eq!(par, seq);
    }
}
