//! Worker pool for campaign jobs: one shared job cursor.
//!
//! Worker `w` runs job `w` first, so no worker starves while jobs
//! outnumber workers; then each worker claims the next job with one
//! `fetch_add` on a shared cursor until the cursor passes the last job.
//! Jobs run for milliseconds to seconds, so one atomic per job is all
//! the hand-out needs, and a cursor past the end stops every worker: no
//! parking or rendezvous.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// What the pool observed while running one job set — the raw material
/// for the fairness and backpressure assertions in the campaign tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolOutcome {
    /// Job indices each worker executed, in execution order. Length is
    /// the effective worker count; the per-worker counts are the
    /// fairness signal (no worker may starve when jobs ≫ workers).
    pub per_worker_jobs: Vec<Vec<usize>>,
    /// High-water mark of concurrently *running* jobs: the backpressure
    /// proof that an oversubscribed campaign never runs more jobs at
    /// once than it has workers.
    pub max_concurrent: usize,
}

impl PoolOutcome {
    /// Jobs-per-worker counts, index-aligned with `per_worker_jobs`.
    pub fn counts(&self) -> Vec<usize> {
        self.per_worker_jobs.iter().map(Vec::len).collect()
    }
}

/// Runs `jobs` on a pool of `workers` threads and returns the results
/// in job order plus the observed schedule.
///
/// `exec` is called as `exec(worker, job_index, payload)` — exactly once
/// per job, on whichever worker claimed it. The effective worker count
/// is clamped to `min(workers, jobs.len()).max(1)`: a pool wider than
/// the grid would spawn threads with nothing to do, and zero workers is
/// promoted to one so the call always makes progress. The calling
/// thread works as worker 0.
pub fn run_jobs<J, R, F>(jobs: Vec<J>, workers: usize, exec: F) -> (Vec<R>, PoolOutcome)
where
    J: Send,
    R: Send,
    F: Fn(usize, usize, J) -> R + Sync,
{
    let total = jobs.len();
    let workers = workers.min(total).max(1);
    // Each job is claimed by one worker, so no lock is ever contended.
    let payloads: Vec<Mutex<Option<J>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let cursor = AtomicUsize::new(workers);
    let running = AtomicUsize::new(0);
    let high_water = AtomicUsize::new(0);

    let work = |worker: usize| -> Vec<(usize, R)> {
        let mut done = Vec::new();
        let mut job = worker;
        while job < total {
            let payload = payloads[job].lock().expect("pool payload poisoned").take();
            let payload = payload.expect("job payload taken exactly once");
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            high_water.fetch_max(now, Ordering::SeqCst);
            done.push((job, exec(worker, job, payload)));
            running.fetch_sub(1, Ordering::SeqCst);
            job = cursor.fetch_add(1, Ordering::SeqCst);
        }
        done
    };
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = (1..workers).map(|w| scope.spawn(move || work(w))).collect();
        let joined = handles
            .into_iter()
            .map(|h| h.join().expect("pool worker panicked"));
        std::iter::once(work(0)).chain(joined).collect()
    });

    let per_worker_jobs = per_worker
        .iter()
        .map(|done| done.iter().map(|&(job, _)| job).collect());
    let outcome = PoolOutcome {
        per_worker_jobs: per_worker_jobs.collect(),
        max_concurrent: high_water.into_inner(),
    };
    let mut results: Vec<(usize, R)> = per_worker.into_iter().flatten().collect();
    results.sort_unstable_by_key(|&(job, _)| job);
    (results.into_iter().map(|(_, r)| r).collect(), outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_job_runs_exactly_once_in_order() {
        for workers in [1, 2, 3, 8] {
            for total in [0, 1, 7, 40] {
                let jobs: Vec<u64> = (0..total).collect();
                let (results, outcome) = run_jobs(jobs, workers, |_, idx, j| {
                    assert_eq!(idx as u64, j);
                    j * 10
                });
                let cell = format!("{workers} workers, {total} jobs");
                assert_eq!(
                    results,
                    (0..total).map(|j| j * 10).collect::<Vec<u64>>(),
                    "{cell}"
                );
                let mut seen: Vec<usize> = outcome.per_worker_jobs.concat();
                seen.sort_unstable();
                assert_eq!(seen, (0..total as usize).collect::<Vec<usize>>(), "{cell}");
                assert!(outcome.max_concurrent <= workers, "{cell}");
                if total as usize >= workers {
                    assert_eq!(outcome.per_worker_jobs.len(), workers, "{cell}");
                    assert!(
                        outcome.counts().iter().all(|&c| c >= 1),
                        "{cell}: {outcome:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pool_width_is_clamped_to_job_count() {
        let (results, outcome) = run_jobs(vec![7u64], 16, |_, _, j| j);
        assert_eq!(results, vec![7]);
        assert_eq!(outcome.per_worker_jobs.len(), 1);
        assert_eq!(outcome.max_concurrent, 1);
    }

    #[test]
    fn zero_workers_is_promoted_to_one() {
        let (results, _) = run_jobs(vec![1u64, 2], 0, |_, _, j| j + 1);
        assert_eq!(results, vec![2, 3]);
    }

    #[test]
    fn empty_job_set_returns_immediately() {
        let (results, outcome) = run_jobs(Vec::<u64>::new(), 3, |_, _, j| j);
        assert!(results.is_empty());
        assert_eq!(outcome.max_concurrent, 0);
    }

    #[test]
    fn idle_workers_claim_a_slow_workers_share_from_the_cursor() {
        // Worker 0 sleeps 20ms per job; workers 1-2 keep claiming from
        // the cursor meanwhile, so worker 0 cannot have run all 12.
        let jobs: Vec<u64> = (0..12).collect();
        let (_, outcome) = run_jobs(jobs, 3, |worker, _, j| {
            if worker == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            j
        });
        assert!(outcome.counts()[0] < 12);
        assert_eq!(outcome.counts().iter().sum::<usize>(), 12);
    }
}
