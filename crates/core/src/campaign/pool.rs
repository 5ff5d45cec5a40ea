//! Work-stealing worker pool for campaign jobs.
//!
//! Jobs are dealt round-robin onto per-worker deques up front; each
//! worker drains its own deque from the front and, when empty, steals
//! from the *back* of its peers' deques (classic Chase–Lev shape, here
//! mutex-backed because campaign jobs are seconds long and the deque op
//! is nanoseconds — contention is irrelevant, determinism under the
//! virtual scheduler is not). Because the full job set is enqueued
//! before any worker starts, an empty sweep of every deque is a
//! termination proof: no parking or rendezvous is needed.
//!
//! Every deque operation routes through the [`HostSched`] seam
//! ([`SchedSite::QueueOp`] before every lock), and the pool registers
//! its threads under fixed role names — the calling thread is
//! `"manager"` (and doubles as worker 0), spawned workers are `"core0"`,
//! `"core1"`, … — so the conformance crate's `VirtualSched` can
//! serialise and fuzz pool schedules.
//!
//! [`HostSched`]: crate::sched::HostSched

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::sched::{SchedRef, SchedSite};

/// What the pool observed while running one job set — the raw material
/// for the fairness and backpressure assertions in the campaign tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolOutcome {
    /// Job indices each worker executed, in execution order. Length is
    /// the effective worker count; the per-worker counts are the
    /// fairness signal (no worker may starve when jobs ≫ workers) and
    /// the concatenation is the schedule fingerprint the conformance
    /// determinism oracle compares across replays.
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

/// Shared state of one pool run.
struct PoolState<J, R> {
    /// Per-worker job-index deques (own pops from the front, steals from
    /// the back).
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// Job payloads, taken exactly once by whichever worker pops the
    /// matching index.
    payloads: Vec<Mutex<Option<J>>>,
    /// Result slots, index-aligned with `payloads`.
    results: Vec<Mutex<Option<R>>>,
    /// Currently-running job count and its high-water mark.
    running: AtomicUsize,
    high_water: AtomicUsize,
    sched: SchedRef,
}

impl<J, R> PoolState<J, R> {
    /// Pops the next job index for `worker`: own deque first (front),
    /// then peers scanned from the right neighbour round-robin (back).
    fn next_job(&self, worker: usize) -> Option<usize> {
        let workers = self.deques.len();
        let sched = self.sched.get();
        sched.point(SchedSite::QueueOp);
        if let Some(job) = self.deques[worker]
            .lock()
            .expect("pool deque poisoned")
            .pop_front()
        {
            return Some(job);
        }
        for step in 1..workers {
            let victim = (worker + step) % workers;
            sched.point(SchedSite::QueueOp);
            if let Some(job) = self.deques[victim]
                .lock()
                .expect("pool deque poisoned")
                .pop_back()
            {
                return Some(job);
            }
        }
        None
    }

    /// One worker's whole life: drain + steal until every deque is dry.
    fn work<F>(&self, worker: usize, exec: &F) -> Vec<usize>
    where
        F: Fn(usize, usize, J) -> R + Sync,
    {
        let mut executed = Vec::new();
        while let Some(job) = self.next_job(worker) {
            let payload = self.payloads[job]
                .lock()
                .expect("pool payload poisoned")
                .take()
                .expect("job payload taken exactly once");
            let running = self.running.fetch_add(1, Ordering::SeqCst) + 1;
            self.high_water.fetch_max(running, Ordering::SeqCst);
            let result = exec(worker, job, payload);
            self.running.fetch_sub(1, Ordering::SeqCst);
            *self.results[job].lock().expect("pool result poisoned") = Some(result);
            executed.push(job);
        }
        executed
    }
}

/// Runs `jobs` on a work-stealing pool of `workers` threads and returns
/// the results in job order plus the observed schedule.
///
/// `exec` is called as `exec(worker, job_index, payload)` — exactly once
/// per job, on whichever worker claimed it. The effective worker count
/// is clamped to `min(workers, jobs.len()).max(1)`: a pool wider than
/// the grid would spawn threads with nothing to do, and zero workers is
/// promoted to one so the call always makes progress.
///
/// The calling thread registers with `sched` as `"manager"` and works
/// as worker 0; the `M-1` spawned workers register as `"core0"` …
/// `"core{M-2}"`. Every thread unregisters before the scope joins
/// (joining a still-registered task would deadlock a cooperative
/// virtual scheduler waiting for it to reach a scheduling point).
pub fn run_jobs<J, R, F>(
    jobs: Vec<J>,
    workers: usize,
    sched: &SchedRef,
    exec: F,
) -> (Vec<R>, PoolOutcome)
where
    J: Send,
    R: Send,
    F: Fn(usize, usize, J) -> R + Sync,
{
    let total = jobs.len();
    let workers = workers.min(total).max(1);

    let mut deques: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for job in 0..total {
        deques[job % workers]
            .get_mut()
            .expect("fresh deque")
            .push_back(job);
    }
    let state = PoolState {
        deques,
        payloads: jobs.into_iter().map(|j| Mutex::new(Some(j))).collect(),
        results: (0..total).map(|_| Mutex::new(None)).collect(),
        running: AtomicUsize::new(0),
        high_water: AtomicUsize::new(0),
        sched: sched.clone(),
    };

    let host = sched.get();
    let mut per_worker_jobs: Vec<Vec<usize>> = vec![Vec::new(); workers];
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers.saturating_sub(1));
        for w in 1..workers {
            let state = &state;
            let exec = &exec;
            handles.push(scope.spawn(move || {
                let host = state.sched.get();
                host.register(&format!("core{}", w - 1));
                let executed = state.work(w, exec);
                host.unregister();
                executed
            }));
        }
        // Register only after every worker thread is spawned: a virtual
        // scheduler holds all tasks at an entry barrier until the whole
        // expected set has arrived, so registering before the spawns
        // would deadlock the pool against its own unspawned workers.
        host.register("manager");
        per_worker_jobs[0] = state.work(0, &exec);
        // Unregister before joining: a cooperative virtual scheduler
        // would otherwise wait forever for this task's next sched point
        // while we block natively in join() (the PR-3 manager lesson).
        host.unregister();
        for (w, handle) in handles.into_iter().enumerate() {
            per_worker_jobs[w + 1] = handle.join().expect("pool worker panicked");
        }
    });

    let results = state
        .results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("pool result poisoned")
                .expect("every dealt job index is executed exactly once")
        })
        .collect();
    let outcome = PoolOutcome {
        per_worker_jobs,
        max_concurrent: state.high_water.load(Ordering::SeqCst),
    };
    (results, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_job_runs_exactly_once_in_order() {
        let jobs: Vec<u64> = (0..40).collect();
        let (results, outcome) = run_jobs(jobs, 4, &SchedRef::native(), |_, idx, j| {
            assert_eq!(idx as u64, j);
            j * 10
        });
        assert_eq!(results, (0..40).map(|j| j * 10).collect::<Vec<u64>>());
        let mut seen: Vec<usize> = outcome.per_worker_jobs.concat();
        seen.sort_unstable();
        assert_eq!(seen, (0..40).collect::<Vec<usize>>());
        assert_eq!(outcome.counts().iter().sum::<usize>(), 40);
        assert!(outcome.max_concurrent <= 4);
    }

    #[test]
    fn pool_width_is_clamped_to_job_count() {
        let (results, outcome) = run_jobs(vec![7u64], 16, &SchedRef::native(), |_, _, j| j);
        assert_eq!(results, vec![7]);
        assert_eq!(outcome.per_worker_jobs.len(), 1);
        assert_eq!(outcome.max_concurrent, 1);
    }

    #[test]
    fn zero_workers_is_promoted_to_one() {
        let (results, _) = run_jobs(vec![1u64, 2], 0, &SchedRef::native(), |_, _, j| j + 1);
        assert_eq!(results, vec![2, 3]);
    }

    #[test]
    fn empty_job_set_returns_immediately() {
        let (results, outcome) = run_jobs(Vec::<u64>::new(), 3, &SchedRef::native(), |_, _, j| j);
        assert!(results.is_empty());
        assert_eq!(outcome.max_concurrent, 0);
    }

    #[test]
    fn idle_workers_steal_from_loaded_peers() {
        // Deal 12 jobs to 3 workers, but make worker 0's own share slow:
        // workers 1-2 finish their shares and must steal the remainder
        // of worker 0's deque for the run to stay balanced.
        let jobs: Vec<u64> = (0..12).collect();
        let (_, outcome) = run_jobs(jobs, 3, &SchedRef::native(), |worker, _, j| {
            if worker == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            j
        });
        // Worker 0 sleeps 20ms per job; its 4-job share takes 80ms while
        // the other two drain everything else. It cannot have run all 12.
        assert!(outcome.counts()[0] < 12);
        assert_eq!(outcome.counts().iter().sum::<usize>(), 12);
    }
}
