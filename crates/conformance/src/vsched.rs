//! The virtual scheduler: a deterministic, single-token replacement for
//! the host scheduler that the campaign runner's worker pool schedules
//! through.
//!
//! Real threads still run the real pool, but [`VirtualSched`] serialises
//! them onto one *scheduling token*: exactly one pool thread executes at
//! any instant, and every [`HostSched`] entry point hands the token back
//! to the scheduler, which picks the next runnable task from a seeded
//! [`SchedPolicy`]. Because every shared-memory interaction of the pool
//! happens between two scheduling points of the token holder, the whole
//! run is a deterministic function of `(policy, seed)` — any failure
//! replays exactly.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::ThreadId;

use slacksim_core::rng::Xoshiro256;
use slacksim_core::sched::{HostSched, SchedSite};

/// Hard cap on scheduling decisions per run — a runaway-loop backstop so
/// a harness bug fails fast instead of hanging CI.
const MAX_DECISIONS: u64 = 500_000_000;

/// How the virtual scheduler picks the next runnable task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Uniformly random walk over the runnable set — the fuzzing
    /// workhorse.
    RandomWalk,
    /// Adversarial: the victim is scheduled only when it is the sole
    /// runnable task (or, one decision in 16, by a uniform draw that
    /// keeps the run moving), so its peers steal its jobs.
    Starve {
        /// Task index of the starved task: `core{victim - 1}`, the pool's
        /// worker `victim` (worker 0 is the manager's).
        victim: usize,
    },
}

impl fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedPolicy::RandomWalk => f.write_str("random-walk"),
            SchedPolicy::Starve { victim } => write!(f, "starve:{victim}"),
        }
    }
}

/// Scheduling diagnostics for one finished run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedDiag {
    /// Scheduling decisions taken.
    pub decisions: u64,
    /// Decisions that switched the running task.
    pub switches: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Expected but not yet registered.
    Absent,
    /// Runnable (blocked only on the scheduling token).
    Ready,
    /// Unregistered; never runs again.
    Finished,
}

#[derive(Debug)]
struct State {
    tasks: Vec<Status>,
    by_thread: HashMap<ThreadId, usize>,
    registered: usize,
    /// Holder of the scheduling token; `None` before the registration
    /// barrier completes and after every task finishes.
    current: Option<usize>,
    rng: Xoshiro256,
    diag: SchedDiag,
}

/// See the [module docs](self) for the execution model.
#[derive(Debug)]
pub struct VirtualSched {
    names: Vec<String>,
    policy: SchedPolicy,
    state: Mutex<State>,
    cv: Condvar,
}

impl VirtualSched {
    /// Creates a scheduler for a pool of the manager plus `workers`
    /// spawned tasks. The expected task set is fixed up front —
    /// `"manager"`, then `"core0".."core{n-1}"`, the names the pool
    /// registers its threads under — so task identity never depends on
    /// thread start-up races.
    pub fn new(workers: usize, policy: SchedPolicy, seed: u64) -> Arc<Self> {
        let names: Vec<String> = std::iter::once("manager".to_string())
            .chain((0..workers).map(|i| format!("core{i}")))
            .collect();
        Arc::new(VirtualSched {
            policy,
            state: Mutex::new(State {
                tasks: vec![Status::Absent; names.len()],
                by_thread: HashMap::new(),
                registered: 0,
                current: None,
                rng: Xoshiro256::new(seed),
                diag: SchedDiag::default(),
            }),
            names,
            cv: Condvar::new(),
        })
    }

    /// Snapshot of the run's scheduling diagnostics.
    pub fn diagnostics(&self) -> SchedDiag {
        self.state.lock().expect("sched poisoned").diag
    }

    fn me(&self, st: &State) -> usize {
        *st.by_thread
            .get(&std::thread::current().id())
            .expect("calling thread registered a task")
    }

    /// Picks the next token holder. Runs under the state lock.
    fn pick_next(&self, st: &mut State) {
        st.diag.decisions += 1;
        assert!(
            st.diag.decisions < MAX_DECISIONS,
            "virtual scheduler exceeded {MAX_DECISIONS} decisions — runaway schedule"
        );
        let ready: Vec<usize> = (0..st.tasks.len())
            .filter(|&i| st.tasks[i] == Status::Ready)
            .collect();
        if ready.is_empty() {
            st.current = None;
            return;
        }
        let others: Vec<usize> = match self.policy {
            SchedPolicy::Starve { victim } if st.rng.next_below(16) != 0 => {
                ready.iter().copied().filter(|&i| i != victim).collect()
            }
            _ => Vec::new(),
        };
        let set = if others.is_empty() { &ready } else { &others };
        let chosen = set[st.rng.next_below(set.len() as u64) as usize];
        if st.current != Some(chosen) {
            st.diag.switches += 1;
        }
        st.current = Some(chosen);
    }

    fn wait_for_token<'a>(
        &'a self,
        mut st: MutexGuard<'a, State>,
        me: usize,
    ) -> MutexGuard<'a, State> {
        while st.current != Some(me) {
            st = self.cv.wait(st).expect("sched poisoned");
        }
        st
    }
}

impl HostSched for VirtualSched {
    fn register(&self, name: &str) {
        let mut st = self.state.lock().expect("sched poisoned");
        let id = self
            .names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("unexpected task {name:?} (expected {:?})", self.names));
        assert_eq!(st.tasks[id], Status::Absent, "task {name} registered twice");
        st.tasks[id] = Status::Ready;
        st.by_thread.insert(std::thread::current().id(), id);
        st.registered += 1;
        // Entry barrier: nobody runs until the whole expected task set
        // has arrived, so the first decision sees every task.
        if st.registered == self.names.len() {
            self.pick_next(&mut st);
        }
        self.cv.notify_all();
        let _st = self.wait_for_token(st, id);
    }

    fn unregister(&self) {
        let mut st = self.state.lock().expect("sched poisoned");
        let me = self.me(&st);
        debug_assert_eq!(st.current, Some(me));
        st.tasks[me] = Status::Finished;
        self.pick_next(&mut st);
        // The thread leaves the discipline without waiting: whatever it
        // does next (thread teardown) is invisible to the pool.
        self.cv.notify_all();
    }

    fn point(&self, _site: SchedSite) {
        let mut st = self.state.lock().expect("sched poisoned");
        let me = self.me(&st);
        debug_assert_eq!(st.current, Some(me), "only the token holder runs");
        self.pick_next(&mut st);
        self.cv.notify_all();
        let _st = self.wait_for_token(st, me);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two tasks ping-ponging through points stay strictly serialized
    /// and the run is deterministic for a fixed seed.
    #[test]
    fn token_serializes_two_tasks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut runs = Vec::new();
        for _ in 0..2 {
            let sched = VirtualSched::new(1, SchedPolicy::RandomWalk, 7);
            let in_section = Arc::new(AtomicUsize::new(0));
            let s2 = Arc::clone(&sched);
            let flag = Arc::clone(&in_section);
            let h = std::thread::spawn(move || {
                s2.register("core0");
                for _ in 0..100 {
                    assert_eq!(flag.fetch_add(1, Ordering::SeqCst), 0, "exclusive");
                    flag.fetch_sub(1, Ordering::SeqCst);
                    s2.point(SchedSite::QueueOp);
                }
                s2.unregister();
            });
            sched.register("manager");
            for _ in 0..100 {
                assert_eq!(in_section.fetch_add(1, Ordering::SeqCst), 0, "exclusive");
                in_section.fetch_sub(1, Ordering::SeqCst);
                sched.point(SchedSite::QueueOp);
            }
            sched.unregister();
            h.join().expect("worker finishes");
            let d = sched.diagnostics();
            assert!(d.decisions >= 200);
            runs.push(d);
        }
        assert_eq!(runs[0], runs[1], "a seed replays its schedule");
    }

    #[test]
    fn policy_display() {
        assert_eq!(SchedPolicy::RandomWalk.to_string(), "random-walk");
        assert_eq!(SchedPolicy::Starve { victim: 2 }.to_string(), "starve:2");
    }
}
