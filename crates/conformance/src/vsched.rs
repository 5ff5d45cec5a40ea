//! The virtual scheduler: a deterministic, single-token replacement for
//! the host scheduler that the threaded engine waits through.
//!
//! Real threads still run the real engine protocol, but [`VirtualSched`]
//! serialises them onto one *scheduling token*: exactly one engine thread
//! executes at any instant, and every [`HostSched`] entry point hands the
//! token back to the scheduler, which picks the next runnable task from a
//! seeded [`SchedPolicy`]. Because every shared-memory interaction of the
//! protocol happens between two scheduling points of the token holder,
//! the whole run is a deterministic function of `(policy, seed,
//! mutation)` — any failure replays exactly.
//!
//! Parks get **no timeout**: a wake-up the protocol loses turns into a
//! stall the scheduler can see instead of latency the native
//! park-timeout backstop would absorb. Stalls are resolved by force-
//! waking the *poller* — the manager, whose native park is a timed poll
//! by design; when that stops helping, the scheduler declares a
//! livelock, falls back to native timeout semantics so the run
//! completes, and records the parked cores it had to revive as
//! [`SchedDiag::lost_wakeups`] — the crisp diagnostic the mutation tests
//! assert on.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::ThreadId;
use std::time::Duration;

use slacksim_core::rng::Xoshiro256;
use slacksim_core::sched::{HostSched, SchedSite, TaskId};

/// Task index of the simulation manager (always registered as
/// `"manager"`, always scheduled first among the expected names).
const MANAGER: usize = 0;

/// Forced manager wake-ups a core may stay *continuously parked*
/// through before the scheduler declares its wake-up lost. Every window
/// publication unparks every parked core, so in a correct protocol a
/// park survives only a couple of manager rounds; only a lost wake-up
/// survives hundreds.
const LIVELOCK_STALL_THRESHOLD: u64 = 1_000;

/// Hard cap on scheduling decisions per run — a runaway-loop backstop so
/// a harness bug fails fast instead of hanging CI.
const MAX_DECISIONS: u64 = 500_000_000;

/// How the virtual scheduler picks the next runnable task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Uniformly random walk over the runnable set — the fuzzing
    /// workhorse.
    RandomWalk,
    /// Adversarial: tasks poised at [`SchedSite::PreParkCheck`] (between
    /// publishing their parked flag and re-checking the sleep condition)
    /// are scheduled *last*, stretching the park-just-before-wake race
    /// window while the manager's wake path runs against it.
    ParkRace,
    /// Adversarial: the victim core is scheduled only when it is the
    /// sole runnable task, maximising its clock lag and the overflow
    /// pressure on every other core's queues.
    Starve {
        /// Task index of the starved task: `core{victim - 1}`, the
        /// threaded engine's lane `victim` (lane 0 is the manager's).
        victim: usize,
    },
    /// Adversarial: whenever the manager enters a consumer-side drain
    /// ([`SchedSite::RingDrain`] / [`SchedSite::SnapshotTake`]), a
    /// producer core runs first — interleaving drains with pushes,
    /// overflow spills and checkpoint hand-offs.
    DrainPreempt,
}

impl SchedPolicy {
    /// Stable name used in repro lines.
    pub fn name(self) -> &'static str {
        match self {
            SchedPolicy::RandomWalk => "random-walk",
            SchedPolicy::ParkRace => "park-race",
            SchedPolicy::Starve { .. } => "starve",
            SchedPolicy::DrainPreempt => "drain-preempt",
        }
    }
}

impl fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedPolicy::Starve { victim } => write!(f, "starve:{victim}"),
            p => f.write_str(p.name()),
        }
    }
}

/// A protocol mutation injected at the scheduler layer, used to prove
/// the harness detects the bug class it was built for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// No mutation: the protocol runs unmodified.
    None,
    /// Drop the `nth` (0-based) unpark delivery. Because `wake_core`
    /// clears the core's parked flag *before* unparking, a dropped
    /// delivery is not self-healing: later publishes skip the unpark and
    /// the core sleeps forever — exactly the lost-wakeup class the
    /// native park timeout masks.
    DropUnpark {
        /// 0-based index of the unpark call to swallow.
        nth: u64,
    },
}

impl fmt::Display for Mutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mutation::None => f.write_str("none"),
            Mutation::DropUnpark { nth } => write!(f, "drop-unpark:{nth}"),
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
    /// Unpark deliveries requested by the protocol.
    pub unparks: u64,
    /// Unpark deliveries swallowed by the active [`Mutation`].
    pub dropped_unparks: u64,
    /// Stall resolutions that woke the manager, the timed-poll-by-design
    /// task.
    pub forced_manager_wakes: u64,
    /// Parked cores revived by the livelock fallback — each one is a
    /// wake-up the protocol lost. Zero for a correct protocol.
    pub lost_wakeups: u64,
    /// True once the livelock guard fell back to native timeout
    /// semantics.
    pub timeout_fallback: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Expected but not yet registered.
    Absent,
    /// Runnable (blocked only on the scheduling token).
    Ready,
    /// Parked until an unpark (or the livelock fallback).
    Parked,
    /// Unregistered; never runs again.
    Finished,
}

#[derive(Debug)]
struct TaskState {
    status: Status,
    /// Pending wake token (unpark of a not-yet-parked task), exactly the
    /// `std::thread::Thread::unpark` semantics.
    wake_token: bool,
    /// Site the task is currently blocked at, for targeted policies.
    site: Option<SchedSite>,
    /// Value of [`SchedDiag::forced_manager_wakes`] when this task
    /// parked; cleared on unpark. A task whose park survives
    /// [`LIVELOCK_STALL_THRESHOLD`] forced wakes lost its wake-up (every
    /// correct protocol path re-unparks parked cores within a couple of
    /// manager rounds).
    parked_at_wake: Option<u64>,
}

#[derive(Debug)]
struct State {
    tasks: Vec<TaskState>,
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
    mutation: Mutation,
    state: Mutex<State>,
    cv: Condvar,
}

impl VirtualSched {
    /// Creates a scheduler for the manager plus `cores` spawned tasks: a
    /// threaded-engine run's lane threads (one fewer than its lanes — the
    /// manager steps lane 0 itself, so `L` lanes are `L - 1` tasks here),
    /// or a campaign pool's workers. The expected task set is fixed up
    /// front — `"manager"`, then `"core0".."core{n-1}"` — so task identity
    /// never depends on thread start-up races.
    pub fn new(cores: usize, policy: SchedPolicy, seed: u64, mutation: Mutation) -> Arc<Self> {
        let names: Vec<String> = std::iter::once("manager".to_string())
            .chain((0..cores).map(|i| format!("core{i}")))
            .collect();
        let tasks = names
            .iter()
            .map(|_| TaskState {
                status: Status::Absent,
                wake_token: false,
                site: None,
                parked_at_wake: None,
            })
            .collect();
        Arc::new(VirtualSched {
            names,
            policy,
            mutation,
            state: Mutex::new(State {
                tasks,
                by_thread: HashMap::new(),
                registered: 0,
                current: None,
                rng: Xoshiro256::new(seed),
                diag: SchedDiag::default(),
            }),
            cv: Condvar::new(),
        })
    }

    /// Snapshot of the run's scheduling diagnostics.
    pub fn diagnostics(&self) -> SchedDiag {
        self.state.lock().expect("sched poisoned").diag
    }

    /// One-line snapshot of every task's status and blocked-at site, for
    /// diagnosing schedules that stop making progress.
    pub fn dump_tasks(&self) -> String {
        let st = self.state.lock().expect("sched poisoned");
        let mut out = String::new();
        for (i, t) in st.tasks.iter().enumerate() {
            use std::fmt::Write;
            let _ = write!(
                out,
                "{}[{:?}@{:?}{}] ",
                self.names[i],
                t.status,
                t.site,
                if st.current == Some(i) { " *" } else { "" },
            );
        }
        out
    }

    /// True for the task whose native park is a timed poll by design —
    /// the manager. Nobody is obliged to unpark it, so the stall resolver
    /// may revive it without hiding a protocol bug; a *core* needing such
    /// a revival lost a wake-up.
    fn is_poller(task: usize) -> bool {
        task == MANAGER
    }

    fn me(&self, st: &State) -> usize {
        *st.by_thread
            .get(&std::thread::current().id())
            .expect("calling thread registered a task")
    }

    /// Hands the token back, applies the policy, and waits until this
    /// task is scheduled again. `parking` uses park semantics (the task
    /// leaves the runnable set unless a wake token is pending).
    fn enter(&self, site: SchedSite, parking: bool) {
        let mut st = self.state.lock().expect("sched poisoned");
        let me = self.me(&st);
        debug_assert_eq!(st.current, Some(me), "only the token holder runs");
        st.tasks[me].site = Some(site);
        if parking && !st.diag.timeout_fallback {
            if st.tasks[me].wake_token {
                st.tasks[me].wake_token = false;
            } else {
                st.tasks[me].status = Status::Parked;
                st.tasks[me].parked_at_wake = Some(st.diag.forced_manager_wakes);
            }
        }
        self.pick_next(&mut st, me, Some(site));
        self.cv.notify_all();
        while st.current != Some(me) {
            st = self.cv.wait(st).expect("sched poisoned");
        }
        st.tasks[me].site = None;
    }

    /// Picks the next token holder. Runs under the state lock.
    fn pick_next(&self, st: &mut State, entering: usize, site: Option<SchedSite>) {
        st.diag.decisions += 1;
        assert!(
            st.diag.decisions < MAX_DECISIONS,
            "virtual scheduler exceeded {MAX_DECISIONS} decisions — runaway schedule"
        );
        loop {
            let ready: Vec<usize> = st
                .tasks
                .iter()
                .enumerate()
                .filter(|(_, t)| t.status == Status::Ready)
                .map(|(i, _)| i)
                .collect();
            if ready.is_empty() {
                if st.tasks.iter().all(|t| t.status == Status::Finished) {
                    st.current = None;
                    return;
                }
                self.resolve_stall(st);
                continue;
            }
            let chosen = self.choose(st, &ready, entering, site);
            if st.current != Some(chosen) {
                st.diag.switches += 1;
            }
            st.current = Some(chosen);
            return;
        }
    }

    /// No task is runnable. Natively every park here has a timeout; the
    /// manager's is a deliberate polling cadence, so waking only the
    /// manager preserves protocol fidelity — a core that *needs* such a
    /// revival lost a wake-up.
    fn resolve_stall(&self, st: &mut State) {
        if !st.diag.timeout_fallback && st.tasks[MANAGER].status == Status::Parked {
            st.tasks[MANAGER].status = Status::Ready;
            st.tasks[MANAGER].parked_at_wake = None;
            st.diag.forced_manager_wakes += 1;
            // Livelock check: in every correct protocol path a parked
            // core is re-unparked within a couple of manager rounds (each
            // window publication wakes every parked core). A core whose
            // park has survived this many forced manager wakes has a
            // wake-up that is never coming — the lost-unpark signature.
            // Record it and fall back to native timeout semantics so the
            // run completes and can be examined. The age test is per
            // task: healthy cores that keep getting woken and re-parked
            // do not mask a stranded sibling.
            let now = st.diag.forced_manager_wakes;
            let stranded = st
                .tasks
                .iter()
                .filter(
                    |t| matches!(t.parked_at_wake, Some(p) if now - p >= LIVELOCK_STALL_THRESHOLD),
                )
                .count() as u64;
            if stranded > 0 {
                st.diag.timeout_fallback = true;
                st.diag.lost_wakeups += stranded;
                for t in st.tasks.iter_mut() {
                    if t.status == Status::Parked {
                        t.status = Status::Ready;
                        t.parked_at_wake = None;
                    }
                }
            }
            return;
        }
        // Fallback mode (or the manager is gone): emulate every pending
        // park timeout firing.
        for t in st.tasks.iter_mut() {
            if t.status == Status::Parked {
                t.status = Status::Ready;
                t.parked_at_wake = None;
            }
        }
    }

    fn pick_uniform(rng: &mut Xoshiro256, set: &[usize]) -> usize {
        set[rng.next_below(set.len() as u64) as usize]
    }

    fn choose(
        &self,
        st: &mut State,
        ready: &[usize],
        entering: usize,
        site: Option<SchedSite>,
    ) -> usize {
        // Escape hatch for the filtering policies: once in a while pick
        // from the full ready set. An *absolute* deprioritization can
        // livelock against a polling peer (e.g. the manager spinning in
        // an ack poll for the very core the policy refuses to run — no
        // task parks, so the stall resolver never fires); a 1-in-16
        // uniform draw keeps the adversarial pressure while guaranteeing
        // probabilistic progress.
        let escape = matches!(
            self.policy,
            SchedPolicy::ParkRace | SchedPolicy::Starve { .. }
        ) && st.rng.next_below(16) == 0;
        if escape {
            return Self::pick_uniform(&mut st.rng, ready);
        }
        match self.policy {
            SchedPolicy::RandomWalk => Self::pick_uniform(&mut st.rng, ready),
            SchedPolicy::ParkRace => {
                let unpoised: Vec<usize> = ready
                    .iter()
                    .copied()
                    .filter(|&i| st.tasks[i].site != Some(SchedSite::PreParkCheck))
                    .collect();
                if unpoised.is_empty() {
                    Self::pick_uniform(&mut st.rng, ready)
                } else {
                    Self::pick_uniform(&mut st.rng, &unpoised)
                }
            }
            SchedPolicy::Starve { victim } => {
                let others: Vec<usize> = ready.iter().copied().filter(|&i| i != victim).collect();
                if others.is_empty() {
                    ready[0]
                } else {
                    Self::pick_uniform(&mut st.rng, &others)
                }
            }
            SchedPolicy::DrainPreempt => {
                let mid_drain = Self::is_poller(entering)
                    && matches!(
                        site,
                        Some(SchedSite::RingDrain) | Some(SchedSite::SnapshotTake)
                    );
                if mid_drain {
                    let cores: Vec<usize> = ready
                        .iter()
                        .copied()
                        .filter(|&i| !Self::is_poller(i))
                        .collect();
                    if !cores.is_empty() {
                        return Self::pick_uniform(&mut st.rng, &cores);
                    }
                }
                Self::pick_uniform(&mut st.rng, ready)
            }
        }
    }

    #[allow(clippy::needless_pass_by_value)]
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
    fn virtualized(&self) -> bool {
        true
    }

    fn register(&self, name: &str) -> TaskId {
        let mut st = self.state.lock().expect("sched poisoned");
        let id = self
            .names
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("unexpected task {name:?} (expected {:?})", self.names));
        assert_eq!(
            st.tasks[id].status,
            Status::Absent,
            "task {name} registered twice"
        );
        st.tasks[id].status = Status::Ready;
        st.by_thread.insert(std::thread::current().id(), id);
        st.registered += 1;
        // Entry barrier: nobody runs until the whole expected task set
        // has arrived, so the first decision sees every task.
        if st.registered == self.names.len() {
            self.pick_next(&mut st, id, None);
        }
        self.cv.notify_all();
        let _st = self.wait_for_token(st, id);
        TaskId(id)
    }

    fn unregister(&self) {
        let mut st = self.state.lock().expect("sched poisoned");
        let me = self.me(&st);
        debug_assert_eq!(st.current, Some(me));
        st.tasks[me].status = Status::Finished;
        st.tasks[me].site = None;
        self.pick_next(&mut st, me, None);
        // The thread leaves the discipline without waiting: whatever it
        // does next (thread teardown) is invisible to the protocol.
        self.cv.notify_all();
    }

    fn point(&self, site: SchedSite) {
        self.enter(site, false);
    }

    fn idle_spin(&self, site: SchedSite) {
        self.enter(site, false);
    }

    fn idle_yield(&self, site: SchedSite) {
        self.enter(site, false);
    }

    fn park_timeout(&self, site: SchedSite, _timeout: Duration) {
        self.enter(site, true);
    }

    fn unpark(&self, target: TaskId) {
        let mut st = self.state.lock().expect("sched poisoned");
        st.diag.unparks += 1;
        if let Mutation::DropUnpark { nth } = self.mutation {
            if st.diag.unparks - 1 == nth {
                st.diag.dropped_unparks += 1;
                return;
            }
        }
        let t = &mut st.tasks[target.index()];
        match t.status {
            Status::Parked => {
                t.status = Status::Ready;
                t.wake_token = false;
                t.parked_at_wake = None;
                self.cv.notify_all();
            }
            Status::Ready => t.wake_token = true,
            // Unparking an absent/finished task is benign, as with std.
            Status::Absent | Status::Finished => {}
        }
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
        for _ in 0..2 {
            let sched = VirtualSched::new(1, SchedPolicy::RandomWalk, 7, Mutation::None);
            let in_section = Arc::new(AtomicUsize::new(0));
            let s2 = Arc::clone(&sched);
            let flag = Arc::clone(&in_section);
            let h = std::thread::spawn(move || {
                s2.register("core0");
                for _ in 0..100 {
                    assert_eq!(flag.fetch_add(1, Ordering::SeqCst), 0, "exclusive");
                    flag.fetch_sub(1, Ordering::SeqCst);
                    s2.point(SchedSite::CoreBurst);
                }
                s2.unregister();
            });
            sched.register("manager");
            for _ in 0..100 {
                assert_eq!(in_section.fetch_add(1, Ordering::SeqCst), 0, "exclusive");
                in_section.fetch_sub(1, Ordering::SeqCst);
                sched.point(SchedSite::ManagerLoop);
            }
            sched.unregister();
            h.join().expect("worker finishes");
            let d = sched.diagnostics();
            assert!(d.decisions >= 200);
            assert_eq!(d.lost_wakeups, 0);
        }
    }

    /// Park with a pending wake token returns without blocking, exactly
    /// like `std::thread::park` after an `unpark`.
    #[test]
    fn unpark_token_carries_across_park() {
        let sched = VirtualSched::new(1, SchedPolicy::RandomWalk, 1, Mutation::None);
        let s2 = Arc::clone(&sched);
        let h = std::thread::spawn(move || {
            let me = s2.register("core0");
            // Manager will unpark us exactly once before we park.
            s2.point(SchedSite::CoreIdle);
            s2.park_timeout(SchedSite::CoreIdle, Duration::from_secs(3600));
            s2.unregister();
            me
        });
        let core = TaskId(1);
        sched.register("manager");
        sched.unpark(core); // token stored: core is Ready, not parked
        sched.point(SchedSite::ManagerLoop);
        sched.unregister();
        let got = h.join().expect("core finishes");
        assert_eq!(got, core);
        assert_eq!(sched.diagnostics().lost_wakeups, 0);
    }

    /// A genuinely dropped wake-up is detected: the run falls back to
    /// timeout semantics and reports a lost wakeup.
    #[test]
    fn dropped_unpark_is_diagnosed() {
        let sched = VirtualSched::new(
            1,
            SchedPolicy::RandomWalk,
            3,
            Mutation::DropUnpark { nth: 0 },
        );
        let s2 = Arc::clone(&sched);
        let h = std::thread::spawn(move || {
            s2.register("core0");
            // Park with no token: the manager's unpark is swallowed by
            // the mutation, so only the livelock fallback revives us.
            s2.park_timeout(SchedSite::CoreIdle, Duration::from_secs(3600));
            s2.unregister();
        });
        sched.register("manager");
        sched.unpark(TaskId(1)); // dropped by the mutation
        loop {
            // Model the manager's timed poll: park until the scheduler
            // force-wakes us, bail out once the fallback tripped.
            sched.park_timeout(SchedSite::ManagerIdle, Duration::from_micros(20));
            if sched.diagnostics().timeout_fallback {
                break;
            }
        }
        sched.unregister();
        h.join().expect("core finishes");
        let d = sched.diagnostics();
        assert_eq!(d.dropped_unparks, 1);
        assert!(d.timeout_fallback);
        assert_eq!(d.lost_wakeups, 1);
    }

    /// The manager is the one timed poller: parked with no unpark coming
    /// it is revived by the stall resolver without being miscounted as a
    /// lost wakeup.
    #[test]
    fn the_manager_poll_is_revived_without_counting_lost_wakeups() {
        let sched = VirtualSched::new(2, SchedPolicy::RandomWalk, 11, Mutation::None);
        let mut handles = Vec::new();
        for i in 0..2 {
            let s = Arc::clone(&sched);
            handles.push(std::thread::spawn(move || {
                s.register(&format!("core{i}"));
                s.point(SchedSite::CoreBurst);
                s.unregister();
            }));
        }
        sched.register("manager");
        // Timed poll with no unpark coming: only the stall resolver may
        // revive this park, once both cores are done.
        sched.park_timeout(SchedSite::ManagerIdle, Duration::from_micros(20));
        sched.point(SchedSite::ManagerLoop);
        sched.unregister();
        for h in handles {
            h.join().expect("task finishes");
        }
        let d = sched.diagnostics();
        assert!(d.forced_manager_wakes >= 1, "the poll needs a forced wake");
        assert_eq!(d.lost_wakeups, 0);
        assert!(!d.timeout_fallback);
    }

    #[test]
    fn policy_and_mutation_display() {
        assert_eq!(SchedPolicy::RandomWalk.to_string(), "random-walk");
        assert_eq!(SchedPolicy::Starve { victim: 2 }.to_string(), "starve:2");
        assert_eq!(Mutation::DropUnpark { nth: 9 }.to_string(), "drop-unpark:9");
        assert_eq!(Mutation::None.to_string(), "none");
    }
}
