//! Host-scheduling abstraction for the threaded engine.
//!
//! The threaded engine's synchronisation protocol — SPSC ring hand-off,
//! the one yield→park wait ladder, window publication and the
//! stop-sync command channels, whose replies carry checkpoint captures —
//! normally runs on the real host scheduler with real `std::thread`
//! parking. That makes interleaving bugs (missed wakeups, reordered
//! drains, stop-sync races) both rare and unreproducible: the
//! park-timeout backstops mask lost wakeups as latency, and the host
//! never replays the same schedule twice.
//!
//! [`HostSched`] pulls every *wait* decision of the protocol behind one
//! small trait so a test harness can substitute a deterministic
//! scheduler:
//!
//! * [`NativeSched`] (the default, used by all production runs) maps each
//!   operation 1:1 onto `std`: `yield_now`, `park_timeout`/`unpark`.
//!   `point` is a no-op.
//! * A *virtual* scheduler (see the `slacksim-conformance` crate)
//!   serialises all engine threads onto a cooperative token, decides at
//!   every [`HostSched::point`] which thread runs next from a seeded or
//!   scripted policy, and gives parks **no timeout** — so a lost wakeup
//!   that the native backstop would quietly absorb becomes a crisply
//!   detectable stall.
//!
//! The protocol logic itself (parked flags, SeqCst fences, window
//! stores) is *not* abstracted: the engine runs the identical code under
//! both schedulers. Only the primitive wait operations are routed
//! through the trait.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Identifier of a registered schedulable task (dense, per scheduler).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TaskId(pub usize);

impl TaskId {
    /// Returns the dense index of this task.
    #[inline]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Labelled scheduling points inside the threaded-engine protocol.
///
/// A virtual scheduler may preempt the running task at any of these; the
/// native scheduler ignores them. The labels let targeted adversarial
/// policies aim at specific races (e.g. preempt at [`PreParkCheck`] to
/// exercise the park-just-before-wake window, or at [`RingPush`] /
/// [`RingDrain`] to interleave a drain with an overflow spill).
///
/// [`PreParkCheck`]: SchedSite::PreParkCheck
/// [`RingPush`]: SchedSite::RingPush
/// [`RingDrain`]: SchedSite::RingDrain
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SchedSite {
    /// Producer-side SPSC ring append (single or batch).
    RingPush,
    /// Consumer-side SPSC ring removal.
    RingPop,
    /// Consumer-side SPSC ring batch drain.
    RingDrain,
    /// Mutex-backed shared-queue operation (the campaign pool's job deques).
    QueueOp,
    /// Top of the manager's consolidation loop.
    ManagerLoop,
    /// Manager idling in its backoff ladder.
    ManagerIdle,
    /// Core thread about to start a window burst.
    CoreBurst,
    /// Core thread idling while capped by the window.
    CoreIdle,
    /// Core thread between publishing its parked flag and re-checking the
    /// sleep condition — the Dekker-style race window the wake fences
    /// protect.
    PreParkCheck,
    /// Manager polling for a lane's reply to a command: its
    /// acknowledgement, carrying any checkpoint captures.
    AwaitAck,
    /// Core thread polling for the next manager command.
    AwaitCmd,
}

/// The host-scheduling interface the threaded engine waits through.
///
/// One instance is shared by every thread of one engine run. Methods
/// that act on "the current task" resolve it from the calling thread;
/// [`unpark`](HostSched::unpark) addresses a task registered by another
/// thread.
///
/// # Contract
///
/// * Every engine thread calls [`register`](HostSched::register) exactly
///   once before any other method and [`unregister`](HostSched::unregister)
///   once when it is done scheduling (it may keep running natively
///   afterwards, e.g. thread teardown).
/// * [`park_timeout`](HostSched::park_timeout) may return spuriously;
///   callers must re-check their sleep condition in a loop (the engine
///   already does — it is the same contract as `std::thread::park`).
/// * [`unpark`](HostSched::unpark) stores a wake token if the target is
///   not currently parked, exactly like `std::thread::Thread::unpark`.
pub trait HostSched: Send + Sync + fmt::Debug {
    /// Returns `true` for virtual (test) schedulers. The engine uses this
    /// to switch blocking channel receives to sched-visible polling and
    /// to pin the wait ladder's yield depth to a machine-independent two.
    fn virtualized(&self) -> bool {
        false
    }

    /// Registers the calling thread as a schedulable task. `name` is a
    /// stable role label (`"manager"`, `"core0"`, …): virtual schedulers
    /// key task identity on it so ids do not depend on thread start-up
    /// races.
    fn register(&self, name: &str) -> TaskId;

    /// Unregisters the calling thread (its task never runs again).
    fn unregister(&self);

    /// A potential preemption point. No-op natively.
    fn point(&self, _site: SchedSite) {}

    /// One yield-tier wait iteration (native: `std::thread::yield_now`).
    fn idle_yield(&self, site: SchedSite);

    /// Parks the calling task until [`unpark`](HostSched::unpark) or (for
    /// the native scheduler) the timeout. Virtual schedulers are free to
    /// ignore the timeout — that is the point: a wakeup the protocol
    /// loses is then a detectable stall instead of silent latency.
    fn park_timeout(&self, site: SchedSite, timeout: Duration);

    /// Wakes `target` if parked, or stores its wake token otherwise.
    fn unpark(&self, target: TaskId);
}

/// The production scheduler: a thin veneer over `std::thread`.
///
/// `register` records the calling thread's handle so `unpark` can reach
/// it; everything else maps directly onto the std primitive. All methods
/// on the wait paths are branch-free apart from the (rare) unpark lookup.
#[derive(Debug, Default)]
pub struct NativeSched {
    /// Task handles, indexed by `TaskId`. Only touched at registration
    /// and on the (rare) unpark-delivery path.
    threads: Mutex<Vec<Option<std::thread::Thread>>>,
    next_id: AtomicUsize,
}

impl NativeSched {
    /// Creates an empty native scheduler.
    pub fn new() -> Self {
        NativeSched::default()
    }
}

impl HostSched for NativeSched {
    fn register(&self, _name: &str) -> TaskId {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut threads = self.threads.lock().expect("sched poisoned");
        if threads.len() <= id {
            threads.resize(id + 1, None);
        }
        threads[id] = Some(std::thread::current());
        TaskId(id)
    }

    fn unregister(&self) {
        // Handles are kept: an unpark racing with task exit must still
        // find a valid `Thread` (unparking a finished thread is benign).
    }

    #[inline]
    fn idle_yield(&self, _site: SchedSite) {
        std::thread::yield_now();
    }

    #[inline]
    fn park_timeout(&self, _site: SchedSite, timeout: Duration) {
        std::thread::park_timeout(timeout);
    }

    fn unpark(&self, target: TaskId) {
        let handle = {
            let threads = self.threads.lock().expect("sched poisoned");
            threads.get(target.index()).and_then(Clone::clone)
        };
        if let Some(t) = handle {
            t.unpark();
        }
    }
}

/// A cloneable, debuggable handle to the run's host scheduler, carried
/// inside [`EngineConfig`](crate::engine::EngineConfig).
///
/// Defaults to a fresh [`NativeSched`]. Construct with
/// [`SchedRef::new`] to install a virtual scheduler for conformance
/// runs.
#[derive(Clone)]
pub struct SchedRef(Arc<dyn HostSched>);

impl SchedRef {
    /// Wraps a scheduler implementation.
    pub fn new(sched: Arc<dyn HostSched>) -> Self {
        SchedRef(sched)
    }

    /// A fresh production scheduler.
    pub fn native() -> Self {
        SchedRef(Arc::new(NativeSched::new()))
    }

    /// The underlying scheduler.
    #[inline]
    pub fn get(&self) -> &Arc<dyn HostSched> {
        &self.0
    }

    /// Returns the scheduler as a hook for data-structure
    /// instrumentation, but only when it is virtual: production runs keep
    /// their queue fast paths free of even a no-op dynamic call.
    pub fn instrumentation_hook(&self) -> Option<Arc<dyn HostSched>> {
        if self.0.virtualized() {
            Some(Arc::clone(&self.0))
        } else {
            None
        }
    }
}

impl fmt::Debug for SchedRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SchedRef").field(&self.0).finish()
    }
}

impl Default for SchedRef {
    fn default() -> Self {
        SchedRef::native()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_register_assigns_dense_ids() {
        let s = NativeSched::new();
        assert_eq!(s.register("manager"), TaskId(0));
        assert_eq!(s.register("core0"), TaskId(1));
        assert!(!s.virtualized());
    }

    #[test]
    fn native_unpark_wakes_parked_thread() {
        let s = Arc::new(NativeSched::new());
        let me = s.register("main");
        let s2 = Arc::clone(&s);
        let h = std::thread::spawn(move || {
            let _worker = s2.register("worker");
            s2.unpark(me);
        });
        // Either the token arrives before the park (it returns
        // immediately) or the unpark lands during it; both terminate.
        s.park_timeout(SchedSite::CoreIdle, Duration::from_secs(5));
        h.join().expect("worker finishes");
    }

    #[test]
    fn native_unpark_of_unknown_task_is_benign() {
        let s = NativeSched::new();
        s.unpark(TaskId(99));
    }

    #[test]
    fn sched_ref_default_is_native() {
        let r = SchedRef::default();
        assert!(!r.get().virtualized());
        assert!(r.instrumentation_hook().is_none());
        assert!(format!("{r:?}").contains("SchedRef"));
    }

    #[test]
    fn task_id_display_and_index() {
        assert_eq!(TaskId(3).index(), 3);
        assert_eq!(TaskId(3).to_string(), "task3");
    }
}
