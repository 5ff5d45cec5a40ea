//! Host-scheduling abstraction for the campaign runner's worker pool.
//!
//! The pool's job hand-out normally runs on the real host scheduler,
//! which never replays the same interleaving twice. That makes schedule
//! bugs (a job run twice, a worker starved) rare and unreproducible.
//!
//! [`HostSched`] pulls every scheduling decision of the pool behind one
//! small trait so a test harness can substitute a deterministic
//! scheduler:
//!
//! * [`NativeSched`] (the default, used by all production runs) does
//!   nothing: the host decides.
//! * A *virtual* scheduler (see the `slacksim-conformance` crate)
//!   serialises all pool threads onto a cooperative token and decides at
//!   every [`HostSched::point`] which thread runs next from a seeded
//!   policy.
//!
//! The pool logic itself is *not* abstracted: it runs the identical code
//! under both schedulers. (The simulation engines do not schedule through
//! it: their one host-parallel driver gives the same result under every
//! interleaving.)

use std::fmt;
use std::sync::Arc;

/// Labelled scheduling points. A virtual scheduler may preempt the
/// running task at any of these; the native scheduler ignores them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SchedSite {
    /// Mutex-backed shared-queue operation (the campaign pool's job deques).
    QueueOp,
}

/// The host-scheduling interface the campaign pool schedules through.
///
/// One instance is shared by every thread of one pool run. Every pool
/// thread calls [`register`](HostSched::register) exactly once before any
/// other method and [`unregister`](HostSched::unregister) once when it is
/// done scheduling (it may keep running natively afterwards, e.g. thread
/// teardown).
pub trait HostSched: Send + Sync + fmt::Debug {
    /// Registers the calling thread as a schedulable task. `name` is a
    /// stable role label (`"manager"`, `"core0"`, …): virtual schedulers
    /// key task identity on it so ids do not depend on thread start-up
    /// races.
    fn register(&self, name: &str);

    /// Unregisters the calling thread (its task never runs again).
    fn unregister(&self);

    /// A potential preemption point.
    fn point(&self, site: SchedSite);
}

/// The production scheduler: every method is a no-op, the host decides.
#[derive(Debug, Default)]
pub struct NativeSched;

impl HostSched for NativeSched {
    fn register(&self, _name: &str) {}

    fn unregister(&self) {}

    #[inline]
    fn point(&self, _site: SchedSite) {}
}

/// A cloneable, debuggable handle to a host scheduler, carried by the
/// campaign runner's options.
///
/// Defaults to [`NativeSched`]. Construct with [`SchedRef::new`] to
/// install a virtual scheduler for conformance runs.
#[derive(Clone)]
pub struct SchedRef(Arc<dyn HostSched>);

impl SchedRef {
    /// Wraps a scheduler implementation.
    pub fn new(sched: Arc<dyn HostSched>) -> Self {
        SchedRef(sched)
    }

    /// The production scheduler.
    pub fn native() -> Self {
        SchedRef(Arc::new(NativeSched))
    }

    /// The underlying scheduler.
    #[inline]
    pub fn get(&self) -> &Arc<dyn HostSched> {
        &self.0
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
    fn sched_ref_default_is_native() {
        let r = SchedRef::default();
        r.get().register("manager");
        r.get().point(SchedSite::QueueOp);
        r.get().unregister();
        assert!(format!("{r:?}").contains("NativeSched"));
    }
}
