//! Detection and accounting of simulation violations.
//!
//! A *simulation violation* (paper §3) occurs when a resource is accessed by
//! two cores in a different order in the simulation than in the target
//! system. Detection attaches a *monitoring variable* to each tracked
//! resource: the monitor records the largest timestamp of any operation seen
//! so far, and an incoming operation with a **smaller** timestamp is a
//! violation (equal timestamps are resolved by the deterministic same-cycle
//! arbitration priority and are *not* violations).
//!
//! The paper distinguishes three violation classes:
//!
//! * **simulation state** violations — internal simulator bookkeeping (here:
//!   the bus grant order, [`ViolationKind::Bus`]);
//! * **simulated system state** violations — target storage structures
//!   (here: the global cache status map, [`ViolationKind::Map`]);
//! * **simulated workload state** violations — racy target memory values;
//!   these cannot occur in SlackSim because workload synchronisation is
//!   executed reliably inside the simulator, but the kind is kept for
//!   completeness ([`ViolationKind::Workload`]).

use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::time::Cycle;

/// The class of resource on which a violation was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ViolationKind {
    /// Bus granted out of timestamp order (simulation state violation).
    Bus,
    /// Cache-status-map entry transitioned out of timestamp order
    /// (simulated system state violation).
    Map,
    /// Directory bank serviced a request out of timestamp order (the
    /// sharded-uncore analogue of [`ViolationKind::Bus`]: each bank is an
    /// independently monitored shared resource).
    Directory,
    /// Target memory values crossed out of order (simulated workload state
    /// violation) — cannot occur with simulator-executed synchronisation.
    Workload,
    /// Any other model-defined monitored resource.
    Other,
}

impl ViolationKind {
    /// All violation kinds, in counter-index order.
    pub const ALL: [ViolationKind; 5] = [
        ViolationKind::Bus,
        ViolationKind::Map,
        ViolationKind::Directory,
        ViolationKind::Workload,
        ViolationKind::Other,
    ];

    #[inline]
    const fn index(self) -> usize {
        match self {
            ViolationKind::Bus => 0,
            ViolationKind::Map => 1,
            ViolationKind::Directory => 2,
            ViolationKind::Workload => 3,
            ViolationKind::Other => 4,
        }
    }
}

/// A single detected violation: what kind, at which simulated time the
/// out-of-order operation was stamped, and how far ahead the resource's
/// monitoring variable already was.
///
/// `high_water - ts` is the *violation distance* — how many cycles too late
/// the straggler arrived. Observability consumers (the trace recorder, the
/// metrics registry) use it to characterise how badly ordering was broken,
/// not just how often.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViolationEvent {
    /// Resource class on which the reordering was detected.
    pub kind: ViolationKind,
    /// Timestamp of the late (out-of-order) operation.
    pub ts: Cycle,
    /// The monitoring variable's largest previously observed timestamp at
    /// detection time (always `> ts` for a real violation).
    pub high_water: Cycle,
}

impl ViolationEvent {
    /// How many cycles too late the out-of-order operation arrived.
    pub fn distance(&self) -> u64 {
        self.high_water.as_u64().saturating_sub(self.ts.as_u64())
    }
}

/// Monitoring variable for a single shared resource.
///
/// # Examples
///
/// ```
/// use slacksim_core::time::Cycle;
/// use slacksim_core::violation::TimestampMonitor;
///
/// let mut bus = TimestampMonitor::new();
/// assert!(!bus.observe(Cycle::new(10))); // in order
/// assert!(!bus.observe(Cycle::new(10))); // equal: same-cycle arbitration
/// assert!(bus.observe(Cycle::new(7)));   // straggler: violation
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimestampMonitor {
    max_ts: Cycle,
}

impl TimestampMonitor {
    /// Creates a monitor that has seen no operations yet.
    pub const fn new() -> Self {
        TimestampMonitor {
            max_ts: Cycle::ZERO,
        }
    }

    /// Creates a monitor whose high-water mark is already `high_water`
    /// (checkpoint restore).
    pub const fn with_high_water(high_water: Cycle) -> Self {
        TimestampMonitor { max_ts: high_water }
    }

    /// Records an operation with timestamp `ts`; returns `true` iff the
    /// operation is a violation (strictly smaller than the running maximum).
    #[inline]
    pub fn observe(&mut self, ts: Cycle) -> bool {
        if ts < self.max_ts {
            true
        } else {
            self.max_ts = ts;
            false
        }
    }

    /// The largest timestamp observed so far.
    #[inline]
    pub fn high_water(&self) -> Cycle {
        self.max_ts
    }

    /// Forgets all observed operations (used on rollback).
    pub fn reset(&mut self) {
        self.max_ts = Cycle::ZERO;
    }
}

/// Per-kind violation counters for a single-threaded context.
///
/// The *violation rate* (violations per simulated cycle) over any window can
/// be formed by dividing a count delta by a cycle delta; the adaptive
/// controller does exactly this.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ViolationTally {
    counts: [u64; 5],
}

impl ViolationTally {
    /// Creates a zeroed tally.
    pub const fn new() -> Self {
        ViolationTally { counts: [0; 5] }
    }

    /// Records one violation of `kind`.
    #[inline]
    pub fn record(&mut self, kind: ViolationKind) {
        self.counts[kind.index()] += 1;
    }

    /// Returns the count for one kind.
    #[inline]
    pub fn count(&self, kind: ViolationKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Returns the count summed over all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Violations per simulated cycle for one kind.
    ///
    /// Returns 0 when `cycles` is 0.
    pub fn rate(&self, kind: ViolationKind, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.count(kind) as f64 / cycles as f64
        }
    }

    /// Total violations per simulated cycle.
    pub fn total_rate(&self, cycles: u64) -> f64 {
        if cycles == 0 {
            0.0
        } else {
            self.total() as f64 / cycles as f64
        }
    }

    /// Adds another tally into this one.
    pub fn merge(&mut self, other: &ViolationTally) {
        for i in 0..self.counts.len() {
            self.counts[i] += other.counts[i];
        }
    }

    /// Component-wise difference `self - earlier` (saturating).
    #[must_use]
    pub fn since(&self, earlier: &ViolationTally) -> ViolationTally {
        let mut out = ViolationTally::new();
        for i in 0..self.counts.len() {
            out.counts[i] = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        out
    }

    /// Raw per-kind counts in [`ViolationKind::ALL`] order (persistence).
    pub fn counts(&self) -> [u64; 5] {
        self.counts
    }

    /// Rebuilds a tally from raw per-kind counts (persistence).
    pub const fn from_counts(counts: [u64; 5]) -> Self {
        ViolationTally { counts }
    }
}

/// Thread-safe violation counters shared between the manager thread and
/// observers (progress reporting, the adaptive controller).
#[derive(Debug, Default)]
pub struct SharedViolationTally {
    counts: [AtomicU64; 5],
}

impl SharedViolationTally {
    /// Creates a zeroed shared tally.
    pub fn new() -> Self {
        SharedViolationTally::default()
    }

    /// Records one violation of `kind`.
    #[inline]
    pub fn record(&self, kind: ViolationKind) {
        self.counts[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Returns the current count for one kind.
    #[inline]
    pub fn count(&self, kind: ViolationKind) -> u64 {
        self.counts[kind.index()].load(Ordering::Relaxed)
    }

    /// Takes a consistent-enough snapshot of all counters.
    pub fn snapshot(&self) -> ViolationTally {
        let mut t = ViolationTally::new();
        for kind in ViolationKind::ALL {
            t.counts[kind.index()] = self.count(kind);
        }
        t
    }

    /// Resets all counters to zero (used on rollback).
    pub fn reset(&self) {
        for c in &self.counts {
            c.store(0, Ordering::Relaxed);
        }
    }

    /// Overwrites the counters with `tally` (used when restoring a
    /// checkpoint).
    pub fn restore(&self, tally: &ViolationTally) {
        for kind in ViolationKind::ALL {
            self.counts[kind.index()].store(tally.count(kind), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(t: u64) -> Cycle {
        Cycle::new(t)
    }

    #[test]
    fn monitor_flags_only_strict_regressions() {
        let mut m = TimestampMonitor::new();
        assert!(!m.observe(c(5)));
        assert!(!m.observe(c(5)));
        assert!(!m.observe(c(6)));
        assert!(m.observe(c(5)));
        // A violating observation does not move the high-water mark.
        assert_eq!(m.high_water(), c(6));
    }

    #[test]
    fn monitor_reset() {
        let mut m = TimestampMonitor::new();
        m.observe(c(100));
        m.reset();
        assert!(!m.observe(c(1)));
    }

    #[test]
    fn tally_counts_and_rates() {
        let mut t = ViolationTally::new();
        t.record(ViolationKind::Bus);
        t.record(ViolationKind::Bus);
        t.record(ViolationKind::Map);
        assert_eq!(t.count(ViolationKind::Bus), 2);
        assert_eq!(t.count(ViolationKind::Map), 1);
        assert_eq!(t.count(ViolationKind::Workload), 0);
        assert_eq!(t.total(), 3);
        assert!((t.rate(ViolationKind::Bus, 1000) - 0.002).abs() < 1e-12);
        assert!((t.total_rate(1000) - 0.003).abs() < 1e-12);
        assert_eq!(t.total_rate(0), 0.0);
    }

    #[test]
    fn tally_merge_and_since() {
        let mut a = ViolationTally::new();
        a.record(ViolationKind::Bus);
        let mut b = a;
        b.record(ViolationKind::Bus);
        b.record(ViolationKind::Map);
        let d = b.since(&a);
        assert_eq!(d.count(ViolationKind::Bus), 1);
        assert_eq!(d.count(ViolationKind::Map), 1);
        a.merge(&d);
        assert_eq!(a, b);
    }

    #[test]
    fn shared_tally_roundtrip() {
        let s = SharedViolationTally::new();
        s.record(ViolationKind::Map);
        s.record(ViolationKind::Bus);
        s.record(ViolationKind::Bus);
        let snap = s.snapshot();
        assert_eq!(snap.count(ViolationKind::Bus), 2);
        assert_eq!(snap.count(ViolationKind::Map), 1);
        s.reset();
        assert_eq!(s.snapshot().total(), 0);
        s.restore(&snap);
        assert_eq!(s.snapshot(), snap);
    }

    #[test]
    fn shared_tally_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedViolationTally>();
    }
}
