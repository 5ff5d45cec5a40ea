//! Speculative slack simulation: checkpointing, rollback accounting, and
//! the checkpoint-interval statistics behind Tables 3 and 4 of the paper.
//!
//! In speculative slack simulation (paper §5) the simulation checkpoints
//! itself every *checkpoint interval* `I` simulated cycles. When a violation
//! of a *selected* kind is detected, the whole simulation rolls back to the
//! previous checkpoint and replays in cycle-by-cycle mode until the next
//! checkpoint boundary (guaranteeing forward progress), after which the base
//! slack scheme resumes.
//!
//! The paper implements `fork()`-based process checkpoints; a multithreaded
//! Rust program cannot soundly `fork()`, so the engines take structured
//! in-memory snapshots instead (every model state is `Clone`). See
//! `DESIGN.md` §4 for why this substitution preserves the evaluated
//! behaviour.

use crate::persist::{ByteReader, ByteWriter, PersistError};
use crate::time::Cycle;
use crate::violation::ViolationKind;

/// Which violation kinds trigger a rollback.
///
/// The paper observes (§5.2) that tracking *all* violations — including the
/// frequent but individually benign bus violations — makes speculation
/// unprofitable, and suggests focusing on rare, high-impact map violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ViolationSelect {
    kinds: [bool; 5],
}

impl ViolationSelect {
    /// Selects no violation kind (checkpoint-only operation, used to
    /// measure pure checkpointing overhead as in Table 2).
    pub const fn none() -> Self {
        ViolationSelect { kinds: [false; 5] }
    }

    /// Selects every violation kind (the configuration the paper evaluates).
    pub const fn all() -> Self {
        ViolationSelect { kinds: [true; 5] }
    }

    /// Selects only the given kinds.
    pub fn only(kinds: &[ViolationKind]) -> Self {
        let mut s = ViolationSelect::none();
        for &k in kinds {
            s.set(k, true);
        }
        s
    }

    /// Enables or disables one kind.
    pub fn set(&mut self, kind: ViolationKind, selected: bool) {
        self.kinds[Self::index(kind)] = selected;
    }

    /// Returns `true` when `kind` triggers rollback.
    pub fn selects(&self, kind: ViolationKind) -> bool {
        self.kinds[Self::index(kind)]
    }

    /// Returns `true` when no kind is selected.
    pub fn is_empty(&self) -> bool {
        self.kinds.iter().all(|&b| !b)
    }

    fn index(kind: ViolationKind) -> usize {
        match kind {
            ViolationKind::Bus => 0,
            ViolationKind::Map => 1,
            ViolationKind::Directory => 2,
            ViolationKind::Workload => 3,
            ViolationKind::Other => 4,
        }
    }
}

/// Configuration of checkpointing and speculation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpeculationConfig {
    /// Checkpoint interval `I` in simulated (global) cycles.
    pub interval: u64,
    /// Violation kinds that trigger a rollback. With
    /// [`ViolationSelect::none`] the engine only takes checkpoints and
    /// measures their overhead (Table 2's 5K–100K columns).
    pub rollback_on: ViolationSelect,
    /// Upper bound on rollbacks per interval; after this many the interval
    /// is replayed in cycle-by-cycle mode regardless (defence in depth for
    /// forward progress — CC replay cannot re-violate, so 1 suffices in
    /// practice).
    pub max_rollbacks_per_interval: u32,
}

impl SpeculationConfig {
    /// Checkpoint-only configuration: snapshots every `interval` cycles,
    /// never rolls back.
    pub fn checkpoint_only(interval: u64) -> Self {
        SpeculationConfig {
            interval,
            rollback_on: ViolationSelect::none(),
            max_rollbacks_per_interval: 1,
        }
    }

    /// Full speculation: snapshots every `interval` cycles and rolls back
    /// on any selected violation.
    pub fn speculative(interval: u64, rollback_on: ViolationSelect) -> Self {
        SpeculationConfig {
            interval,
            rollback_on,
            max_rollbacks_per_interval: 1,
        }
    }
}

/// Per-checkpoint-interval violation bookkeeping, producing the paper's
/// Table 3 (fraction `F` of intervals with at least one violation) and
/// Table 4 (mean distance `Dr` from interval start to first violation).
///
/// # Examples
///
/// ```
/// use slacksim_core::speculative::IntervalTracker;
/// use slacksim_core::time::Cycle;
///
/// let mut t = IntervalTracker::new(100);
/// t.observe_violation(Cycle::new(30));   // interval [0, 100): first at 30
/// t.observe_violation(Cycle::new(60));   // same interval: ignored for Dr
/// t.close_intervals_up_to(Cycle::new(200)); // closes [0,100) and [100,200)
/// assert_eq!(t.intervals_total(), 2);
/// assert_eq!(t.intervals_violating(), 1);
/// assert!((t.fraction_violating() - 0.5).abs() < 1e-12);
/// assert!((t.mean_first_distance() - 30.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalTracker {
    interval: u64,
    /// Start of the interval currently being observed.
    current_start: Cycle,
    /// Offset of the first violation in the current interval, if any.
    current_first: Option<u64>,
    intervals_total: u64,
    intervals_violating: u64,
    sum_first_distance: u64,
}

impl IntervalTracker {
    /// Creates a tracker with the given interval length in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is 0.
    pub fn new(interval: u64) -> Self {
        assert!(interval >= 1, "checkpoint interval must be at least 1");
        IntervalTracker {
            interval,
            current_start: Cycle::ZERO,
            current_first: None,
            intervals_total: 0,
            intervals_violating: 0,
            sum_first_distance: 0,
        }
    }

    /// The configured interval length.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Records a violation stamped at simulated time `ts`.
    ///
    /// A violation stamped at or past the current interval's end (a core
    /// legally running ahead under slack) first closes every interval it
    /// has overtaken and is then attributed to the interval that actually
    /// contains `ts`. Clamping it into the current interval at distance
    /// `I - 1` — the old behaviour — inflated Table 3's `F` and biased
    /// Table 4's `Dr` toward `I`.
    ///
    /// Violations stamped before the current interval's start (stragglers
    /// from an already-closed interval) are attributed to the current
    /// interval at distance 0.
    pub fn observe_violation(&mut self, ts: Cycle) {
        if let Some(end) = self.current_end() {
            if ts >= end {
                self.close_intervals_up_to(ts);
            }
        }
        let offset = ts.saturating_sub(self.current_start).min(self.interval - 1);
        match self.current_first {
            Some(first) if first <= offset => {}
            _ => self.current_first = Some(offset),
        }
    }

    /// Closes every interval that ends at or before `global`, folding its
    /// observation into the aggregate statistics. Call whenever global time
    /// crosses a checkpoint boundary.
    pub fn close_intervals_up_to(&mut self, global: Cycle) {
        while let Some(end) = self.current_end() {
            if end > global {
                break;
            }
            self.intervals_total += 1;
            if let Some(first) = self.current_first.take() {
                self.intervals_violating += 1;
                self.sum_first_distance += first;
            }
            self.current_start = end;
        }
    }

    /// End of the current interval, or `None` when it exceeds the cycle
    /// range (the engines park unreachable checkpoints at `u64::MAX`; such
    /// an interval can never close).
    fn current_end(&self) -> Option<Cycle> {
        self.current_start
            .as_u64()
            .checked_add(self.interval)
            .map(Cycle::new)
    }

    /// Resets the *current* interval's observation without closing it
    /// (used when a rollback restarts the interval).
    pub fn reopen_current(&mut self) {
        self.current_first = None;
    }

    /// Start cycle of the interval currently being observed.
    pub fn current_start(&self) -> Cycle {
        self.current_start
    }

    /// Number of fully observed intervals.
    pub fn intervals_total(&self) -> u64 {
        self.intervals_total
    }

    /// Number of observed intervals containing at least one violation.
    pub fn intervals_violating(&self) -> u64 {
        self.intervals_violating
    }

    /// Table 3's `F`: the fraction of intervals with at least one
    /// violation. Zero when no interval has been observed.
    pub fn fraction_violating(&self) -> f64 {
        if self.intervals_total == 0 {
            0.0
        } else {
            self.intervals_violating as f64 / self.intervals_total as f64
        }
    }

    /// Table 4's `Dr`: mean distance (in simulated cycles) from the start
    /// of a violating interval to its first violation. Zero when no
    /// interval violated.
    pub fn mean_first_distance(&self) -> f64 {
        if self.intervals_violating == 0 {
            0.0
        } else {
            self.sum_first_distance as f64 / self.intervals_violating as f64
        }
    }

    /// Serializes the tracker's dynamic state (the interval length is run
    /// configuration and is not written).
    pub fn save_state(&self, w: &mut ByteWriter) {
        w.u64(self.current_start.as_u64());
        match self.current_first {
            Some(first) => {
                w.bool(true);
                w.u64(first);
            }
            None => w.bool(false),
        }
        w.u64(self.intervals_total);
        w.u64(self.intervals_violating);
        w.u64(self.sum_first_distance);
    }

    /// Restores dynamic state captured by [`save_state`](Self::save_state)
    /// into a tracker built with the same interval length.
    pub fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), PersistError> {
        self.current_start = Cycle::new(r.u64()?);
        self.current_first = if r.bool()? { Some(r.u64()?) } else { None };
        self.intervals_total = r.u64()?;
        self.intervals_violating = r.u64()?;
        self.sum_first_distance = r.u64()?;
        Ok(())
    }
}

/// Counters describing the speculation activity of a finished run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpeculationStats {
    /// Global checkpoints taken.
    pub checkpoints: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// Simulated cycles discarded by rollbacks (the paper's *rollback
    /// distance*, summed).
    pub wasted_cycles: u64,
    /// Simulated cycles replayed in cycle-by-cycle mode after rollbacks.
    pub replay_cycles: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(t: u64) -> Cycle {
        Cycle::new(t)
    }

    #[test]
    fn select_none_all_only() {
        assert!(ViolationSelect::none().is_empty());
        let all = ViolationSelect::all();
        for k in ViolationKind::ALL {
            assert!(all.selects(k));
        }
        let maps = ViolationSelect::only(&[ViolationKind::Map]);
        assert!(maps.selects(ViolationKind::Map));
        assert!(!maps.selects(ViolationKind::Bus));
        assert!(!maps.is_empty());
    }

    #[test]
    fn select_set_toggle() {
        let mut s = ViolationSelect::none();
        s.set(ViolationKind::Bus, true);
        assert!(s.selects(ViolationKind::Bus));
        s.set(ViolationKind::Bus, false);
        assert!(s.is_empty());
    }

    #[test]
    fn config_constructors() {
        let co = SpeculationConfig::checkpoint_only(50_000);
        assert_eq!(co.interval, 50_000);
        assert!(co.rollback_on.is_empty());
        let sp = SpeculationConfig::speculative(10_000, ViolationSelect::all());
        assert!(!sp.rollback_on.is_empty());
    }

    #[test]
    fn tracker_counts_intervals() {
        let mut t = IntervalTracker::new(10);
        t.close_intervals_up_to(c(35));
        assert_eq!(t.intervals_total(), 3);
        assert_eq!(t.intervals_violating(), 0);
        assert_eq!(t.current_start(), c(30));
    }

    #[test]
    fn tracker_first_violation_distance() {
        let mut t = IntervalTracker::new(100);
        t.observe_violation(c(70));
        t.observe_violation(c(20)); // earlier straggler wins
        t.close_intervals_up_to(c(100));
        assert_eq!(t.intervals_violating(), 1);
        assert!((t.mean_first_distance() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn tracker_multiple_intervals_mix() {
        let mut t = IntervalTracker::new(100);
        // interval 0: violation at 10
        t.observe_violation(c(10));
        t.close_intervals_up_to(c(100));
        // interval 1: clean
        t.close_intervals_up_to(c(200));
        // interval 2: violation at 250 (offset 50)
        t.observe_violation(c(250));
        t.close_intervals_up_to(c(300));
        assert_eq!(t.intervals_total(), 3);
        assert_eq!(t.intervals_violating(), 2);
        assert!((t.fraction_violating() - 2.0 / 3.0).abs() < 1e-12);
        assert!((t.mean_first_distance() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn tracker_clamps_straggler_before_interval() {
        let mut t = IntervalTracker::new(100);
        t.close_intervals_up_to(c(100)); // current interval now [100, 200)
        t.observe_violation(c(40)); // stamped before interval start
        t.close_intervals_up_to(c(200));
        assert_eq!(t.intervals_violating(), 1);
        assert_eq!(t.mean_first_distance(), 0.0);
    }

    #[test]
    fn tracker_attributes_ahead_violation_to_its_own_interval() {
        let mut t = IntervalTracker::new(100);
        // A violation stamped past the boundary (core ran ahead under
        // slack) closes the overtaken interval *clean* and lands in the
        // interval that contains it, at its true offset.
        t.observe_violation(c(170));
        assert_eq!(t.intervals_total(), 1, "[0,100) closed by the overtake");
        assert_eq!(t.intervals_violating(), 0, "[0,100) saw no violation");
        assert_eq!(t.current_start(), c(100));
        t.close_intervals_up_to(c(200));
        assert_eq!(t.intervals_total(), 2);
        assert_eq!(t.intervals_violating(), 1);
        assert!((t.mean_first_distance() - 70.0).abs() < 1e-12);
    }

    #[test]
    fn tracker_cross_boundary_regression() {
        let mut t = IntervalTracker::new(100);
        // [0,100): genuine violation at 30.
        t.observe_violation(c(30));
        // Stamped two intervals ahead: closes [0,100) (violating at 30)
        // and [100,200) (clean), then lands in [200,300) at offset 50.
        t.observe_violation(c(250));
        assert_eq!(t.intervals_total(), 2);
        assert_eq!(t.intervals_violating(), 1);
        t.close_intervals_up_to(c(300));
        assert_eq!(t.intervals_total(), 3);
        assert_eq!(t.intervals_violating(), 2);
        assert!((t.mean_first_distance() - 40.0).abs() < 1e-12, "(30+50)/2");
        // Exactly on a boundary: belongs to the *next* interval at
        // distance 0, not to the closing one at distance I-1.
        t.observe_violation(c(400));
        assert_eq!(t.intervals_total(), 4, "[300,400) closed clean");
        t.close_intervals_up_to(c(500));
        assert_eq!(t.intervals_violating(), 3);
        assert!((t.mean_first_distance() - 80.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn tracker_reopen_clears_observation() {
        let mut t = IntervalTracker::new(100);
        t.observe_violation(c(10));
        t.reopen_current();
        t.close_intervals_up_to(c(100));
        assert_eq!(t.intervals_violating(), 0);
    }

    #[test]
    fn tracker_empty_statistics() {
        let t = IntervalTracker::new(10);
        assert_eq!(t.fraction_violating(), 0.0);
        assert_eq!(t.mean_first_distance(), 0.0);
    }

    #[test]
    #[should_panic(expected = "checkpoint interval must be at least 1")]
    fn tracker_rejects_zero_interval() {
        let _ = IntervalTracker::new(0);
    }
}
