//! The global cache-status map maintained by the simulation manager.
//!
//! The manager tracks, per line, which cores hold copies and which (if
//! any) owns the line in M/E — a duplicate-tag view of all L1s that the
//! snooping protocol consults to source data and direct invalidations.
//! Every transition carries the requesting event's timestamp through a
//! per-entry monitoring variable: a transition stamped earlier than one
//! already applied to the same entry is a **map violation** (a simulated
//! system state violation, paper §3).
//!
//! Because E lines may silently become M inside an L1, the map treats the
//! M/E owner conservatively as a potential data supplier.

use slacksim_core::checkpoint::Checkpointable;
use slacksim_core::event::CoreId;
use slacksim_core::persist::PersistError;
use slacksim_core::time::Cycle;

use crate::cache::LineAddr;
use crate::lines::{LineDelta, LineEntry, LineTable};
use crate::mesi::{BusOp, MesiState};

/// Global residence state of one line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct MapEntry {
    /// Bitmask of cores holding the line (any state).
    sharers: u16,
    /// Core holding the line in M or E, if any.
    owner: Option<CoreId>,
}

slacksim_core::persist_fields! { MapEntry { sharers, owner } }

impl MapEntry {
    fn has(&self, core: CoreId) -> bool {
        self.sharers & (1 << core.index()) != 0
    }

    fn add(&mut self, core: CoreId) {
        self.sharers |= 1 << core.index();
    }

    fn remove(&mut self, core: CoreId) {
        self.sharers &= !(1 << core.index());
        if self.owner == Some(core) {
            self.owner = None;
        }
    }

    fn others(&self, core: CoreId) -> u16 {
        self.sharers & !(1 << core.index())
    }
}

impl LineEntry for MapEntry {
    fn is_vacant(&self) -> bool {
        self.sharers == 0
    }
}

/// Outcome of one map transition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapOutcome {
    /// The transition arrived out of timestamp order for this entry.
    pub violation: bool,
    /// The entry monitor's largest previously observed timestamp at the
    /// time of this transition (feeds violation-distance observability).
    pub high_water: Cycle,
    /// Remote core that supplies the data from its M/E copy, if any.
    pub data_from_owner: Option<CoreId>,
    /// State granted to the requester's L1.
    pub grant: MesiState,
    /// Remote copies to invalidate.
    pub invalidate: Vec<CoreId>,
    /// Remote copies to downgrade to S.
    pub downgrade: Vec<CoreId>,
}

/// The manager's cache status map with per-entry violation monitors.
///
/// # Examples
///
/// ```
/// use slacksim_cmp::cache::LineAddr;
/// use slacksim_cmp::map::CacheMap;
/// use slacksim_cmp::mesi::{BusOp, MesiState};
/// use slacksim_core::event::CoreId;
/// use slacksim_core::time::Cycle;
///
/// let mut map = CacheMap::new(8);
/// let line = LineAddr::new(0x40);
/// let first = map.transition(BusOp::Rd, line, CoreId::new(0), Cycle::new(10));
/// assert_eq!(first.grant, MesiState::Exclusive); // sole copy
/// let second = map.transition(BusOp::Rd, line, CoreId::new(1), Cycle::new(20));
/// assert_eq!(second.grant, MesiState::Shared);
/// assert_eq!(second.downgrade, vec![CoreId::new(0)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheMap {
    lines: LineTable<MapEntry>,
    n_cores: usize,
    stats: MapStats,
}

/// Transition counters: the map's untracked scalars, carried whole by
/// every delta.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct MapStats {
    transitions: u64,
    violations: u64,
}

slacksim_core::persist_fields! { MapStats { transitions, violations } }

// The core count is configuration: it validates the entries.
slacksim_core::persist_walk! { CacheMap, |m| m.lines, m.stats; cores m.n_cores; then m.check_cores() }

/// Incremental state carrier for the [`CacheMap`]: the dirty lines since
/// the capture baseline plus the transition counters.
#[derive(Debug, Clone)]
pub struct CacheMapDelta {
    lines: LineDelta<MapEntry>,
    stats: MapStats,
}

impl CacheMapDelta {
    /// Number of lines dirty since the capture baseline.
    pub fn dirty_lines(&self) -> usize {
        self.lines.len()
    }
}

impl CacheMap {
    /// Creates a map for `n_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is 0 or exceeds 16.
    pub fn new(n_cores: usize) -> Self {
        assert!(
            (1..=16).contains(&n_cores),
            "core count must be between 1 and 16"
        );
        CacheMap {
            n_cores,
            ..CacheMap::default()
        }
    }

    /// Applies one bus transaction to the map and returns the protocol
    /// outcome (grant state, snoop targets, data source) along with the
    /// violation verdict of this entry's monitoring variable.
    pub fn transition(&mut self, op: BusOp, line: LineAddr, from: CoreId, ts: Cycle) -> MapOutcome {
        debug_assert!(from.index() < self.n_cores, "unknown core {from}");
        self.stats.transitions += 1;
        let n_cores = self.n_cores;
        let (violation, high_water, (grant, data_from_owner, invalidate, downgrade)) =
            self.lines.access(line, ts, |entry| {
                let mut invalidate = Vec::new();
                let mut downgrade = Vec::new();
                let mut data_from_owner = None;
                let grant = match op {
                    BusOp::Rd => {
                        if let Some(owner) = entry.owner {
                            if owner != from {
                                // Possible dirty remote copy: owner supplies and
                                // downgrades (E owners downgrade silently; the
                                // conservative flush costs nothing extra in a
                                // timing-only model).
                                data_from_owner = Some(owner);
                                downgrade.push(owner);
                                entry.owner = None;
                            }
                        }
                        let other = entry.others(from) != 0;
                        entry.add(from);
                        if other {
                            MesiState::Shared
                        } else {
                            entry.owner = Some(from);
                            MesiState::Exclusive
                        }
                    }
                    BusOp::RdX | BusOp::Upgr => {
                        if let Some(owner) = entry.owner {
                            if owner != from {
                                data_from_owner = Some(owner);
                            }
                        }
                        for c in CoreId::all(n_cores) {
                            if c != from && entry.has(c) {
                                invalidate.push(c);
                            }
                        }
                        entry.sharers = 1 << from.index();
                        entry.owner = Some(from);
                        MesiState::Modified
                    }
                    BusOp::Wb => {
                        entry.remove(from);
                        MesiState::Invalid
                    }
                };
                (grant, data_from_owner, invalidate, downgrade)
            });
        if violation {
            self.stats.violations += 1;
        }
        MapOutcome {
            violation,
            high_water,
            data_from_owner,
            grant,
            invalidate,
            downgrade,
        }
    }

    /// Number of lines currently tracked.
    pub fn tracked_lines(&self) -> usize {
        self.lines.entry_count()
    }

    /// Total transitions applied.
    pub fn transitions(&self) -> u64 {
        self.stats.transitions
    }

    /// Total map violations detected.
    pub fn violations(&self) -> u64 {
        self.stats.violations
    }

    /// Returns the set of cores currently holding `line` (testing aid).
    pub fn sharers(&self, line: LineAddr) -> Vec<CoreId> {
        match self.lines.get(line) {
            Some(e) => CoreId::all(self.n_cores).filter(|&c| e.has(c)).collect(),
            None => Vec::new(),
        }
    }

    /// Number of per-line violation monitors currently tracked.
    pub fn monitor_entries(&self) -> usize {
        self.lines.monitor_count()
    }

    /// Drops per-line monitors whose high-water mark is at or below
    /// `horizon`, returning how many were reclaimed.
    ///
    /// Safe at a committed checkpoint with `horizon` = the checkpoint's
    /// global time: every event at or below the horizon has been serviced
    /// and all future (or replayed) events carry timestamps above it, so
    /// a monitor at the horizon can never flag a violation again. Each
    /// removed line is stamped dirty so delta checkpoints record the
    /// removal and stay bit-identical to full clones.
    pub fn compact_monitor(&mut self, horizon: Cycle) -> usize {
        self.lines.compact(horizon)
    }

    /// Refuses loaded sharer masks naming a core outside this map's count.
    fn check_cores(&self) -> Result<(), PersistError> {
        let foreign = |e: &MapEntry| u32::from(e.sharers) >> self.n_cores != 0;
        if self.lines.entries().any(foreign) {
            return Err(PersistError::Corrupt("map entry references unknown core"));
        }
        Ok(())
    }
}

impl Checkpointable for CacheMap {
    type Delta = CacheMapDelta;

    fn generation(&self) -> u64 {
        self.lines.generation()
    }

    fn capture_delta(&mut self, since_gen: u64) -> CacheMapDelta {
        CacheMapDelta {
            lines: self.lines.capture_delta(since_gen),
            stats: self.stats,
        }
    }

    fn apply_delta(&mut self, delta: CacheMapDelta) {
        self.lines.apply_delta(delta.lines);
        self.stats = delta.stats;
    }

    fn restore_from(&mut self, base: &Self, since_gen: u64) {
        self.lines.restore_from(&base.lines, since_gen);
        self.stats = base.stats;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slacksim_core::persist::{ByteReader, ByteWriter};

    fn c(i: u16) -> CoreId {
        CoreId::new(i)
    }

    fn ts(t: u64) -> Cycle {
        Cycle::new(t)
    }

    const LINE: LineAddr = LineAddr::new(0x99);

    #[test]
    fn first_read_grants_exclusive() {
        let mut m = CacheMap::new(4);
        let out = m.transition(BusOp::Rd, LINE, c(0), ts(1));
        assert_eq!(out.grant, MesiState::Exclusive);
        assert!(out.invalidate.is_empty() && out.downgrade.is_empty());
        assert_eq!(out.data_from_owner, None);
        assert_eq!(m.sharers(LINE), vec![c(0)]);
    }

    #[test]
    fn second_read_downgrades_owner_and_shares() {
        let mut m = CacheMap::new(4);
        m.transition(BusOp::Rd, LINE, c(0), ts(1));
        let out = m.transition(BusOp::Rd, LINE, c(1), ts(2));
        assert_eq!(out.grant, MesiState::Shared);
        assert_eq!(out.downgrade, vec![c(0)]);
        assert_eq!(out.data_from_owner, Some(c(0)));
        assert_eq!(m.sharers(LINE), vec![c(0), c(1)]);
    }

    #[test]
    fn rdx_invalidates_all_others() {
        let mut m = CacheMap::new(4);
        m.transition(BusOp::Rd, LINE, c(0), ts(1));
        m.transition(BusOp::Rd, LINE, c(1), ts(2));
        m.transition(BusOp::Rd, LINE, c(2), ts(3));
        let out = m.transition(BusOp::RdX, LINE, c(3), ts(4));
        assert_eq!(out.grant, MesiState::Modified);
        assert_eq!(out.invalidate, vec![c(0), c(1), c(2)]);
        assert_eq!(m.sharers(LINE), vec![c(3)]);
    }

    #[test]
    fn upgr_from_sharer_invalidates_peers_without_data() {
        let mut m = CacheMap::new(4);
        m.transition(BusOp::Rd, LINE, c(0), ts(1));
        m.transition(BusOp::Rd, LINE, c(1), ts(2));
        let out = m.transition(BusOp::Upgr, LINE, c(0), ts(3));
        assert_eq!(out.grant, MesiState::Modified);
        assert_eq!(out.invalidate, vec![c(1)]);
        assert_eq!(out.data_from_owner, None, "upgrade moves no data");
        assert_eq!(m.sharers(LINE), vec![c(0)]);
    }

    #[test]
    fn rdx_from_modified_owner_sources_data_from_owner() {
        let mut m = CacheMap::new(4);
        m.transition(BusOp::RdX, LINE, c(2), ts(1));
        let out = m.transition(BusOp::RdX, LINE, c(0), ts(2));
        assert_eq!(out.data_from_owner, Some(c(2)));
        assert_eq!(out.invalidate, vec![c(2)]);
    }

    #[test]
    fn writeback_removes_the_owner() {
        let mut m = CacheMap::new(4);
        m.transition(BusOp::RdX, LINE, c(1), ts(1));
        let out = m.transition(BusOp::Wb, LINE, c(1), ts(5));
        assert_eq!(out.grant, MesiState::Invalid);
        assert!(m.sharers(LINE).is_empty());
        assert_eq!(m.tracked_lines(), 0, "empty entries are reclaimed");
    }

    #[test]
    fn per_line_monitors_flag_out_of_order_transitions() {
        let mut m = CacheMap::new(4);
        assert!(!m.transition(BusOp::Rd, LINE, c(0), ts(10)).violation);
        // Different line, earlier timestamp: fine.
        assert!(
            !m.transition(BusOp::Rd, LineAddr::new(0x500), c(1), ts(5))
                .violation
        );
        // Same line, earlier timestamp: map violation.
        assert!(m.transition(BusOp::Rd, LINE, c(1), ts(7)).violation);
        assert_eq!(m.violations(), 1);
        assert_eq!(m.transitions(), 3);
    }

    #[test]
    fn repeat_read_by_owner_keeps_exclusivity() {
        let mut m = CacheMap::new(4);
        m.transition(BusOp::Rd, LINE, c(0), ts(1));
        let out = m.transition(BusOp::Rd, LINE, c(0), ts(2));
        assert_eq!(out.grant, MesiState::Exclusive);
        assert!(out.downgrade.is_empty());
    }

    #[test]
    #[should_panic(expected = "between 1 and 16")]
    fn too_many_cores_rejected() {
        let _ = CacheMap::new(32);
    }

    #[test]
    fn delta_roundtrip_covers_insert_update_and_reclaim() {
        let mut live = CacheMap::new(4);
        live.transition(BusOp::Rd, LINE, c(0), ts(1));
        let mut base = live.clone();
        let gen = live.generation();

        live.transition(BusOp::RdX, LINE, c(1), ts(2)); // update
        live.transition(BusOp::Rd, LineAddr::new(0x500), c(2), ts(3)); // insert
        live.transition(BusOp::Wb, LINE, c(1), ts(4)); // reclaim LINE
        assert_eq!(live.tracked_lines(), 1);

        let delta = live.capture_delta(gen);
        assert_eq!(delta.dirty_lines(), 2, "LINE and 0x500");
        base.apply_delta(delta);
        assert_eq!(base, live, "apply reproduces insert, update and reclaim");
    }

    #[test]
    fn restore_rewinds_entries_monitors_and_counters() {
        let mut live = CacheMap::new(4);
        live.transition(BusOp::Rd, LINE, c(0), ts(10));
        let cp = live.clone();
        let cp_gen = live.generation();

        live.transition(BusOp::Wb, LINE, c(0), ts(20)); // reclaim
        live.transition(BusOp::Rd, LineAddr::new(0x77), c(1), ts(5));
        live.transition(BusOp::Rd, LineAddr::new(0x77), c(2), ts(3)); // violation
        assert_eq!(live.violations(), 1);

        live.restore_from(&cp, cp_gen);
        assert_eq!(live, cp, "restore rewinds to the checkpoint");
        assert_eq!(live.violations(), 0);
        // The reclaimed entry is back and its monitor remembers ts(10):
        // an earlier transition violates again after the restore.
        assert!(live.transition(BusOp::Rd, LINE, c(1), ts(7)).violation);
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        let mut live = CacheMap::new(4);
        live.transition(BusOp::Rd, LINE, c(0), ts(10));
        live.transition(BusOp::RdX, LINE, c(1), ts(20));
        live.transition(BusOp::Rd, LineAddr::new(0x500), c(2), ts(15));
        live.transition(BusOp::Wb, LINE, c(1), ts(30)); // reclaimed entry, monitor kept
        live.transition(BusOp::Rd, LineAddr::new(0x77), c(3), ts(5));

        let mut w = ByteWriter::new();
        live.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = CacheMap::new(4);
        let mut r = ByteReader::new(&bytes);
        restored.load_state(&mut r).expect("load succeeds");
        r.finish().expect("no trailing bytes");
        assert_eq!(restored, live);
        assert_eq!(restored.monitor_entries(), live.monitor_entries());
        // A reclaimed line's monitor must survive: an earlier transition
        // still violates after the round trip.
        assert!(restored.transition(BusOp::Rd, LINE, c(0), ts(25)).violation);

        // Sharer bits beyond this map's core count are rejected.
        let mut tiny = CacheMap::new(1);
        assert!(tiny.load_state(&mut ByteReader::new(&bytes)).is_err());
    }

    #[test]
    fn compaction_drops_settled_monitors_and_survives_deltas() {
        let mut live = CacheMap::new(4);
        live.transition(BusOp::Rd, LINE, c(0), ts(10));
        live.transition(BusOp::Rd, LineAddr::new(0x500), c(1), ts(50));
        let mut base = live.clone();
        let gen = live.generation();

        assert_eq!(live.monitor_entries(), 2);
        assert_eq!(live.compact_monitor(ts(10)), 1, "only LINE settled");
        assert_eq!(live.monitor_entries(), 1);
        // The removal must travel through the delta so snapshots stay
        // bit-identical with the live map.
        base.apply_delta(live.capture_delta(gen));
        assert_eq!(base, live);
        assert_eq!(base.monitor_entries(), 1);
        // An old-timestamp transition on the compacted line no longer
        // violates: its monitor was retired as settled.
        assert!(!live.transition(BusOp::Rd, LINE, c(2), ts(3)).violation);
    }

    #[test]
    fn equality_ignores_tracking_metadata() {
        let mut a = CacheMap::new(4);
        let mut b = CacheMap::new(4);
        a.transition(BusOp::Rd, LINE, c(0), ts(1));
        b.transition(BusOp::Rd, LINE, c(0), ts(1));
        let cp_gen = b.generation();
        let cp = b.clone();
        b.transition(BusOp::Rd, LINE, c(1), ts(2));
        b.restore_from(&cp, cp_gen);
        assert!(b.generation() > a.generation());
        assert_eq!(a, b, "generations are not part of model state");
    }
}
