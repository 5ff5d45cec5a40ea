//! The sharded directory-MESI uncore interconnect.
//!
//! Where the snooping path funnels every coherence action through one bus
//! with one monitoring variable, the directory shards the line space over
//! N address-interleaved **banks** (N = a power of two scaled from the
//! core count). Each bank is an independent simulation resource with:
//!
//! - its own slot-reservation port (occupancy = the directory lookup
//!   latency) — the contended resource replacing the request bus,
//! - its own bank-order [`TimestampMonitor`] — the source of
//!   *directory violations*
//!   ([`ViolationKind::Directory`](slacksim_core::violation::ViolationKind::Directory)):
//!   a request serviced out of timestamp order **at that bank**. Sharding the
//!   monitor is what makes slack violations per-resource: two cores
//!   hammering different banks never conflict, exactly as on the target,
//! - a line table (`lines::LineTable`) holding, per line, the MESI entry,
//!   the line monitor feeding the existing map-violation class, and the
//!   dirty stamp that lets delta checkpoints carry only the touched lines
//!   of the touched banks — one slot, so an access costs one hash probe.
//!
//! Sharer sets use [`SharerSet`] instead of the snooping map's `u16`
//! bitmask, lifting the core cap to [`MAX_DIRECTORY_CORES`].

use slacksim_core::checkpoint::{Baseline, Checkpointable};
use slacksim_core::event::CoreId;
use slacksim_core::persist::{ByteReader, ByteWriter, PersistError};
use slacksim_core::time::Cycle;
use slacksim_core::violation::TimestampMonitor;

use crate::bus::SlotCalendar;
use crate::cache::LineAddr;
use crate::lines::{LineDelta, LineEntry, LineTable};
use crate::mesi::{BusOp, MesiState};
use crate::sharers::SharerSet;

/// Core-count ceiling of the directory uncore.
pub const MAX_DIRECTORY_CORES: usize = 1024;

/// Bank-count ceiling; past this, extra banks stop buying parallelism in
/// the simulated timing while growing every snapshot.
const MAX_BANKS: usize = 64;

/// Number of address-interleaved banks for a given core count: one bank
/// per four cores, rounded up to a power of two (interleaving needs a
/// mask), clamped to `1..=MAX_BANKS` (64).
pub fn bank_count(n_cores: usize) -> usize {
    (n_cores / 4).next_power_of_two().clamp(1, MAX_BANKS)
}

/// Directory residence state of one line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct DirEntry {
    /// Cores holding the line (any state).
    sharers: SharerSet,
    /// Core holding the line in M or E, if any.
    owner: Option<CoreId>,
}

slacksim_core::persist_fields! { DirEntry { sharers, owner } }

impl LineEntry for DirEntry {
    fn is_vacant(&self) -> bool {
        self.sharers.is_empty()
    }
}

/// Outcome of one directory access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirAccess {
    /// Cycle at which the request owns the bank port (slot start; the
    /// lookup completes one port occupancy later).
    pub grant: Cycle,
    /// Whether the request had to wait for the bank port.
    pub conflict: bool,
    /// The request arrived out of timestamp order at this bank
    /// ([`ViolationKind::Directory`](slacksim_core::violation::ViolationKind::Directory)).
    pub order_violation: bool,
    /// The bank-order monitor's largest previously observed timestamp.
    pub order_high_water: Cycle,
    /// The request arrived out of timestamp order for this *line*
    /// (the existing map-violation class).
    pub line_violation: bool,
    /// The line monitor's largest previously observed timestamp.
    pub line_high_water: Cycle,
    /// Remote core that supplies the data from its M/E copy, if any.
    pub data_from_owner: Option<CoreId>,
    /// State granted to the requester's L1.
    pub grant_state: MesiState,
    /// Remote copies to invalidate (iterated in ascending core order):
    /// the line's former sharer set itself, moved out of its entry, so
    /// naming the targets allocates nothing.
    pub invalidate: SharerSet,
    /// The remote copy to downgrade to S (a read of a line another core
    /// owns).
    pub downgrade: Option<CoreId>,
}

/// One directory bank: sharded MESI state, port, and monitors.
#[derive(Debug, Clone, PartialEq, Eq)]
struct DirBank {
    lines: LineTable<DirEntry>,
    global: BankGlobal,
    n_cores: usize,
}

/// The bank's untracked state — port, bank-order monitor, counters — which
/// every access moves, so a dirty bank's delta carries it whole.
#[derive(Debug, Clone, PartialEq, Eq)]
struct BankGlobal {
    port: SlotCalendar,
    order_monitor: TimestampMonitor,
    transitions: u64,
    line_violations: u64,
    order_violations: u64,
    conflicts: u64,
    busy_cycles: u64,
}

// The core count and the port occupancy are configuration: they validate
// the entries and the port calendar.
slacksim_core::persist_walk! {
    DirBank, |b| b.global.port, b.global.order_monitor, b.lines,
    b.global.transitions, b.global.line_violations, b.global.order_violations,
    b.global.conflicts, b.global.busy_cycles;
    cores b.n_cores
}

impl DirBank {
    fn new(n_cores: usize, lookup_latency: u64) -> Self {
        DirBank {
            lines: LineTable::default(),
            global: BankGlobal {
                port: SlotCalendar::new(lookup_latency),
                order_monitor: TimestampMonitor::new(),
                transitions: 0,
                line_violations: 0,
                order_violations: 0,
                conflicts: 0,
                busy_cycles: 0,
            },
            n_cores,
        }
    }

    /// Applies one coherence transaction to this bank: arbitrates the
    /// port, observes both monitors, and performs the MESI transition
    /// (same protocol as the snooping map, over scalable sharer sets).
    fn access(&mut self, op: BusOp, line: LineAddr, from: CoreId, ts: Cycle) -> DirAccess {
        debug_assert!(from.index() < self.n_cores, "unknown core {from}");
        let g = &mut self.global;
        g.transitions += 1;

        let order_high_water = g.order_monitor.high_water();
        let order_violation = g.order_monitor.observe(ts);
        if order_violation {
            g.order_violations += 1;
        }
        let slot = g.port.reserve(ts.as_u64());
        let conflict = slot != ts.as_u64();
        if conflict {
            g.conflicts += 1;
        }
        g.busy_cycles += g.port.occupancy;

        let (
            line_violation,
            line_high_water,
            (grant_state, data_from_owner, invalidate, downgrade),
        ) = self.lines.access(line, ts, |entry| {
            let mut invalidate = SharerSet::new();
            let mut downgrade = None;
            let mut data_from_owner = None;
            let grant_state = match op {
                BusOp::Rd => {
                    if let Some(owner) = entry.owner {
                        if owner != from {
                            // Possible dirty remote copy: owner supplies and
                            // downgrades (conservative flush, as on the bus
                            // path).
                            data_from_owner = Some(owner);
                            downgrade = Some(owner);
                            entry.owner = None;
                        }
                    }
                    let other = entry.sharers.iter().any(|c| c != from);
                    entry.sharers.insert(from);
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
                    invalidate = std::mem::replace(&mut entry.sharers, SharerSet::only(from));
                    invalidate.remove(from);
                    entry.owner = Some(from);
                    MesiState::Modified
                }
                BusOp::Wb => {
                    entry.sharers.remove(from);
                    if entry.owner == Some(from) {
                        entry.owner = None;
                    }
                    MesiState::Invalid
                }
            };
            (grant_state, data_from_owner, invalidate, downgrade)
        });
        if line_violation {
            self.global.line_violations += 1;
        }

        DirAccess {
            grant: Cycle::new(slot),
            conflict,
            order_violation,
            order_high_water,
            line_violation,
            line_high_water,
            data_from_owner,
            grant_state,
            invalidate,
            downgrade,
        }
    }
}

/// Incremental carrier for one bank: the dirty lines since the baseline,
/// plus the bank-global block when the bank moved at all.
#[derive(Debug, Clone)]
struct BankDelta {
    lines: LineDelta<DirEntry>,
    /// `None` when the bank is clean since the baseline.
    global: Option<Box<BankGlobal>>,
}

impl Checkpointable for DirBank {
    type Delta = BankDelta;

    fn generation(&self) -> u64 {
        self.lines.generation()
    }

    fn capture_delta(&mut self, since_gen: u64) -> BankDelta {
        BankDelta {
            global: (self.generation() > since_gen).then(|| Box::new(self.global.clone())),
            lines: self.lines.capture_delta(since_gen),
        }
    }

    fn apply_delta(&mut self, delta: BankDelta) {
        self.lines.apply_delta(delta.lines);
        if let Some(global) = delta.global {
            self.global = *global;
        }
    }

    fn restore_from(&mut self, base: &Self, since_gen: u64) {
        if self.generation() > since_gen {
            self.lines.restore_from(&base.lines, since_gen);
            self.global.clone_from(&base.global);
        }
    }
}

/// The sharded directory: N address-interleaved banks (`DirBank`) behind one
/// facade with the same checkpoint/persist surface as the other uncore
/// components.
///
/// # Examples
///
/// ```
/// use slacksim_cmp::cache::LineAddr;
/// use slacksim_cmp::directory::Directory;
/// use slacksim_cmp::mesi::{BusOp, MesiState};
/// use slacksim_core::event::CoreId;
/// use slacksim_core::time::Cycle;
///
/// let mut dir = Directory::new(64, 4);
/// let a = dir.access(BusOp::Rd, LineAddr::new(0x40), CoreId::new(0), Cycle::new(10));
/// assert_eq!(a.grant_state, MesiState::Exclusive);
/// assert_eq!(dir.banks(), 16); // 64 cores / 4, power of two
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Directory {
    n_cores: usize,
    banks: Vec<DirBank>,
    /// Line bits below the bank index: 0 for a whole directory, the
    /// share count's log2 for one share of a [split](Directory::split)
    /// directory.
    shift: u32,
    /// The banks' generations at the last capture.
    cp: Baseline<Vec<u64>>,
}

/// Incremental state carrier for the [`Directory`]: one slot per bank,
/// dirty banks only carry their global blob.
#[derive(Debug, Clone)]
pub struct DirectoryDelta {
    banks: Vec<BankDelta>,
}

impl DirectoryDelta {
    /// Number of banks that mutated since the capture baseline.
    pub fn dirty_banks(&self) -> usize {
        self.banks.iter().filter(|b| b.global.is_some()).count()
    }

    /// Total dirty lines carried across all banks.
    pub fn dirty_lines(&self) -> usize {
        self.banks.iter().map(|b| b.lines.len()).sum()
    }
}

impl Directory {
    /// Creates a directory for `n_cores` cores with the given per-bank
    /// lookup occupancy.
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is 0 or exceeds [`MAX_DIRECTORY_CORES`], or if
    /// `lookup_latency` is 0.
    pub fn new(n_cores: usize, lookup_latency: u64) -> Self {
        Directory::split(n_cores, lookup_latency, 1)
            .next()
            .expect("one share")
    }

    /// The directory of [`Directory::new`] split into `shares` (a power
    /// of two no larger than the bank count) that hold no state in
    /// common: share `h` holds the banks `b` with `b % shares == h`, as
    /// its banks `b / shares` in order, and so every line `l` with
    /// `l % shares == h`.
    pub(crate) fn split(
        n_cores: usize,
        lookup_latency: u64,
        shares: usize,
    ) -> impl Iterator<Item = Directory> {
        assert!(
            (1..=MAX_DIRECTORY_CORES).contains(&n_cores),
            "core count must be between 1 and {MAX_DIRECTORY_CORES}"
        );
        let n_banks = bank_count(n_cores);
        assert!(
            shares.is_power_of_two() && shares <= n_banks,
            "{shares} shares of {n_banks} banks"
        );
        (0..shares).map(move |_| Directory {
            n_cores,
            banks: (0..n_banks / shares)
                .map(|_| DirBank::new(n_cores, lookup_latency))
                .collect(),
            shift: shares.trailing_zeros(),
            cp: Baseline::default(),
        })
    }

    /// The bank index `line` interleaves to.
    pub fn bank_of(&self, line: LineAddr) -> usize {
        ((line.raw() >> self.shift) as usize) & (self.banks.len() - 1)
    }

    /// Number of banks.
    pub fn banks(&self) -> usize {
        self.banks.len()
    }

    /// Routes one coherence transaction to its bank.
    pub fn access(&mut self, op: BusOp, line: LineAddr, from: CoreId, ts: Cycle) -> DirAccess {
        let bank = self.bank_of(line);
        self.banks[bank].access(op, line, from, ts)
    }

    /// Total transactions across banks.
    pub fn transitions(&self) -> u64 {
        self.banks.iter().map(|b| b.global.transitions).sum()
    }

    /// Total per-line (map-class) violations across banks.
    pub fn line_violations(&self) -> u64 {
        self.banks.iter().map(|b| b.global.line_violations).sum()
    }

    /// Total bank-order (directory-class) violations across banks.
    pub fn order_violations(&self) -> u64 {
        self.banks.iter().map(|b| b.global.order_violations).sum()
    }

    /// Total port conflicts across banks.
    pub fn conflicts(&self) -> u64 {
        self.banks.iter().map(|b| b.global.conflicts).sum()
    }

    /// Total port busy cycles across banks (utilisation numerator; the
    /// denominator is cycles × banks).
    pub fn busy_cycles(&self) -> u64 {
        self.banks.iter().map(|b| b.global.busy_cycles).sum()
    }

    /// Lines currently tracked across banks.
    pub fn tracked_lines(&self) -> usize {
        self.banks.iter().map(|b| b.lines.entry_count()).sum()
    }

    /// Per-line monitors currently tracked across banks.
    pub fn monitor_entries(&self) -> usize {
        self.banks.iter().map(|b| b.lines.monitor_count()).sum()
    }

    /// Returns the set of cores currently holding `line` (testing aid).
    pub fn sharers(&self, line: LineAddr) -> Vec<CoreId> {
        let bank = self.bank_of(line);
        match self.banks[bank].lines.get(line) {
            Some(e) => e.sharers.iter().collect(),
            None => Vec::new(),
        }
    }

    /// Drops settled per-line monitors in every bank (see the map's
    /// compaction contract); returns how many were reclaimed.
    pub fn compact_monitors(&mut self, horizon: Cycle) -> usize {
        self.banks
            .iter_mut()
            .map(|b| b.lines.compact(horizon))
            .sum()
    }

    fn bank_gens(&self) -> Vec<u64> {
        self.banks.iter().map(|b| b.generation()).collect()
    }

    /// Appends the directory's snapshot bytes: the bank count, then every
    /// bank in index order. The count is validated against configuration
    /// on load, not trusted from the stream.
    pub fn save_state(&self, w: &mut ByteWriter) {
        Directory::save_shares(&[self], w);
    }

    /// Appends the snapshot bytes of the one directory that `shares`
    /// split ([`Directory::split`]): bank `b` of the whole is bank
    /// `b / n` of share `b % n`.
    pub(crate) fn save_shares(shares: &[&Directory], w: &mut ByteWriter) {
        let n = shares.len();
        let banks = n * shares[0].banks.len();
        w.u32(banks as u32);
        for b in 0..banks {
            shares[b % n].banks[b / n].save_state(w);
        }
    }

    /// Restores state written by [`Directory::save_state`] into a freshly
    /// built directory (capture bookkeeping is not reset).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] for malformed bytes or a bank count that
    /// does not match this directory's configuration.
    pub fn load_state(&mut self, r: &mut ByteReader<'_>) -> Result<(), PersistError> {
        Directory::load_shares(&mut [self], r)
    }

    /// Reads the bytes of one whole directory, as
    /// [`save_shares`](Directory::save_shares) writes them, into the
    /// shares that split it.
    pub(crate) fn load_shares(
        shares: &mut [&mut Directory],
        r: &mut ByteReader<'_>,
    ) -> Result<(), PersistError> {
        let n = shares.len();
        if r.u32()? as usize != n * shares[0].banks.len() {
            return Err(PersistError::Corrupt(
                "directory bank count does not match configuration",
            ));
        }
        (0..n * shares[0].banks.len()).try_for_each(|b| shares[b % n].banks[b / n].load_state(r))
    }
}

impl Checkpointable for Directory {
    type Delta = DirectoryDelta;

    /// Composite generation: the sum of the bank generations.
    fn generation(&self) -> u64 {
        self.banks.iter().map(|b| b.generation()).sum()
    }

    fn capture_delta(&mut self, since_gen: u64) -> DirectoryDelta {
        let baseline = self.cp.resolve(since_gen, self.bank_gens());
        let delta = DirectoryDelta {
            banks: self
                .banks
                .iter_mut()
                .zip(baseline)
                .map(|(bank, since)| bank.capture_delta(since))
                .collect(),
        };
        self.cp.record(self.bank_gens());
        delta
    }

    fn apply_delta(&mut self, delta: DirectoryDelta) {
        debug_assert_eq!(delta.banks.len(), self.banks.len());
        for (bank, bd) in self.banks.iter_mut().zip(delta.banks) {
            bank.apply_delta(bd);
        }
    }

    fn restore_from(&mut self, base: &Self, since_gen: u64) {
        let baseline = self.cp.resolve(since_gen, self.bank_gens());
        for ((bank, base_bank), since) in self.banks.iter_mut().zip(&base.banks).zip(baseline) {
            bank.restore_from(base_bank, since);
        }
        // The recorded baseline is deliberately kept: the checkpoint it
        // describes is still the live baseline for the next capture.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(i: u16) -> CoreId {
        CoreId::new(i)
    }

    fn ts(t: u64) -> Cycle {
        Cycle::new(t)
    }

    fn dir(cores: usize) -> Directory {
        Directory::new(cores, 4)
    }

    #[test]
    fn bank_count_scales_as_pow2_with_cores() {
        assert_eq!(bank_count(1), 1);
        assert_eq!(bank_count(8), 2);
        assert_eq!(bank_count(16), 4);
        assert_eq!(bank_count(64), 16);
        assert_eq!(bank_count(100), 32);
        assert_eq!(bank_count(1024), 64, "clamped at MAX_BANKS");
    }

    #[test]
    fn lines_interleave_across_banks() {
        let d = dir(64);
        assert_eq!(d.banks(), 16);
        assert_eq!(d.bank_of(LineAddr::new(0)), 0);
        assert_eq!(d.bank_of(LineAddr::new(17)), 1);
        assert_eq!(d.bank_of(LineAddr::new(15)), 15);
    }

    #[test]
    fn mesi_grants_match_the_snooping_map() {
        let mut d = dir(64);
        let line = LineAddr::new(0x99);
        let first = d.access(BusOp::Rd, line, c(0), ts(10));
        assert_eq!(first.grant_state, MesiState::Exclusive);
        let second = d.access(BusOp::Rd, line, c(33), ts(20));
        assert_eq!(second.grant_state, MesiState::Shared);
        assert_eq!(second.downgrade, Some(c(0)));
        assert_eq!(second.data_from_owner, Some(c(0)));
        let third = d.access(BusOp::RdX, line, c(63), ts(30));
        assert_eq!(third.grant_state, MesiState::Modified);
        assert_eq!(
            third.invalidate.iter().collect::<Vec<_>>(),
            vec![c(0), c(33)]
        );
        assert_eq!(d.sharers(line), vec![c(63)]);
        let wb = d.access(BusOp::Wb, line, c(63), ts(40));
        assert_eq!(wb.grant_state, MesiState::Invalid);
        assert_eq!(d.tracked_lines(), 0, "empty entries are reclaimed");
    }

    #[test]
    fn order_violations_are_per_bank_not_global() {
        let mut d = dir(64); // 16 banks
        let bank0 = LineAddr::new(16); // bank 0
        let bank1 = LineAddr::new(17); // bank 1
        d.access(BusOp::Rd, bank0, c(0), ts(100));
        // Earlier timestamp at a *different* bank: no violation — the
        // whole point of sharding the monitor.
        let other = d.access(BusOp::Rd, bank1, c(1), ts(50));
        assert!(!other.order_violation);
        // Earlier timestamp at the *same* bank (different line): bank
        // order violation but no line violation.
        let same = d.access(BusOp::Rd, LineAddr::new(32), c(2), ts(60));
        assert!(same.order_violation);
        assert!(!same.line_violation);
        assert_eq!(d.order_violations(), 1);
        assert_eq!(d.line_violations(), 0);
    }

    #[test]
    fn line_violations_ride_the_line_monitor() {
        let mut d = dir(8);
        let line = LineAddr::new(0x40);
        d.access(BusOp::Rd, line, c(0), ts(100));
        let v = d.access(BusOp::Rd, line, c(1), ts(50));
        assert!(v.line_violation);
        assert!(v.order_violation, "same bank too");
        assert_eq!(v.line_high_water, ts(100));
    }

    #[test]
    fn port_conflicts_serialise_same_bank_same_cycle() {
        let mut d = dir(8); // 2 banks, lookup occupancy 4
        let line = LineAddr::new(2); // bank 0
        let a = d.access(BusOp::Rd, line, c(0), ts(10));
        let b = d.access(BusOp::Rd, LineAddr::new(4), c(1), ts(10)); // same bank
        assert_eq!(a.grant, ts(10));
        assert!(!a.conflict);
        assert_eq!(b.grant, ts(14), "port occupied for lookup_latency");
        assert!(b.conflict);
        // Different bank at the same cycle: no conflict.
        let other = d.access(BusOp::Rd, LineAddr::new(3), c(2), ts(10));
        assert!(!other.conflict);
        assert_eq!(d.conflicts(), 1);
        assert_eq!(d.busy_cycles(), 12);
    }

    #[test]
    fn sharer_sets_scale_past_sixteen_cores() {
        let mut d = dir(256);
        let line = LineAddr::new(0x80);
        for i in 0..256u16 {
            d.access(BusOp::Rd, line, c(i), ts(10 + u64::from(i)));
        }
        assert_eq!(d.sharers(line).len(), 256);
        let w = d.access(BusOp::RdX, line, c(200), ts(1000));
        let invalidate: Vec<CoreId> = w.invalidate.iter().collect();
        assert_eq!(invalidate.len(), 255);
        // Ascending core order for deterministic snoop delivery.
        assert!(invalidate.windows(2).all(|p| p[0] < p[1]));
        assert_eq!(d.sharers(line), vec![c(200)]);
    }

    #[test]
    fn delta_roundtrip_covers_only_dirty_banks() {
        let mut live = dir(64); // 16 banks
        live.access(BusOp::Rd, LineAddr::new(16), c(0), ts(1)); // bank 0
        let mut base = live.clone();
        let g0 = live.generation();
        let seed = live.capture_delta(g0);
        assert_eq!(seed.dirty_banks(), 0, "clean since capture");
        assert_eq!(seed.dirty_lines(), 0);

        live.access(BusOp::RdX, LineAddr::new(16), c(1), ts(2)); // bank 0
        live.access(BusOp::Rd, LineAddr::new(19), c(2), ts(3)); // bank 3
        let delta = live.capture_delta(g0);
        assert_eq!(delta.dirty_banks(), 2, "banks 0 and 3 only");
        assert_eq!(delta.dirty_lines(), 2);
        base.apply_delta(delta);
        assert_eq!(base, live);
    }

    #[test]
    fn restore_rewinds_dirty_banks_to_the_checkpoint() {
        let mut live = dir(64);
        live.access(BusOp::Rd, LineAddr::new(16), c(0), ts(10));
        let cp = live.clone();
        let g0 = live.generation();
        let _ = live.capture_delta(g0);

        live.access(BusOp::Wb, LineAddr::new(16), c(0), ts(20)); // reclaim
        live.access(BusOp::Rd, LineAddr::new(19), c(1), ts(5)); // other bank
        live.restore_from(&cp, g0);
        assert_eq!(live, cp, "restore rewinds to the checkpoint");
        // The reclaimed entry is back and its line monitor remembers
        // ts(10): an earlier access violates again after the restore.
        assert!(
            live.access(BusOp::Rd, LineAddr::new(16), c(1), ts(7))
                .line_violation
        );
    }

    #[test]
    fn unknown_baseline_token_degrades_to_full_restore() {
        let mut live = dir(16);
        live.access(BusOp::Rd, LineAddr::new(4), c(0), ts(10));
        let base = live.clone();
        live.access(BusOp::RdX, LineAddr::new(9), c(1), ts(20));
        live.restore_from(&base, 12345);
        assert_eq!(live, base);
    }

    #[test]
    fn save_load_round_trip_is_bit_identical() {
        let mut live = dir(64);
        for i in 0..40u16 {
            live.access(BusOp::Rd, LineAddr::new(0x80), c(i), ts(10 + u64::from(i)));
        }
        live.access(BusOp::RdX, LineAddr::new(0x81), c(5), ts(100));
        live.access(BusOp::Wb, LineAddr::new(0x81), c(5), ts(110)); // reclaimed, monitor kept
        live.access(BusOp::Rd, LineAddr::new(0x82), c(9), ts(50)); // order violation

        let mut w = ByteWriter::new();
        live.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut restored = dir(64);
        let mut r = ByteReader::new(&bytes);
        restored.load_state(&mut r).expect("load succeeds");
        r.finish().expect("no trailing bytes");
        assert_eq!(restored, live);
        // A reclaimed line's monitor survives the round trip.
        assert!(
            restored
                .access(BusOp::Rd, LineAddr::new(0x81), c(0), ts(90))
                .line_violation
        );

        // A 16-core directory has a different bank count: rejected.
        let mut other = dir(16);
        assert!(other.load_state(&mut ByteReader::new(&bytes)).is_err());
    }

    #[test]
    fn sharer_ids_past_the_core_count_are_refused() {
        // 4 and 7 cores both make one bank: only the sharer ids differ.
        let mut wide = dir(7);
        for i in [0, 2, 6] {
            wide.access(BusOp::Rd, LineAddr::new(0x40), c(i), ts(10 + u64::from(i)));
        }
        let mut w = ByteWriter::new();
        wide.save_state(&mut w);
        let bytes = w.into_bytes();
        assert!(dir(7).load_state(&mut ByteReader::new(&bytes)).is_ok());
        assert!(matches!(
            dir(4).load_state(&mut ByteReader::new(&bytes)),
            Err(PersistError::Corrupt("core index beyond the core count"))
        ));
    }

    #[test]
    fn hostile_port_calendar_bytes_are_rejected() {
        // One bank (4 cores), lookup occupancy 4: port starts 10 and 20.
        let mut live = dir(4);
        live.access(BusOp::Rd, LineAddr::new(1), c(0), ts(10));
        live.access(BusOp::Rd, LineAddr::new(2), c(1), ts(20));
        let mut w = ByteWriter::new();
        live.save_state(&mut w);
        let bytes = w.into_bytes();
        let load = |bytes: &[u8]| dir(4).load_state(&mut ByteReader::new(bytes));
        assert!(load(&bytes).is_ok());

        for cut in 0..bytes.len() {
            assert!(
                matches!(load(&bytes[..cut]), Err(PersistError::Truncated)),
                "cut at {cut}"
            );
        }
        // The port calendar follows the bank count: horizon, count, starts.
        let with_port = |horizon: u64, starts: [u64; 2]| {
            let mut w = ByteWriter::new();
            w.u32(1);
            w.u64(horizon);
            w.u32(2);
            starts.iter().for_each(|&s| w.u64(s));
            let mut patched = w.into_bytes();
            patched.extend_from_slice(&bytes[patched.len()..]);
            patched
        };
        assert!(load(&with_port(20, [10, 20])).is_ok());
        // Lookups 3 cycles apart on a 4-cycle port overlap.
        assert!(matches!(
            load(&with_port(20, [17, 20])),
            Err(PersistError::Corrupt(_))
        ));
        // A horizon below the newest start would re-grant cycle 20.
        assert!(matches!(
            load(&with_port(12, [10, 20])),
            Err(PersistError::Corrupt(_))
        ));
    }

    #[test]
    fn compaction_drops_settled_monitors_in_every_bank() {
        let mut live = dir(64);
        live.access(BusOp::Rd, LineAddr::new(16), c(0), ts(10));
        live.access(BusOp::Rd, LineAddr::new(17), c(1), ts(50));
        let mut base = live.clone();
        let g0 = live.generation();

        assert_eq!(live.monitor_entries(), 2);
        assert_eq!(live.compact_monitors(ts(10)), 1, "only bank 0 settled");
        assert_eq!(live.monitor_entries(), 1);
        base.apply_delta(live.capture_delta(g0));
        assert_eq!(base, live, "removals travel through the delta");
    }

    #[test]
    #[should_panic(expected = "between 1 and 1024")]
    fn too_many_cores_rejected() {
        let _ = Directory::new(2048, 4);
    }
}
