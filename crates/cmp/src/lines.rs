//! The per-line coherence table behind the snooping status map and every
//! directory bank. Each line the table knows has one slot holding its
//! entry, its violation monitor and its dirty stamp, so servicing an
//! access costs one hash probe; delta checkpoints are built from the
//! stamps through a journal of the stamped lines.

use std::collections::hash_map::Entry;

use slacksim_core::checkpoint::Checkpointable;
use slacksim_core::fxhash::FxHashMap;
use slacksim_core::persist::{save_sorted, ByteReader, ByteWriter, Persist, PersistError};
use slacksim_core::time::Cycle;

use crate::cache::LineAddr;

/// A per-line entry a [`LineTable`] holds.
pub(crate) trait LineEntry: Clone + Default {
    /// Whether the entry has no sharers: the line is not tracked, and
    /// the entry is absent from equality and the durable form.
    fn is_vacant(&self) -> bool;
}

/// High-water mark of a line with no monitor.
const NO_MONITOR: u64 = u64::MAX;

/// Stamp of a line no capture or restore can need any more.
const CLEAN: u64 = 0;

/// One line: its entry (vacant, and default, while untracked), its
/// monitor's high-water mark ([`NO_MONITOR`] when it has none) and the
/// generation of its last mutation ([`CLEAN`] once retired).
#[derive(Debug, Clone)]
struct Slot<E> {
    entry: E,
    high_water: u64,
    stamp: u64,
}

impl<E: Default> Default for Slot<E> {
    fn default() -> Self {
        Slot {
            entry: E::default(),
            high_water: NO_MONITOR,
            stamp: CLEAN,
        }
    }
}

impl<E: LineEntry> Slot<E> {
    /// Holds an entry or a monitor: part of the model state.
    fn is_held(&self) -> bool {
        !self.entry.is_vacant() || self.high_water != NO_MONITOR
    }

    /// Holds nothing a capture, restore or snapshot needs: dropped.
    fn is_dead(&self) -> bool {
        self.stamp == CLEAN && !self.is_held()
    }
}

/// Entries of type `E` and violation monitors, keyed by line, with
/// per-line dirty stamps — one slot per line in one map.
///
/// A slot lives while its line has an entry, a monitor or a stamp; it is
/// dropped only when a capture retires the stamp of a line that has
/// neither. A table that `apply_delta` patches is a checkpoint base, which
/// no capture or restore runs against, so it takes no stamps. Equality
/// compares the entries and the monitors, never the stamps, the
/// generation or the journal, and so does the durable form.
#[derive(Debug, Clone, Default)]
pub(crate) struct LineTable<E> {
    slots: FxHashMap<LineAddr, Slot<E>>,
    counts: Counts,
    /// Mutation generation — of the owning model too, every mutation of
    /// which touches a line. Never rewound by restores.
    gen: u64,
    /// Every line with a stamp other than [`CLEAN`], once each. A stamp
    /// outlives the entry and monitor it stamps, which is how deltas and
    /// restores learn about removals.
    journal: Vec<LineAddr>,
}

impl<E: LineEntry + PartialEq> PartialEq for LineTable<E> {
    fn eq(&self, other: &Self) -> bool {
        // Equal counts, and every entry and monitor of `self` present and
        // equal in `other`, leave `other` nothing extra.
        self.counts == other.counts
            && self.slots.iter().all(|(line, slot)| {
                !slot.is_held()
                    || other
                        .slots
                        .get(line)
                        .is_some_and(|o| o.entry == slot.entry && o.high_water == slot.high_water)
            })
    }
}

impl<E: LineEntry + Eq> Eq for LineTable<E> {}

/// How many slots of a [`LineTable`] hold a non-vacant entry, and how
/// many a monitor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    entries: usize,
    monitors: usize,
}

impl Counts {
    /// Overwrites the entry and monitor of `slot`, keeping the counts.
    fn put<E: LineEntry>(&mut self, slot: &mut Slot<E>, entry: E, high_water: u64) {
        self.entries += usize::from(!entry.is_vacant());
        self.entries -= usize::from(!slot.entry.is_vacant());
        self.monitors += usize::from(high_water != NO_MONITOR);
        self.monitors -= usize::from(slot.high_water != NO_MONITOR);
        slot.entry = entry;
        slot.high_water = high_water;
    }
}

/// The lines a [`LineTable`] dirtied since a capture baseline.
#[derive(Debug, Clone)]
pub(crate) enum LineDelta<E> {
    /// The capture generation and, per dirty line, its entry (vacant =
    /// reclaimed) and its monitor's high-water mark ([`NO_MONITOR`] =
    /// none).
    Sparse(u64, Vec<(LineAddr, E, u64)>),
    /// Bulk fallback once a large share of the tracked lines is dirty: the
    /// number of dirty lines and a copy of the table without its stamps,
    /// which apply moves into place as a checkpoint base.
    Dense(usize, Box<LineTable<E>>),
}

impl<E> LineDelta<E> {
    /// Number of lines dirty since the capture baseline.
    pub(crate) fn len(&self) -> usize {
        match self {
            LineDelta::Sparse(_, lines) => lines.len(),
            LineDelta::Dense(dirty, _) => *dirty,
        }
    }
}

impl<E: LineEntry> LineTable<E> {
    /// Services one access to `line` stamped `ts` in one probe: stamps the
    /// line dirty at a fresh generation, observes its monitor (created on
    /// first touch), and runs `f` on its entry (default while vacant).
    /// Returns the monitor's verdict — `ts` below every timestamp it saw
    /// before — and its high-water mark after the observation, with `f`'s
    /// result.
    pub(crate) fn access<R>(
        &mut self,
        line: LineAddr,
        ts: Cycle,
        f: impl FnOnce(&mut E) -> R,
    ) -> (bool, Cycle, R) {
        self.gen += 1;
        let slot = self.slots.entry(line).or_default();
        if slot.stamp == CLEAN {
            self.journal.push(line);
        }
        slot.stamp = self.gen;

        let ts = ts.as_u64();
        let violation = if slot.high_water == NO_MONITOR {
            self.counts.monitors += 1;
            slot.high_water = ts;
            false
        } else if ts < slot.high_water {
            true
        } else {
            slot.high_water = ts;
            false
        };

        let was_vacant = slot.entry.is_vacant();
        let out = f(&mut slot.entry);
        if slot.entry.is_vacant() {
            slot.entry = E::default();
            self.counts.entries -= usize::from(!was_vacant);
        } else {
            self.counts.entries += usize::from(was_vacant);
        }
        (violation, Cycle::new(slot.high_water), out)
    }

    /// The entry of `line`, if it is tracked.
    pub(crate) fn get(&self, line: LineAddr) -> Option<&E> {
        self.slots
            .get(&line)
            .map(|slot| &slot.entry)
            .filter(|entry| !entry.is_vacant())
    }

    /// The tracked entries, in arbitrary order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = &E> {
        self.slots
            .values()
            .map(|slot| &slot.entry)
            .filter(|entry| !entry.is_vacant())
    }

    /// Number of tracked lines.
    pub(crate) fn entry_count(&self) -> usize {
        self.counts.entries
    }

    /// Number of per-line monitors.
    pub(crate) fn monitor_count(&self) -> usize {
        self.counts.monitors
    }

    /// Drops monitors whose high-water mark is at or below `horizon`,
    /// stamping each line so deltas record the removal. Returns how many
    /// were dropped.
    ///
    /// Safe at a committed checkpoint with `horizon` equal to the
    /// checkpoint's global cycle: every access that can still arrive
    /// (including rollback replays, which restart from the checkpoint)
    /// carries a timestamp `ts >= horizon`, and a violation requires
    /// `ts < high_water <= horizon <= ts` — a contradiction. A dropped
    /// monitor's fresh re-creation on the next access therefore yields
    /// the exact verdicts and high-water marks the kept one would have.
    pub(crate) fn compact(&mut self, horizon: Cycle) -> usize {
        let horizon = horizon.as_u64();
        let mut dropped = 0;
        for (&line, slot) in &mut self.slots {
            if slot.high_water != NO_MONITOR && slot.high_water <= horizon {
                slot.high_water = NO_MONITOR;
                self.gen += 1;
                if slot.stamp == CLEAN {
                    self.journal.push(line);
                }
                slot.stamp = self.gen;
                dropped += 1;
            }
        }
        self.counts.monitors -= dropped;
        dropped
    }
}

impl<E: LineEntry + Send + 'static> Checkpointable for LineTable<E> {
    type Delta = LineDelta<E>;

    fn generation(&self) -> u64 {
        self.gen
    }

    fn capture_delta(&mut self, since_gen: u64) -> LineDelta<E> {
        // Stamps at or below `since_gen` can never be needed again: every
        // future capture baseline and restore target sits at or above the
        // generation being captured here. A retired line that holds
        // nothing else goes with its stamp.
        let slots = &mut self.slots;
        self.journal.retain(|line| {
            let slot = slots.get_mut(line).expect("a journaled line has a slot");
            if slot.stamp > since_gen {
                return true;
            }
            slot.stamp = CLEAN;
            if slot.is_dead() {
                slots.remove(line);
            }
            false
        });
        let dirty = self.journal.len();
        let tracked = self.counts.entries + self.counts.monitors;
        // The sparse journal only beats a bulk copy while the dirty set is
        // a small fraction of the tracked state. The absolute floor keeps
        // small tables (and their tests) on the readable sparse path.
        if dirty >= 256 && dirty * 8 >= tracked {
            // Buckets copy at memcpy speed; the copy becomes a base, which
            // takes no stamps.
            let mut table = LineTable {
                slots: self.slots.clone(),
                counts: self.counts,
                gen: self.gen,
                journal: Vec::new(),
            };
            table.slots.values_mut().for_each(|slot| slot.stamp = CLEAN);
            LineDelta::Dense(dirty, Box::new(table))
        } else {
            // Collected from an exact-size iterator: one allocation of the
            // delta's own size.
            LineDelta::Sparse(
                self.gen,
                self.journal
                    .iter()
                    .map(|&line| {
                        let slot = &self.slots[&line];
                        (line, slot.entry.clone(), slot.high_water)
                    })
                    .collect(),
            )
        }
    }

    fn apply_delta(&mut self, delta: LineDelta<E>) {
        match delta {
            // The patched table is a checkpoint base, which no capture or
            // restore ever runs against: the lines it takes stay
            // unstamped, so a line left holding nothing goes at once
            // instead of piling up for a capture that never comes.
            LineDelta::Sparse(gen, lines) => {
                for (line, entry, high_water) in lines {
                    let held = !entry.is_vacant() || high_water != NO_MONITOR;
                    match self.slots.entry(line) {
                        Entry::Occupied(mut slot) => {
                            self.counts.put(slot.get_mut(), entry, high_water);
                            if slot.get().is_dead() {
                                slot.remove();
                            }
                        }
                        Entry::Vacant(slot) if held => {
                            self.counts
                                .put(slot.insert(Slot::default()), entry, high_water);
                        }
                        Entry::Vacant(_) => {}
                    }
                }
                self.gen = self.gen.max(gen);
            }
            // The table was captured whole, generation included.
            LineDelta::Dense(_, table) => *self = *table,
        }
    }

    fn restore_from(&mut self, base: &Self, since_gen: u64) {
        for line in &self.journal {
            let slot = self
                .slots
                .get_mut(line)
                .expect("a journaled line has a slot");
            if slot.stamp > since_gen {
                let (entry, high_water) = base
                    .slots
                    .get(line)
                    .map_or((E::default(), NO_MONITOR), |b| {
                        (b.entry.clone(), b.high_water)
                    });
                self.counts.put(slot, entry, high_water);
            }
        }
    }
}

/// The entries, then the monitors' high-water marks, each as a map sorted
/// by line. A loaded table has no generation or dirty stamps; a vacant
/// entry, or a mark that reads as no monitor, is refused.
impl<E: LineEntry + Persist> Persist for LineTable<E> {
    fn save(&self, w: &mut ByteWriter) {
        let mut entries = Vec::with_capacity(self.counts.entries);
        entries.extend(
            self.slots
                .iter()
                .filter(|(_, slot)| !slot.entry.is_vacant())
                .map(|(&line, slot)| (line, &slot.entry)),
        );
        save_sorted(w, entries, |entry, w| entry.save(w));
        let mut monitors = Vec::with_capacity(self.counts.monitors);
        monitors.extend(
            self.slots
                .iter()
                .filter(|(_, slot)| slot.high_water != NO_MONITOR)
                .map(|(&line, slot)| (line, slot.high_water)),
        );
        save_sorted(w, monitors, |&high_water, w| w.u64(high_water));
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        let entries: FxHashMap<LineAddr, E> = Persist::load(r)?;
        let monitors: FxHashMap<LineAddr, Cycle> = Persist::load(r)?;
        let mut table = LineTable::default();
        for (line, entry) in entries {
            if entry.is_vacant() {
                return Err(PersistError::Corrupt("line entry with no sharers"));
            }
            table.slots.entry(line).or_default().entry = entry;
            table.counts.entries += 1;
        }
        for (line, high_water) in monitors {
            if high_water.as_u64() == NO_MONITOR {
                return Err(PersistError::Corrupt(
                    "line monitor high-water mark out of range",
                ));
            }
            table.slots.entry(line).or_default().high_water = high_water.as_u64();
            table.counts.monitors += 1;
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sharer mask: vacant at zero.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    struct Mask(u16);

    impl Persist for Mask {
        fn save(&self, w: &mut ByteWriter) {
            w.u16(self.0);
        }

        fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
            Ok(Mask(r.u16()?))
        }
    }

    impl LineEntry for Mask {
        fn is_vacant(&self) -> bool {
            self.0 == 0
        }
    }

    fn set(t: &mut LineTable<Mask>, line: u64, ts: u64, mask: u16) -> (bool, Cycle) {
        let (violation, high_water, ()) =
            t.access(LineAddr::new(line), Cycle::new(ts), |e| e.0 = mask);
        (violation, high_water)
    }

    fn bytes(t: &LineTable<Mask>) -> Vec<u8> {
        let mut w = ByteWriter::new();
        t.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn one_slot_carries_entry_monitor_and_stamp() {
        let mut t = LineTable::default();
        assert_eq!(set(&mut t, 7, 10, 0b1), (false, Cycle::new(10)));
        assert_eq!(set(&mut t, 7, 4, 0b11), (true, Cycle::new(10)));
        assert_eq!((t.entry_count(), t.monitor_count()), (1, 1));
        // Emptied: the entry goes, the monitor stays, the stamp keeps the
        // slot until a capture retires it.
        set(&mut t, 7, 12, 0);
        assert_eq!((t.entry_count(), t.monitor_count()), (0, 1));
        assert_eq!(t.get(LineAddr::new(7)), None);
        assert_eq!(t.compact(Cycle::new(12)), 1);
        assert_eq!(t.slots.len(), 1, "stamped by the compaction");
        let gen = t.generation();
        let _ = t.capture_delta(gen);
        assert!(t.slots.is_empty(), "vacant, unmonitored and clean: dropped");
        assert!(t.journal.is_empty());
    }

    #[test]
    fn equality_and_bytes_ignore_bookkeeping() {
        let mut a = LineTable::default();
        let mut b = LineTable::default();
        set(&mut a, 1, 5, 0b1);
        set(&mut a, 2, 6, 0b10);
        set(&mut a, 2, 7, 0); // a vacant, stamped slot with a monitor
        set(&mut b, 2, 7, 0b100);
        set(&mut b, 2, 7, 0);
        set(&mut b, 1, 5, 0b1);
        assert_eq!(a, b);
        assert_eq!(bytes(&a), bytes(&b));
        let loaded = LineTable::<Mask>::load(&mut ByteReader::new(&bytes(&a))).expect("loads");
        assert_eq!(loaded, a);
        assert!(loaded.journal.is_empty(), "a loaded table has no stamps");
        set(&mut b, 3, 1, 0b1);
        assert_ne!(a, b);
        assert_ne!(b, a);
    }

    #[test]
    fn vacant_entries_and_unrepresentable_marks_are_refused() {
        let table = |entry: u16, high_water: u64| {
            let mut w = ByteWriter::new();
            w.u32(1);
            LineAddr::new(3).save(&mut w);
            Mask(entry).save(&mut w);
            w.u32(1);
            LineAddr::new(3).save(&mut w);
            w.u64(high_water);
            LineTable::<Mask>::load(&mut ByteReader::new(&w.into_bytes()))
        };
        assert!(table(1, 9).is_ok());
        assert!(matches!(table(0, 9), Err(PersistError::Corrupt(_))));
        assert!(matches!(table(1, u64::MAX), Err(PersistError::Corrupt(_))));
    }
}
