//! The per-line coherence table behind the snooping status map and every
//! directory bank: line entries, per-line violation monitors, and the
//! per-line dirty journal their delta checkpoints are built from.

use slacksim_core::checkpoint::{Checkpointable, Tracking};
use slacksim_core::fxhash::FxHashMap;
use slacksim_core::persist::{ByteReader, ByteWriter, Persist, PersistError};
use slacksim_core::time::Cycle;
use slacksim_core::violation::KeyedMonitor;

use crate::cache::LineAddr;

/// Entries of type `E` and violation monitors, keyed by line, with
/// per-line dirty stamps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct LineTable<E> {
    pub(crate) entries: FxHashMap<LineAddr, E>,
    pub(crate) monitor: KeyedMonitor<LineAddr>,
    /// Mutation generation — of the owning model too, every mutation of
    /// which touches a line. Never rewound by restores.
    gen: Tracking<u64>,
    /// Per-line dirty stamps. A stamp outlives the entry it stamps: a
    /// line whose entry was reclaimed keeps it, which is how deltas and
    /// restores learn about removals.
    dirty: Tracking<FxHashMap<LineAddr, u64>>,
}

/// The lines a [`LineTable`] dirtied since a capture baseline.
#[derive(Debug, Clone)]
pub(crate) enum LineDelta<E> {
    /// The capture generation and, per dirty line, its entry (`None` =
    /// reclaimed) and its monitor's high-water mark (`None` = never
    /// touched).
    Sparse(u64, Vec<(LineAddr, Option<E>, Option<Cycle>)>),
    /// Bulk fallback once most tracked lines are dirty: capture clones the
    /// table wholesale (buckets copy at memcpy speed) and apply moves it
    /// into place, where the sparse journal pays several hash probes per
    /// line on both sides.
    Dense(Box<LineTable<E>>),
}

impl<E> LineDelta<E> {
    /// Number of lines dirty since the capture baseline.
    pub(crate) fn len(&self) -> usize {
        match self {
            LineDelta::Sparse(_, lines) => lines.len(),
            LineDelta::Dense(table) => table.dirty.len(),
        }
    }
}

impl<E> LineTable<E> {
    /// Stamps `line` dirty at a fresh generation, ahead of a mutation.
    pub(crate) fn touch(&mut self, line: LineAddr) {
        *self.gen += 1;
        self.dirty.insert(line, *self.gen);
    }

    /// Drops monitors whose high-water mark is at or below `horizon` (see
    /// [`KeyedMonitor::compact`]), stamping each removed line so deltas
    /// record the removal. Returns how many were dropped.
    pub(crate) fn compact(&mut self, horizon: Cycle) -> usize {
        let removed = self.monitor.compact(horizon);
        removed.iter().for_each(|&line| self.touch(line));
        removed.len()
    }

    fn set(&mut self, line: LineAddr, entry: Option<E>, high_water: Option<Cycle>) {
        match entry {
            Some(e) => {
                self.entries.insert(line, e);
            }
            None => {
                self.entries.remove(&line);
            }
        }
        self.monitor.set(line, high_water);
    }
}

impl<E: Clone + Send + 'static> Checkpointable for LineTable<E> {
    type Delta = LineDelta<E>;

    fn generation(&self) -> u64 {
        *self.gen
    }

    fn capture_delta(&mut self, since_gen: u64) -> LineDelta<E> {
        // Stamps at or below `since_gen` can never be needed again: every
        // future capture baseline and restore target sits at or above the
        // generation being captured here.
        self.dirty.retain(|_, stamp| *stamp > since_gen);
        let dirty = self.dirty.len();
        let tracked = self.entries.len() + self.monitor.len();
        // The sparse journal only beats bulk clones while the dirty set is
        // a small fraction of the tracked state. The absolute floor keeps
        // small tables (and their tests) on the readable sparse path.
        if dirty >= 256 && dirty * 8 >= tracked {
            LineDelta::Dense(Box::new(self.clone()))
        } else {
            LineDelta::Sparse(
                *self.gen,
                self.dirty
                    .keys()
                    .map(|&line| {
                        (
                            line,
                            self.entries.get(&line).cloned(),
                            self.monitor.get(&line),
                        )
                    })
                    .collect(),
            )
        }
    }

    fn apply_delta(&mut self, delta: LineDelta<E>) {
        match delta {
            LineDelta::Sparse(gen, lines) => {
                for (line, entry, high_water) in lines {
                    self.set(line, entry, high_water);
                    self.dirty.insert(line, gen);
                }
                *self.gen = (*self.gen).max(gen);
            }
            // The table was captured whole, generation included.
            LineDelta::Dense(table) => *self = *table,
        }
    }

    fn restore_from(&mut self, base: &Self, since_gen: u64) {
        let lines: Vec<LineAddr> = self
            .dirty
            .iter()
            .filter(|&(_, &stamp)| stamp > since_gen)
            .map(|(&line, _)| line)
            .collect();
        for line in lines {
            self.set(
                line,
                base.entries.get(&line).cloned(),
                base.monitor.get(&line),
            );
        }
    }
}

/// The entries, then the monitors, each as a map sorted by line. A loaded
/// table has no generation or dirty stamps.
impl<E: Persist> Persist for LineTable<E> {
    fn save(&self, w: &mut ByteWriter) {
        self.entries.save(w);
        self.monitor.save(w);
    }

    fn load(r: &mut ByteReader<'_>) -> Result<Self, PersistError> {
        Ok(LineTable {
            entries: Persist::load(r)?,
            monitor: Persist::load(r)?,
            gen: Tracking::default(),
            dirty: Tracking::default(),
        })
    }
}
