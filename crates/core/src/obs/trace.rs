//! The trace recorder: typed events in one bounded ring buffer.
//!
//! Only the engine kernel records (the drivers' phase marks go through
//! it), so the run's [`TraceRing`] is a plain value the kernel owns,
//! built only when the run asks for observability. When the ring is full
//! the oldest record is dropped (and counted), so memory stays bounded no
//! matter how long the run is.

use std::collections::VecDeque;

use crate::event::CoreId;
use crate::time::Cycle;
use crate::violation::ViolationKind;

/// What a core is spending its time on; begin/end pairs become spans on the
/// core's timeline track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Simulating target cycles inside the current slack window.
    Run,
    /// Re-executing cycles after a rollback.
    Replay,
}

impl Phase {
    /// Stable lower-case name used as the trace span name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Run => "run",
            Phase::Replay => "replay",
        }
    }
}

/// One typed observation. Every variant is `Copy`-cheap; the recorder adds
/// the timestamp separately (see [`TraceRecord`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// Periodic sample of one core's local clock (drift = `cycle` − global).
    LocalTimeSample {
        /// Which core.
        core: CoreId,
        /// The core's local clock at the sample instant.
        cycle: Cycle,
    },
    /// A timestamp-monitor trip: an operation arrived out of order.
    Violation {
        /// Resource class (bus, map, …).
        kind: ViolationKind,
        /// The core whose operation violated.
        core: CoreId,
        /// Timestamp of the late operation.
        ts: Cycle,
        /// The monitor's high-water mark at detection time.
        high_water: Cycle,
    },
    /// The adaptive controller moved the slack bound.
    BoundChange {
        /// Bound before the adjustment, in cycles.
        old: u64,
        /// Bound after the adjustment, in cycles.
        new: u64,
        /// The violation rate that drove the adjustment.
        rate: f64,
    },
    /// A checkpoint was taken; the span covers the convergence window
    /// from the scheduled boundary to the stop point every core ran to.
    Checkpoint {
        /// 1-based checkpoint ordinal (how many checkpoints so far).
        ordinal: u64,
        /// Convergence overshoot past the scheduled boundary, in simulated
        /// cycles (how far past the interval end the stop point lay).
        overshoot: u64,
    },
    /// A rollback to the previous checkpoint was triggered.
    Rollback {
        /// 1-based rollback ordinal (how many rollbacks so far).
        ordinal: u64,
        /// Simulated cycles of speculative progress past the checkpoint
        /// that the rollback threw away.
        wasted_cycles: u64,
    },
    /// The conservative replay that follows a rollback reached the next
    /// interval boundary; records the measured re-execution cost.
    ReplayEnd {
        /// Ordinal of the rollback this replay recovered from.
        ordinal: u64,
        /// Simulated cycles actually re-executed under the conservative
        /// scheme before speculation resumed.
        replay_cycles: u64,
    },
    /// Instantaneous depth of the manager's global arrival-ordered queue
    /// (the `globalq` counter track).
    QueueDepth {
        /// Elements queued at the sample instant.
        len: u64,
    },
    /// A core entered `phase`; paired with the next matching
    /// [`TraceEvent::PhaseEnd`] to form a span.
    PhaseBegin {
        /// Which core (the manager uses the pseudo-core `n_cores`).
        core: CoreId,
        /// The phase being entered.
        phase: Phase,
    },
    /// A core left `phase`.
    PhaseEnd {
        /// Which core.
        core: CoreId,
        /// The phase being left.
        phase: Phase,
    },
    /// A committed checkpoint was persisted to disk (`--save-state`).
    StatePersist {
        /// 1-based checkpoint ordinal of the persisted snapshot.
        ordinal: u64,
        /// Size of the snapshot container in bytes (0 when the write
        /// failed after its bounded retries and the run carried on).
        bytes: u64,
    },
    /// The run was restored from an on-disk snapshot (`--resume`).
    StateRestore {
        /// Global cycle the restored snapshot was taken at.
        global: Cycle,
    },
}

/// A timestamped trace event. The timestamp is in *simulated* cycles (the
/// exporters map 1 cycle to 1 µs of trace time).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Simulated time the event was recorded at.
    pub cycle: Cycle,
    /// The observation itself.
    pub event: TraceEvent,
}

/// The run's trace: a bounded ring buffer of [`TraceRecord`]s.
///
/// # Examples
///
/// ```
/// use slacksim_core::event::CoreId;
/// use slacksim_core::obs::{Phase, TraceEvent, TraceRing};
/// use slacksim_core::time::Cycle;
///
/// let mut ring = TraceRing::new(1024);
/// ring.record(
///     Cycle::new(5),
///     TraceEvent::PhaseBegin { core: CoreId::new(0), phase: Phase::Run },
/// );
/// let (records, dropped) = ring.into_parts();
/// assert_eq!(records.len(), 1);
/// assert_eq!(dropped, 0);
/// ```
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    dropped: u64,
    ring: VecDeque<TraceRecord>,
}

impl TraceRing {
    /// Creates an empty ring that holds at most `capacity` records
    /// (oldest dropped first).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "trace ring capacity must be > 0");
        TraceRing {
            capacity,
            dropped: 0,
            ring: VecDeque::new(),
        }
    }

    /// Records `event` at simulated time `cycle`.
    #[inline]
    pub fn record(&mut self, cycle: Cycle, event: TraceEvent) {
        if self.ring.len() >= self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(TraceRecord { cycle, event });
    }

    /// Records dropped to ring overflow so far. Surfaced as the
    /// `trace_dropped` gauge so overflow is diagnosable while the run is
    /// still going.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The surviving records, oldest first, and the drop count.
    pub fn into_parts(self) -> (Vec<TraceRecord>, u64) {
        (self.ring.into(), self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(core: u16, t: u64) -> TraceEvent {
        TraceEvent::LocalTimeSample {
            core: CoreId::new(core),
            cycle: Cycle::new(t),
        }
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut ring = TraceRing::new(4);
        for t in 0..10u64 {
            ring.record(Cycle::new(t), sample(0, t));
        }
        assert_eq!(ring.dropped(), 6);
        let (records, dropped) = ring.into_parts();
        assert_eq!(records.len(), 4);
        assert_eq!(dropped, 6);
        let kept: Vec<u64> = records.iter().map(|r| r.cycle.as_u64()).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]); // most recent survive
    }

    #[test]
    fn records_come_back_in_recording_order() {
        let mut ring = TraceRing::new(64);
        ring.record(Cycle::new(2), sample(1, 2));
        ring.record(Cycle::new(1), sample(0, 1));
        let (records, _) = ring.into_parts();
        let cycles: Vec<u64> = records.iter().map(|r| r.cycle.as_u64()).collect();
        assert_eq!(cycles, vec![2, 1]);
    }
}
