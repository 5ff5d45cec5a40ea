//! The trace recorder: typed events, bounded per-thread ring buffers, and a
//! shared collector.
//!
//! Every thread that records (in both engines, the manager's: the window
//! loop's workers record nothing) owns a [`TraceHandle`] — a
//! private bounded ring buffer of [`TraceRecord`]s. Recording never takes a
//! lock: a handle checks one shared `AtomicBool` with a relaxed load and, if
//! tracing is enabled, pushes into its own ring. When the ring is full the
//! oldest record is dropped (and counted), so memory stays bounded no matter
//! how long the run is. On flush (or drop) the ring's contents move into the
//! [`Tracer`]'s collector, which the engine drains into the final
//! [`super::ObsData`].
//!
//! The disabled path — a tracer built with [`Tracer::disabled`] — costs
//! exactly one relaxed atomic load per [`TraceHandle::record`] call.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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

#[derive(Debug)]
struct TracerShared {
    enabled: AtomicBool,
    capacity: usize,
    dropped: AtomicU64,
    sink: Mutex<Vec<TraceRecord>>,
}

/// The shared half of the trace recorder: owns the enable flag and collects
/// flushed rings. Cloning is cheap (`Arc`); every clone observes the same
/// enable flag and feeds the same collector.
#[derive(Debug, Clone)]
pub struct Tracer {
    shared: Arc<TracerShared>,
}

impl Tracer {
    /// Creates an enabled tracer whose handles hold at most
    /// `capacity_per_handle` records each (oldest dropped first).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_per_handle` is 0.
    pub fn new(capacity_per_handle: usize) -> Self {
        assert!(capacity_per_handle > 0, "trace ring capacity must be > 0");
        Tracer {
            shared: Arc::new(TracerShared {
                enabled: AtomicBool::new(true),
                capacity: capacity_per_handle,
                dropped: AtomicU64::new(0),
                sink: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Creates a disabled tracer: every [`TraceHandle::record`] call returns
    /// after a single relaxed atomic load and records nothing.
    pub fn disabled() -> Self {
        let t = Tracer::new(1);
        t.shared.enabled.store(false, Ordering::Relaxed);
        t
    }

    /// Whether recording is currently enabled (relaxed load).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off for every handle of this tracer.
    pub fn set_enabled(&self, on: bool) {
        self.shared.enabled.store(on, Ordering::Relaxed);
    }

    /// Creates a new per-thread recording handle.
    pub fn handle(&self) -> TraceHandle {
        TraceHandle {
            shared: Arc::clone(&self.shared),
            ring: VecDeque::new(),
        }
    }

    /// Records dropped to ring overflow so far, across every handle
    /// (relaxed load — live mid-run, the drop counter is bumped at
    /// overflow time, not at flush time). Surfaced as the
    /// `trace_dropped` gauge so overflow is diagnosable while the run
    /// is still going.
    pub fn dropped_so_far(&self) -> u64 {
        self.shared.dropped.load(Ordering::Relaxed)
    }

    /// Takes every record flushed so far plus the total drop count.
    ///
    /// Records from different handles are concatenated in flush order; the
    /// exporters sort by cycle, so drain order does not matter.
    pub fn drain(&self) -> (Vec<TraceRecord>, u64) {
        let records = std::mem::take(&mut *self.shared.sink.lock().expect("trace sink poisoned"));
        (records, self.shared.dropped.load(Ordering::Relaxed))
    }
}

/// A per-thread recording handle: a private bounded ring buffer.
///
/// Dropping the handle flushes its ring into the owning [`Tracer`].
///
/// # Examples
///
/// ```
/// use slacksim_core::event::CoreId;
/// use slacksim_core::obs::{Phase, TraceEvent, Tracer};
/// use slacksim_core::time::Cycle;
///
/// let tracer = Tracer::new(1024);
/// let mut h = tracer.handle();
/// h.record(
///     Cycle::new(5),
///     TraceEvent::PhaseBegin { core: CoreId::new(0), phase: Phase::Run },
/// );
/// drop(h); // flushes
/// let (records, dropped) = tracer.drain();
/// assert_eq!(records.len(), 1);
/// assert_eq!(dropped, 0);
/// ```
#[derive(Debug)]
pub struct TraceHandle {
    shared: Arc<TracerShared>,
    ring: VecDeque<TraceRecord>,
}

impl TraceHandle {
    /// Records `event` at simulated time `cycle`.
    ///
    /// When the tracer is disabled this is one relaxed atomic load and an
    /// immediate return — cheap enough to leave in release-mode hot loops.
    #[inline]
    pub fn record(&mut self, cycle: Cycle, event: TraceEvent) {
        if !self.shared.enabled.load(Ordering::Relaxed) {
            return;
        }
        if self.ring.len() >= self.shared.capacity {
            self.ring.pop_front();
            self.shared.dropped.fetch_add(1, Ordering::Relaxed);
        }
        self.ring.push_back(TraceRecord { cycle, event });
    }

    /// Number of records currently buffered in this handle's ring.
    pub fn buffered(&self) -> usize {
        self.ring.len()
    }

    /// Moves every buffered record into the tracer's collector.
    pub fn flush(&mut self) {
        if self.ring.is_empty() {
            return;
        }
        let mut sink = self.shared.sink.lock().expect("trace sink poisoned");
        sink.extend(self.ring.drain(..));
    }
}

impl Drop for TraceHandle {
    fn drop(&mut self) {
        self.flush();
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
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        let mut h = tracer.handle();
        for t in 0..100 {
            h.record(Cycle::new(t), sample(0, t));
        }
        assert_eq!(h.buffered(), 0);
        drop(h);
        let (records, dropped) = tracer.drain();
        assert!(records.is_empty());
        assert_eq!(dropped, 0);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let tracer = Tracer::new(4);
        let mut h = tracer.handle();
        for t in 0..10u64 {
            h.record(Cycle::new(t), sample(0, t));
        }
        assert_eq!(h.buffered(), 4);
        h.flush();
        let (records, dropped) = tracer.drain();
        assert_eq!(dropped, 6);
        let kept: Vec<u64> = records.iter().map(|r| r.cycle.as_u64()).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]); // most recent survive
    }

    #[test]
    fn handles_flush_into_shared_collector() {
        let tracer = Tracer::new(64);
        let mut a = tracer.handle();
        let mut b = tracer.handle();
        a.record(Cycle::new(1), sample(0, 1));
        b.record(Cycle::new(2), sample(1, 2));
        drop(a);
        drop(b);
        let (records, _) = tracer.drain();
        assert_eq!(records.len(), 2);
    }

    #[test]
    fn toggling_enable_gates_recording() {
        let tracer = Tracer::new(8);
        let mut h = tracer.handle();
        h.record(Cycle::new(1), sample(0, 1));
        tracer.set_enabled(false);
        h.record(Cycle::new(2), sample(0, 2));
        tracer.set_enabled(true);
        h.record(Cycle::new(3), sample(0, 3));
        h.flush();
        let (records, _) = tracer.drain();
        let cycles: Vec<u64> = records.iter().map(|r| r.cycle.as_u64()).collect();
        assert_eq!(cycles, vec![1, 3]);
    }

    #[test]
    fn handles_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<TraceHandle>();
        assert_send::<Tracer>();
    }

    #[test]
    fn cross_thread_flush() {
        let tracer = Tracer::new(1024);
        let handles: Vec<_> = (0..4u16)
            .map(|c| {
                let mut h = tracer.handle();
                std::thread::spawn(move || {
                    for t in 0..100u64 {
                        h.record(Cycle::new(t), sample(c, t));
                    }
                    // handle drop flushes
                })
            })
            .collect();
        for j in handles {
            j.join().expect("recorder thread");
        }
        let (records, dropped) = tracer.drain();
        assert_eq!(records.len(), 400);
        assert_eq!(dropped, 0);
    }
}
