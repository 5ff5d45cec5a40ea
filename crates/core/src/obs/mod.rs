//! Observability: in-tree tracing, metrics, host-time self-profiling and
//! live telemetry with per-core timeline export.
//!
//! The subsystem has five layers, all dependency-free:
//!
//! * [`trace`] — the run's [`TraceRing`], a bounded ring buffer of typed
//!   [`TraceEvent`]s owned by the engine kernel.
//! * [`metrics`] — a [`MetricsRegistry`] of named gauge time series and
//!   log2-bucketed [`Histogram`]s, sampled every N global cycles.
//! * [`prof`] — a scoped host-time span profiler ([`Profiler`] /
//!   [`ProfScope`]) over the fixed [`ProfSite`] enum, attributing
//!   wall-clock self-time to core ticks, wait-ladder tiers, manager work,
//!   checkpointing, persist I/O and export.
//! * [`live`] — a heartbeat emitter writing one line of JSON per host-time
//!   cadence tick (progress, commits/s, ETA, queue depths, per-site
//!   host-time shares) sourced from engine-published atomics.
//! * [`export`] — hand-rolled Chrome Trace Event Format JSON (open the file
//!   in [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`), a
//!   long-format CSV dump, and the host-time profile table; [`json`] is the
//!   matching minimal parser used to validate emitted documents in tests.
//!
//! The engine kernel owns the wiring: when [`ObsConfig`] is present in the
//! engine configuration it builds a trace ring plus registry, records at
//! the manager's verbs and the drivers' phase marks, and attaches the
//! resulting [`ObsData`] to the final `SimReport`. When absent, neither is
//! built and every instrumentation site is one branch on an `Option`.

pub mod export;
pub mod json;
pub mod live;
pub mod metrics;
pub mod prof;
pub mod trace;

pub use export::{chrome_trace_json, escape_json, metrics_csv, prof_csv, prof_table};
pub use live::{LiveConfig, LiveStats, HEARTBEAT_VERSION};
pub use metrics::{GaugeId, HistId, Histogram, MetricsRegistry, SeriesPoint};
pub use prof::{ProfData, ProfHandle, ProfScope, ProfSite, Profiler};
pub use trace::{Phase, TraceEvent, TraceRecord, TraceRing};

/// Configuration for a run's observability instrumentation.
///
/// # Examples
///
/// ```
/// use slacksim_core::obs::ObsConfig;
///
/// let cfg = ObsConfig::default();
/// assert!(cfg.trace_capacity > 0);
/// assert!(cfg.sample_every > 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Capacity of the run's trace ring; when it fills, the oldest records
    /// are dropped (and counted) so memory stays bounded on arbitrarily
    /// long runs.
    pub trace_capacity: usize,
    /// Gauge sampling cadence in global simulated cycles.
    pub sample_every: u64,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            trace_capacity: 1 << 16,
            sample_every: 1024,
        }
    }
}

impl ObsConfig {
    /// Overrides the gauge sampling cadence (0 is clamped to 1).
    #[must_use]
    pub fn with_sample_every(mut self, cycles: u64) -> Self {
        self.sample_every = cycles.max(1);
        self
    }

    /// Overrides the trace ring capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0.
    #[must_use]
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be > 0");
        self.trace_capacity = capacity;
        self
    }
}

/// Everything observability collected during one run, attached to the
/// `SimReport` when tracing was configured.
#[derive(Debug, Clone, Default)]
pub struct ObsData {
    /// Number of target cores (defines the trace track layout).
    pub cores: usize,
    /// Every trace record that survived the ring buffers.
    pub records: Vec<TraceRecord>,
    /// Records dropped because a ring buffer overflowed.
    pub dropped: u64,
    /// The sampled gauges and histograms.
    pub metrics: MetricsRegistry,
}

impl ObsData {
    /// Renders the per-core timeline as a Chrome Trace Event Format JSON
    /// document (see [`export::chrome_trace_json`]).
    pub fn chrome_trace_json(&self) -> String {
        export::chrome_trace_json(self)
    }

    /// Renders the metrics registry as long-format CSV (see
    /// [`export::metrics_csv`]).
    pub fn metrics_csv(&self) -> String {
        export::metrics_csv(self)
    }

    /// A short multi-line human summary, rendered by the CLI under
    /// `--verbose`.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut counts: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        for rec in &self.records {
            let key = match rec.event {
                TraceEvent::LocalTimeSample { .. } => "local-time samples",
                TraceEvent::Violation { .. } => "violation instants",
                TraceEvent::BoundChange { .. } => "bound changes",
                TraceEvent::Checkpoint { .. } => "checkpoints",
                TraceEvent::Rollback { .. } => "rollbacks",
                TraceEvent::ReplayEnd { .. } => "replays",
                TraceEvent::QueueDepth { .. } => "queue-depth samples",
                TraceEvent::PhaseBegin { .. } | TraceEvent::PhaseEnd { .. } => "phase marks",
                TraceEvent::StatePersist { .. } => "state persists",
                TraceEvent::StateRestore { .. } => "state restores",
            };
            *counts.entry(key).or_default() += 1;
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "observability: {} trace records ({} dropped), {} gauge series, {} histograms",
            self.records.len(),
            self.dropped,
            self.metrics.gauges().count(),
            self.metrics.histograms().count(),
        );
        for (key, n) in counts {
            let _ = writeln!(out, "  {key}: {n}");
        }
        for (name, h) in self.metrics.histograms() {
            let _ = writeln!(
                out,
                "  hist {name}: n={} mean={:.1} p99={} max={}",
                h.count(),
                h.mean(),
                h.percentile(0.99),
                h.max(),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CoreId;
    use crate::time::Cycle;

    #[test]
    fn default_config_is_sane() {
        let cfg = ObsConfig::default();
        assert_eq!(cfg.trace_capacity, 1 << 16);
        assert_eq!(cfg.sample_every, 1024);
        assert_eq!(cfg.with_sample_every(0).sample_every, 1);
    }

    #[test]
    fn summary_counts_event_classes() {
        let mut ring = TraceRing::new(16);
        ring.record(
            Cycle::new(1),
            TraceEvent::PhaseBegin {
                core: CoreId::new(0),
                phase: Phase::Run,
            },
        );
        ring.record(
            Cycle::new(2),
            TraceEvent::BoundChange {
                old: 4,
                new: 8,
                rate: 0.0,
            },
        );
        let (records, dropped) = ring.into_parts();
        let obs = ObsData {
            cores: 1,
            records,
            dropped,
            metrics: MetricsRegistry::default(),
        };
        let s = obs.summary();
        assert!(s.contains("2 trace records"));
        assert!(s.contains("phase marks: 1"));
        assert!(s.contains("bound changes: 1"));
    }
}
