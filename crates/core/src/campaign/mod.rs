//! Design-space-exploration campaigns: sweep grids run as fleets.
//!
//! The production-scale story for a simulator is fleets of runs, not one
//! run — fast architectural exploration means sweeping {scheme × bound ×
//! quantum × cores × workload × seed} grids and keeping every host core
//! busy until the whole grid has settled. This module is the
//! target-agnostic half of that story, layered on four existing
//! subsystems rather than duplicating any of them:
//!
//! * [`spec`] — the sweep-spec format (parsed with the in-tree
//!   [`obs::json`](crate::obs::json) parser) and its expansion into a
//!   deterministic, stably-ordered job grid with unique job IDs.
//! * [`pool`] — a worker pool that hands out jobs from one shared
//!   atomic cursor and returns results in job order.
//! * [`live`] — campaign heartbeats through the
//!   [`obs::live`](crate::obs::live) sink machinery (`"campaign":true`
//!   discriminates them from engine heartbeats).
//! * [`aggregate`] — the durable artifacts: manifest, per-job rows,
//!   streamed JSONL and final CSV aggregates, all wall-clock-free so
//!   resumed campaigns reproduce uninterrupted ones byte for byte.
//!
//! What this module deliberately does *not* know is how to run one job:
//! executing a grid point is the facade's business (`slacksim::sweep`),
//! which wires each [`spec::Job`] to a `Simulation` with durable
//! checkpoints through the [`persist`](crate::persist) layer. The seam
//! keeps the campaign machinery testable without a simulator in the
//! loop and reusable for any future job shape.

pub mod aggregate;
pub mod live;
pub mod pool;
pub mod spec;

pub use aggregate::{
    render_aggregate_csv, JobRow, Manifest, AGGREGATE_VERSION, CSV_HEADER, LEGACY_CSV_HEADER,
};
pub use live::CampaignStats;
pub use pool::{run_jobs, PoolOutcome};
pub use spec::{
    Axes, EngineToken, Job, SchemeKind, SpecError, SweepSpec, UncoreToken, MAX_GRID_JOBS,
    SPEC_VERSION,
};
