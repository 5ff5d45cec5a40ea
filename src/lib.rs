//! # SlackSim-RS
//!
//! A production-quality Rust reproduction of *"Adaptive and Speculative
//! Slack Simulations of CMPs on CMPs"* (Jianwei Chen, Lakshmi Kumar
//! Dabbiru, Murali Annavaram, Michel Dubois — MoBS 2010): a parallel
//! simulator of chip multiprocessors that runs on chip multiprocessors,
//! with bounded/unbounded/adaptive *slack* between the simulated cores'
//! clocks, timestamp-monitor violation detection, and checkpoint/rollback
//! speculation.
//!
//! This facade crate wires the three layers together:
//!
//! * [`slacksim_core`] — the slack-simulation kernel (schemes, violation
//!   detection, adaptive control, speculation, engines);
//! * [`slacksim_cmp`] — the paper's 8-core snooping-bus target CMP;
//! * [`slacksim_workloads`] — synthetic SPLASH-2-like workloads.
//!
//! ## Quickstart
//!
//! ```
//! use slacksim::{Benchmark, EngineKind, Simulation};
//! use slacksim::scheme::Scheme;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let report = Simulation::new(Benchmark::Fft)
//!     .cores(4)
//!     .scheme(Scheme::BoundedSlack { bound: 8 })
//!     .engine(EngineKind::Sequential)
//!     .commit_target(50_000)
//!     .seed(1)
//!     .run()?;
//! println!(
//!     "{} cycles, CPI {:.2}, {} violations",
//!     report.global_cycles,
//!     report.cpi(),
//!     report.violations.total()
//! );
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub use slacksim_cmp::config::{CmpConfig, CoreConfig, UncoreConfig, UncoreKind};
pub use slacksim_core::checkpoint::Checkpointable;
pub use slacksim_core::engine::{BurstPolicy, EngineConfig, EngineError};
pub use slacksim_core::model;
pub use slacksim_core::obs::{
    LiveConfig, LiveStats, ObsConfig, ObsData, ProfData, ProfSite, Profiler, HEARTBEAT_VERSION,
};
pub use slacksim_core::scheme;
pub use slacksim_core::speculative::{SpeculationConfig, ViolationSelect};
pub use slacksim_core::stats::{percent_error, SimReport};
pub use slacksim_core::violation::ViolationKind;
pub use slacksim_core::Cycle;
pub use slacksim_workloads::{Benchmark, WorkloadParams};

/// Re-export of the target-CMP crate.
pub use slacksim_cmp;
/// Re-export of the kernel crate.
pub use slacksim_core;
/// Re-export of the workloads crate.
pub use slacksim_workloads;

use std::path::PathBuf;

use slacksim_cmp::core::CmpCore;
use slacksim_cmp::isa::InstrStream;
use slacksim_cmp::uncore::CmpUncore;
use slacksim_core::engine::{
    BatchedEngine, CheckpointView, EngineResume, SaveHook, SequentialEngine,
};
use slacksim_core::persist;
use slacksim_core::scheme::Scheme;

mod run;
mod snapshot;
pub mod sweep;

pub use run::{RunError, RunSpec};

/// Which execution engine drives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Deterministic single-threaded engine (reproducible accuracy
    /// experiments; host-scheduling nondeterminism is emulated by a
    /// seeded burst scheduler).
    #[default]
    Sequential,
    /// The target cores on one host thread per host CPU — one per target
    /// core where the host has that many (see
    /// [`Simulation::host_threads`]): the paper's CMP-on-CMP execution
    /// (wall-clock experiments). The same window loop as
    /// [`Batched`](EngineKind::Batched), under the name those experiments
    /// use.
    Threaded,
    /// The window loop: steps every core a whole window per iteration —
    /// a quantum, or a greedy scheme's seeded round — on a static
    /// partition of host threads when the host has more than one (see
    /// [`Simulation::host_threads`]), resolving cross-core events only at
    /// window ends, on one thread. The report is the same at every
    /// host-thread count; under barrier schemes it is bit-identical to
    /// [`Sequential`](EngineKind::Sequential)'s, at a fraction of the
    /// host cost.
    Batched,
}

impl EngineKind {
    /// Every canonical name [`parse`](EngineKind::parse) accepts, for error
    /// messages.
    pub const TOKENS: &'static str = "seq|threaded|batched";

    /// Parses an engine name: the `--engine` flag's and a sweep spec's
    /// vocabulary, with the aliases `sequential`, `thr` and `bsp`.
    pub fn parse(name: &str) -> Option<EngineKind> {
        match name {
            "seq" | "sequential" => Some(EngineKind::Sequential),
            "threaded" | "thr" => Some(EngineKind::Threaded),
            "batched" | "bsp" => Some(EngineKind::Batched),
            _ => None,
        }
    }

    /// The canonical name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Sequential => "seq",
            EngineKind::Threaded => "threaded",
            EngineKind::Batched => "batched",
        }
    }
}

/// A scheme by name: the `--scheme` flag's and a sweep's `scheme` axis's
/// vocabulary. [`RunSpec::build_scheme`] turns it into a [`Scheme`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemeKind {
    /// Barrier every cycle.
    Cc,
    /// Bounded slack (reads `bound`).
    Bounded,
    /// No synchronisation.
    Unbounded,
    /// Barrier every quantum (reads `quantum`).
    Quantum,
    /// Feedback-controlled adaptive slack (reads the target and band).
    Adaptive,
    /// Lax peer-to-peer sync (reads `bound` as the lead, the re-pick
    /// period and the seed).
    P2p,
}

impl SchemeKind {
    /// Every canonical name [`parse`](SchemeKind::parse) accepts, for error
    /// messages.
    pub const TOKENS: &'static str = "cc|bounded|unbounded|quantum|adaptive|p2p";

    /// Parses a scheme name, with the aliases `cycle` and `su`.
    pub fn parse(name: &str) -> Option<SchemeKind> {
        match name {
            "cc" | "cycle" => Some(SchemeKind::Cc),
            "bounded" => Some(SchemeKind::Bounded),
            "unbounded" | "su" => Some(SchemeKind::Unbounded),
            "quantum" => Some(SchemeKind::Quantum),
            "adaptive" => Some(SchemeKind::Adaptive),
            "p2p" => Some(SchemeKind::P2p),
            _ => None,
        }
    }

    /// The canonical name.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::Cc => "cc",
            SchemeKind::Bounded => "bounded",
            SchemeKind::Unbounded => "unbounded",
            SchemeKind::Quantum => "quantum",
            SchemeKind::Adaptive => "adaptive",
            SchemeKind::P2p => "p2p",
        }
    }

    /// The [`RunSpec`] knobs this scheme reads, named as their flags
    /// without the dashes. The p2p pairing seed is the run seed.
    pub fn knobs(self) -> &'static [&'static str] {
        match self {
            SchemeKind::Cc | SchemeKind::Unbounded => &[],
            SchemeKind::Bounded => &["bound"],
            SchemeKind::Quantum => &["quantum"],
            SchemeKind::Adaptive => &["target", "band"],
            SchemeKind::P2p => &["bound", "period"],
        }
    }
}

/// Builder for a complete slack-simulation run: target CMP + workload +
/// scheme + engine.
///
/// See the [crate-level example](crate) for typical use.
#[derive(Debug, Clone)]
pub struct Simulation {
    benchmark: Benchmark,
    cmp: CmpConfig,
    scheme: Scheme,
    engine: EngineKind,
    commit_target: u64,
    max_cycles: u64,
    seed: u64,
    max_burst: u64,
    host_threads: usize,
    speculation: Option<SpeculationConfig>,
    obs: Option<ObsConfig>,
    profile: bool,
    live: Option<LiveConfig>,
    save_state: Option<PathBuf>,
    resume: Option<PathBuf>,
}

impl Simulation {
    /// Starts a builder for the given benchmark with the paper's default
    /// target (8 cores) and scheme (cycle-by-cycle).
    pub fn new(benchmark: Benchmark) -> Self {
        Simulation {
            benchmark,
            cmp: CmpConfig::paper(),
            scheme: Scheme::CycleByCycle,
            engine: EngineKind::Sequential,
            commit_target: 2_000_000,
            max_cycles: 1 << 40,
            seed: 1,
            max_burst: 16,
            host_threads: 0,
            speculation: None,
            obs: None,
            profile: false,
            live: None,
            save_state: None,
            resume: None,
        }
    }

    /// Sets the number of target cores (the paper uses 8). The value is
    /// validated against the selected interconnect's ceiling when the run
    /// starts ([`run`](Simulation::run) returns [`EngineError::Config`]
    /// for an out-of-range count), so `cores` and
    /// [`uncore`](Simulation::uncore) may be set in either order.
    pub fn cores(&mut self, cores: usize) -> &mut Self {
        self.cmp.cores = cores;
        self
    }

    /// Selects the uncore interconnect: the paper's snooping bus (up to
    /// 16 cores) or the sharded directory (up to 1024 cores).
    pub fn uncore(&mut self, kind: UncoreKind) -> &mut Self {
        self.cmp.uncore_kind = kind;
        self
    }

    /// Replaces the whole target-CMP configuration.
    pub fn cmp_config(&mut self, cmp: CmpConfig) -> &mut Self {
        self.cmp = cmp;
        self
    }

    /// Sets the slack scheme.
    pub fn scheme(&mut self, scheme: Scheme) -> &mut Self {
        self.scheme = scheme;
        self
    }

    /// Selects the execution engine.
    pub fn engine(&mut self, engine: EngineKind) -> &mut Self {
        self.engine = engine;
        self
    }

    /// Sets the aggregate committed-instruction target (the paper runs
    /// 100 M; defaults to 2 M for laptop-scale runs).
    pub fn commit_target(&mut self, instructions: u64) -> &mut Self {
        self.commit_target = instructions;
        self
    }

    /// Sets the safety cap on simulated cycles.
    pub fn max_cycles(&mut self, cycles: u64) -> &mut Self {
        self.max_cycles = cycles;
        self
    }

    /// Sets the run seed (workload streams, the sequential engine's
    /// scheduler and the window loop's greedy rounds).
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Sets the maximum burst, in cycles, a core runs when it is picked:
    /// by the sequential engine's scheduler, and in each greedy round of
    /// the window loop.
    pub fn max_burst(&mut self, cycles: u64) -> &mut Self {
        self.max_burst = cycles;
        self
    }

    /// Sets how many host threads the window loop folds the cores onto
    /// (the calling thread steps the first lane) and services the
    /// directory's homes on. `0` (the default) uses
    /// the host's available parallelism; values above the core count are
    /// capped. A host knob only — simulated results are identical for
    /// every value, under every scheme — so it is ignored by the
    /// sequential engine and excluded from snapshot fingerprints.
    pub fn host_threads(&mut self, threads: usize) -> &mut Self {
        self.host_threads = threads;
        self
    }

    /// Enables checkpointing / speculation.
    pub fn speculation(&mut self, spec: SpeculationConfig) -> &mut Self {
        self.speculation = Some(spec);
        self
    }

    /// Enables observability: trace recording and metrics sampling. The
    /// finished report then carries [`ObsData`] (Chrome-trace / CSV
    /// exportable) in [`SimReport::obs`].
    pub fn observability(&mut self, obs: ObsConfig) -> &mut Self {
        self.obs = Some(obs);
        self
    }

    /// Enables the host-time span profiler: every engine thread
    /// attributes its wall-clock time to a fixed set of sites (core
    /// ticks, wait-ladder tiers, manager drain/service, checkpointing,
    /// persist I/O). The finished report then carries [`ProfData`] in
    /// [`SimReport::prof`], renderable as a table or CSV. Profiling never
    /// perturbs simulation results — only host time is observed.
    pub fn profile(&mut self, enabled: bool) -> &mut Self {
        self.profile = enabled;
        self
    }

    /// Enables live run telemetry: a heartbeat line of JSON emitted on a
    /// host-time cadence to the sinks configured in [`LiveConfig`]
    /// (stderr and/or an atomically replaced status file). The emitter
    /// runs on its own observer thread and reads engine-published
    /// atomics, so simulation threads are never stalled.
    pub fn live(&mut self, live: LiveConfig) -> &mut Self {
        self.live = Some(live);
        self
    }

    /// Persists every committed checkpoint into `dir` as a durable
    /// `cp-<ordinal>` snapshot file (atomically written; older
    /// checkpoints are pruned so the directory holds the latest one).
    /// Files are written behind the simulation, on a thread of their own:
    /// checkpoint *N* is durable before checkpoint *N*+1 commits and
    /// before [`run`](Simulation::run) returns. A checkpoint that cannot
    /// be written is a warning on standard error, never a failed run.
    /// Requires checkpointing to be enabled via
    /// [`speculation`](Simulation::speculation).
    pub fn save_state(&mut self, dir: impl Into<PathBuf>) -> &mut Self {
        self.save_state = Some(dir.into());
        self
    }

    /// Resumes the run from the given snapshot file instead of cycle
    /// zero. The builder's configuration (benchmark, scheme, cores, seed,
    /// checkpoint interval) must match the run that produced the snapshot;
    /// [`run`](Simulation::run) fails with [`EngineError::Resume`]
    /// otherwise.
    pub fn resume(&mut self, path: impl Into<PathBuf>) -> &mut Self {
        self.resume = Some(path.into());
        self
    }

    /// The configuration fingerprint embedded in snapshot headers:
    /// everything that must match between the run that saved a snapshot
    /// and the run that resumes from it. Engine kind and commit target
    /// are deliberately excluded — a snapshot may be resumed under either
    /// engine and toward a different target.
    fn config_fingerprint(&self) -> String {
        let interval = match self.speculation {
            None => "off".to_owned(),
            Some(s) => s.interval.to_string(),
        };
        format!(
            "bench={}/scheme={}/uncore={}/cores={}/seed={}/cpmode={interval}",
            self.benchmark.name(),
            snapshot::scheme_token(&self.scheme),
            self.cmp.uncore_kind,
            self.cmp.cores,
            self.seed,
        )
    }

    /// Builds the save hook handed to the engine when `--save-state` is
    /// active: it encodes the checkpoint view into the next container of
    /// a write-behind [`persist::CheckpointWriter`] and submits it. The
    /// writer lives in the hook, so the engine dropping the hook at the
    /// end of the run is what waits for the last checkpoint.
    fn build_save_hook(&self) -> Option<SaveHook<CmpCore, CmpUncore>> {
        let dir = self.save_state.clone()?;
        let mut writer = persist::CheckpointWriter::new(dir, self.config_fingerprint());
        Some(Box::new(
            move |view: &CheckpointView<'_, CmpCore, CmpUncore>| {
                let mut container = writer.begin();
                snapshot::encode_snapshot(view, &mut container);
                Some(writer.submit(view.ordinal, container))
            },
        ))
    }

    /// Loads and validates the snapshot named by `--resume`, producing
    /// restored engine state over freshly built models.
    fn load_resume(
        &self,
        path: &std::path::Path,
    ) -> Result<EngineResume<CmpCore, CmpUncore>, EngineError> {
        let bytes = std::fs::read(path).map_err(|e| {
            EngineError::Resume(format!("cannot read snapshot {}: {e}", path.display()))
        })?;
        let (found_fp, payload) = persist::decode_container(&bytes)
            .map_err(|e| EngineError::Resume(format!("{}: {e}", path.display())))?;
        persist::check_fingerprint(&self.config_fingerprint(), found_fp)
            .map_err(|e| EngineError::Resume(e.to_string()))?;
        snapshot::decode_snapshot(
            payload,
            self.build_cores(),
            CmpUncore::new(&self.cmp),
            &self.scheme,
            self.speculation.map(|s| s.interval),
        )
        .map_err(|e| EngineError::Resume(format!("{}: {e}", path.display())))
    }

    /// Builds the engine configuration this run will use.
    fn engine_config(&self) -> EngineConfig {
        let mut cfg = EngineConfig::new(self.scheme.clone(), self.commit_target);
        cfg.max_cycles = self.max_cycles;
        cfg.seed = self.seed;
        cfg.burst = BurstPolicy::new(self.max_burst);
        cfg.host_threads = self.host_threads;
        cfg.speculation = self.speculation;
        cfg.obs = self.obs;
        if self.profile {
            cfg.prof = Some(Profiler::enabled());
        }
        cfg.live = self.live.clone();
        cfg
    }

    /// Builds the target cores with their workload streams attached.
    fn build_cores(&self) -> Vec<CmpCore> {
        let n = self.cmp.cores;
        let seed = self.seed;
        let benchmark = self.benchmark;
        CmpCore::build_cmp(&self.cmp, |i| -> Box<dyn InstrStream> {
            benchmark.stream(&WorkloadParams::new(i, n, seed))
        })
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::Config`] when the core count is outside the
    /// selected interconnect's supported range, propagates
    /// [`EngineError`] from the engine (no cores, stall), and returns
    /// [`EngineError::Resume`] / [`EngineError::Persist`] when a snapshot
    /// cannot be restored or the save directory cannot be set up.
    pub fn run(&self) -> Result<SimReport, EngineError> {
        let max = self.cmp.uncore_kind.max_cores();
        if self.cmp.cores == 0 || self.cmp.cores > max {
            return Err(EngineError::Config(format!(
                "core count {} is outside the supported range 1..={max} for the {} uncore",
                self.cmp.cores, self.cmp.uncore_kind
            )));
        }
        let cores = self.build_cores();
        let uncore = CmpUncore::new(&self.cmp);
        let cfg = self.engine_config();
        let resume = match &self.resume {
            Some(path) => Some(self.load_resume(path)?),
            None => None,
        };
        let hook = match &self.save_state {
            Some(dir) => {
                std::fs::create_dir_all(dir).map_err(|e| {
                    EngineError::Persist(format!(
                        "cannot create checkpoint directory {}: {e}",
                        dir.display()
                    ))
                })?;
                self.build_save_hook()
            }
            None => None,
        };
        match self.engine {
            EngineKind::Sequential => {
                let mut engine = SequentialEngine::new(cores, uncore, cfg);
                if let Some(hook) = hook {
                    engine = engine.with_save_hook(hook);
                }
                if let Some(res) = resume {
                    engine = engine.with_resume(res);
                }
                engine.run()
            }
            EngineKind::Threaded | EngineKind::Batched => {
                let mut engine = BatchedEngine::new(cores, uncore, cfg);
                if let Some(hook) = hook {
                    engine = engine.with_save_hook(hook);
                }
                if let Some(res) = resume {
                    engine = engine.with_resume(res);
                }
                engine.run()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_paper() {
        let sim = Simulation::new(Benchmark::Lu);
        assert_eq!(sim.cmp.cores, 8);
        assert_eq!(sim.scheme, Scheme::CycleByCycle);
        assert_eq!(sim.engine, EngineKind::Sequential);
    }

    #[test]
    fn small_run_completes() {
        let report = Simulation::new(Benchmark::Fft)
            .cores(2)
            .commit_target(20_000)
            .run()
            .expect("run succeeds");
        assert!(report.committed >= 20_000);
        assert_eq!(report.violations.total(), 0, "CC run");
        assert!(report.uncore.get("bus_transactions") > 0);
    }

    #[test]
    fn out_of_range_cores_fail_with_a_config_error() {
        let err = Simulation::new(Benchmark::Fft)
            .cores(32)
            .run()
            .expect_err("32 cores exceed the bus ceiling");
        assert!(matches!(err, EngineError::Config(_)));
        assert!(err.to_string().contains("1..=16"), "{err}");

        let err = Simulation::new(Benchmark::Fft)
            .cores(0)
            .run()
            .expect_err("zero cores");
        assert!(matches!(err, EngineError::Config(_)));
    }

    #[test]
    fn directory_uncore_runs_past_the_bus_cap() {
        let report = Simulation::new(Benchmark::Fft)
            .uncore(UncoreKind::Directory)
            .cores(32)
            .commit_target(20_000)
            .run()
            .expect("run succeeds");
        assert!(report.committed >= 20_000);
        assert!(report.uncore.get("dir_transactions") > 0);
        assert_eq!(report.uncore.get("bus_transactions"), 0);
    }
}
