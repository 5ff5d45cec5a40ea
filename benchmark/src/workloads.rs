//! The six named workloads and how each becomes a `Simulation`.

use std::path::Path;

use slacksim::scheme::Scheme;
use slacksim::{
    Benchmark, BurstPolicy, CmpConfig, EngineConfig, EngineKind, Simulation, SpeculationConfig,
    UncoreKind, ViolationKind, ViolationSelect,
};

/// One benchmark workload: a fixed simulator configuration run to a fixed
/// commit target, so simulated counts repeat exactly where the engine is
/// deterministic.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name used on the command line, in `BENCHMARK.json` and in results.
    pub name: &'static str,
    /// Why the workload exists: the layers it stresses and the ones it
    /// bypasses.
    pub why: &'static str,
    /// Engine under test.
    pub engine: EngineKind,
    /// Slack scheme.
    pub scheme: Scheme,
    /// Interconnect.
    pub uncore: UncoreKind,
    /// Target cores.
    pub cores: usize,
    /// Synthetic SPLASH-2-like program.
    pub benchmark: Benchmark,
    /// Commit target at full size.
    pub commits: u64,
    /// Checkpoint every 1000 cycles, roll back on map violations and save
    /// every checkpoint to disk.
    pub speculative: bool,
}

/// Checkpoint interval of the speculative workload, in simulated cycles.
const CHECKPOINT_INTERVAL: u64 = 1000;

/// Every workload, in reporting order.
pub static ALL: [Workload; 6] = [
    Workload {
        name: "seq-cc-fft8",
        why: "Gold-standard reference: one-cycle windows run the engine loop, GlobalQueue and window arithmetic once per cycle, so engine overhead per tick is at its maximum and model work at its minimum.",
        engine: EngineKind::Sequential,
        scheme: Scheme::CycleByCycle,
        uncore: UncoreKind::Bus,
        cores: 8,
        benchmark: Benchmark::Fft,
        commits: 6_000_000,
        speculative: false,
    },
    Workload {
        name: "seq-b16-barnes64dir",
        why: "Sequential engine with greedy windows and seeded bursts; Barnes has the most locks and violations, so directory, sharers, sync and the violation monitors work hardest and the bus path not at all.",
        engine: EngineKind::Sequential,
        scheme: Scheme::BoundedSlack { bound: 16 },
        uncore: UncoreKind::Directory,
        cores: 64,
        benchmark: Benchmark::Barnes,
        commits: 12_000_000,
        speculative: false,
    },
    Workload {
        name: "bat-q50-fft64dir",
        why: "Fastest path: engine cost is amortised over 50-cycle quanta, so core ticks, cache probes and stream generation are nearly all of the wall; bypasses GlobalQueue pops, SpscRing and every wait site.",
        engine: EngineKind::Batched,
        scheme: Scheme::Quantum { quantum: 50 },
        uncore: UncoreKind::Directory,
        cores: 64,
        benchmark: Benchmark::Fft,
        commits: 12_000_000,
        speculative: false,
    },
    Workload {
        name: "thr-b16-fft4",
        why: "The paper's CMP-on-CMP execution at a throughput-bound point: SpscRing batch paths and the manager loop dominate; 5 host threads stay steady on 2 CPUs. Non-deterministic under slack by design.",
        engine: EngineKind::Threaded,
        scheme: Scheme::BoundedSlack { bound: 16 },
        uncore: UncoreKind::Bus,
        cores: 4,
        benchmark: Benchmark::Fft,
        commits: 8_000_000,
        speculative: false,
    },
    Workload {
        name: "thr-cc-fft4",
        why: "Threaded engine with a barrier every simulated cycle: the spin/yield/park wait ladder and wake-ups are nearly all of the wall. A wait-ladder change shows here, a ring change on thr-b16-fft4.",
        engine: EngineKind::Threaded,
        scheme: Scheme::CycleByCycle,
        uncore: UncoreKind::Bus,
        cores: 4,
        benchmark: Benchmark::Fft,
        commits: 1_500_000,
        speculative: false,
    },
    Workload {
        name: "seq-spec-water8",
        why: "The only workload where speculative, checkpoint, persist and the snapshot encoder run (checkpoint every 1000 cycles, rollback on map violations, save_state); the others predict no change from them.",
        engine: EngineKind::Sequential,
        scheme: Scheme::BoundedSlack { bound: 16 },
        uncore: UncoreKind::Bus,
        cores: 8,
        benchmark: Benchmark::WaterNsquared,
        commits: 12_000_000,
        speculative: true,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    /// Runs of this workload with one seed repeat exactly.
    pub fn deterministic(&self) -> bool {
        self.engine != EngineKind::Threaded || self.scheme == Scheme::CycleByCycle
    }

    /// The scheme lets core clocks drift, so the run has a simulated-time
    /// error against the cycle-by-cycle reference.
    pub fn has_slack(&self) -> bool {
        self.scheme != Scheme::CycleByCycle
    }

    /// Commit target at `1/scale` of full size.
    pub fn commit_target(&self, scale: u64) -> u64 {
        (self.commits / scale.max(1)).max(1)
    }

    fn speculation(&self) -> Option<SpeculationConfig> {
        // The default checkpoint mode on purpose: `--checkpoint-mode` may be
        // deleted, and the instrument must outlive that.
        self.speculative.then(|| {
            SpeculationConfig::speculative(
                CHECKPOINT_INTERVAL,
                ViolationSelect::only(&[ViolationKind::Map]),
            )
        })
    }

    /// The configuration as the facade runs it. `save_dir` is where the
    /// speculative workload persists its checkpoints; `None` leaves
    /// `save_state` off.
    pub fn simulation(&self, seed: u64, commit_target: u64, save_dir: Option<&Path>) -> Simulation {
        let mut sim = Simulation::new(self.benchmark);
        sim.cores(self.cores)
            .uncore(self.uncore)
            .scheme(self.scheme.clone())
            .engine(self.engine)
            .commit_target(commit_target)
            .seed(seed);
        if let Some(spec) = self.speculation() {
            sim.speculation(spec);
            if let Some(dir) = save_dir {
                sim.save_state(dir);
            }
        }
        sim
    }

    /// The sequential cycle-by-cycle run of the same target: the reference
    /// that `sim_error_pct` and the threaded fingerprint check compare with.
    pub fn reference(&self, seed: u64, commit_target: u64) -> Simulation {
        let reference = Workload {
            engine: EngineKind::Sequential,
            scheme: Scheme::CycleByCycle,
            speculative: false,
            ..self.clone()
        };
        reference.simulation(seed, commit_target, None)
    }

    /// Target configuration, as `Simulation` derives it.
    pub fn cmp_config(&self) -> CmpConfig {
        CmpConfig {
            cores: self.cores,
            uncore_kind: self.uncore,
            ..CmpConfig::paper()
        }
    }

    /// Engine configuration mirroring the facade's defaults, for the traced
    /// pass that has to build the engine itself. The transparency check
    /// (traced fingerprint equals untraced) fails if the two ever diverge.
    pub fn engine_config(&self, seed: u64, commit_target: u64) -> EngineConfig {
        let mut cfg = EngineConfig::new(self.scheme.clone(), commit_target);
        cfg.seed = seed;
        cfg.burst = BurstPolicy::new(16);
        cfg.max_lead = 256;
        cfg.speculation = self.speculation();
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_contract_safe() {
        for (i, w) in ALL.iter().enumerate() {
            assert!(w.name.len() <= 64 && w.why.len() <= 200, "{}", w.name);
            assert!(w
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(ALL[i + 1..].iter().all(|o| o.name != w.name));
            assert_eq!(by_name(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(by_name("nope").is_none());
    }

    #[test]
    fn only_slack_threaded_runs_are_nondeterministic() {
        let nondet: Vec<_> = ALL
            .iter()
            .filter(|w| !w.deterministic())
            .map(|w| w.name)
            .collect();
        assert_eq!(nondet, ["thr-b16-fft4"]);
    }
}
