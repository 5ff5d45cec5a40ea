//! One run description, [`RunSpec`]: what the CLI's flags and a sweep job
//! both fill in, with one set of defaults, one validator and one
//! constructor of the [`Simulation`].

use std::fmt;

use slacksim_core::scheme::{AdaptiveConfig, Scheme};

use crate::{
    Benchmark, EngineKind, SchemeKind, Simulation, SpeculationConfig, UncoreKind, ViolationSelect,
};

/// Everything that decides one run's report. Host-side settings (host
/// threads, observers, profiling, live telemetry, snapshot paths) stay on
/// the [`Simulation`] builder. A scheme reads only its own knobs
/// ([`SchemeKind::knobs`]); the others keep their values and are still
/// checked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSpec {
    /// The workload.
    pub benchmark: Benchmark,
    /// The synchronisation scheme.
    pub scheme: SchemeKind,
    /// Slack bound, and the p2p lead.
    pub bound: u64,
    /// Quantum length.
    pub quantum: u64,
    /// Adaptive target violation rate, in percent.
    pub target_pct: f64,
    /// Adaptive tolerance band, in percent of the target.
    pub band_pct: f64,
    /// P2p re-pick period, in cycles (p2p pairs cores by the run seed).
    pub period: u64,
    /// The engine.
    pub engine: EngineKind,
    /// The uncore interconnect.
    pub uncore: UncoreKind,
    /// Target core count.
    pub cores: u64,
    /// Aggregate committed-instruction target.
    pub commit: u64,
    /// Run seed.
    pub seed: u64,
    /// Simulated-cycle cap; `None` keeps [`Simulation`]'s.
    pub max_cycles: Option<u64>,
    /// Checkpoint interval in global cycles; `None` takes no checkpoints.
    pub checkpoint: Option<u64>,
    /// Violation kinds that roll back; `None` selects none of them.
    pub rollback: Option<ViolationSelect>,
}

impl Default for RunSpec {
    /// FFT under cc on the sequential engine and the 8-core bus, 500 k
    /// commits, seed 1; bound 8, quantum 50, adaptive 0.2 % in a 5 %
    /// band, p2p period 500.
    fn default() -> Self {
        RunSpec {
            benchmark: Benchmark::Fft,
            scheme: SchemeKind::Cc,
            bound: 8,
            quantum: 50,
            target_pct: 0.2,
            band_pct: 5.0,
            period: 500,
            engine: EngineKind::Sequential,
            uncore: UncoreKind::Bus,
            cores: 8,
            commit: 500_000,
            seed: 1,
            max_cycles: None,
            checkpoint: None,
            rollback: None,
        }
    }
}

/// A value [`RunSpec::check`] refuses. Each message starts with the
/// value's name, which is also its flag's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunError {
    /// A count that must be at least 1 is 0, named as a sweep spec does.
    Zero(&'static str),
    /// The adaptive target is not a finite percentage above 0.
    Target(f64),
    /// The adaptive band is not a finite percentage of at least 0.
    Band(f64),
    /// The core count is outside this uncore's range.
    Cores(u64, UncoreKind),
    /// A rollback selection without a checkpoint interval.
    RollbackWithoutCheckpoint,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RunError::Zero(field) => write!(f, "{field} must be at least 1 (got 0)"),
            RunError::Target(v) => write!(f, "target must be a finite percentage > 0 (got {v})"),
            RunError::Band(v) => write!(f, "band must be a finite percentage >= 0 (got {v})"),
            RunError::Cores(n, uncore) => write!(
                f,
                "cores must be between 1 and {} for the {uncore} uncore (got {n})",
                uncore.max_cores()
            ),
            RunError::RollbackWithoutCheckpoint => write!(f, "rollback requires a checkpoint"),
        }
    }
}

impl std::error::Error for RunError {}

impl RunSpec {
    /// Checks every value rule of a run.
    ///
    /// # Errors
    ///
    /// The first [`RunError`] found.
    pub fn check(&self) -> Result<(), RunError> {
        let counts = [
            ("commit", Some(self.commit)),
            ("checkpoint", self.checkpoint),
            ("max_cycles", self.max_cycles),
            ("bound", Some(self.bound)),
            ("quantum", Some(self.quantum)),
            ("period", Some(self.period)),
        ];
        if let Some(&(field, _)) = counts.iter().find(|(_, v)| *v == Some(0)) {
            return Err(RunError::Zero(field));
        }
        if !(self.target_pct.is_finite() && self.target_pct > 0.0) {
            return Err(RunError::Target(self.target_pct));
        }
        if !(self.band_pct.is_finite() && self.band_pct >= 0.0) {
            return Err(RunError::Band(self.band_pct));
        }
        if !(1..=self.uncore.max_cores() as u64).contains(&self.cores) {
            return Err(RunError::Cores(self.cores, self.uncore));
        }
        if self.rollback.is_some() && self.checkpoint.is_none() {
            return Err(RunError::RollbackWithoutCheckpoint);
        }
        Ok(())
    }

    /// The scheme with the knobs its kind reads.
    pub fn build_scheme(&self) -> Scheme {
        match self.scheme {
            SchemeKind::Cc => Scheme::CycleByCycle,
            SchemeKind::Bounded => Scheme::BoundedSlack { bound: self.bound },
            SchemeKind::Unbounded => Scheme::UnboundedSlack,
            SchemeKind::Quantum => Scheme::Quantum {
                quantum: self.quantum,
            },
            SchemeKind::Adaptive => {
                Scheme::Adaptive(AdaptiveConfig::percent(self.target_pct, self.band_pct))
            }
            SchemeKind::P2p => Scheme::LaxP2p {
                lead: self.bound,
                period: self.period,
                seed: self.seed,
            },
        }
    }

    /// The [`Simulation`] this spec describes, for a spec that passed
    /// [`check`](RunSpec::check).
    pub fn simulation(&self) -> Simulation {
        let mut sim = Simulation::new(self.benchmark);
        sim.scheme(self.build_scheme())
            .engine(self.engine)
            .uncore(self.uncore)
            .cores(self.cores as usize)
            .commit_target(self.commit)
            .seed(self.seed);
        if let Some(cycles) = self.max_cycles {
            sim.max_cycles(cycles);
        }
        if let Some(interval) = self.checkpoint {
            let select = self.rollback.unwrap_or_default();
            sim.speculation(SpeculationConfig::speculative(interval, select));
        }
        sim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_defaults_pass_and_every_rule_refuses() {
        let d = RunSpec::default();
        assert_eq!(d.check(), Ok(()));
        let cases = [
            (RunSpec { commit: 0, ..d }, RunError::Zero("commit")),
            (
                RunSpec {
                    checkpoint: Some(0),
                    ..d
                },
                RunError::Zero("checkpoint"),
            ),
            (
                RunSpec {
                    max_cycles: Some(0),
                    ..d
                },
                RunError::Zero("max_cycles"),
            ),
            (RunSpec { bound: 0, ..d }, RunError::Zero("bound")),
            (RunSpec { quantum: 0, ..d }, RunError::Zero("quantum")),
            (RunSpec { period: 0, ..d }, RunError::Zero("period")),
            (
                RunSpec {
                    target_pct: f64::INFINITY,
                    ..d
                },
                RunError::Target(f64::INFINITY),
            ),
            (
                RunSpec {
                    band_pct: -1.0,
                    ..d
                },
                RunError::Band(-1.0),
            ),
            (
                RunSpec { cores: 17, ..d },
                RunError::Cores(17, UncoreKind::Bus),
            ),
            (
                RunSpec {
                    uncore: UncoreKind::Directory,
                    cores: 0,
                    ..d
                },
                RunError::Cores(0, UncoreKind::Directory),
            ),
            (
                RunSpec {
                    rollback: Some(ViolationSelect::none()),
                    ..d
                },
                RunError::RollbackWithoutCheckpoint,
            ),
        ];
        for (spec, err) in cases {
            assert_eq!(spec.check(), Err(err), "{spec:?}");
        }
        let nan = RunSpec {
            target_pct: f64::NAN,
            ..d
        };
        assert!(matches!(nan.check(), Err(RunError::Target(_))));
    }

    #[test]
    fn p2p_pairs_with_the_run_seed() {
        let spec = RunSpec {
            scheme: SchemeKind::P2p,
            bound: 3,
            seed: 9,
            ..RunSpec::default()
        };
        assert_eq!(
            spec.build_scheme(),
            Scheme::LaxP2p {
                lead: 3,
                period: 500,
                seed: 9
            }
        );
    }
}
