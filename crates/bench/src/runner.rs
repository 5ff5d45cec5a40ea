//! Shared run helpers for the experiment modules.

use slacksim::scheme::{AdaptiveConfig, Scheme};
use slacksim::{Benchmark, EngineKind, SimReport, Simulation};

use crate::scale::Scale;

/// Builds the standard simulation for an experiment: the paper's target
/// (scaled core count), the given benchmark, the scale's commit target and
/// seed.
pub fn sim(scale: &Scale, benchmark: Benchmark) -> Simulation {
    let mut s = Simulation::new(benchmark);
    s.cores(scale.cores)
        .commit_target(scale.commit)
        .seed(scale.seed);
    s
}

/// Runs the deterministic engine with the given scheme.
///
/// # Panics
///
/// Panics if the engine reports an error (experiments treat that as a
/// harness bug).
pub fn run_sequential(scale: &Scale, benchmark: Benchmark, scheme: Scheme) -> SimReport {
    sim(scale, benchmark)
        .scheme(scheme)
        .engine(EngineKind::Sequential)
        .run()
        .expect("sequential run")
}

/// Runs the threaded (wall-clock) engine with the given scheme.
///
/// # Panics
///
/// Panics if the engine reports an error.
pub fn run_threaded(scale: &Scale, benchmark: Benchmark, scheme: Scheme) -> SimReport {
    sim(scale, benchmark)
        .scheme(scheme)
        .engine(EngineKind::Threaded)
        .run()
        .expect("threaded run")
}

/// Mean slack bound over a run's adaptive trace (0 when empty).
pub fn mean_bound(report: &SimReport) -> f64 {
    if report.bound_trace.is_empty() {
        0.0
    } else {
        report
            .bound_trace
            .iter()
            .map(|&(_, b)| b as f64)
            .sum::<f64>()
            / report.bound_trace.len() as f64
    }
}

/// The paper's adaptive configuration for a target rate in percent and a
/// violation band in percent.
pub fn adaptive(target_percent: f64, band_percent: f64) -> AdaptiveConfig {
    AdaptiveConfig::percent(target_percent, band_percent)
}

/// CPI error of `run` against the cycle-by-cycle CPI `cc`, in percent.
pub fn cpi_error(run: &SimReport, cc: f64) -> f64 {
    (run.cpi() - cc).abs() / cc * 100.0
}

/// Formats a violation rate as a percentage with enough digits for the
/// low-rate regime.
pub fn fmt_rate(rate: f64) -> String {
    format!("{:.4}%", rate * 100.0)
}

/// Formats seconds with millisecond resolution.
pub fn fmt_secs(secs: f64) -> String {
    format!("{secs:.3}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Scale {
        Scale {
            commit: 20_000,
            seed: 1,
            cores: 2,
        }
    }

    #[test]
    fn sequential_run_completes() {
        let r = run_sequential(&tiny(), Benchmark::Lu, Scheme::CycleByCycle);
        assert!(r.committed >= 20_000);
        assert_eq!(r.violations.total(), 0);
    }

    #[test]
    fn mean_bound_tracks_the_static_bound() {
        let r = run_sequential(&tiny(), Benchmark::Lu, Scheme::BoundedSlack { bound: 4 });
        assert_eq!(mean_bound(&r), 4.0, "static pacers trace their bound");
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_rate(0.000123), "0.0123%");
        assert_eq!(fmt_secs(1.23456), "1.235");
    }
}
