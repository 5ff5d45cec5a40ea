//! The differential oracle: cross-engine equivalence checks, metamorphic
//! invariants, and the greedy failure minimizer.
//!
//! Three layers of checking, from strongest to weakest guarantee:
//!
//! 1. **Exact equality** where the design guarantees it: cycle-by-cycle
//!    runs must produce identical [`Fingerprint`]s across the sequential
//!    engine, the native threaded engine, and every virtual schedule —
//!    a threaded barrier run is handed to the batched engine, which
//!    never consults the host scheduler at all.
//! 2. **Metamorphic invariants** everywhere else ([`check_invariants`]):
//!    commit conservation, observation-counter consistency, and
//!    violations monotone non-decreasing in the slack bound.
//! 3. **Schedule diagnostics**: any virtual run of the unmutated
//!    protocol must finish with [`SchedDiag::lost_wakeups`]` == 0`.
//!
//! When a check fails, [`shrink`] minimizes the case and the test prints
//! the one-line repro (see [`crate::repro`]).

use std::sync::Arc;

use slacksim::scheme::Scheme;
use slacksim::{
    Benchmark, EngineKind, SchedRef, SimReport, Simulation, SpeculationConfig, UncoreKind,
};

use crate::repro::VirtCase;
use crate::vsched::{SchedDiag, VirtualSched};

/// The schedule-independent observable outcome of one run: everything a
/// correct engine must reproduce exactly, and nothing (wall time, obs
/// samples) it legitimately may not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Final global (slowest-core) cycle count.
    pub global_cycles: u64,
    /// Aggregate committed instructions.
    pub committed: u64,
    /// Total timing violations detected.
    pub violations: u64,
    /// Committed instructions per core.
    pub per_core_committed: Vec<u64>,
    /// Local cycles per core.
    pub per_core_cycles: Vec<u64>,
    /// Uncore interconnect transactions: snooping-bus grants plus
    /// directory-bank transactions. Whichever interconnect a run does
    /// not use contributes zero, so the same fingerprint covers both
    /// uncores.
    pub interconnect_transactions: u64,
}

/// Extracts the [`Fingerprint`] of a finished run.
pub fn fingerprint(report: &SimReport) -> Fingerprint {
    Fingerprint {
        global_cycles: report.global_cycles,
        committed: report.committed,
        violations: report.violations.total(),
        per_core_committed: report.per_core.iter().map(|c| c.get("committed")).collect(),
        per_core_cycles: report.per_core.iter().map(|c| c.get("cycles")).collect(),
        interconnect_transactions: report.uncore.get("bus_transactions")
            + report.uncore.get("dir_transactions"),
    }
}

/// Kernel counters that are a function of the simulated run alone, so
/// engines that must agree on a [`Fingerprint`] must agree on these too.
/// Host-side telemetry (park counts, the asynchronously sampled clock
/// spread) is deliberately absent.
pub const DETERMINISTIC_KERNEL_COUNTERS: [&str; 11] = [
    "checkpoints",
    "rollbacks",
    "wasted_cycles",
    "replay_cycles",
    "violations_detected_total",
    "violations_detected_bus",
    "violations_detected_map",
    "violations_detected_directory",
    "intervals_total",
    "intervals_violating",
    "finish_commit_target",
];

/// The [`DETERMINISTIC_KERNEL_COUNTERS`] of a finished run, by name.
pub fn kernel_fingerprint(report: &SimReport) -> Vec<(&'static str, u64)> {
    DETERMINISTIC_KERNEL_COUNTERS
        .iter()
        .map(|&name| (name, report.kernel.get(name)))
        .collect()
}

/// Runs one configuration on the given engine with the native host
/// scheduler.
///
/// # Panics
///
/// Panics if the engine reports an error — in the conformance harness
/// every configured case is expected to complete.
pub fn run_engine(
    bench: Benchmark,
    cores: usize,
    scheme: &Scheme,
    target: u64,
    seed: u64,
    engine: EngineKind,
) -> SimReport {
    run_engine_on(UncoreKind::Bus, bench, cores, scheme, target, seed, engine)
}

/// [`run_engine`] with an explicit uncore interconnect — the directory
/// rows of the conformance matrix run through this (the bus caps out at
/// 16 cores).
///
/// # Panics
///
/// Panics if the engine reports an error.
pub fn run_engine_on(
    uncore: UncoreKind,
    bench: Benchmark,
    cores: usize,
    scheme: &Scheme,
    target: u64,
    seed: u64,
    engine: EngineKind,
) -> SimReport {
    Simulation::new(bench)
        .uncore(uncore)
        .cores(cores)
        .scheme(scheme.clone())
        .engine(engine)
        .commit_target(target)
        .seed(seed)
        .run()
        .unwrap_or_else(|e| {
            panic!("{engine:?} run failed for {bench:?}/{uncore}/{cores} cores: {e}")
        })
}

/// Runs one *speculative* configuration on the given engine with the
/// native host scheduler (checkpointing, with or without rollback).
///
/// # Panics
///
/// Panics if the engine reports an error.
pub fn run_speculative(
    bench: Benchmark,
    cores: usize,
    scheme: &Scheme,
    target: u64,
    seed: u64,
    engine: EngineKind,
    spec: SpeculationConfig,
) -> SimReport {
    Simulation::new(bench)
        .cores(cores)
        .scheme(scheme.clone())
        .engine(engine)
        .commit_target(target)
        .seed(seed)
        .speculation(spec)
        .run()
        .unwrap_or_else(|e| {
            panic!("{engine:?} speculative run failed for {bench:?}/{cores} cores: {e}")
        })
}

/// Runs one configuration through the durable-snapshot round trip: a
/// first run persists every committed checkpoint to a scratch directory,
/// then a second run resumes from the newest snapshot file — state having
/// crossed a process-independent byte format — and continues to `target`.
/// Returns the resumed run's report; under cycle-by-cycle the caller
/// compares its [`Fingerprint`] against an uninterrupted run, which
/// proves save/load restores every model bit-identically.
///
/// # Panics
///
/// Panics if either run fails, or if the first run persisted no
/// snapshot (the partial target must cover at least one checkpoint
/// interval).
pub fn run_resumed(
    bench: Benchmark,
    cores: usize,
    scheme: &Scheme,
    target: u64,
    seed: u64,
    engine: EngineKind,
    interval: u64,
) -> SimReport {
    run_resumed_on(
        UncoreKind::Bus,
        bench,
        cores,
        scheme,
        target,
        seed,
        engine,
        interval,
    )
}

/// [`run_resumed`] with an explicit uncore interconnect, so the durable
/// round trip also covers the directory banks' versioned byte format.
///
/// # Panics
///
/// Panics if either run fails, or if the first run persisted no
/// snapshot.
#[allow(clippy::too_many_arguments)]
pub fn run_resumed_on(
    uncore: UncoreKind,
    bench: Benchmark,
    cores: usize,
    scheme: &Scheme,
    target: u64,
    seed: u64,
    engine: EngineKind,
    interval: u64,
) -> SimReport {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SCRATCH: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "slacksim-conformance-{}-{}",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::Relaxed)
    ));

    let spec = SpeculationConfig::checkpoint_only(interval);
    Simulation::new(bench)
        .uncore(uncore)
        .cores(cores)
        .scheme(scheme.clone())
        .engine(engine)
        .commit_target(target / 2)
        .seed(seed)
        .speculation(spec)
        .save_state(&dir)
        .run()
        .unwrap_or_else(|e| panic!("{engine:?} save-state run failed for {bench:?}: {e}"));

    let newest = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read snapshot dir {}: {e}", dir.display()))
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("cp-"))
        .max_by_key(std::fs::DirEntry::file_name)
        .unwrap_or_else(|| panic!("no snapshot persisted in {}", dir.display()))
        .path();

    let resumed = Simulation::new(bench)
        .uncore(uncore)
        .cores(cores)
        .scheme(scheme.clone())
        .engine(engine)
        .commit_target(target)
        .seed(seed)
        .speculation(spec)
        .resume(&newest)
        .run()
        .unwrap_or_else(|e| panic!("{engine:?} resumed run failed for {bench:?}: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
    resumed
}

/// Runs one case on the threaded engine under the virtual scheduler and
/// returns the report together with the schedule diagnostics.
///
/// # Panics
///
/// Panics if the engine reports an error.
pub fn run_virtual(case: &VirtCase) -> (SimReport, SchedDiag) {
    // A lane per core under a virtual scheduler, the first stepped by the
    // manager: `cores - 1` spawned lane tasks.
    let lanes = case.cores.saturating_sub(1);
    let sched = VirtualSched::new(lanes, case.policy, case.sched_seed, case.mutation);
    let report = Simulation::new(case.bench)
        .cores(case.cores)
        .scheme(case.scheme.clone())
        .engine(EngineKind::Threaded)
        .commit_target(case.target)
        .seed(case.seed)
        .host_sched(SchedRef::new(Arc::clone(&sched) as Arc<_>))
        .run()
        .unwrap_or_else(|e| panic!("virtual run failed for `{case}`: {e}"));
    let diag = sched.diagnostics();
    (report, diag)
}

/// Parses a repro line and replays it.
///
/// # Errors
///
/// Returns the parse error for a malformed line.
pub fn run_repro(line: &str) -> Result<(SimReport, SchedDiag), String> {
    let case = crate::repro::parse_repro(line)?;
    Ok(run_virtual(&case))
}

/// Checks the metamorphic invariants every engine must uphold for every
/// scheme.
///
/// # Errors
///
/// Returns a description of the first violated invariant.
pub fn check_invariants(report: &SimReport, scheme: &Scheme) -> Result<(), String> {
    let per_core: u64 = report.core_total("committed");
    if per_core != report.committed {
        return Err(format!(
            "commit conservation: per-core sum {per_core} != aggregate {}",
            report.committed
        ));
    }
    let detected = report.kernel.get("violations_detected_total");
    let tallied = report.violations.total();
    if detected < tallied {
        return Err(format!(
            "obs consistency: kernel counter {detected} < tallied violations {tallied}"
        ));
    }
    if matches!(scheme, Scheme::CycleByCycle) && tallied != 0 {
        return Err(format!(
            "cycle-by-cycle must be violation-free, saw {tallied}"
        ));
    }
    Ok(())
}

/// Greedy failure minimizer: repeatedly tries smaller variants of `case`
/// and keeps any for which `fails` still returns `true`, until no
/// shrinking step applies. The predicate is the *failure* — shrinking
/// preserves it.
pub fn shrink<F: Fn(&VirtCase) -> bool>(case: VirtCase, fails: F) -> VirtCase {
    debug_assert!(fails(&case), "shrink needs a failing case to start from");
    let mut best = case;
    loop {
        let mut candidates: Vec<VirtCase> = Vec::new();
        if best.target > 500 {
            let mut c = best.clone();
            c.target = (best.target / 2).max(500);
            candidates.push(c);
        }
        if best.cores > 1 {
            let mut c = best.clone();
            c.cores = best.cores - 1;
            candidates.push(c);
            let mut c = best.clone();
            c.cores = 1;
            candidates.push(c);
        }
        if let Scheme::BoundedSlack { bound } = best.scheme {
            if bound > 1 {
                let mut c = best.clone();
                c.scheme = Scheme::BoundedSlack { bound: bound / 2 };
                candidates.push(c);
            }
        }
        if let crate::vsched::Mutation::DropUnpark { nth } = best.mutation {
            if nth > 0 {
                let mut c = best.clone();
                c.mutation = crate::vsched::Mutation::DropUnpark { nth: nth / 2 };
                candidates.push(c);
                let mut c = best.clone();
                c.mutation = crate::vsched::Mutation::DropUnpark { nth: nth - 1 };
                candidates.push(c);
            }
        }
        // First still-failing candidate wins this round; none → done.
        match candidates.into_iter().find(|c| *c != best && fails(c)) {
            Some(c) => best = c,
            None => return best,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vsched::{Mutation, SchedPolicy};

    fn case() -> VirtCase {
        VirtCase {
            policy: SchedPolicy::RandomWalk,
            sched_seed: 1,
            mutation: Mutation::DropUnpark { nth: 7 },
            bench: Benchmark::Fft,
            cores: 8,
            scheme: Scheme::BoundedSlack { bound: 16 },
            target: 8_000,
            seed: 1,
        }
    }

    #[test]
    fn shrink_reaches_minimal_case_when_everything_fails() {
        let shrunk = shrink(case(), |_| true);
        assert_eq!(shrunk.target, 500);
        assert_eq!(shrunk.cores, 1);
        assert_eq!(shrunk.scheme, Scheme::BoundedSlack { bound: 1 });
        assert_eq!(shrunk.mutation, Mutation::DropUnpark { nth: 0 });
    }

    #[test]
    fn shrink_keeps_the_bound_the_failure_needs() {
        let shrunk = shrink(
            case(),
            |c| matches!(c.scheme, Scheme::BoundedSlack { bound } if bound >= 4),
        );
        assert_eq!(shrunk.scheme, Scheme::BoundedSlack { bound: 4 });
        assert_eq!((shrunk.cores, shrunk.target), (1, 500));
    }

    #[test]
    fn shrink_respects_the_predicate() {
        // Failure requires >= 4 cores and target >= 4000.
        let shrunk = shrink(case(), |c| c.cores >= 4 && c.target >= 4_000);
        assert_eq!(shrunk.cores, 4);
        assert_eq!(shrunk.target, 4_000);
    }

    #[test]
    fn invariants_hold_for_a_sequential_run() {
        let scheme = Scheme::BoundedSlack { bound: 8 };
        let report = run_engine(
            Benchmark::Fft,
            2,
            &scheme,
            10_000,
            1,
            EngineKind::Sequential,
        );
        check_invariants(&report, &scheme).expect("invariants hold");
    }

    #[test]
    fn fingerprint_is_deterministic_for_the_sequential_engine() {
        let scheme = Scheme::CycleByCycle;
        let a = run_engine(Benchmark::Lu, 2, &scheme, 5_000, 3, EngineKind::Sequential);
        let b = run_engine(Benchmark::Lu, 2, &scheme, 5_000, 3, EngineKind::Sequential);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }
}
