//! Edge cases and failure-injection across the full stack: degenerate
//! core counts, extreme bounds and intervals, and tiny commit targets.

use slacksim::scheme::{AdaptiveConfig, Scheme};
use slacksim::{Benchmark, Simulation, SpeculationConfig, ViolationSelect};

#[test]
fn single_core_runs_under_every_scheme() {
    // One core: slack between cores is meaningless, but the machinery must
    // degrade gracefully (and can never violate: one requester keeps
    // timestamp order).
    for scheme in [
        Scheme::CycleByCycle,
        Scheme::BoundedSlack { bound: 64 },
        Scheme::UnboundedSlack,
        Scheme::Quantum { quantum: 100 },
        Scheme::Adaptive(AdaptiveConfig::default()),
        Scheme::LaxP2p {
            lead: 8,
            period: 100,
            seed: 1,
        },
    ] {
        let r = Simulation::new(Benchmark::Lu)
            .cores(1)
            .commit_target(10_000)
            .scheme(scheme.clone())
            .run()
            .unwrap_or_else(|e| panic!("{}: {e}", scheme.name()));
        assert!(r.committed >= 10_000, "{}", scheme.name());
        assert_eq!(
            r.violations.total(),
            0,
            "{}: a single core cannot reorder against itself",
            scheme.name()
        );
    }
}

#[test]
fn two_and_sixteen_core_targets_work() {
    for cores in [2usize, 16] {
        // Scale the aggregate target so every core reaches its first
        // workload barrier (Water's force phase is 11k instructions).
        let target = cores as u64 * 15_000;
        let r = Simulation::new(Benchmark::WaterNsquared)
            .cores(cores)
            .commit_target(target)
            .scheme(Scheme::BoundedSlack { bound: 8 })
            .run()
            .expect("run succeeds");
        assert_eq!(r.per_core.len(), cores);
        assert!(r.committed >= target);
        assert!(r.uncore.get("barriers_completed") > 0, "{cores} cores");
    }
}

#[test]
fn tiny_commit_targets_finish_immediately() {
    for target in [1u64, 7] {
        let r = Simulation::new(Benchmark::Fft)
            .commit_target(target)
            .run()
            .expect("run succeeds");
        assert!(r.committed >= target);
        // A tiny run must not spin forever: the I-cache warms within a few
        // hundred cycles.
        assert!(r.global_cycles < 10_000);
    }
}

#[test]
fn huge_bound_equals_unbounded_behaviour() {
    // A bound beyond the implementation lead cap behaves like unbounded
    // slack; both must complete with similar statistics for one seed.
    let huge = Simulation::new(Benchmark::Lu)
        .commit_target(40_000)
        .scheme(Scheme::BoundedSlack {
            bound: u64::MAX / 2,
        })
        .run()
        .expect("huge bound");
    let unbounded = Simulation::new(Benchmark::Lu)
        .commit_target(40_000)
        .scheme(Scheme::UnboundedSlack)
        .run()
        .expect("unbounded");
    assert_eq!(huge.global_cycles, unbounded.global_cycles);
    assert_eq!(huge.violations, unbounded.violations);
}

#[test]
fn checkpoint_interval_of_one_cycle_survives() {
    // Degenerate: a checkpoint every global cycle. Must finish (slowly)
    // and count roughly one checkpoint per cycle.
    let mut sim = Simulation::new(Benchmark::Lu);
    sim.cores(2)
        .commit_target(2_000)
        .scheme(Scheme::BoundedSlack { bound: 4 })
        .speculation(SpeculationConfig::checkpoint_only(1));
    let r = sim.run().expect("run succeeds");
    assert!(r.committed >= 2_000);
    // Each stop point lands on the furthest core's clock, so consecutive
    // checkpoints are up to a slack bound apart.
    assert!(
        r.kernel.get("checkpoints") >= r.global_cycles / 8,
        "checkpoints: {} over {} cycles",
        r.kernel.get("checkpoints"),
        r.global_cycles
    );
}

#[test]
fn rollback_with_interval_larger_than_the_run_is_harmless() {
    let mut sim = Simulation::new(Benchmark::Fft);
    sim.commit_target(20_000)
        .scheme(Scheme::BoundedSlack { bound: 16 })
        .speculation(SpeculationConfig::speculative(
            1 << 40,
            ViolationSelect::all(),
        ));
    let r = sim.run().expect("run succeeds");
    assert!(r.committed >= 20_000);
    // The first trigger never fires; only the free initial checkpoint
    // exists and nothing rolls back (violations are detected but the
    // window never closes).
    assert_eq!(r.kernel.get("checkpoints"), 0);
}

#[test]
fn cycle_cap_is_honoured_under_slack() {
    let mut sim = Simulation::new(Benchmark::Barnes);
    sim.commit_target(u64::MAX).max_cycles(3_000);
    let r = sim.run().expect("run succeeds");
    assert_eq!(r.global_cycles, 3_000);
    assert_eq!(r.kernel.get("finish_commit_target"), 0);
}

#[test]
fn seeds_produce_distinct_workload_timings() {
    let a = Simulation::new(Benchmark::Barnes)
        .commit_target(30_000)
        .seed(1)
        .run()
        .expect("a");
    let b = Simulation::new(Benchmark::Barnes)
        .commit_target(30_000)
        .seed(2)
        .run()
        .expect("b");
    assert_ne!(
        a.global_cycles, b.global_cycles,
        "different seeds must change the workload"
    );
}

#[test]
fn quantum_larger_than_the_natural_run_still_terminates() {
    // Under quantum pacing, event deliveries (even the first I-fetch
    // replies) wait for the boundary, so the run crawls to one full
    // quantum before any instruction commits — the pathological regime
    // the paper's critical-latency argument warns about. It must still
    // terminate.
    let r = Simulation::new(Benchmark::Lu)
        .cores(2)
        .commit_target(5_000)
        .scheme(Scheme::Quantum { quantum: 16_384 })
        .run()
        .expect("run succeeds");
    assert!(r.committed >= 5_000);
    assert!(
        r.global_cycles >= 16_384,
        "the first quantum boundary gates all event deliveries"
    );
}
