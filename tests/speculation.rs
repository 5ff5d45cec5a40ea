//! Checkpointing and speculative rollback across the full stack.

use slacksim::scheme::Scheme;
use slacksim::{
    Benchmark, EngineKind, Simulation, SpeculationConfig, ViolationKind, ViolationSelect,
};

const COMMIT: u64 = 80_000;

#[test]
fn checkpoint_only_runs_barely_perturb_results() {
    // Checkpoint stop points clamp the scheduling windows, which perturbs
    // the run slightly — the paper makes the same observation about its
    // own instrumentation (§3). The simulated outcome must stay within a
    // small tolerance of the uncheckpointed run.
    let plain = Simulation::new(Benchmark::Lu)
        .commit_target(COMMIT)
        .scheme(Scheme::BoundedSlack { bound: 8 })
        .engine(EngineKind::Sequential)
        .run()
        .expect("plain");
    let mut sim = Simulation::new(Benchmark::Lu);
    sim.commit_target(COMMIT)
        .scheme(Scheme::BoundedSlack { bound: 8 })
        .engine(EngineKind::Sequential)
        .speculation(SpeculationConfig::checkpoint_only(2_000));
    let checked = sim.run().expect("checkpointed");
    let err =
        slacksim::percent_error(checked.global_cycles as f64, plain.global_cycles as f64).abs();
    assert!(
        err < 1.0,
        "checkpointing perturbed execution time by {err:.3}%"
    );
    assert!(checked.committed >= COMMIT);
    assert!(checked.kernel.get("checkpoints") > 0);
    assert_eq!(checked.kernel.get("rollbacks"), 0);
}

#[test]
fn checkpoint_count_scales_inversely_with_interval() {
    let counts: Vec<u64> = [1_000u64, 4_000]
        .into_iter()
        .map(|interval| {
            let mut sim = Simulation::new(Benchmark::Fft);
            sim.commit_target(COMMIT)
                .scheme(Scheme::BoundedSlack { bound: 8 })
                .engine(EngineKind::Sequential)
                .speculation(SpeculationConfig::checkpoint_only(interval));
            sim.run().expect("run").kernel.get("checkpoints")
        })
        .collect();
    assert!(
        counts[0] > 2 * counts[1],
        "1k intervals must checkpoint far more often: {counts:?}"
    );
}

#[test]
fn rollback_on_all_violations_leaves_a_clean_timeline() {
    let mut sim = Simulation::new(Benchmark::Fft);
    sim.commit_target(COMMIT)
        .scheme(Scheme::BoundedSlack { bound: 16 })
        .engine(EngineKind::Sequential)
        .speculation(SpeculationConfig::speculative(
            2_000,
            ViolationSelect::all(),
        ));
    let r = sim.run().expect("speculative run");
    assert!(r.committed >= COMMIT, "forward progress guaranteed");
    assert!(
        r.kernel.get("rollbacks") > 0,
        "FFT at bound 16 must violate"
    );
    assert!(r.kernel.get("replay_cycles") > 0);
    // Violations that triggered rollbacks were erased by restoring the
    // checkpoint; only the final (unfinished) interval may retain any.
    assert!(
        r.violations.total() <= r.kernel.get("violations_detected_total"),
        "surviving violations cannot exceed detections"
    );
}

#[test]
fn map_only_rollback_ignores_bus_violations() {
    let mut sim = Simulation::new(Benchmark::Fft);
    sim.commit_target(COMMIT)
        .scheme(Scheme::BoundedSlack { bound: 16 })
        .engine(EngineKind::Sequential)
        .speculation(SpeculationConfig::speculative(
            2_000,
            ViolationSelect::only(&[ViolationKind::Map]),
        ));
    let r = sim.run().expect("speculative run");
    assert!(r.committed >= COMMIT);
    // Bus violations survive (not selected), so plenty remain.
    assert!(
        r.violations.count(ViolationKind::Bus) > 0,
        "unselected bus violations must survive"
    );
}

#[test]
fn speculative_execution_time_tracks_cc() {
    // With rollback-on-all, every violating interval is replayed
    // cycle-by-cycle, so the simulated execution time must be very close
    // to the CC reference.
    let cc = Simulation::new(Benchmark::WaterNsquared)
        .commit_target(COMMIT)
        .engine(EngineKind::Sequential)
        .run()
        .expect("cc");
    let mut sim = Simulation::new(Benchmark::WaterNsquared);
    sim.commit_target(COMMIT)
        .scheme(Scheme::BoundedSlack { bound: 16 })
        .engine(EngineKind::Sequential)
        .speculation(SpeculationConfig::speculative(
            2_000,
            ViolationSelect::all(),
        ));
    let spec = sim.run().expect("spec");
    let err = slacksim::percent_error(spec.global_cycles as f64, cc.global_cycles as f64).abs();
    assert!(err < 3.0, "speculative timeline error {err:.2}% vs CC");
}

#[test]
fn threaded_checkpointing_completes_and_counts() {
    let mut sim = Simulation::new(Benchmark::Lu);
    sim.commit_target(COMMIT)
        .scheme(Scheme::BoundedSlack { bound: 16 })
        .engine(EngineKind::Threaded)
        .speculation(SpeculationConfig::checkpoint_only(5_000));
    let r = sim.run().expect("threaded checkpointed run");
    assert!(r.committed >= COMMIT);
    assert!(r.kernel.get("checkpoints") > 0);
    assert_eq!(r.kernel.get("rollbacks"), 0);
}

#[test]
fn threaded_rollback_completes() {
    let mut sim = Simulation::new(Benchmark::Fft);
    sim.commit_target(50_000)
        .scheme(Scheme::BoundedSlack { bound: 16 })
        .engine(EngineKind::Threaded)
        .speculation(SpeculationConfig::speculative(
            2_000,
            ViolationSelect::all(),
        ));
    let r = sim.run().expect("threaded speculative run");
    assert!(r.committed >= 50_000, "forward progress under rollback");
}

#[test]
fn one_cycle_interval_checkpoints_every_cycle_and_still_progresses() {
    // Degenerate interval I = 1: a checkpoint at every global cycle, so
    // every rollback lands exactly on a checkpoint boundary and every
    // replay covers at most one cycle. Forward progress must survive the
    // worst case the interval knob allows.
    let mut sim = Simulation::new(Benchmark::Fft);
    sim.cores(2)
        .commit_target(2_000)
        .scheme(Scheme::BoundedSlack { bound: 4 })
        .engine(EngineKind::Sequential)
        .speculation(SpeculationConfig::speculative(1, ViolationSelect::all()));
    let r = sim.run().expect("degenerate-interval run completes");
    assert!(r.committed >= 2_000, "forward progress");
    assert!(r.kernel.get("checkpoints") > 0);
    // Each rollback replays its one-cycle interval in CC mode; replayed
    // cycles can never exceed one per rollback.
    assert!(r.kernel.get("replay_cycles") <= r.kernel.get("rollbacks"));
    assert!(r.kernel.get("violations_detected_total") >= r.violations.total());
}
