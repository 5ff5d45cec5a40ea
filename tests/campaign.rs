//! Campaign-runner integration tests: the proof harness behind
//! `slacksim sweep`.
//!
//! Three properties carry the campaign story:
//!
//! * **Oversubscription honesty** — a 24-job grid on a 3-worker pool
//!   completes every job, never runs more jobs at once than it has
//!   workers, starves no worker, and produces per-job reports
//!   bit-identical to the same configurations run solo. Parallelism is
//!   a throughput trick, never a results perturbation.
//! * **Campaign-level kill-and-resume** — a SIGKILLed campaign resumes
//!   in-flight jobs from their durable checkpoints and skips settled
//!   ones, and its final aggregate is byte-identical to an
//!   uninterrupted campaign's.
//! * **Idempotent resume** — rerunning a finished campaign skips every
//!   job and leaves the aggregate bytes untouched.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use slacksim::sweep::{run_sweep, SweepOptions, SweepSpec};
use slacksim::{Benchmark, EngineKind, SimReport, Simulation};

/// Fresh scratch directory for one test's campaign files.
fn scratch_dir(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "slacksim-campaign-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// The 24-point oversubscription grid: 3 schemes x 2 bounds x 1 quantum
/// x 1 core count x 2 workloads x 2 seeds.
const OVERSUB_SPEC: &str = r#"{
    "v": 1,
    "commit": 4000,
    "engine": "seq",
    "axes": {
        "scheme": ["cc", "bounded", "quantum"],
        "bound": [8, 16],
        "quantum": [50],
        "cores": [2],
        "workload": ["fft", "water"],
        "seed": [1, 2]
    }
}"#;

/// The simulated-outcome fields of a report — everything a resume or a
/// pool schedule must reproduce exactly; wall-clock and host profiling
/// are deliberately excluded.
fn outcome_of(report: &SimReport) -> impl PartialEq + std::fmt::Debug {
    (
        report.global_cycles,
        report.committed,
        report.violations,
        report.per_core.clone(),
        report.uncore.clone(),
    )
}

#[test]
fn oversubscribed_campaign_is_fair_and_bit_identical_to_solo_runs() {
    let dir = scratch_dir("oversub");
    let opts = SweepOptions {
        workers: Some(3),
        ..SweepOptions::default()
    };
    let outcome = run_sweep(Some(OVERSUB_SPEC), &dir, &opts).expect("campaign runs");

    // Every grid point settled, exactly once, in grid order.
    let spec = SweepSpec::parse(OVERSUB_SPEC).unwrap();
    let jobs = spec.expand();
    assert_eq!(jobs.len(), 24, "the grid is the 24-point product");
    assert_eq!(outcome.rows.len(), 24, "every job settled");
    assert!(
        outcome.failed.is_empty(),
        "no job failed: {:?}",
        outcome.failed
    );
    assert_eq!(outcome.skipped, 0);
    assert_eq!(outcome.resumed, 0);
    for (i, row) in outcome.rows.iter().enumerate() {
        assert_eq!(row.index, i as u64, "rows come back in grid order");
        assert_eq!(row.token, jobs[i].token());
    }

    // Backpressure: 24 jobs on 3 workers never ran more than 3 at once.
    assert_eq!(outcome.pool.per_worker_jobs.len(), 3, "pool width is 3");
    assert!(
        outcome.pool.max_concurrent <= 3,
        "oversubscribed pool ran {} jobs at once",
        outcome.pool.max_concurrent
    );

    // Fairness: all jobs ran, and no worker starved. Each worker owns an
    // 8-job deque and pops its own front first, so an empty share would
    // require peers to steal all 8 jobs before the worker's first pop.
    let counts = outcome.pool.counts();
    assert_eq!(counts.iter().sum::<usize>(), 24, "all 24 jobs executed");
    assert!(
        counts.iter().all(|&c| c >= 1),
        "a worker starved: jobs/worker = {counts:?}"
    );

    // Bit-identity: each pooled report equals the same config run solo.
    for job in &jobs {
        let pooled = outcome.reports[job.index as usize]
            .as_ref()
            .expect("fresh campaign ran every job");
        let solo = Simulation::new(Benchmark::parse(&job.workload).unwrap())
            .cores(job.cores as usize)
            .scheme(job.scheme.clone())
            .engine(EngineKind::Sequential)
            .commit_target(spec.commit)
            .seed(job.seed)
            .run()
            .expect("solo run");
        assert_eq!(
            outcome_of(pooled),
            outcome_of(&solo),
            "job {} diverged from its solo run",
            job.token()
        );
    }

    // Idempotent resume: a second invocation (spec or manifest, both
    // legal) skips everything and rewrites identical aggregate bytes.
    let csv = std::fs::read(dir.join("aggregate.csv")).expect("aggregate.csv written");
    let again = run_sweep(None, &dir, &opts).expect("resume of a finished campaign");
    assert_eq!(again.skipped, 24, "every settled job is skipped");
    assert_eq!(again.rows, outcome.rows, "rows survive the round-trip");
    assert!(again.reports.iter().all(Option::is_none), "nothing reran");
    let csv_again = std::fs::read(dir.join("aggregate.csv")).unwrap();
    assert_eq!(csv, csv_again, "aggregate bytes are reproduced exactly");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two long cc jobs with durable checkpoints every 500 cycles: small
/// enough for debug CI, long enough that the first snapshot lands well
/// before either job finishes.
const KILL_SPEC: &str = r#"{
    "v": 1,
    "commit": 60000,
    "engine": "seq",
    "checkpoint": 500,
    "workers": 1,
    "axes": {
        "scheme": ["cc"],
        "cores": [2],
        "workload": ["fft"],
        "seed": [1, 2]
    }
}"#;

/// A batched campaign's jobs share the host with the pool: each gets
/// `max(1, cpus / workers)` host threads for its windows, so a one-worker
/// pool hands its job every CPU and a pool as wide as the host runs every
/// job single-threaded. Like the pool width itself that is a host knob —
/// the manifest, the tokens and every aggregate byte are the same.
#[test]
fn batched_campaign_is_the_same_at_every_pool_width() {
    const SPEC: &str = r#"{
        "v": 1,
        "commit": 80000,
        "engine": "batched",
        "axes": {
            "scheme": ["quantum"],
            "quantum": [50],
            "uncore": ["directory"],
            "cores": [16],
            "workload": ["fft", "water"],
            "seed": [1, 2]
        }
    }"#;
    let campaign = |workers: usize| {
        let dir = scratch_dir(&format!("batched-w{workers}"));
        let opts = SweepOptions {
            workers: Some(workers),
            ..SweepOptions::default()
        };
        let outcome = run_sweep(Some(SPEC), &dir, &opts).expect("campaign runs");
        assert!(outcome.failed.is_empty(), "{:?}", outcome.failed);
        let read = |name: &str| std::fs::read(dir.join(name)).expect(name);
        let files = (read("manifest.json"), read("aggregate.csv"));
        let _ = std::fs::remove_dir_all(&dir);
        files
    };
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let solo = campaign(1);
    assert_eq!(campaign(cpus.max(2)), solo, "pool as wide as the host");
    assert_eq!(campaign(4 * cpus), solo, "oversubscribed pool");
}

/// The same for a threaded campaign, whose jobs fold their cores onto
/// the `max(1, cpus / workers)` lanes the pool leaves them instead of
/// each spawning a thread per core: under cycle-by-cycle every job's
/// report is the one a pool of one produces.
#[test]
fn threaded_cc_campaign_is_the_same_at_pool_widths_1_and_2() {
    const SPEC: &str = r#"{
        "v": 1,
        "commit": 20000,
        "engine": "threaded",
        "axes": {
            "scheme": ["cc"],
            "cores": [4],
            "workload": ["fft", "water"],
            "seed": [1, 2]
        }
    }"#;
    let campaign = |workers: usize| {
        let dir = scratch_dir(&format!("threaded-w{workers}"));
        let opts = SweepOptions {
            workers: Some(workers),
            ..SweepOptions::default()
        };
        let outcome = run_sweep(Some(SPEC), &dir, &opts).expect("campaign runs");
        assert!(outcome.failed.is_empty(), "{:?}", outcome.failed);
        let _ = std::fs::remove_dir_all(&dir);
        outcome
            .reports
            .iter()
            .map(|r| outcome_of(r.as_ref().expect("every job ran")))
            .collect::<Vec<_>>()
    };
    let solo = campaign(1);
    assert_eq!(solo.len(), 4, "2 workloads x 2 seeds");
    assert_eq!(campaign(2), solo, "two jobs at a time");
}

fn slacksim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_slacksim"))
        .args(args)
        .output()
        .expect("spawn slacksim binary")
}

/// Any `cp-*` file under any job directory of the campaign.
fn any_job_checkpoint(dir: &Path) -> Option<PathBuf> {
    let jobs = std::fs::read_dir(dir.join("jobs")).ok()?;
    for jdir in jobs.flatten() {
        let Ok(entries) = std::fs::read_dir(jdir.path()) else {
            continue;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            // A cp-*.tmp is an in-flight atomic write, not yet durable.
            if name.starts_with("cp-") && !name.ends_with(".tmp") {
                return Some(entry.path());
            }
        }
    }
    None
}

#[test]
fn sigkilled_campaign_resumes_to_a_bit_identical_aggregate() {
    let base = scratch_dir("kill");
    let spec_path = base.join("sweep.json");
    std::fs::write(&spec_path, KILL_SPEC).unwrap();
    let spec = spec_path.to_str().unwrap();

    // Uninterrupted baseline campaign.
    let dir_a = base.join("uninterrupted");
    let baseline = slacksim(&["sweep", "--spec", spec, "--dir", dir_a.to_str().unwrap()]);
    assert!(
        baseline.status.success(),
        "baseline campaign exits 0: {}",
        String::from_utf8_lossy(&baseline.stderr)
    );
    let want_csv = std::fs::read(dir_a.join("aggregate.csv")).expect("baseline aggregate");
    let want_jsonl = std::fs::read(dir_a.join("aggregate.jsonl")).expect("baseline jsonl");

    // Start the same campaign elsewhere and SIGKILL it as soon as the
    // first durable job checkpoint lands (mid-first-job, by construction:
    // checkpoints arrive every 500 cycles of an ~85k-cycle run).
    let dir_b = base.join("killed");
    let mut child = Command::new(env!("CARGO_BIN_EXE_slacksim"))
        .args(["sweep", "--spec", spec, "--dir", dir_b.to_str().unwrap()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn campaign");
    let deadline = Instant::now() + Duration::from_secs(60);
    while any_job_checkpoint(&dir_b).is_none() {
        assert!(
            Instant::now() < deadline,
            "no job checkpoint appeared within the deadline"
        );
        if child.try_wait().expect("poll child").is_some() {
            break; // finished before we could kill it — still comparable
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let _ = child.kill();
    let _ = child.wait();

    // Resume from the manifest alone. The in-flight job restarts from
    // its newest snapshot (not cycle 0), which the runner announces.
    let resumed = slacksim(&["sweep", "--dir", dir_b.to_str().unwrap()]);
    assert!(
        resumed.status.success(),
        "resumed campaign exits 0: {}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let err = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        err.contains("resumed from"),
        "resume restarts from a durable checkpoint, stderr: {err:?}"
    );

    // The final artifacts are byte-identical to never having crashed.
    let got_csv = std::fs::read(dir_b.join("aggregate.csv")).expect("resumed aggregate");
    assert_eq!(got_csv, want_csv, "aggregate.csv diverged across the kill");
    let got_jsonl = std::fs::read(dir_b.join("aggregate.jsonl")).expect("resumed jsonl");
    assert_eq!(
        got_jsonl, want_jsonl,
        "aggregate.jsonl diverged across the kill"
    );

    // Settled jobs prune their checkpoints: the campaign directory holds
    // reports, not stale snapshots.
    assert!(
        any_job_checkpoint(&dir_b).is_none(),
        "settled jobs must prune their cp-* files"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn failed_jobs_do_not_sink_the_fleet() {
    // A grid where one point cannot finish: 2000 fft instructions take
    // ~4.5k cycles on 2 cores but ~8.7k on 1, so a 6500-cycle cap
    // settles the 2-core job and stops the 1-core job short of target —
    // which must surface as a per-job failure, not an aggregate row.
    let spec = r#"{
        "v": 1,
        "commit": 2000,
        "max_cycles": 6500,
        "axes": {
            "scheme": ["cc"],
            "cores": [1, 2],
            "workload": ["fft"],
            "seed": [1]
        }
    }"#;
    let dir = scratch_dir("fail");
    let opts = SweepOptions {
        workers: Some(2),
        ..SweepOptions::default()
    };
    let outcome = run_sweep(Some(spec), &dir, &opts).expect("campaign itself runs");
    assert_eq!(outcome.rows.len(), 1, "the 2-core job settles");
    assert_eq!(outcome.rows[0].cores, 2);
    assert_eq!(outcome.failed.len(), 1, "the capped 1-core job fails");
    assert!(
        outcome.failed[0].0.contains("-c1-"),
        "the failure names the capped job: {:?}",
        outcome.failed
    );
    assert!(
        outcome.failed[0].1.contains("max_cycles"),
        "the failure names the cap: {:?}",
        outcome.failed
    );
    // No CSV on a partial pass: the streamed JSONL is the partial record.
    assert!(
        !dir.join("aggregate.csv").exists(),
        "no final aggregate until the grid is green"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn panicking_job_does_not_sink_the_fleet() {
    // Regression: a panic inside one job used to unwind its worker
    // thread, poisoning the shared aggregate.jsonl mutex and turning
    // every subsequent settle into a second panic — one bad job sank
    // the whole fleet. The panic must now be caught, recorded as that
    // job's failure, and leave the remaining jobs green.
    let base = scratch_dir("panic");
    let spec = r#"{
        "v": 1,
        "commit": 2000,
        "axes": {
            "scheme": ["cc"],
            "cores": [2],
            "workload": ["fft"],
            "seed": [1, 2, 3]
        }
    }"#;
    let spec_path = base.join("sweep.json");
    std::fs::write(&spec_path, spec).unwrap();
    let camp = base.join("camp");
    let jobs = SweepSpec::parse(spec).unwrap().expand();
    assert_eq!(jobs.len(), 3);
    let victim = jobs[1].token();

    // SLACKSIM_SWEEP_PANIC_TOKEN is the test seam in `execute_job`: the
    // named job panics mid-execution, on a pool worker, for real.
    let out = Command::new(env!("CARGO_BIN_EXE_slacksim"))
        .args([
            "sweep",
            "--spec",
            spec_path.to_str().unwrap(),
            "--dir",
            camp.to_str().unwrap(),
            "--workers",
            "2",
        ])
        .env("SLACKSIM_SWEEP_PANIC_TOKEN", &victim)
        .output()
        .expect("spawn campaign");
    assert!(
        !out.status.success(),
        "a failed job surfaces as a non-zero campaign exit"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("job panicked"),
        "the failure records the panic message: {err:?}"
    );
    assert!(err.contains(&victim), "the failure names the job: {err:?}");
    assert!(
        err.contains("rerun"),
        "the runner offers the retry path: {err:?}"
    );

    // The other two jobs settled durably despite sharing the fleet.
    for job in [&jobs[0], &jobs[2]] {
        assert!(
            camp.join("jobs")
                .join(job.token())
                .join("report.json")
                .exists(),
            "job {} must settle despite the panicking peer",
            job.token()
        );
    }
    assert!(
        !camp.join("aggregate.csv").exists(),
        "no final aggregate until the grid is green"
    );

    // A plain rerun (no poison seam) retries only the failed job and
    // finishes the campaign green.
    let retry = slacksim(&["sweep", "--dir", camp.to_str().unwrap()]);
    assert!(
        retry.status.success(),
        "retry exits 0: {}",
        String::from_utf8_lossy(&retry.stderr)
    );
    let csv = std::fs::read_to_string(camp.join("aggregate.csv")).expect("final aggregate");
    assert_eq!(csv.lines().count(), 4, "header plus all three rows: {csv}");
    assert!(csv.contains(&victim), "the retried job's row is present");
    let _ = std::fs::remove_dir_all(&base);
}
