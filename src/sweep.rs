//! Design-space campaigns: a sweep-spec grid run as a fleet of
//! [`Simulation`](crate::Simulation) jobs on a host worker pool.
//!
//! * `spec` — the [`SweepSpec`] format and its expansion into a stably
//!   ordered grid of [`Job`]s with unique identity tokens;
//! * `pool` — a worker pool that hands out jobs from one shared atomic
//!   cursor and returns results in job order;
//! * `live` — campaign heartbeats on the run heartbeat's emitter
//!   (`"campaign":true` tells them apart);
//! * `aggregate` — the durable artifacts: [`Manifest`], per-job
//!   [`JobRow`]s, streamed JSONL and final CSV aggregates, all free of
//!   wall-clock time.
//!
//! This file runs each job's [`RunSpec`](crate::RunSpec) with durable
//! per-job checkpoints and assembles the campaign directory:
//!
//! ```text
//! <dir>/manifest.json        grid identity (written once, atomically)
//! <dir>/jobs/<token>/        per-job cp-NNNNNNNN checkpoints + report.json
//! <dir>/aggregate.jsonl      streaming aggregate (one row as each job settles)
//! <dir>/aggregate.csv        final aggregate (grid order, atomically written)
//! ```
//!
//! Crash safety is compositional: each job's durable checkpoints ride
//! the existing `--save-state` persist layer, its finished `report.json`
//! is written atomically *before* its checkpoints are pruned, and the
//! streaming aggregate is rebuilt on resume. A SIGKILLed campaign
//! therefore resumes every in-flight job from its newest checkpoint and
//! skips every settled job — the final aggregate is byte-identical to an
//! uninterrupted campaign's (enforced by `tests/campaign.rs`).

mod aggregate;
mod live;
mod pool;
mod spec;

use std::fmt;
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use slacksim_core::obs::LiveConfig;
use slacksim_core::persist;
use slacksim_core::stats::SimReport;

pub use aggregate::{JobRow, Manifest, AGGREGATE_VERSION, CSV_HEADER, LEGACY_CSV_HEADER};
pub use pool::PoolOutcome;
pub use spec::{Axes, Job, SpecError, SweepSpec, MAX_GRID_JOBS, SPEC_VERSION};

use aggregate::render_aggregate_csv;
use live::CampaignStats;
use pool::run_jobs;

/// Everything that can stop a campaign before any job runs. All
/// variants are usage-class errors (the CLI maps them to exit 2);
/// individual job failures are reported in [`SweepOutcome::failed`]
/// instead, so one bad grid point cannot sink the fleet.
#[derive(Debug, Clone, PartialEq)]
pub enum SweepError {
    /// The spec document failed to parse or validate.
    Spec(SpecError),
    /// No spec was given and the campaign directory has no manifest to
    /// resume from.
    MissingSpec(PathBuf),
    /// A spec was given, but the directory's manifest fingerprints a
    /// different grid.
    SpecMismatch {
        /// The campaign directory.
        dir: PathBuf,
    },
    /// The directory holds a manifest this build cannot read.
    Manifest(String),
    /// Campaign-directory I/O failed (manifest or aggregate writes).
    Io(String),
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::Spec(e) => write!(f, "{e}"),
            SweepError::MissingSpec(dir) => write!(
                f,
                "no sweep spec given and {} holds no campaign manifest to resume \
                 (start a campaign with --spec FILE)",
                dir.join("manifest.json").display()
            ),
            SweepError::SpecMismatch { dir } => write!(
                f,
                "the given spec does not match the campaign recorded in {} \
                 (resume with --dir alone, or point --dir at a fresh directory)",
                dir.join("manifest.json").display()
            ),
            SweepError::Manifest(e) => write!(f, "{e}"),
            SweepError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SweepError {}

impl From<SpecError> for SweepError {
    fn from(e: SpecError) -> Self {
        SweepError::Spec(e)
    }
}

/// Host-side knobs of one `run_sweep` invocation. None of these affect
/// any job's simulated outcome — they are deliberately outside the
/// manifest fingerprint, so a campaign may be resumed with a different
/// worker count or telemetry setup.
#[derive(Debug, Clone, Default)]
pub struct SweepOptions {
    /// Worker-pool width; `None` falls back to the spec's `workers`
    /// field, then to host parallelism.
    pub workers: Option<usize>,
    /// Campaign heartbeat sinks; `None` emits nothing.
    pub live: Option<LiveConfig>,
}

/// What one `run_sweep` invocation did.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Settled rows (skipped + newly finished), in grid order. Failed
    /// jobs have no row.
    pub rows: Vec<JobRow>,
    /// Full reports of jobs *this* invocation ran, indexed by grid
    /// index; `None` for jobs skipped as already settled (their rows
    /// come from disk) and for failed jobs.
    pub reports: Vec<Option<SimReport>>,
    /// Which jobs each worker ran, and the pool's concurrency high-water mark.
    pub pool: PoolOutcome,
    /// Jobs resumed from a durable checkpoint instead of starting fresh.
    pub resumed: u64,
    /// Jobs skipped because their `report.json` already existed.
    pub skipped: u64,
    /// Terminal job failures as `(token, error)` pairs, in grid order.
    pub failed: Vec<(String, String)>,
}

/// Runs (or resumes) the campaign in `dir`.
///
/// With `spec_src`, starts a fresh campaign (or resumes one whose
/// manifest fingerprints the same grid). Without it, resumes from the
/// manifest already in `dir`.
///
/// # Errors
///
/// Returns [`SweepError`] for spec/manifest/setup problems; job
/// failures are collected in [`SweepOutcome::failed`] instead.
pub fn run_sweep(
    spec_src: Option<&str>,
    dir: &Path,
    opts: &SweepOptions,
) -> Result<SweepOutcome, SweepError> {
    let manifest_path = dir.join("manifest.json");
    let existing = match std::fs::read_to_string(&manifest_path) {
        Ok(src) => Some(Manifest::parse(&src).map_err(SweepError::Manifest)?),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => {
            return Err(SweepError::Io(format!(
                "cannot read {}: {e}",
                manifest_path.display()
            )))
        }
    };

    let (spec, spec_source) = match (spec_src, &existing) {
        (Some(src), Some(manifest)) => {
            let spec = SweepSpec::parse(src)?;
            if spec.canonical() != manifest.canonical {
                return Err(SweepError::SpecMismatch {
                    dir: dir.to_path_buf(),
                });
            }
            (spec, src.to_string())
        }
        (Some(src), None) => (SweepSpec::parse(src)?, src.to_string()),
        (None, Some(manifest)) => (
            SweepSpec::parse(&manifest.spec_source).map_err(|e| {
                SweepError::Manifest(format!("manifest spec no longer parses: {e}"))
            })?,
            manifest.spec_source.clone(),
        ),
        (None, None) => return Err(SweepError::MissingSpec(dir.to_path_buf())),
    };

    let jobs = spec.expand();
    std::fs::create_dir_all(dir.join("jobs"))
        .map_err(|e| SweepError::Io(format!("cannot create {}: {e}", dir.display())))?;
    if existing.is_none() {
        let manifest = Manifest {
            total: jobs.len() as u64,
            canonical: spec.canonical(),
            spec_source,
        };
        persist::write_atomic(&manifest_path, manifest.render().as_bytes())
            .map_err(|e| SweepError::Io(format!("cannot write campaign manifest: {e}")))?;
    }

    // Partition the grid: jobs with a finished report on disk are
    // settled (their rows are reused verbatim); the rest go to the pool.
    let mut settled_rows: Vec<JobRow> = Vec::new();
    let mut pending: Vec<Job> = Vec::new();
    for job in jobs {
        match read_finished_report(dir, &job) {
            Some(row) => settled_rows.push(row),
            None => pending.push(job),
        }
    }

    let stats = Arc::new(CampaignStats::new());
    stats.total.store(
        (settled_rows.len() + pending.len()) as u64,
        Ordering::Relaxed,
    );
    stats
        .skipped
        .store(settled_rows.len() as u64, Ordering::Relaxed);
    let live = opts
        .live
        .clone()
        .map(|cfg| live::spawn(cfg, Arc::clone(&stats)));

    // Rebuild the streaming aggregate from scratch: settled rows first
    // (grid order), then one appended line per job as it finishes. A
    // torn line from a killed predecessor never survives the rebuild.
    let jsonl_path = dir.join("aggregate.jsonl");
    let jsonl = File::create(&jsonl_path)
        .map_err(|e| SweepError::Io(format!("cannot create {}: {e}", jsonl_path.display())))?;
    let jsonl = Mutex::new(jsonl);
    for row in &settled_rows {
        append_jsonl(&jsonl, &row.render_json());
    }

    let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers = opts
        .workers
        .or(spec.workers.map(|w| w as usize))
        .unwrap_or(cpus);
    // A job's own host threads (the window loop's lanes) get the CPUs the
    // pool leaves over: a pool as wide as the host runs every job on one.
    // A host knob like the pool width — in no token, manifest or
    // fingerprint.
    let host_threads = (cpus / workers.max(1)).max(1);
    let total = settled_rows.len() + pending.len();

    let exec = |_worker: usize, _idx: usize, job: Job| -> JobResult {
        stats.job_started();
        // A panicking job is a terminal failure of that grid point only:
        // catch it here so the pool worker survives and every other job
        // still settles. (Without this the unwind would poison shared
        // state and take the whole fleet down with exit-101 noise.)
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_job(dir, &job, host_threads, &stats, &jsonl)
        }))
        .unwrap_or_else(|panic| Err(format!("job panicked: {}", panic_message(&panic))));
        stats.job_finished(outcome.is_ok());
        JobResult { job, outcome }
    };
    let (results, pool) = run_jobs(pending, workers, exec);

    if let Some(live) = live {
        live.finish();
    }

    let mut rows = settled_rows;
    let mut reports: Vec<Option<SimReport>> = (0..total).map(|_| None).collect();
    let mut failed: Vec<(String, String)> = Vec::new();
    let mut ordered: Vec<JobResult> = results;
    ordered.sort_by_key(|r| r.job.index);
    for result in ordered {
        match result.outcome {
            Ok((row, report)) => {
                reports[row.index as usize] = Some(report);
                rows.push(row);
            }
            Err(e) => failed.push((result.job.token(), e)),
        }
    }
    rows.sort_by_key(|r| r.index);

    // The final aggregate is only meaningful when the whole grid
    // settled; with failures present the streamed JSONL remains the
    // (partial) record and the stale CSV question never arises because
    // no CSV is written until a fully-green pass.
    if failed.is_empty() {
        let csv_path = dir.join("aggregate.csv");
        persist::write_atomic(&csv_path, render_aggregate_csv(&rows).as_bytes())
            .map_err(|e| SweepError::Io(format!("cannot write {}: {e}", csv_path.display())))?;
    }

    Ok(SweepOutcome {
        rows,
        reports,
        pool,
        resumed: stats.resumed.load(Ordering::Relaxed),
        skipped: stats.skipped.load(Ordering::Relaxed),
        failed,
    })
}

/// One pool result: the job plus its row/report or terminal error.
struct JobResult {
    job: Job,
    outcome: Result<(JobRow, SimReport), String>,
}

/// Extracts the human-readable message from a caught panic payload
/// (`panic!` carries `&str` or `String`; anything else is opaque).
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The per-job directory holding checkpoints and the finished report.
fn job_dir(dir: &Path, job: &Job) -> PathBuf {
    dir.join("jobs").join(job.token())
}

/// Reads a settled job's row back, if its finished report exists and
/// parses. An unreadable report is treated as unsettled: the job simply
/// reruns (and resumes from its checkpoints if any survive).
fn read_finished_report(dir: &Path, job: &Job) -> Option<JobRow> {
    let path = job_dir(dir, job).join("report.json");
    let src = std::fs::read_to_string(path).ok()?;
    let row = JobRow::parse_json(&src).ok()?;
    (row.index == job.index).then_some(row)
}

/// The newest durable checkpoint in a job directory, by ordinal
/// (`cp-NNNNNNNN` names sort lexicographically). A `cp-*.tmp` is the
/// half-written side of an interrupted atomic write — never durable,
/// and it would sort *after* its renamed sibling.
fn newest_checkpoint(dir: &Path) -> Option<PathBuf> {
    checkpoint_files(dir)
        .filter(|p| !p.to_string_lossy().ends_with(".tmp"))
        .max()
}

/// The `cp-*` files in a job directory, none when it cannot be read.
fn checkpoint_files(dir: &Path) -> impl Iterator<Item = PathBuf> {
    let entries = std::fs::read_dir(dir).into_iter().flatten();
    entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("cp-"))
        })
}

/// Runs one job to a settled report: resume from the newest durable
/// checkpoint when one exists (falling back to a fresh start if the
/// snapshot is stale or corrupt), write `report.json` atomically, then
/// prune the checkpoints it supersedes and stream the row.
fn execute_job(
    dir: &Path,
    job: &Job,
    host_threads: usize,
    stats: &CampaignStats,
    jsonl: &Mutex<File>,
) -> Result<(JobRow, SimReport), String> {
    // Test seam: a job whose token matches this env var panics on the
    // worker, so the campaign tests can prove one panicking job is
    // recorded as failed while the rest of the fleet settles green.
    if std::env::var("SLACKSIM_SWEEP_PANIC_TOKEN").is_ok_and(|t| t == job.token()) {
        panic!("injected test panic for job {}", job.token());
    }

    let jdir = job_dir(dir, job);
    let run = &job.run;
    // A job's checkpoints never roll back: the campaign uses them only
    // as its durability heartbeat.
    let mut sim = run.simulation();
    sim.host_threads(host_threads);
    if run.checkpoint.is_some() {
        sim.save_state(&jdir);
    }

    let report = match newest_checkpoint(&jdir) {
        Some(cp) => {
            let mut resumed_sim = sim.clone();
            resumed_sim.resume(&cp);
            match resumed_sim.run() {
                Ok(report) => {
                    stats.resumed.fetch_add(1, Ordering::Relaxed);
                    eprintln!("sweep: job {} resumed from {}", job.token(), cp.display());
                    Ok(report)
                }
                Err(e) => {
                    // A checkpoint that no longer restores (truncated by
                    // the crash, or from an older layout) must not strand
                    // the grid point: warn and run the job from cycle 0.
                    eprintln!(
                        "warning: sweep job {} could not resume from {} ({e}); restarting",
                        job.token(),
                        cp.display()
                    );
                    sim.run()
                }
            }
        }
        None => sim.run(),
    }
    .map_err(|e| e.to_string())?;

    // The per-job resource cap: a run stopped by `max_cycles` before
    // reaching its commit target is a terminal failure, not a settled
    // result — a stalled grid point must be visible, never averaged
    // into the aggregate as if it had finished.
    if report.committed < run.commit {
        return Err(format!(
            "stopped at the max_cycles cap ({} cycles) with {} of {} instructions committed",
            report.global_cycles, report.committed, run.commit
        ));
    }

    let row = JobRow {
        index: job.index,
        token: job.token(),
        workload: job.workload.clone(),
        scheme: run.scheme.name().to_string(),
        uncore: run.uncore.as_str().to_string(),
        bound: run.bound,
        quantum: run.quantum,
        cores: run.cores,
        seed: run.seed,
        cycles: report.global_cycles,
        committed: report.committed,
        violations: report.violations.total(),
    };
    std::fs::create_dir_all(&jdir).map_err(|e| format!("cannot create {}: {e}", jdir.display()))?;
    let report_path = jdir.join("report.json");
    persist::write_atomic(&report_path, row.render_json().as_bytes())
        .map_err(|e| format!("cannot write {}: {e}", report_path.display()))?;
    // Prune only after the report is durably in place: a crash between
    // the two leaves a resumable checkpoint, never a settled-looking
    // job with no evidence.
    prune_job_checkpoints(&jdir);
    append_jsonl(jsonl, &row.render_json());
    Ok((row, report))
}

/// Removes a settled job's `cp-*` files (its report supersedes them).
fn prune_job_checkpoints(jdir: &Path) {
    for path in checkpoint_files(jdir) {
        let _ = std::fs::remove_file(&path);
    }
}

/// Appends one already-`\n`-terminated row line to the streaming
/// aggregate. Failures are warnings: the streamed file is a convenience
/// view, `report.json` is the record.
///
/// A poisoned lock is recovered, not propagated: poisoning means some
/// job thread panicked while appending its row, and every row line is
/// written whole under the lock, so the file itself is never left
/// half-written. Panicking here instead would sink every remaining job
/// of the fleet over one casualty's bookkeeping.
fn append_jsonl(jsonl: &Mutex<File>, line: &str) {
    let mut file = jsonl
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Err(e) = file.write_all(line.as_bytes()).and_then(|()| file.flush()) {
        eprintln!("warning: aggregate.jsonl append failed: {e}");
    }
}
