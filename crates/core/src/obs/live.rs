//! Live run telemetry: a host-time-cadence heartbeat emitted while the
//! simulation runs.
//!
//! The emitter is a plain observer thread. Engine threads publish their
//! progress into a [`LiveStats`] block of relaxed atomics (stores they
//! already make, or one extra relaxed store per manager iteration) and the
//! emitter reads those atomics — plus the profiler's shared per-site
//! accumulators — on its own clock. Cores are never stalled: no lock is
//! shared with the simulation, so a run with a heartbeat attached is
//! bit-identical to one without.
//!
//! Each beat is one line of JSON (schema version
//! [`HEARTBEAT_VERSION`]) written to any combination of three sinks:
//! stderr, an atomically-replaced status file (write temp + rename, so
//! readers like `watch jq . status.json` never see a torn line), and an
//! in-memory capture buffer for tests and embedders. A final beat is
//! always emitted when the run finishes, so even runs shorter than the
//! cadence produce one complete heartbeat.
//!
//! In steady state the emitter allocates nothing for stderr and capture
//! sinks: the line is formatted into a reused buffer and site names are
//! `&'static str`. (The file sink goes through OS path APIs, which
//! allocate inside the standard library — on the emitter thread only.)

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use super::prof::{ProfSite, Profiler};

/// Version of the heartbeat JSON schema (the `v` field). Bump when fields
/// change meaning or are removed; adding fields is backward-compatible.
pub const HEARTBEAT_VERSION: u64 = 1;

/// Sentinel stored in [`LiveStats::bound`] when the active scheme has no
/// finite slack bound (rendered as `null` in the heartbeat).
pub const NO_BOUND: u64 = u64::MAX;

/// Where and how often the heartbeat is emitted.
#[derive(Debug, Clone, Default)]
pub struct LiveConfig {
    /// Host-time cadence between beats; `None` uses
    /// [`LiveConfig::DEFAULT_EVERY`].
    pub every: Option<Duration>,
    /// Emit each beat to stderr.
    pub stderr: bool,
    /// Emit each beat by atomically replacing this file (write to a
    /// sibling temp file, then rename).
    pub path: Option<PathBuf>,
    /// Append each beat to this shared buffer (tests and embedders).
    pub capture: Option<Arc<Mutex<String>>>,
}

impl LiveConfig {
    /// Default cadence between beats.
    pub const DEFAULT_EVERY: Duration = Duration::from_millis(250);

    /// Creates a config with the default cadence and no sinks; chain the
    /// builder methods to add at least one sink.
    pub fn new() -> Self {
        LiveConfig::default()
    }

    /// Sets the cadence between beats.
    #[must_use]
    pub fn every(mut self, every: Duration) -> Self {
        self.every = Some(every);
        self
    }

    /// Adds the stderr sink.
    #[must_use]
    pub fn to_stderr(mut self) -> Self {
        self.stderr = true;
        self
    }

    /// Adds the atomically-replaced status-file sink.
    #[must_use]
    pub fn to_file(mut self, path: impl Into<PathBuf>) -> Self {
        self.path = Some(path.into());
        self
    }

    /// Adds the in-memory capture sink (each beat line is appended).
    #[must_use]
    pub fn to_capture(mut self, buf: Arc<Mutex<String>>) -> Self {
        self.capture = Some(buf);
        self
    }

    /// The effective cadence.
    pub fn cadence(&self) -> Duration {
        self.every
            .unwrap_or(Self::DEFAULT_EVERY)
            .max(Duration::from_millis(1))
    }

    /// Whether any sink is configured (engines skip spawning otherwise).
    pub fn has_sink(&self) -> bool {
        self.stderr || self.path.is_some() || self.capture.is_some()
    }
}

/// The atomics engine threads publish into and the emitter reads from.
/// All accesses are relaxed: each value is an independent gauge and a
/// slightly stale read is fine.
#[derive(Debug, Default)]
pub struct LiveStats {
    /// Current global simulated cycle.
    pub global: AtomicU64,
    /// Aggregate committed instructions so far.
    pub committed: AtomicU64,
    /// The run's commit target (set once at start).
    pub commit_target: AtomicU64,
    /// Current slack bound in cycles, or [`NO_BOUND`].
    pub bound: AtomicU64,
    /// Violations surviving in the committed timeline so far.
    pub violations: AtomicU64,
    /// Events queued core→manager (sum over cores' OutQs).
    pub outq_depth: AtomicU64,
    /// Events queued manager→core (sum over cores' InQs).
    pub inq_depth: AtomicU64,
    /// Events in the manager's global arrival-ordered queue.
    pub globalq_depth: AtomicU64,
    /// Trace records dropped to ring overflow so far.
    pub dropped_traces: AtomicU64,
    /// Checkpoints taken so far.
    pub checkpoints: AtomicU64,
    /// Rollbacks taken so far.
    pub rollbacks: AtomicU64,
}

impl LiveStats {
    /// Creates a zeroed stats block with no bound set.
    pub fn new() -> Self {
        let s = LiveStats::default();
        s.bound.store(NO_BOUND, Ordering::Relaxed);
        s
    }
}

/// Handle to a running emitter thread; call [`finish`](Self::finish) (or
/// drop) to emit the terminal beat and join.
#[derive(Debug)]
pub struct LiveHandle {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl LiveHandle {
    /// Signals the emitter to write one final beat and joins it.
    pub fn finish(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(join) = self.join.take() {
            self.stop.store(true, Ordering::Release);
            join.thread().unpark();
            let _ = join.join();
        }
    }
}

impl Drop for LiveHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Spawns the run's heartbeat emitter. `stats` is the engine-published
/// gauge block, `prof` the run's profiler (its per-site shares appear in
/// each beat; pass [`Profiler::disabled`] when not profiling — the
/// `sites` object is then empty).
pub fn spawn(cfg: LiveConfig, stats: Arc<LiveStats>, prof: Profiler) -> LiveHandle {
    let start = Instant::now();
    let start_committed = stats.committed.load(Ordering::Relaxed);
    let mut prev = Beat {
        at: start,
        committed: start_committed,
        start_committed,
        terminal: false,
    };
    spawn_emitter(cfg, "slacksim-live", move |buf, terminal| {
        prev.terminal = terminal;
        render_heartbeat(buf, start, &stats, &prof, &mut prev);
    })
}

/// Spawns an emitter thread named `name`: on `cfg`'s cadence it renders a
/// beat into a reused buffer with `render` — told whether the beat is the
/// terminal one, rendered when the handle finishes — and writes it to
/// every sink. Without a sink no thread is spawned. The campaign
/// heartbeat (`campaign::live`) runs on it too.
pub(crate) fn spawn_emitter(
    cfg: LiveConfig,
    name: &str,
    render: impl FnMut(&mut String, bool) + Send + 'static,
) -> LiveHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let join = cfg.has_sink().then(|| {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name(name.into())
            .spawn(move || emitter_loop(&cfg, render, &stop))
            .expect("spawn live emitter thread")
    });
    LiveHandle { stop, join }
}

fn emitter_loop(cfg: &LiveConfig, mut render: impl FnMut(&mut String, bool), stop: &AtomicBool) {
    let every = cfg.cadence();
    let tmp_path = cfg.path.as_ref().map(|p| {
        let mut tmp = p.as_os_str().to_owned();
        tmp.push(".tmp");
        PathBuf::from(tmp)
    });
    let mut buf = String::with_capacity(2048);
    let mut next = Instant::now() + every;
    loop {
        let stopping = stop.load(Ordering::Acquire);
        let now = Instant::now();
        if stopping || now >= next {
            render(&mut buf, stopping);
            emit(cfg, tmp_path.as_deref(), &buf);
            if stopping {
                return;
            }
            next = now + every;
        }
        let now = Instant::now();
        if now < next && !stop.load(Ordering::Acquire) {
            std::thread::park_timeout(next - now);
        }
    }
}

/// Rate bookkeeping between consecutive beats.
struct Beat {
    at: Instant,
    committed: u64,
    /// Committed count when the emitter started, for the lifetime average.
    start_committed: u64,
    /// Set for the final beat: report the lifetime average instead of the
    /// (empty) last window.
    terminal: bool,
}

/// Writes one `\n`-terminated heartbeat line into `buf` (replacing its
/// contents). Allocation-free once `buf` has capacity.
fn render_heartbeat(
    buf: &mut String,
    start: Instant,
    stats: &LiveStats,
    prof: &Profiler,
    prev: &mut Beat,
) {
    let now = Instant::now();
    let elapsed_ms = now.duration_since(start).as_millis() as u64;
    let global = stats.global.load(Ordering::Relaxed);
    let committed = stats.committed.load(Ordering::Relaxed);
    let target = stats.commit_target.load(Ordering::Relaxed);
    let bound = stats.bound.load(Ordering::Relaxed);
    let violations = stats.violations.load(Ordering::Relaxed);

    let progress = if target > 0 {
        (committed as f64 / target as f64).min(1.0)
    } else {
        0.0
    };
    // In-flight beats report the rate over the window since the previous
    // beat (what the run is doing *now*); the terminal beat reports the
    // lifetime average, since its window is empty by construction — the
    // engine publishes the final tallies and stops the emitter in the
    // same breath.
    let (window_s, base_committed) = if prev.terminal {
        (
            now.duration_since(start).as_secs_f64(),
            prev.start_committed,
        )
    } else {
        (now.duration_since(prev.at).as_secs_f64(), prev.committed)
    };
    let commits_per_sec = if window_s > 0.0 {
        committed.saturating_sub(base_committed) as f64 / window_s
    } else {
        0.0
    };
    prev.at = now;
    prev.committed = committed;
    let remaining = target.saturating_sub(committed);
    let eta_ms = if commits_per_sec > 0.0 && remaining > 0 {
        // A near-zero rate in the first beats (warmup: a commit or two
        // against a distant target) pushes this product past u64 range;
        // the saturating cast would then report u64::MAX milliseconds as
        // a live ETA. Anything that does not fit is simply unknown.
        let ms = remaining as f64 / commits_per_sec * 1000.0;
        (ms.is_finite() && ms < u64::MAX as f64).then_some(ms as u64)
    } else {
        None
    };
    let violation_rate = if committed > 0 {
        violations as f64 / committed as f64 * 100.0
    } else {
        0.0
    };

    buf.clear();
    let _ = write!(
        buf,
        r#"{{"v":{HEARTBEAT_VERSION},"elapsed_ms":{elapsed_ms},"progress":"#
    );
    write_f64(buf, progress);
    let _ = write!(
        buf,
        r#","committed":{committed},"commit_target":{target},"commits_per_sec":"#
    );
    write_f64(buf, commits_per_sec);
    let _ = write!(buf, r#","eta_ms":"#);
    match eta_ms {
        Some(ms) => {
            let _ = write!(buf, "{ms}");
        }
        None => buf.push_str("null"),
    }
    let _ = write!(buf, r#","global_cycle":{global},"bound":"#);
    if bound == NO_BOUND {
        buf.push_str("null");
    } else {
        let _ = write!(buf, "{bound}");
    }
    let _ = write!(buf, r#","violations":{violations},"violation_rate":"#);
    write_f64(buf, violation_rate);
    let _ = write!(
        buf,
        r#","queues":{{"outq":{},"inq":{},"globalq":{}}},"dropped_traces":{},"checkpoints":{},"rollbacks":{}"#,
        stats.outq_depth.load(Ordering::Relaxed),
        stats.inq_depth.load(Ordering::Relaxed),
        stats.globalq_depth.load(Ordering::Relaxed),
        stats.dropped_traces.load(Ordering::Relaxed),
        stats.checkpoints.load(Ordering::Relaxed),
        stats.rollbacks.load(Ordering::Relaxed),
    );
    buf.push_str(r#","sites":{"#);
    let total_self = prof.total_self_ns();
    let mut first = true;
    if total_self > 0 {
        for site in ProfSite::ALL {
            let (count, self_ns, _) = prof.site_totals(site);
            if count == 0 {
                continue;
            }
            if !first {
                buf.push(',');
            }
            first = false;
            let _ = write!(buf, r#""{}":"#, site.name());
            write_f64(buf, self_ns as f64 / total_self as f64);
        }
    }
    buf.push_str("}}\n");
}

/// Formats a float as a finite JSON number (non-finite become 0).
pub(crate) fn write_f64(buf: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(buf, "{v:.6}");
    } else {
        buf.push('0');
    }
}

/// Writes one rendered beat line to every configured sink.
fn emit(cfg: &LiveConfig, tmp_path: Option<&std::path::Path>, line: &str) {
    if cfg.stderr {
        let mut err = std::io::stderr().lock();
        let _ = err.write_all(line.as_bytes());
    }
    if let (Some(path), Some(tmp)) = (cfg.path.as_deref(), tmp_path) {
        let replaced =
            std::fs::write(tmp, line.as_bytes()).and_then(|()| std::fs::rename(tmp, path));
        if let Err(e) = replaced {
            eprintln!(
                "warning: live status write to {} failed: {e}",
                path.display()
            );
        }
    }
    if let Some(capture) = &cfg.capture {
        let mut sink = capture.lock().expect("live capture sink poisoned");
        sink.push_str(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::json::Json;
    use crate::obs::prof::ProfSite;

    fn demo_stats() -> Arc<LiveStats> {
        let stats = Arc::new(LiveStats::new());
        stats.global.store(9_000, Ordering::Relaxed);
        stats.committed.store(4_500, Ordering::Relaxed);
        stats.commit_target.store(10_000, Ordering::Relaxed);
        stats.bound.store(16, Ordering::Relaxed);
        stats.violations.store(9, Ordering::Relaxed);
        stats.globalq_depth.store(3, Ordering::Relaxed);
        stats
    }

    #[test]
    fn heartbeat_line_is_valid_versioned_json() {
        let stats = demo_stats();
        let prof = Profiler::enabled();
        let h = prof.handle();
        drop(h.enter(ProfSite::CoreTick));
        let mut buf = String::new();
        let start = Instant::now();
        let mut prev = Beat {
            at: start,
            committed: 0,
            start_committed: 0,
            terminal: false,
        };
        render_heartbeat(&mut buf, start, &stats, &prof, &mut prev);
        assert!(buf.ends_with('\n'));
        assert_eq!(buf.lines().count(), 1, "single-line heartbeat");
        let v = Json::parse(buf.trim_end()).expect("valid JSON heartbeat");
        assert_eq!(
            v.get("v").and_then(Json::as_f64),
            Some(HEARTBEAT_VERSION as f64)
        );
        assert_eq!(v.get("committed").and_then(Json::as_f64), Some(4_500.0));
        assert_eq!(v.get("bound").and_then(Json::as_f64), Some(16.0));
        let progress = v.get("progress").and_then(Json::as_f64).unwrap();
        assert!((progress - 0.45).abs() < 1e-9);
        let sites = v.get("sites").and_then(Json::as_object).unwrap();
        assert!(sites.contains_key("core-tick"));
        let share = sites["core-tick"].as_f64().unwrap();
        assert!((share - 1.0).abs() < 1e-9, "single site owns all self time");
    }

    #[test]
    fn unbounded_run_renders_null_bound_and_eta() {
        let stats = Arc::new(LiveStats::new());
        let prof = Profiler::disabled();
        let mut buf = String::new();
        let start = Instant::now();
        let mut prev = Beat {
            at: start,
            committed: 0,
            start_committed: 0,
            terminal: false,
        };
        render_heartbeat(&mut buf, start, &stats, &prof, &mut prev);
        let v = Json::parse(buf.trim_end()).expect("valid JSON");
        assert_eq!(v.get("bound"), Some(&Json::Null));
        assert_eq!(v.get("eta_ms"), Some(&Json::Null));
        let sites = v.get("sites").and_then(Json::as_object).unwrap();
        assert!(sites.is_empty(), "disabled profiler => empty sites");
    }

    #[test]
    fn warmup_beats_never_report_a_saturated_eta() {
        // Regression: the first beats of a run see a near-zero commit
        // rate against a distant target; the ETA product then exceeds
        // u64 range and the old saturating cast reported u64::MAX ms.
        let stats = Arc::new(LiveStats::new());
        stats.committed.store(1, Ordering::Relaxed);
        stats.commit_target.store(u64::MAX, Ordering::Relaxed);
        let prof = Profiler::disabled();
        let mut buf = String::new();
        let start = Instant::now();
        let mut prev = Beat {
            at: start,
            committed: 0,
            start_committed: 0,
            terminal: false,
        };
        // Any window over ~1ms makes the rate small enough to overflow;
        // sleep well past that so the regression triggers deterministically.
        std::thread::sleep(Duration::from_millis(10));
        render_heartbeat(&mut buf, start, &stats, &prof, &mut prev);
        let v = Json::parse(buf.trim_end()).expect("valid JSON");
        let cps = v.get("commits_per_sec").and_then(Json::as_f64).unwrap();
        assert!(cps > 0.0, "a commit landed in the window");
        assert_eq!(
            v.get("eta_ms"),
            Some(&Json::Null),
            "an ETA that does not fit u64 must render as unknown, not u64::MAX"
        );
    }

    #[test]
    fn queues_hold_exactly_the_three_depths() {
        let stats = Arc::new(LiveStats::new());
        stats.outq_depth.store(5, Ordering::Relaxed);
        stats.globalq_depth.store(7, Ordering::Relaxed);
        let prof = Profiler::disabled();
        let mut buf = String::new();
        let start = Instant::now();
        let mut prev = Beat {
            at: start,
            committed: 0,
            start_committed: 0,
            terminal: false,
        };
        render_heartbeat(&mut buf, start, &stats, &prof, &mut prev);
        let v = Json::parse(buf.trim_end()).expect("valid JSON");
        let queues = v.get("queues").and_then(Json::as_object).unwrap();
        let depths: Vec<(&str, f64)> = queues
            .iter()
            .map(|(k, d)| (k.as_str(), d.as_f64().unwrap()))
            .collect();
        assert_eq!(depths, [("globalq", 7.0), ("inq", 0.0), ("outq", 5.0)]);
    }

    #[test]
    fn rendering_reuses_the_buffer_without_alloc() {
        let stats = demo_stats();
        let prof = Profiler::enabled();
        let mut buf = String::with_capacity(2048);
        let start = Instant::now();
        let mut prev = Beat {
            at: start,
            committed: 0,
            start_committed: 0,
            terminal: false,
        };
        render_heartbeat(&mut buf, start, &stats, &prof, &mut prev);
        let cap = buf.capacity();
        for _ in 0..100 {
            render_heartbeat(&mut buf, start, &stats, &prof, &mut prev);
        }
        assert_eq!(
            buf.capacity(),
            cap,
            "steady-state renders never grow the buffer"
        );
    }

    #[test]
    fn emitter_thread_beats_and_finishes_with_terminal_beat() {
        let capture = Arc::new(Mutex::new(String::with_capacity(1 << 16)));
        let cfg = LiveConfig::new()
            .every(Duration::from_millis(5))
            .to_capture(Arc::clone(&capture));
        let stats = demo_stats();
        let handle = spawn(cfg, Arc::clone(&stats), Profiler::disabled());
        std::thread::sleep(Duration::from_millis(40));
        stats.committed.store(10_000, Ordering::Relaxed);
        handle.finish();
        let out = capture.lock().unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(
            lines.len() >= 2,
            "expected several beats, got {}",
            lines.len()
        );
        for line in &lines {
            let v = Json::parse(line).expect("every beat parses");
            assert!(v.get("elapsed_ms").is_some());
        }
        // The terminal beat observed the final committed count.
        let last = Json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(last.get("committed").and_then(Json::as_f64), Some(10_000.0));
    }

    #[test]
    fn file_sink_atomically_replaces_status_file() {
        let dir = std::env::temp_dir().join(format!("slacksim-live-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("status.json");
        let cfg = LiveConfig::new()
            .every(Duration::from_millis(5))
            .to_file(&path);
        let handle = spawn(cfg, demo_stats(), Profiler::disabled());
        std::thread::sleep(Duration::from_millis(30));
        handle.finish();
        let contents = std::fs::read_to_string(&path).expect("status file exists");
        assert_eq!(contents.lines().count(), 1, "file holds exactly one beat");
        Json::parse(contents.trim_end()).expect("status file is valid JSON");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
