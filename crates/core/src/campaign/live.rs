//! Campaign-level heartbeats: one JSON line per beat describing fleet
//! progress, emitted on a host-time cadence while a sweep runs.
//!
//! Runs on the per-run emitter of [`obs::live`](crate::obs::live) — same
//! sink vocabulary ([`LiveConfig`]: stderr / atomically-replaced status
//! file / in-process capture), same detached observer thread, same
//! single-line versioned-JSON discipline, same guaranteed terminal beat —
//! but renders a [`CampaignStats`] block of job-level gauges instead of
//! engine cycle counters. The discriminating field is `"campaign":true`,
//! which is how `slacksim report` tells a campaign heartbeat from an
//! engine heartbeat before choosing a renderer.
//!
//! Workers publish with one relaxed atomic increment per job transition;
//! the emitter never takes a lock shared with workers.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::obs::live::{spawn_emitter, write_f64, LiveConfig, LiveHandle, HEARTBEAT_VERSION};

/// Job-level gauges the sweep runner publishes and the emitter reads.
/// All accesses are relaxed; each gauge is independent and a slightly
/// stale read only ages one beat.
#[derive(Debug, Default)]
pub struct CampaignStats {
    /// Grid size (set once before workers start).
    pub total: AtomicU64,
    /// Jobs finished successfully this process (excludes `skipped`).
    pub done: AtomicU64,
    /// Jobs that failed terminally.
    pub failed: AtomicU64,
    /// Jobs running right now.
    pub running: AtomicU64,
    /// High-water mark of `running` (the backpressure witness: never
    /// exceeds the worker count).
    pub max_running: AtomicU64,
    /// Jobs resumed from a durable checkpoint instead of starting fresh.
    pub resumed: AtomicU64,
    /// Jobs skipped because a finished report already existed on disk.
    pub skipped: AtomicU64,
}

impl CampaignStats {
    /// Creates a zeroed stats block.
    pub fn new() -> Self {
        CampaignStats::default()
    }

    /// Marks one job started: bumps `running` and folds the new depth
    /// into `max_running`.
    pub fn job_started(&self) {
        let now = self.running.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_running.fetch_max(now, Ordering::SeqCst);
    }

    /// Marks one job finished (successfully or not).
    pub fn job_finished(&self, ok: bool) {
        self.running.fetch_sub(1, Ordering::SeqCst);
        if ok {
            self.done.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Spawns the campaign emitter thread; no thread when `cfg` has no sink.
pub fn spawn(cfg: LiveConfig, stats: Arc<CampaignStats>) -> LiveHandle {
    let start = Instant::now();
    spawn_emitter(cfg, "slacksim-campaign-live", move |buf, _| {
        render_campaign_heartbeat(buf, start, &stats);
    })
}

/// Writes one `\n`-terminated campaign heartbeat into `buf` (replacing
/// its contents).
pub fn render_campaign_heartbeat(buf: &mut String, start: Instant, stats: &CampaignStats) {
    let now = Instant::now();
    let elapsed_ms = now.duration_since(start).as_millis() as u64;
    let total = stats.total.load(Ordering::Relaxed);
    let done = stats.done.load(Ordering::Relaxed);
    let failed = stats.failed.load(Ordering::Relaxed);
    let skipped = stats.skipped.load(Ordering::Relaxed);
    let settled = done + failed + skipped;
    let progress = if total > 0 {
        (settled as f64 / total as f64).min(1.0)
    } else {
        0.0
    };
    // Rate and ETA count only jobs *this process* finished: `skipped`
    // jobs were settled by an earlier (killed) process, so folding them
    // into the rate would fabricate throughput the host never delivered.
    let elapsed_s = now.duration_since(start).as_secs_f64();
    let jobs_per_sec = if elapsed_s > 0.0 {
        (done + failed) as f64 / elapsed_s
    } else {
        0.0
    };
    let remaining = total.saturating_sub(settled);
    let eta_ms = if jobs_per_sec > 0.0 && remaining > 0 {
        // Guard the cast: early beats can see a rate small enough that
        // the product leaves u64 range, and a saturating cast would
        // report u64::MAX ms as if it were a real estimate.
        let ms = remaining as f64 / jobs_per_sec * 1000.0;
        (ms.is_finite() && ms < u64::MAX as f64).then_some(ms as u64)
    } else {
        None
    };

    buf.clear();
    let _ = write!(
        buf,
        r#"{{"v":{HEARTBEAT_VERSION},"campaign":true,"elapsed_ms":{elapsed_ms},"total":{total},"done":{done},"failed":{failed},"skipped":{skipped},"running":{},"max_running":{},"resumed":{},"progress":"#,
        stats.running.load(Ordering::Relaxed),
        stats.max_running.load(Ordering::Relaxed),
        stats.resumed.load(Ordering::Relaxed),
    );
    write_f64(buf, progress);
    buf.push_str(r#","jobs_per_sec":"#);
    write_f64(buf, jobs_per_sec);
    buf.push_str(r#","eta_ms":"#);
    match eta_ms {
        Some(ms) => {
            let _ = write!(buf, "{ms}");
        }
        None => buf.push_str("null"),
    }
    buf.push_str("}\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::json::Json;
    use std::sync::Mutex;
    use std::time::Duration;

    fn demo_stats() -> Arc<CampaignStats> {
        let stats = Arc::new(CampaignStats::new());
        stats.total.store(24, Ordering::Relaxed);
        stats.done.store(5, Ordering::Relaxed);
        stats.failed.store(1, Ordering::Relaxed);
        stats.skipped.store(6, Ordering::Relaxed);
        stats.resumed.store(2, Ordering::Relaxed);
        stats.running.store(3, Ordering::Relaxed);
        stats.max_running.store(3, Ordering::Relaxed);
        stats
    }

    #[test]
    fn campaign_heartbeat_is_valid_flagged_json() {
        let stats = demo_stats();
        let mut buf = String::new();
        render_campaign_heartbeat(&mut buf, Instant::now(), &stats);
        assert!(buf.ends_with('\n'));
        assert_eq!(buf.lines().count(), 1);
        let v = Json::parse(buf.trim_end()).expect("valid JSON beat");
        assert_eq!(
            v.get("v").and_then(Json::as_f64),
            Some(HEARTBEAT_VERSION as f64)
        );
        assert_eq!(v.get("campaign").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("total").and_then(Json::as_f64), Some(24.0));
        assert_eq!(v.get("done").and_then(Json::as_f64), Some(5.0));
        assert_eq!(v.get("skipped").and_then(Json::as_f64), Some(6.0));
        assert_eq!(v.get("max_running").and_then(Json::as_f64), Some(3.0));
        let progress = v.get("progress").and_then(Json::as_f64).unwrap();
        assert!((progress - 0.5).abs() < 1e-9, "12 of 24 settled");
    }

    #[test]
    fn start_and_finish_transitions_track_high_water() {
        let stats = CampaignStats::new();
        stats.job_started();
        stats.job_started();
        stats.job_finished(true);
        stats.job_started();
        stats.job_finished(false);
        stats.job_finished(true);
        assert_eq!(stats.running.load(Ordering::SeqCst), 0);
        assert_eq!(stats.max_running.load(Ordering::SeqCst), 2);
        assert_eq!(stats.done.load(Ordering::SeqCst), 2);
        assert_eq!(stats.failed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn emitter_beats_and_emits_terminal_beat() {
        let capture = Arc::new(Mutex::new(String::new()));
        let cfg = LiveConfig::new()
            .every(Duration::from_millis(5))
            .to_capture(Arc::clone(&capture));
        let stats = demo_stats();
        let handle = spawn(cfg, Arc::clone(&stats));
        std::thread::sleep(Duration::from_millis(30));
        stats.done.store(18, Ordering::Relaxed);
        handle.finish();
        let out = capture.lock().unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(!lines.is_empty());
        for line in &lines {
            let v = Json::parse(line).expect("every beat parses");
            assert_eq!(v.get("campaign").and_then(Json::as_bool), Some(true));
        }
        let last = Json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(last.get("done").and_then(Json::as_f64), Some(18.0));
    }

    #[test]
    fn sinkless_config_spawns_nothing() {
        let handle = spawn(LiveConfig::new(), Arc::new(CampaignStats::new()));
        handle.finish();
    }
}
