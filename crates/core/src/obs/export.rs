//! Exporters: Chrome Trace Event Format JSON (loadable in `chrome://tracing`
//! and [Perfetto](https://ui.perfetto.dev)) and a long-format CSV dump of
//! the metrics registry.
//!
//! Everything is hand-rolled over `std::fmt::Write` — the kernel carries no
//! serialisation dependency. The trace maps one simulated cycle to one
//! microsecond of trace time, so a 2-million-cycle run renders as a 2-second
//! timeline.

use std::collections::HashMap;
use std::fmt::Write as _;

use super::prof::{ProfData, ProfSite};
use super::trace::{Phase, TraceEvent, TraceRecord};
use super::ObsData;

/// Escapes a string for inclusion inside a JSON string literal (quotes
/// not included). Shared by the exporters here and the campaign
/// manifest/aggregate writers.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a finite JSON number (non-finite values become 0).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

struct EventWriter {
    events: Vec<String>,
}

impl EventWriter {
    fn new() -> Self {
        EventWriter { events: Vec::new() }
    }

    fn metadata(&mut self, name: &str, pid: u64, tid: u64, arg_name: &str) {
        self.events.push(format!(
            r#"{{"name":"{}","ph":"M","pid":{pid},"tid":{tid},"args":{{"name":"{}"}}}}"#,
            escape_json(name),
            escape_json(arg_name)
        ));
    }

    fn span(&mut self, name: &str, cat: &str, tid: u64, ts: u64, dur: u64, args: &str) {
        self.events.push(format!(
            r#"{{"name":"{}","cat":"{}","ph":"X","pid":1,"tid":{tid},"ts":{ts},"dur":{dur},"args":{{{args}}}}}"#,
            escape_json(name),
            escape_json(cat)
        ));
    }

    fn instant(&mut self, name: &str, cat: &str, tid: u64, ts: u64, args: &str) {
        self.events.push(format!(
            r#"{{"name":"{}","cat":"{}","ph":"i","s":"t","pid":1,"tid":{tid},"ts":{ts},"args":{{{args}}}}}"#,
            escape_json(name),
            escape_json(cat)
        ));
    }

    fn counter(&mut self, name: &str, ts: u64, arg_name: &str, value: &str) {
        self.events.push(format!(
            r#"{{"name":"{}","ph":"C","pid":1,"ts":{ts},"args":{{"{}":{value}}}}}"#,
            escape_json(name),
            escape_json(arg_name)
        ));
    }

    fn finish(self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&self.events.join(",\n"));
        out.push_str("\n]}\n");
        out
    }
}

/// Renders the observability data as a Chrome Trace Event Format document.
///
/// Track layout:
///
/// * one thread track per target core (`tid` = core index) carrying
///   `run`/`wait`/`replay` spans and violation instants;
/// * a `manager` track (`tid` = core count) carrying checkpoint and
///   rollback spans;
/// * counter tracks for the slack bound, the sampled violation rate, local
///   clock drift, queue depths, and manager wait time.
///
/// Timestamps are simulated cycles interpreted as microseconds.
pub fn chrome_trace_json(obs: &ObsData) -> String {
    chrome_trace_json_with_prof(obs, None)
}

/// [`chrome_trace_json`] plus, when a host-time profile is given, one
/// `prof.<site>` counter track carrying the site's final self-time in
/// milliseconds (a flat counter anchored at trace time 0 — Perfetto
/// renders it as a labelled summary track next to the timeline).
pub fn chrome_trace_json_with_prof(obs: &ObsData, prof: Option<&ProfData>) -> String {
    let manager_tid = obs.cores as u64;
    let mut w = EventWriter::new();
    w.events.push(
        r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"slacksim"}}"#
            .to_string(),
    );
    for c in 0..obs.cores {
        w.metadata("thread_name", 1, c as u64, &format!("core {c}"));
    }
    w.metadata("thread_name", 1, manager_tid, "manager");

    let mut records: Vec<&TraceRecord> = obs.records.iter().collect();
    records.sort_by_key(|r| r.cycle);

    // Open phase begins, keyed by (core, phase), holding the begin cycle.
    // Begins and ends always nest per (core, phase) pair, so a stack copes
    // with ring-buffer truncation: an orphaned end (its begin was dropped)
    // is skipped rather than mis-paired.
    let mut open: HashMap<(u16, Phase), Vec<u64>> = HashMap::new();

    for rec in records {
        let ts = rec.cycle.as_u64();
        match rec.event {
            TraceEvent::PhaseBegin { core, phase } => {
                open.entry((core.index() as u16, phase))
                    .or_default()
                    .push(ts);
            }
            TraceEvent::PhaseEnd { core, phase } => {
                if let Some(begin) = open
                    .get_mut(&(core.index() as u16, phase))
                    .and_then(|stack| stack.pop())
                {
                    w.span(
                        phase.name(),
                        "phase",
                        core.index() as u64,
                        begin,
                        ts.saturating_sub(begin),
                        "",
                    );
                }
            }
            TraceEvent::Violation {
                kind,
                core,
                ts: vts,
                high_water,
            } => {
                let args = format!(
                    r#""ts":{},"high_water":{},"distance":{}"#,
                    vts.as_u64(),
                    high_water.as_u64(),
                    high_water.as_u64().saturating_sub(vts.as_u64())
                );
                w.instant(
                    &format!("violation:{kind:?}"),
                    "violation",
                    core.index() as u64,
                    ts,
                    &args,
                );
            }
            TraceEvent::BoundChange { old, new, rate } => {
                w.counter("slack_bound", ts, "bound", &format!("{new}"));
                w.counter("violation_rate", ts, "rate", &json_num(rate));
                let args = format!(r#""old":{old},"new":{new},"rate":{}"#, json_num(rate));
                w.instant("bound_change", "adaptive", manager_tid, ts, &args);
            }
            TraceEvent::Checkpoint { ordinal, overshoot } => {
                let args = format!(r#""ordinal":{ordinal},"overshoot":{overshoot}"#);
                w.span(
                    "checkpoint",
                    "speculation",
                    manager_tid,
                    ts,
                    overshoot,
                    &args,
                );
            }
            TraceEvent::Rollback {
                ordinal,
                wasted_cycles,
            } => {
                let args = format!(r#""ordinal":{ordinal},"wasted_cycles":{wasted_cycles}"#);
                // The discarded region precedes the rollback instant.
                w.span(
                    "rollback",
                    "speculation",
                    manager_tid,
                    ts.saturating_sub(wasted_cycles),
                    wasted_cycles,
                    &args,
                );
            }
            TraceEvent::ReplayEnd {
                ordinal,
                replay_cycles,
            } => {
                let args = format!(r#""ordinal":{ordinal},"replay_cycles":{replay_cycles}"#);
                // Recorded when replay reaches the boundary: the replayed
                // region extends backwards from the record time.
                w.span(
                    "cc_replay",
                    "speculation",
                    manager_tid,
                    ts.saturating_sub(replay_cycles),
                    replay_cycles,
                    &args,
                );
            }
            TraceEvent::QueueDepth { q, len } => {
                w.counter(q.label(), ts, "len", &format!("{len}"));
            }
            TraceEvent::LocalTimeSample { core, cycle } => {
                let drift = cycle.as_u64().saturating_sub(ts);
                w.counter(
                    &format!("drift.core{}", core.index()),
                    ts,
                    "cycles",
                    &format!("{drift}"),
                );
            }
            TraceEvent::StatePersist { ordinal, bytes } => {
                let args = format!(r#""ordinal":{ordinal},"bytes":{bytes}"#);
                w.instant("state_persist", "persist", manager_tid, ts, &args);
                w.counter("persist_bytes", ts, "bytes", &format!("{bytes}"));
            }
            TraceEvent::StateRestore { global } => {
                let args = format!(r#""global":{}"#, global.as_u64());
                w.instant("state_restore", "persist", manager_tid, ts, &args);
            }
        }
    }
    if let Some(prof) = prof {
        for s in &prof.sites {
            w.counter(
                &format!("prof.{}", s.site.name()),
                0,
                "self_ms",
                &json_num(s.self_ns as f64 / 1e6),
            );
        }
    }
    w.finish()
}

/// Human-readable nanosecond quantity (`1.234 s`, `56.7 ms`, `890 µs`,
/// `12 ns`).
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Renders the host-time profile as an aligned text table, one row per
/// site ordered by descending self-time, with a footer stating the
/// measured wall-clock, recording thread count and self-time coverage
/// (self-time sum over `wall × threads`).
pub fn prof_table(prof: &ProfData) -> String {
    let mut rows: Vec<_> = prof.sites.iter().collect();
    rows.sort_by(|a, b| {
        b.self_ns
            .cmp(&a.self_ns)
            .then((a.site as usize).cmp(&(b.site as usize)))
    });
    let total_self = prof.total_self_ns().max(1);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<20} {:>12} {:>12} {:>12} {:>7}",
        "site", "calls", "total", "self", "share"
    );
    for s in rows {
        let _ = writeln!(
            out,
            "{:<20} {:>12} {:>12} {:>12} {:>6.1}%",
            s.site.name(),
            s.count,
            fmt_ns(s.total_ns),
            fmt_ns(s.self_ns),
            s.self_ns as f64 / total_self as f64 * 100.0,
        );
    }
    let _ = writeln!(
        out,
        "wall clock {} x {} thread{}; self-time coverage {:.1}%",
        fmt_ns(prof.wall_ns),
        prof.threads,
        if prof.threads == 1 { "" } else { "s" },
        prof.coverage() * 100.0,
    );
    // The batched engine's Amdahl split, as the manager's thread lives
    // it: its share of the window runs (the workers' shares overlap it),
    // the barrier wait for their lanes, and the boundary resolution that
    // only it does.
    let self_ns = |site| {
        prof.sites
            .iter()
            .find(|s| s.site == site)
            .map_or(0, |s| s.self_ns)
    };
    let run = self_ns(ProfSite::BatchedRun);
    if run > 0 && prof.wall_ns > 0 {
        let share = |ns: u64| ns as f64 / prof.wall_ns as f64 * 100.0;
        let _ = writeln!(
            out,
            "batched windows: run {:.1}% (per thread) + barrier wait {:.1}% + resolve {:.1}% of the wall clock",
            share(run / prof.threads.max(1)),
            share(self_ns(ProfSite::BatchedBarrier)),
            share(self_ns(ProfSite::BatchedResolve)),
        );
    }
    out
}

/// Renders the host-time profile as CSV
/// (`site,count,total_ns,self_ns,self_share`), one row per site in
/// [`super::prof::ProfSite::ALL`] order, followed by `wall_ns` and
/// `threads` summary rows (zeros in the unused columns).
pub fn prof_csv(prof: &ProfData) -> String {
    let total_self = prof.total_self_ns().max(1);
    let mut out = String::from("site,count,total_ns,self_ns,self_share\n");
    for s in &prof.sites {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            s.site.name(),
            s.count,
            s.total_ns,
            s.self_ns,
            json_num(s.self_ns as f64 / total_self as f64),
        );
    }
    let _ = writeln!(out, "wall_ns,0,{},0,0", prof.wall_ns);
    let _ = writeln!(out, "threads,0,{},0,0", prof.threads);
    out
}

/// Renders the metrics registry as long-format CSV: one `metric,cycle,value`
/// row per gauge point, followed by histogram summary rows
/// (`hist.<name>.<stat>`) and non-empty bucket rows (`hist.<name>.le`,
/// where the `cycle` column holds the bucket's inclusive upper bound).
pub fn metrics_csv(obs: &ObsData) -> String {
    let mut out = String::from("metric,cycle,value\n");
    for (name, points) in obs.metrics.gauges() {
        for p in points {
            let _ = writeln!(out, "{name},{},{}", p.cycle, json_num(p.value));
        }
    }
    for (name, h) in obs.metrics.histograms() {
        let _ = writeln!(out, "hist.{name}.count,0,{}", h.count());
        let _ = writeln!(out, "hist.{name}.sum,0,{}", h.sum());
        let _ = writeln!(out, "hist.{name}.mean,0,{}", json_num(h.mean()));
        let _ = writeln!(out, "hist.{name}.min,0,{}", h.min());
        let _ = writeln!(out, "hist.{name}.max,0,{}", h.max());
        let _ = writeln!(out, "hist.{name}.p50,0,{}", h.percentile(0.50));
        let _ = writeln!(out, "hist.{name}.p99,0,{}", h.percentile(0.99));
        for (upper, count) in h.nonzero_buckets() {
            let _ = writeln!(out, "hist.{name}.le,{upper},{count}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::json::Json;
    use super::super::{MetricsRegistry, ObsData};
    use super::*;
    use crate::event::CoreId;
    use crate::time::Cycle;
    use crate::violation::ViolationKind;

    fn rec(cycle: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            cycle: Cycle::new(cycle),
            event,
        }
    }

    fn demo_obs() -> ObsData {
        let mut metrics = MetricsRegistry::new(100);
        metrics.gauge("slack_bound", Cycle::new(100), 8.0);
        metrics.gauge("slack_bound", Cycle::new(200), 4.0);
        metrics.histogram("manager_wait_ns").record(1500);
        ObsData {
            cores: 2,
            records: vec![
                rec(
                    0,
                    TraceEvent::PhaseBegin {
                        core: CoreId::new(0),
                        phase: Phase::Run,
                    },
                ),
                rec(
                    50,
                    TraceEvent::PhaseEnd {
                        core: CoreId::new(0),
                        phase: Phase::Run,
                    },
                ),
                rec(
                    60,
                    TraceEvent::Violation {
                        kind: ViolationKind::Bus,
                        core: CoreId::new(1),
                        ts: Cycle::new(55),
                        high_water: Cycle::new(60),
                    },
                ),
                rec(
                    100,
                    TraceEvent::BoundChange {
                        old: 8,
                        new: 4,
                        rate: 0.02,
                    },
                ),
                rec(
                    120,
                    TraceEvent::Checkpoint {
                        ordinal: 1,
                        overshoot: 30,
                    },
                ),
                rec(
                    150,
                    TraceEvent::Rollback {
                        ordinal: 1,
                        wasted_cycles: 80,
                    },
                ),
                rec(
                    250,
                    TraceEvent::ReplayEnd {
                        ordinal: 1,
                        replay_cycles: 100,
                    },
                ),
            ],
            dropped: 0,
            metrics,
        }
    }

    #[test]
    fn chrome_trace_parses_and_has_tracks() {
        let doc = chrome_trace_json(&demo_obs());
        let v = Json::parse(&doc).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        // 1 process + 3 thread names, 1 run span, 1 violation instant,
        // 2 counters + 1 instant for the bound change, 3 speculation spans.
        assert!(events.len() >= 11, "only {} events", events.len());
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.contains(&"run"));
        assert!(names.contains(&"violation:Bus"));
        assert!(names.contains(&"slack_bound"));
        assert!(names.contains(&"checkpoint"));
        assert!(names.contains(&"rollback"));
        assert!(names.contains(&"cc_replay"));
    }

    #[test]
    fn speculation_spans_cover_the_regions_they_describe() {
        let doc = chrome_trace_json(&demo_obs());
        let v = Json::parse(&doc).unwrap();
        let events = v.get("traceEvents").and_then(Json::as_array).unwrap();
        let span = |name: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .unwrap_or_else(|| panic!("missing {name} span"))
        };
        // The rollback at cycle 150 wasted 80 cycles: the span covers the
        // discarded region [70, 150).
        let rb = span("rollback");
        assert_eq!(rb.get("ts").and_then(Json::as_f64), Some(70.0));
        assert_eq!(rb.get("dur").and_then(Json::as_f64), Some(80.0));
        // Replay reached the boundary at 250 after re-executing 100 cycles:
        // the span covers [150, 250).
        let rp = span("cc_replay");
        assert_eq!(rp.get("ts").and_then(Json::as_f64), Some(150.0));
        assert_eq!(rp.get("dur").and_then(Json::as_f64), Some(100.0));
    }

    #[test]
    fn span_durations_are_correct() {
        let doc = chrome_trace_json(&demo_obs());
        let v = Json::parse(&doc).unwrap();
        let events = v.get("traceEvents").and_then(Json::as_array).unwrap();
        let run = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("run"))
            .unwrap();
        assert_eq!(run.get("ts").and_then(Json::as_f64), Some(0.0));
        assert_eq!(run.get("dur").and_then(Json::as_f64), Some(50.0));
        assert_eq!(run.get("tid").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn orphaned_phase_end_is_skipped() {
        let obs = ObsData {
            cores: 1,
            records: vec![rec(
                10,
                TraceEvent::PhaseEnd {
                    core: CoreId::new(0),
                    phase: Phase::Run,
                },
            )],
            dropped: 5,
            metrics: MetricsRegistry::default(),
        };
        let doc = chrome_trace_json(&obs);
        let v = Json::parse(&doc).unwrap();
        let events = v.get("traceEvents").and_then(Json::as_array).unwrap();
        assert!(events
            .iter()
            .all(|e| e.get("ph").and_then(Json::as_str) != Some("X")));
    }

    #[test]
    fn csv_has_gauge_series_and_histogram_summary() {
        let csv = metrics_csv(&demo_obs());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "metric,cycle,value");
        assert!(lines.contains(&"slack_bound,100,8"));
        assert!(lines.contains(&"slack_bound,200,4"));
        assert!(lines
            .iter()
            .any(|l| l.starts_with("hist.manager_wait_ns.count,")));
        assert!(lines
            .iter()
            .any(|l| l.starts_with("hist.manager_wait_ns.le,")));
    }

    #[test]
    fn prof_table_and_csv_render_all_sites() {
        use super::super::prof::{ProfData, ProfSite, SiteStat};
        let prof = ProfData {
            sites: vec![
                SiteStat {
                    site: ProfSite::CoreTick,
                    count: 100,
                    self_ns: 3_000_000_000,
                    total_ns: 3_000_000_000,
                },
                SiteStat {
                    site: ProfSite::ManagerService,
                    count: 50,
                    self_ns: 1_000_000_000,
                    total_ns: 1_500_000_000,
                },
            ],
            wall_ns: 4_200_000_000,
            threads: 1,
        };
        let table = prof_table(&prof);
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].starts_with("site"));
        assert!(
            lines[1].starts_with("core-tick"),
            "rows sorted by self time: {table}"
        );
        assert!(lines[2].starts_with("manager-service"));
        assert!(table.contains("75.0%"), "core-tick holds 3/4 of self time");
        assert!(
            lines.last().unwrap().contains("coverage 95.2%"),
            "footer states coverage: {table}"
        );

        let csv = prof_csv(&prof);
        let rows: Vec<&str> = csv.lines().collect();
        assert_eq!(rows[0], "site,count,total_ns,self_ns,self_share");
        assert_eq!(rows[1], "core-tick,100,3000000000,3000000000,0.75");
        assert!(rows.contains(&"wall_ns,0,4200000000,0,0"));
        assert!(rows.contains(&"threads,0,1,0,0"));
    }

    #[test]
    fn chrome_trace_carries_prof_counter_track() {
        use super::super::prof::{ProfData, ProfSite, SiteStat};
        let prof = ProfData {
            sites: vec![SiteStat {
                site: ProfSite::CoreTick,
                count: 1,
                self_ns: 2_000_000,
                total_ns: 2_000_000,
            }],
            wall_ns: 10_000_000,
            threads: 1,
        };
        let doc = chrome_trace_json_with_prof(&demo_obs(), Some(&prof));
        let v = Json::parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").and_then(Json::as_array).unwrap();
        let counter = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("prof.core-tick"))
            .expect("prof counter track present");
        assert_eq!(
            counter
                .get("args")
                .and_then(|a| a.get("self_ms"))
                .and_then(Json::as_f64),
            Some(2.0)
        );
    }

    #[test]
    fn escaping_is_safe() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(1.5), "1.5");
    }
}
