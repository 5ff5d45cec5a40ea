//! Durable campaign artifacts: the manifest, per-job result rows, and
//! the streamed / final aggregate renderings.
//!
//! A campaign directory holds:
//!
//! * `manifest.json` — written atomically once, before any job runs:
//!   grid size, the canonical spec fingerprint (compared on resume so a
//!   changed spec is refused, not silently merged), and the original
//!   spec source (so `--dir` alone can resume a campaign).
//! * `jobs/<token>/report.json` — one [`JobRow`] per finished job,
//!   written atomically *before* that job's checkpoints are pruned: a
//!   crash between the two leaves either a resumable checkpoint or a
//!   finished report, never neither. Its existence is the job's "done"
//!   marker on resume.
//! * `aggregate.jsonl` — the streaming aggregate: one [`JobRow`] line
//!   appended as each job settles (`tail -f`-able alongside the
//!   heartbeats). Rebuilt from scratch on resume, so a half-written
//!   line from a kill never survives into the final artifact.
//! * `aggregate.csv` — the final aggregate, written atomically when the
//!   campaign completes: all rows in grid order under [`CSV_HEADER`].
//!
//! Every field in a row is simulated-outcome data (cycles, commits,
//! violations) or grid identity — never wall-clock — so for
//! deterministic engines the final aggregate is byte-identical whether
//! the campaign ran uninterrupted or was SIGKILLed and resumed. That
//! byte-identity is the crash-safety acceptance test.

use slacksim_core::obs::escape_json;
use slacksim_core::obs::json::Json;

/// Version of the manifest / row JSON schemas (their `v` fields).
pub const AGGREGATE_VERSION: u64 = 1;

/// Header line of `aggregate.csv` (no trailing newline).
pub const CSV_HEADER: &str =
    "job,index,workload,scheme,uncore,bound,quantum,cores,seed,cycles,committed,violations";

/// Header line written by builds that predate the uncore column.
/// `slacksim report` still reads aggregates under this header, defaulting
/// every row's uncore to `bus`.
pub const LEGACY_CSV_HEADER: &str =
    "job,index,workload,scheme,bound,quantum,cores,seed,cycles,committed,violations";

/// The campaign manifest: identity of the grid a directory belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Expanded grid size.
    pub total: u64,
    /// Canonical spec fingerprint (`SweepSpec::canonical`).
    pub canonical: String,
    /// The original sweep-spec source text, verbatim.
    pub spec_source: String,
}

impl Manifest {
    /// Renders the manifest as a single JSON document.
    pub fn render(&self) -> String {
        format!(
            "{{\"v\":{AGGREGATE_VERSION},\"total\":{},\"canonical\":\"{}\",\"spec\":\"{}\"}}\n",
            self.total,
            escape_json(&self.canonical),
            escape_json(&self.spec_source),
        )
    }

    /// Parses a manifest document.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed or version-skewed
    /// input.
    pub fn parse(src: &str) -> Result<Manifest, String> {
        let doc = Json::parse(src).map_err(|e| format!("manifest is not valid JSON: {e}"))?;
        let v = doc
            .get("v")
            .and_then(Json::as_f64)
            .ok_or("manifest is missing 'v'")?;
        if v != AGGREGATE_VERSION as f64 {
            return Err(format!(
                "unsupported manifest version {v} (this build reads v={AGGREGATE_VERSION})"
            ));
        }
        let total = doc
            .get("total")
            .and_then(Json::as_f64)
            .filter(|t| *t >= 0.0 && t.fract() == 0.0)
            .ok_or("manifest is missing 'total'")? as u64;
        let canonical = doc
            .get("canonical")
            .and_then(Json::as_str)
            .ok_or("manifest is missing 'canonical'")?
            .to_string();
        let spec_source = doc
            .get("spec")
            .and_then(Json::as_str)
            .ok_or("manifest is missing 'spec'")?
            .to_string();
        Ok(Manifest {
            total,
            canonical,
            spec_source,
        })
    }
}

/// One settled job's deterministic outcome: the unit of aggregation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobRow {
    /// Dense grid index (expansion order).
    pub index: u64,
    /// The job's identity token (`Job::token`).
    pub token: String,
    /// Workload name.
    pub workload: String,
    /// Scheme-axis token (`SchemeKind::name`).
    pub scheme: String,
    /// Uncore-axis token (`UncoreKind::as_str`); rows written before the
    /// uncore axis existed parse back as `bus`.
    pub uncore: String,
    /// Bound-axis value.
    pub bound: u64,
    /// Quantum-axis value.
    pub quantum: u64,
    /// Core count.
    pub cores: u64,
    /// Run seed.
    pub seed: u64,
    /// Final global simulated cycles.
    pub cycles: u64,
    /// Committed target instructions.
    pub committed: u64,
    /// Total violations surviving in the committed timeline.
    pub violations: u64,
}

impl JobRow {
    /// Renders the row as one `\n`-terminated JSON line (the
    /// `report.json` body and the `aggregate.jsonl` record).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"v\":{AGGREGATE_VERSION},\"job\":\"{}\",\"index\":{},\"workload\":\"{}\",\"scheme\":\"{}\",\"uncore\":\"{}\",\"bound\":{},\"quantum\":{},\"cores\":{},\"seed\":{},\"cycles\":{},\"committed\":{},\"violations\":{}}}\n",
            escape_json(&self.token),
            self.index,
            escape_json(&self.workload),
            escape_json(&self.scheme),
            escape_json(&self.uncore),
            self.bound,
            self.quantum,
            self.cores,
            self.seed,
            self.cycles,
            self.committed,
            self.violations,
        )
    }

    /// Parses one row from its JSON rendering.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed input.
    pub fn parse_json(src: &str) -> Result<JobRow, String> {
        let doc = Json::parse(src.trim()).map_err(|e| format!("job row is not valid JSON: {e}"))?;
        let v = doc
            .get("v")
            .and_then(Json::as_f64)
            .ok_or("job row is missing 'v'")?;
        if v != AGGREGATE_VERSION as f64 {
            return Err(format!(
                "unsupported job-row version {v} (this build reads v={AGGREGATE_VERSION})"
            ));
        }
        let text = |key: &'static str| -> Result<String, String> {
            Ok(doc
                .get(key)
                .and_then(Json::as_str)
                .ok_or(format!("job row is missing '{key}'"))?
                .to_string())
        };
        let num = |key: &'static str| -> Result<u64, String> {
            doc.get(key)
                .and_then(Json::as_f64)
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as u64)
                .ok_or(format!("job row is missing '{key}'"))
        };
        // Rows written before the uncore axis existed have no "uncore"
        // key; they were all bus runs.
        let uncore = match doc.get("uncore") {
            None => "bus".to_string(),
            Some(j) => j
                .as_str()
                .ok_or("job row field 'uncore' must be a string")?
                .to_string(),
        };
        Ok(JobRow {
            index: num("index")?,
            token: text("job")?,
            workload: text("workload")?,
            scheme: text("scheme")?,
            uncore,
            bound: num("bound")?,
            quantum: num("quantum")?,
            cores: num("cores")?,
            seed: num("seed")?,
            cycles: num("cycles")?,
            committed: num("committed")?,
            violations: num("violations")?,
        })
    }

    /// Renders the row as one CSV line (no trailing newline), matching
    /// [`CSV_HEADER`]. Tokens are `[a-z0-9-]` by construction, so no
    /// quoting is needed.
    pub fn render_csv(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            self.token,
            self.index,
            self.workload,
            self.scheme,
            self.uncore,
            self.bound,
            self.quantum,
            self.cores,
            self.seed,
            self.cycles,
            self.committed,
            self.violations,
        )
    }
}

/// Renders the final aggregate CSV: header plus every row sorted into
/// grid order. Deterministic given equal row sets — the byte-identity
/// anchor of the kill-and-resume acceptance test.
pub fn render_aggregate_csv(rows: &[JobRow]) -> String {
    let mut sorted: Vec<&JobRow> = rows.iter().collect();
    sorted.sort_by_key(|r| r.index);
    let mut out = String::with_capacity(64 * (rows.len() + 1));
    out.push_str(CSV_HEADER);
    out.push('\n');
    for row in sorted {
        out.push_str(&row.render_csv());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_row(index: u64) -> JobRow {
        JobRow {
            index,
            token: format!("fft-bounded-b8-q50-c2-s{index}"),
            workload: "fft".to_string(),
            scheme: "bounded".to_string(),
            uncore: "bus".to_string(),
            bound: 8,
            quantum: 50,
            cores: 2,
            seed: index,
            cycles: 120_000 + index,
            committed: 40_000,
            violations: 17,
        }
    }

    #[test]
    fn manifest_round_trips() {
        let m = Manifest {
            total: 24,
            canonical: "v1;commit=4000;engine=seq;...".to_string(),
            spec_source: "{\n  \"v\": 1\n}".to_string(),
        };
        let parsed = Manifest::parse(&m.render()).unwrap();
        assert_eq!(parsed, m, "escaping preserves newlines and quotes");
    }

    #[test]
    fn manifest_rejections_name_the_problem() {
        assert!(Manifest::parse("{").unwrap_err().contains("not valid JSON"));
        assert!(
            Manifest::parse("{\"v\":2,\"total\":1,\"canonical\":\"c\",\"spec\":\"s\"}")
                .unwrap_err()
                .contains("version 2")
        );
        assert!(Manifest::parse("{\"v\":1,\"total\":1,\"spec\":\"s\"}")
            .unwrap_err()
            .contains("'canonical'"));
    }

    #[test]
    fn job_row_round_trips_through_json() {
        let row = demo_row(3);
        let parsed = JobRow::parse_json(&row.render_json()).unwrap();
        assert_eq!(parsed, row);
    }

    #[test]
    fn legacy_job_rows_parse_as_bus() {
        // A report.json written before the uncore axis existed.
        let legacy = "{\"v\":1,\"job\":\"fft-cc-b8-q50-c2-s1\",\"index\":0,\
                      \"workload\":\"fft\",\"scheme\":\"cc\",\"bound\":8,\
                      \"quantum\":50,\"cores\":2,\"seed\":1,\"cycles\":100,\
                      \"committed\":50,\"violations\":0}";
        let row = JobRow::parse_json(legacy).unwrap();
        assert_eq!(row.uncore, "bus");
    }

    #[test]
    fn aggregate_csv_is_sorted_and_headed() {
        let rows = vec![demo_row(2), demo_row(0), demo_row(1)];
        let csv = render_aggregate_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], CSV_HEADER);
        assert_eq!(lines.len(), 4);
        for (i, line) in lines[1..].iter().enumerate() {
            assert!(
                line.contains(&format!("s{i},")),
                "row {i} sorted into place: {line}"
            );
        }
        // Determinism: same rows in any order render identical bytes.
        let csv2 = render_aggregate_csv(&[demo_row(1), demo_row(2), demo_row(0)]);
        assert_eq!(csv, csv2);
    }
}
