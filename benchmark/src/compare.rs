//! `benchmark compare A.json B.json`: B against A, per workload and
//! end-to-end metric, judged by the bounds `BENCHMARK.json` records.

use std::fmt::Write as _;

use slacksim::slacksim_core::obs::json::Json;

use crate::report::{metric_specs, MetricSpec};

/// How B stands against A on one workload and metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Worsened by more than the bound.
    Worse,
    /// Within the bound either way.
    Same,
    /// Either side's run-to-run spread is wider than the bound, so a change
    /// of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges medians `a` and `b`, with their spreads, under `spec`'s bound.
pub fn judge(spec: &MetricSpec, a: f64, spread_a: f64, b: f64, spread_b: f64) -> Verdict {
    let bound = spec.bound.unwrap_or(0.0);
    if spread_a.max(spread_b) > bound {
        return Verdict::Unresolved;
    }
    // Change of B against its base A, positive when B is worse.
    let worse_by = if spec.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The comparison table, and whether anything got worse.
///
/// # Errors
///
/// A message naming what is missing when either document is not a results
/// file.
pub fn compare(a: &str, b: &str) -> Result<(String, bool), String> {
    let a = Json::parse(a).map_err(|e| format!("first file: {e}"))?;
    let b = Json::parse(b).map_err(|e| format!("second file: {e}"))?;
    let workloads = |doc: &'_ Json, which| {
        doc.get("workloads")
            .and_then(Json::as_object)
            .cloned()
            .ok_or(format!("{which} file has no workloads object"))
    };
    let (wa, wb) = (workloads(&a, "first")?, workloads(&b, "second")?);
    let mut out = String::new();
    for (side, doc) in [("A", &a), ("B", &b)] {
        let header = doc.get("header").and_then(Json::as_object);
        let field = |k| {
            header
                .and_then(|h| h.get(k))
                .and_then(Json::as_str)
                .unwrap_or("?")
        };
        let _ = writeln!(
            out,
            "{side}: git_rev {} host_cpus {} seed {} rustc {}",
            field("git_rev"),
            field("host_cpus"),
            field("seed"),
            field("rustc")
        );
    }
    let _ = writeln!(
        out,
        "{:<22} {:<14} {:>16} {:>16} {:>9} {:>9} {:>9}  verdict (bound)",
        "workload", "metric", "A median", "B median", "B/A", "A spread", "B spread"
    );
    let mut any_worse = false;
    let seed = |doc: &Json| doc.get("header")?.get("seed")?.as_str().map(str::to_owned);
    let specs = metric_specs("end_to_end");
    for (name, ra) in &wa {
        let Some(rb) = wb.get(name) else {
            let _ = writeln!(out, "{name:<22} missing from B");
            any_worse = true;
            continue;
        };
        for spec in &specs {
            let field = |r: &Json, key| r.get("end_to_end")?.get(&spec.name)?.get(key)?.as_f64();
            let both = |key| Some((field(ra, key)?, field(rb, key)?));
            let (Some((ma, mb)), Some((sa, sb))) = (both("median"), both("spread")) else {
                let _ = writeln!(out, "{name:<22} {:<14} missing on one side", spec.name);
                any_worse = true;
                continue;
            };
            let verdict = judge(spec, ma, sa, mb, sb);
            any_worse |= verdict == Verdict::Worse;
            let _ = writeln!(
                out,
                "{name:<22} {:<14} {ma:>16.6} {mb:>16.6} {:>9.4} {:>8.2}% {:>8.2}%  {} ({:.0} %)",
                spec.name,
                mb / ma,
                sa * 100.0,
                sb * 100.0,
                verdict.name(),
                spec.bound.unwrap_or(0.0) * 100.0
            );
        }
        let ops = |r: &Json, key| r.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let failed_worse = ops(rb, "failed") > ops(ra, "failed");
        any_worse |= failed_worse;
        let same_seed = seed(&a).is_some() && seed(&a) == seed(&b);
        let deterministic = ra.get("deterministic").and_then(Json::as_bool) == Some(true);
        let counts = match (ra.get("fingerprint"), rb.get("fingerprint")) {
            (Some(fa), Some(fb)) if fa == fb => "identical",
            _ if !deterministic => "differ (non-deterministic by design)",
            _ if !same_seed => "differ (different seeds)",
            _ => {
                any_worse = true;
                "DIFFER on a deterministic workload"
            }
        };
        let _ = writeln!(
            out,
            "{name:<22} failed/attempted A {}/{} B {}/{} {}; exact counts {counts}",
            ops(ra, "failed"),
            ops(ra, "attempted"),
            ops(rb, "failed"),
            ops(rb, "attempted"),
            if failed_worse { "worse" } else { "same" },
        );
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(higher: bool) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound: Some(0.10),
        }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        assert_eq!(judge(&spec(true), 100.0, 0.01, 80.0, 0.01), Verdict::Worse);
        assert_eq!(judge(&spec(true), 100.0, 0.01, 98.0, 0.01), Verdict::Same);
        assert_eq!(
            judge(&spec(true), 100.0, 0.01, 120.0, 0.01),
            Verdict::Better
        );
        assert_eq!(
            judge(&spec(false), 100.0, 0.01, 120.0, 0.01),
            Verdict::Worse
        );
        assert_eq!(
            judge(&spec(false), 100.0, 0.01, 80.0, 0.01),
            Verdict::Better
        );
        assert_eq!(
            judge(&spec(true), 100.0, 0.2, 80.0, 0.01),
            Verdict::Unresolved
        );
    }
}
