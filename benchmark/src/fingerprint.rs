//! Exact simulated counts of one run, and the committed goldens.

use std::collections::BTreeMap;

use slacksim::slacksim_core::obs::json::Json;
use slacksim::{SimReport, ViolationKind};

/// The counts that must repeat exactly on a deterministic workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Final global time in simulated cycles.
    pub global_cycles: u64,
    /// Committed target instructions.
    pub committed: u64,
    /// Per-core committed instructions.
    pub core_committed: Vec<u64>,
    /// Per-core simulated cycles.
    pub core_cycles: Vec<u64>,
    /// Violations per kind, in `ViolationKind::ALL` order.
    pub violations: Vec<u64>,
    /// Bus plus directory transactions.
    pub transactions: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
}

impl Fingerprint {
    /// Extracts the fingerprint of a finished run.
    pub fn of(report: &SimReport) -> Self {
        let per_core = |name| report.per_core.iter().map(|c| c.get(name)).collect();
        Fingerprint {
            global_cycles: report.global_cycles,
            committed: report.committed,
            core_committed: per_core("committed"),
            core_cycles: per_core("cycles"),
            violations: ViolationKind::ALL
                .iter()
                .map(|&k| report.violations.count(k))
                .collect(),
            transactions: report.uncore.get("bus_transactions")
                + report.uncore.get("dir_transactions"),
            checkpoints: report.kernel.get("checkpoints"),
            rollbacks: report.kernel.get("rollbacks"),
        }
    }

    /// Sum of per-core simulated cycles.
    pub fn core_cycles_total(&self) -> u64 {
        self.core_cycles.iter().sum()
    }

    /// Simulated cycles per committed instruction.
    pub fn cpi(&self) -> f64 {
        self.global_cycles as f64 / self.committed.max(1) as f64
    }

    /// One-line JSON object.
    pub fn to_json(&self) -> String {
        let list = |v: &[u64]| {
            let items: Vec<String> = v.iter().map(u64::to_string).collect();
            format!("[{}]", items.join(","))
        };
        format!(
            "{{\"global_cycles\":{},\"committed\":{},\"core_committed\":{},\"core_cycles\":{},\
             \"violations\":{},\"transactions\":{},\"checkpoints\":{},\"rollbacks\":{}}}",
            self.global_cycles,
            self.committed,
            list(&self.core_committed),
            list(&self.core_cycles),
            list(&self.violations),
            self.transactions,
            self.checkpoints,
            self.rollbacks
        )
    }

    /// Parses what [`to_json`](Self::to_json) wrote.
    pub fn from_json(v: &Json) -> Option<Self> {
        let num = |key| v.get(key)?.as_f64().map(|n| n as u64);
        let list = |key| -> Option<Vec<u64>> {
            v.get(key)?
                .as_array()?
                .iter()
                .map(|n| n.as_f64().map(|n| n as u64))
                .collect()
        };
        Some(Fingerprint {
            global_cycles: num("global_cycles")?,
            committed: num("committed")?,
            core_committed: list("core_committed")?,
            core_cycles: list("core_cycles")?,
            violations: list("violations")?,
            transactions: num("transactions")?,
            checkpoints: num("checkpoints")?,
            rollbacks: num("rollbacks")?,
        })
    }
}

/// Seed the committed goldens were blessed with.
pub const GOLDEN_SEED: u64 = 1;

const GOLDEN_JSON: &str = include_str!("../golden.json");

/// The committed goldens: workload name to fingerprint, at full size and
/// [`GOLDEN_SEED`].
pub fn goldens() -> BTreeMap<String, Fingerprint> {
    let doc = Json::parse(GOLDEN_JSON).expect("benchmark/golden.json is valid JSON");
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_object)
        .expect("benchmark/golden.json has a workloads object");
    workloads
        .iter()
        .map(|(name, v)| {
            let fp = Fingerprint::from_json(v).expect("golden fingerprint has every field");
            (name.clone(), fp)
        })
        .collect()
}

/// Renders a goldens file.
pub fn render_goldens(goldens: &BTreeMap<String, Fingerprint>) -> String {
    let rows: Vec<String> = goldens
        .iter()
        .map(|(name, fp)| format!("    \"{name}\": {}", fp.to_json()))
        .collect();
    format!(
        "{{\n  \"seed\": {GOLDEN_SEED},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let fp = Fingerprint {
            global_cycles: 1 << 40,
            committed: 12_000_001,
            core_committed: vec![1, 2, 3],
            core_cycles: vec![4, 5, 6],
            violations: vec![0, 7, 0, 0, 0],
            transactions: 99,
            checkpoints: 831,
            rollbacks: 5,
        };
        let parsed = Json::parse(&fp.to_json()).unwrap();
        assert_eq!(Fingerprint::from_json(&parsed), Some(fp.clone()));
        let file = render_goldens(&BTreeMap::from([("w".to_owned(), fp.clone())]));
        let doc = Json::parse(&file).unwrap();
        let back = Fingerprint::from_json(doc.get("workloads").unwrap().get("w").unwrap());
        assert_eq!(back, Some(fp));
    }

    #[test]
    fn committed_goldens_parse() {
        let _ = goldens();
    }
}
