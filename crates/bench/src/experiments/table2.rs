//! Table 2: wall-clock simulation time of cycle-by-cycle, unbounded
//! slack, adaptive slack (0.01% target, 5% band), and adaptive slack with
//! periodic checkpointing every 5 k / 10 k / 50 k / 100 k simulated
//! cycles (incremental delta capture, DESIGN §12).
//!
//! Paper shape: unbounded slack beats cycle-by-cycle by 2–3×; adaptive
//! lands in between; checkpointing overhead makes short intervals (5 k,
//! 10 k) slower than cycle-by-cycle and fades by 50 k–100 k. Beside the
//! SU and Adapt times stand their CPI errors against the CC run: the
//! threaded engine's greedy rounds are deterministic, so the run that is
//! timed is the run whose accuracy is reported.

use slacksim::scheme::Scheme;
use slacksim::{Benchmark, SpeculationConfig};

use crate::runner::{adaptive, cpi_error, run_threaded};
use crate::scale::Scale;
use crate::table::Table;

/// Checkpoint intervals, in simulated cycles (paper values).
pub const INTERVALS: [u64; 4] = [5_000, 10_000, 50_000, 100_000];

/// Measured row for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Row {
    /// The benchmark measured.
    pub benchmark: Benchmark,
    /// Cycle-by-cycle wall seconds.
    pub cc: f64,
    /// Unbounded-slack wall seconds.
    pub su: f64,
    /// Unbounded-slack CPI error against cycle-by-cycle, in percent.
    pub su_err: f64,
    /// Adaptive (0.01%, 5% band) wall seconds.
    pub adaptive: f64,
    /// Adaptive CPI error against cycle-by-cycle, in percent.
    pub adaptive_err: f64,
    /// Adaptive + checkpointing wall seconds, per interval of
    /// [`INTERVALS`].
    pub checkpointed: [f64; 4],
}

/// Measures every benchmark.
pub fn measure(scale: &Scale) -> Vec<Table2Row> {
    Benchmark::ALL
        .iter()
        .map(|&benchmark| {
            let cc_run = run_threaded(scale, benchmark, Scheme::CycleByCycle);
            let (cc, cc_cpi) = (cc_run.wall.as_secs_f64(), cc_run.cpi());
            let su_run = run_threaded(scale, benchmark, Scheme::UnboundedSlack);
            let (su, su_err) = (su_run.wall.as_secs_f64(), cpi_error(&su_run, cc_cpi));
            let adaptive_cfg = adaptive(0.01, 5.0);
            let adaptive_run =
                run_threaded(scale, benchmark, Scheme::Adaptive(adaptive_cfg.clone()));
            let adaptive = adaptive_run.wall.as_secs_f64();
            let adaptive_err = cpi_error(&adaptive_run, cc_cpi);
            let checkpointed = INTERVALS.map(|interval| {
                let mut sim = crate::runner::sim(scale, benchmark);
                sim.scheme(Scheme::Adaptive(adaptive_cfg.clone()))
                    .engine(slacksim::EngineKind::Threaded)
                    .speculation(SpeculationConfig::checkpoint_only(interval));
                sim.run().expect("checkpointed run").wall.as_secs_f64()
            });
            eprintln!(
                "table2: {benchmark}: CC={cc:.3}s SU={su:.3}s ({su_err:.2}%) \
                 Adapt={adaptive:.3}s ({adaptive_err:.2}%) cp={checkpointed:?}"
            );
            Table2Row {
                benchmark,
                cc,
                su,
                su_err,
                adaptive,
                adaptive_err,
                checkpointed,
            }
        })
        .collect()
}

/// Renders the table.
pub fn render(rows: &[Table2Row]) -> Table {
    let mut t = Table::new(
        "Table 2. Simulation time of schemes with 0.01% target violation rate (seconds).",
    );
    t.headers([
        "",
        "CC",
        "SU",
        "SU err",
        "Adapt",
        "Adapt err",
        "5K",
        "10K",
        "50K",
        "100K",
    ]);
    for r in rows {
        t.row([
            r.benchmark.name().to_string(),
            format!("{:.3}", r.cc),
            format!("{:.3}", r.su),
            format!("{:.2}%", r.su_err),
            format!("{:.3}", r.adaptive),
            format!("{:.2}%", r.adaptive_err),
            format!("{:.3}", r.checkpointed[0]),
            format!("{:.3}", r.checkpointed[1]),
            format!("{:.3}", r.checkpointed[2]),
            format!("{:.3}", r.checkpointed[3]),
        ]);
    }
    t.note("threaded engine; err columns: CPI error against the CC run; NK columns checkpoint every N cycles with incremental in-memory deltas against one base clone (paper: fork(); DESIGN §12)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_match_paper() {
        assert_eq!(INTERVALS, [5_000, 10_000, 50_000, 100_000]);
    }

    #[test]
    fn render_has_one_row_per_benchmark() {
        let rows: Vec<Table2Row> = Benchmark::ALL
            .iter()
            .map(|&benchmark| Table2Row {
                benchmark,
                cc: 1.0,
                su: 0.4,
                su_err: 1.5,
                adaptive: 0.7,
                adaptive_err: 0.1,
                checkpointed: [2.0, 1.5, 0.9, 0.8],
            })
            .collect();
        let t = render(&rows);
        assert_eq!(t.len(), 4);
        let text = t.to_string();
        assert!(text.contains("Water-Nsq"));
        assert!(text.contains("100K"), "interval columns rendered");
        assert!(text.contains("Adapt err"), "error columns rendered");
    }
}
