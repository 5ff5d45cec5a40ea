//! Table 5: estimated overall simulation time of fully deployed
//! speculative slack simulation, from the paper's analytical model
//! (`Ts = (1−F)·Tcpt + F·Dr·Tcpt/I + F·Tcc`) fed with the measurements of
//! Tables 2–4.
//!
//! Paper shape: at a 0.01% base violation rate the estimate always exceeds
//! cycle-by-cycle time — speculation is not (yet) profitable.

use slacksim::model::{speculation_profitable, speculative_time, SpeculativeModelInputs};
use slacksim::scheme::Scheme;
use slacksim::{Benchmark, SpeculationConfig};

use crate::experiments::table34::{interval_stats, IntervalStats};
use crate::runner::{adaptive, run_threaded};
use crate::scale::Scale;
use crate::table::Table;

/// Checkpoint intervals evaluated by the paper's Table 5.
pub const INTERVALS: [u64; 2] = [50_000, 100_000];

/// Model evaluation for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5Row {
    /// The benchmark evaluated.
    pub benchmark: Benchmark,
    /// Measured cycle-by-cycle wall seconds.
    pub t_cc: f64,
    /// Estimated speculative time per interval of [`INTERVALS`].
    pub t_spec: [f64; 2],
    /// Whether the model predicts a win over CC per interval.
    pub profitable: [bool; 2],
}

/// Measures the model inputs and evaluates the estimate.
pub fn measure(scale: &Scale) -> Vec<Table5Row> {
    Benchmark::ALL
        .iter()
        .map(|&benchmark| {
            let t_cc = run_threaded(scale, benchmark, Scheme::CycleByCycle)
                .wall
                .as_secs_f64();
            let adaptive_cfg = adaptive(0.01, 5.0);
            let mut t_spec = [0.0; 2];
            let mut profitable = [false; 2];
            for (i, &interval) in INTERVALS.iter().enumerate() {
                // Tcpt: adaptive + checkpointing wall time (threaded).
                let mut sim = crate::runner::sim(scale, benchmark);
                sim.scheme(Scheme::Adaptive(adaptive_cfg.clone()))
                    .engine(slacksim::EngineKind::Threaded)
                    .speculation(SpeculationConfig::checkpoint_only(interval));
                let t_cpt = sim.run().expect("Tcpt run").wall.as_secs_f64();
                // F, Dr: deterministic interval statistics, measured on a
                // 10x longer run so that even 100k-cycle intervals are
                // observed many times.
                let stats_scale = Scale {
                    commit: scale.commit.saturating_mul(40),
                    ..*scale
                };
                let stats: IntervalStats = interval_stats(&stats_scale, benchmark, interval);
                let inputs = SpeculativeModelInputs {
                    t_cc,
                    t_cpt,
                    fraction_violating: stats.fraction_violating,
                    rollback_distance: stats.first_distance,
                    interval: interval as f64,
                };
                t_spec[i] = speculative_time(&inputs);
                profitable[i] = speculation_profitable(&inputs);
                eprintln!(
                    "table5: {benchmark} I={interval}: Tcc={t_cc:.3} Tcpt={t_cpt:.3} F={:.2} Dr={:.0} -> Ts={:.3}",
                    stats.fraction_violating, stats.first_distance, t_spec[i]
                );
            }
            Table5Row {
                benchmark,
                t_cc,
                t_spec,
                profitable,
            }
        })
        .collect()
}

/// Renders the table.
pub fn render(rows: &[Table5Row]) -> Table {
    let mut t = Table::new(
        "Table 5. Estimated overall simulation time of speculative simulation (seconds).",
    );
    t.headers(["", "CC", "50K", "100K"]);
    for r in rows {
        t.row([
            r.benchmark.name().to_string(),
            format!("{:.3}", r.t_cc),
            format!(
                "{:.3}{}",
                r.t_spec[0],
                if r.profitable[0] { " *" } else { "" }
            ),
            format!(
                "{:.3}{}",
                r.t_spec[1],
                if r.profitable[1] { " *" } else { "" }
            ),
        ]);
    }
    t.note("Ts = (1-F)·Tcpt + F·Dr·Tcpt/I + F·Tcc  (paper §5.2)");
    t.note("* = model predicts speculation beats cycle-by-cycle");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_match_paper() {
        assert_eq!(INTERVALS, [50_000, 100_000]);
    }

    #[test]
    fn render_marks_profitability() {
        let rows = vec![Table5Row {
            benchmark: Benchmark::Lu,
            t_cc: 1.0,
            t_spec: [0.8, 1.2],
            profitable: [true, false],
        }];
        let s = render(&rows).to_string();
        assert!(s.contains("0.800 *"));
        assert!(s.contains("1.200"));
    }
}
