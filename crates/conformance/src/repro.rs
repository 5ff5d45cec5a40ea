//! One-line replayable repro format for conformance failures.
//!
//! Every failing `(policy, sched_seed, mutation, config)` triple the
//! harness finds is printed as a single `conformance-repro v1 ...` line.
//! Pasting that line back into [`parse_repro`] + [`run_repro`]
//! (or a test's `SLACKSIM_CONFORMANCE_REPRO` hook) re-runs the exact
//! schedule: the virtual scheduler makes the whole run a pure function
//! of the line's fields.

use std::fmt;

use slacksim::scheme::Scheme;
use slacksim::Benchmark;

use crate::vsched::{Mutation, SchedPolicy};

/// A fully specified virtual-schedule conformance case.
#[derive(Debug, Clone, PartialEq)]
pub struct VirtCase {
    /// Scheduling policy for the virtual scheduler.
    pub policy: SchedPolicy,
    /// Seed driving the policy's random choices.
    pub sched_seed: u64,
    /// Protocol mutation injected at the scheduler layer.
    pub mutation: Mutation,
    /// Workload.
    pub bench: Benchmark,
    /// Target core count.
    pub cores: usize,
    /// Slack scheme.
    pub scheme: Scheme,
    /// Aggregate committed-instruction target.
    pub target: u64,
    /// Simulation seed (workload streams).
    pub seed: u64,
}

impl fmt::Display for VirtCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "conformance-repro v1 policy={} sched_seed={} mutation={} bench={} cores={} scheme={} target={} seed={}",
            self.policy,
            self.sched_seed,
            self.mutation,
            self.bench.name(),
            self.cores,
            format_scheme(&self.scheme),
            self.target,
            self.seed,
        )
    }
}

/// Encodes the schemes the oracle matrix uses as short stable tokens.
pub fn format_scheme(scheme: &Scheme) -> String {
    match scheme {
        Scheme::CycleByCycle => "cc".to_string(),
        Scheme::BoundedSlack { bound } => format!("bounded:{bound}"),
        Scheme::UnboundedSlack => "unbounded".to_string(),
        Scheme::Quantum { quantum } => format!("quantum:{quantum}"),
        other => other.name().to_string(),
    }
}

/// Parses a scheme token produced by [`format_scheme`].
pub fn parse_scheme(s: &str) -> Result<Scheme, String> {
    let (head, arg) = match s.split_once(':') {
        Some((h, a)) => (h, Some(a)),
        None => (s, None),
    };
    let num = |what: &str| -> Result<u64, String> {
        arg.ok_or_else(|| format!("scheme {head} needs :{what}"))?
            .parse::<u64>()
            .map_err(|e| format!("bad {what} in scheme {s:?}: {e}"))
    };
    match head {
        "cc" => Ok(Scheme::CycleByCycle),
        "bounded" => Ok(Scheme::BoundedSlack {
            bound: num("bound")?,
        }),
        "unbounded" => Ok(Scheme::UnboundedSlack),
        "quantum" => Ok(Scheme::Quantum {
            quantum: num("quantum")?,
        }),
        _ => Err(format!(
            "unknown scheme {s:?} (expected cc, bounded:N, unbounded or quantum:N)"
        )),
    }
}

fn parse_policy(s: &str) -> Result<SchedPolicy, String> {
    match s.split_once(':') {
        None => match s {
            "random-walk" => Ok(SchedPolicy::RandomWalk),
            "park-race" => Ok(SchedPolicy::ParkRace),
            "drain-preempt" => Ok(SchedPolicy::DrainPreempt),
            _ => Err(format!("unknown policy {s:?}")),
        },
        Some(("starve", v)) => Ok(SchedPolicy::Starve {
            victim: v
                .parse()
                .map_err(|e| format!("bad starve victim {v:?}: {e}"))?,
        }),
        Some(_) => Err(format!("unknown policy {s:?}")),
    }
}

fn parse_mutation(s: &str) -> Result<Mutation, String> {
    match s.split_once(':') {
        None if s == "none" => Ok(Mutation::None),
        Some(("drop-unpark", n)) => Ok(Mutation::DropUnpark {
            nth: n
                .parse()
                .map_err(|e| format!("bad drop-unpark index {n:?}: {e}"))?,
        }),
        _ => Err(format!("unknown mutation {s:?}")),
    }
}

fn parse_bench(s: &str) -> Result<Benchmark, String> {
    Benchmark::ALL
        .iter()
        .copied()
        .find(|b| b.name() == s)
        .ok_or_else(|| {
            let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
            format!("unknown bench {s:?} (expected one of {names:?})")
        })
}

/// Parses a `conformance-repro v1` line back into a runnable case.
///
/// # Errors
///
/// Returns a description of the first malformed or missing field.
pub fn parse_repro(line: &str) -> Result<VirtCase, String> {
    let mut words = line.split_whitespace();
    if words.next() != Some("conformance-repro") || words.next() != Some("v1") {
        return Err("repro line must start with \"conformance-repro v1\"".to_string());
    }
    let mut policy = None;
    let mut sched_seed = None;
    let mut mutation = None;
    let mut bench = None;
    let mut cores = None;
    let mut scheme = None;
    let mut target = None;
    let mut seed = None;
    for word in words {
        let (key, val) = word
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got {word:?}"))?;
        let uint = || -> Result<u64, String> {
            val.parse().map_err(|e| format!("bad {key} {val:?}: {e}"))
        };
        match key {
            "policy" => policy = Some(parse_policy(val)?),
            "sched_seed" => sched_seed = Some(uint()?),
            "mutation" => mutation = Some(parse_mutation(val)?),
            "bench" => bench = Some(parse_bench(val)?),
            "cores" => {
                cores = Some(
                    val.parse::<usize>()
                        .map_err(|e| format!("bad cores {val:?}: {e}"))?,
                );
            }
            "scheme" => scheme = Some(parse_scheme(val)?),
            "target" => target = Some(uint()?),
            "seed" => seed = Some(uint()?),
            _ => return Err(format!("unknown field {key:?}")),
        }
    }
    fn need(what: &'static str) -> impl Fn() -> String {
        move || format!("missing field {what}")
    }
    Ok(VirtCase {
        policy: policy.ok_or_else(need("policy"))?,
        sched_seed: sched_seed.ok_or_else(need("sched_seed"))?,
        mutation: mutation.ok_or_else(need("mutation"))?,
        bench: bench.ok_or_else(need("bench"))?,
        cores: cores.ok_or_else(need("cores"))?,
        scheme: scheme.ok_or_else(need("scheme"))?,
        target: target.ok_or_else(need("target"))?,
        seed: seed.ok_or_else(need("seed"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> VirtCase {
        VirtCase {
            policy: SchedPolicy::ParkRace,
            sched_seed: 42,
            mutation: Mutation::DropUnpark { nth: 3 },
            bench: Benchmark::Fft,
            cores: 4,
            scheme: Scheme::BoundedSlack { bound: 8 },
            target: 4_000,
            seed: 1,
        }
    }

    #[test]
    fn repro_line_round_trips() {
        let case = sample();
        let line = case.to_string();
        assert!(line.starts_with("conformance-repro v1 "), "{line}");
        assert_eq!(parse_repro(&line).expect("parses"), case);
    }

    #[test]
    fn a_sharded_repro_line_is_refused() {
        let line = format!("{} shards=4", sample());
        let err = parse_repro(&line).expect_err("the manager tree is gone");
        assert!(err.contains("unknown field \"shards\""), "{err}");
    }

    #[test]
    fn all_scheme_tokens_round_trip() {
        for scheme in [
            Scheme::CycleByCycle,
            Scheme::BoundedSlack { bound: 16 },
            Scheme::UnboundedSlack,
            Scheme::Quantum { quantum: 100 },
        ] {
            let tok = format_scheme(&scheme);
            assert_eq!(parse_scheme(&tok).expect("parses"), scheme, "{tok}");
        }
    }

    #[test]
    fn starve_policy_round_trips() {
        let mut case = sample();
        case.policy = SchedPolicy::Starve { victim: 2 };
        case.mutation = Mutation::None;
        assert_eq!(parse_repro(&case.to_string()).expect("parses"), case);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse_repro("not-a-repro v1").is_err());
        assert!(parse_repro("conformance-repro v2 policy=random-walk").is_err());
        assert!(
            parse_repro("conformance-repro v1 policy=random-walk sched_seed=1").is_err(),
            "missing fields"
        );
        let mut line = sample().to_string();
        line.push_str(" bogus=1");
        assert!(parse_repro(&line).is_err());
        assert!(parse_scheme("bounded").is_err(), "missing bound");
        assert!(parse_scheme("warp:3").is_err());
    }
}
