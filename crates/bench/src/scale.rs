//! Experiment scaling knobs, shared by every regenerating binary.
//!
//! The paper simulates 100 M committed instructions per run on a 2×4-core
//! Xeon; the default scale here is laptop/CI-sized. Every binary accepts:
//!
//! ```text
//! --commit <N>   committed-instruction target per run (default varies)
//! --seed <N>     run seed (default 1)
//! --cores <N>    target cores (default 8, the paper's machine)
//! --quick        quarter-scale run for smoke testing
//! --full         4× scale for more stable statistics
//! ```

/// Parsed scaling options.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    /// Committed-instruction target per simulation run.
    pub commit: u64,
    /// Run seed.
    pub seed: u64,
    /// Target core count.
    pub cores: usize,
}

impl Scale {
    /// Parses scaling flags from an argument iterator, with
    /// `default_commit` as the experiment's baseline run length.
    ///
    /// Unknown flags are ignored so binaries can layer their own.
    ///
    /// # Examples
    ///
    /// ```
    /// use slacksim_bench::scale::Scale;
    ///
    /// let s = Scale::parse(["--commit", "5000", "--seed", "9"].iter().map(|s| s.to_string()), 100_000);
    /// assert_eq!(s.commit, 5000);
    /// assert_eq!(s.seed, 9);
    /// assert_eq!(s.cores, 8);
    /// ```
    pub fn parse(args: impl Iterator<Item = String>, default_commit: u64) -> Self {
        let mut scale = Scale {
            commit: default_commit,
            seed: 1,
            cores: 8,
        };
        let args: Vec<String> = args.collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--commit" => {
                    if let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                        scale.commit = v;
                        i += 1;
                    }
                }
                "--seed" => {
                    if let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                        scale.seed = v;
                        i += 1;
                    }
                }
                "--cores" => {
                    if let Some(v) = args.get(i + 1).and_then(|v| v.parse().ok()) {
                        scale.cores = v;
                        i += 1;
                    }
                }
                "--quick" => scale.commit = default_commit / 4,
                "--full" => scale.commit = default_commit * 4,
                _ => {}
            }
            i += 1;
        }
        scale.commit = scale.commit.max(1);
        scale
    }

    /// Parses from the process arguments.
    pub fn from_env(default_commit: u64) -> Self {
        Scale::parse(std::env::args().skip(1), default_commit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], default: u64) -> Scale {
        Scale::parse(args.iter().map(|s| s.to_string()), default)
    }

    #[test]
    fn defaults() {
        let s = parse(&[], 1000);
        assert_eq!(
            s,
            Scale {
                commit: 1000,
                seed: 1,
                cores: 8
            }
        );
    }

    #[test]
    fn quick_and_full() {
        assert_eq!(parse(&["--quick"], 1000).commit, 250);
        assert_eq!(parse(&["--full"], 1000).commit, 4000);
    }

    #[test]
    fn explicit_overrides() {
        let s = parse(&["--cores", "4", "--commit", "77", "--seed", "3"], 1000);
        assert_eq!(s.cores, 4);
        assert_eq!(s.commit, 77);
        assert_eq!(s.seed, 3);
    }

    #[test]
    fn malformed_values_are_ignored() {
        let s = parse(&["--commit", "abc"], 1000);
        assert_eq!(s.commit, 1000);
    }

    #[test]
    fn commit_never_zero() {
        assert_eq!(parse(&["--commit", "0"], 1000).commit, 1);
    }
}
