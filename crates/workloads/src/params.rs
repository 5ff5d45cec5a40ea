//! Benchmark selection and per-thread workload parameters.
//!
//! The paper evaluates four SPLASH-2 programs (Table 1): *Barnes* (1024
//! bodies), *FFT* (64 K points), *LU* (256×256 matrix) and
//! *Water-Nsquared* (216 molecules), each running eight workload threads.
//! We substitute deterministic synthetic generators that reproduce each
//! program's shared-memory *timing signature* — see `DESIGN.md` §4 for the
//! substitution argument.

use std::fmt;

use slacksim_cmp::directory::MAX_DIRECTORY_CORES;
use slacksim_cmp::isa::InstrStream;

use crate::barnes::BarnesStream;
use crate::fft::FftStream;
use crate::lu::LuStream;
use crate::water::WaterStream;

/// The four benchmarks of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Barnes-Hut N-body: irregular pointer-chasing over a shared octree
    /// with per-cell locks. Highest violation density in the paper.
    Barnes,
    /// Radix-√N FFT: streaming compute phases separated by all-to-all
    /// transpose phases between barriers.
    Fft,
    /// Blocked dense LU: owner-computes updates with per-step barriers and
    /// read-shared pivot blocks. Lowest violation density in the paper.
    Lu,
    /// Water-Nsquared: O(n²) pairwise interactions with per-molecule locks
    /// and floating-point-heavy inner loops.
    WaterNsquared,
}

impl Benchmark {
    /// All benchmarks, in the paper's table order.
    pub const ALL: [Benchmark; 4] = [
        Benchmark::Barnes,
        Benchmark::Fft,
        Benchmark::Lu,
        Benchmark::WaterNsquared,
    ];

    /// The canonical spellings [`parse`](Benchmark::parse) accepts, for
    /// error messages.
    pub const TOKENS: &'static str = "barnes|fft|lu|water";

    /// Short name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Barnes => "Barnes",
            Benchmark::Fft => "FFT",
            Benchmark::Lu => "LU",
            Benchmark::WaterNsquared => "Water-Nsq",
        }
    }

    /// The paper's input-set description (Table 1).
    pub fn input_set(self) -> &'static str {
        match self {
            Benchmark::Barnes => "1024 bodies",
            Benchmark::Fft => "64K points",
            Benchmark::Lu => "256 x 256 matrix",
            Benchmark::WaterNsquared => "216 molecules",
        }
    }

    /// Parses a benchmark from its (case-insensitive) name.
    ///
    /// # Examples
    ///
    /// ```
    /// use slacksim_workloads::Benchmark;
    ///
    /// assert_eq!(Benchmark::parse("fft"), Some(Benchmark::Fft));
    /// assert_eq!(Benchmark::parse("water-nsq"), Some(Benchmark::WaterNsquared));
    /// assert_eq!(Benchmark::parse("dhrystone"), None);
    /// ```
    pub fn parse(name: &str) -> Option<Benchmark> {
        match name.to_ascii_lowercase().as_str() {
            "barnes" => Some(Benchmark::Barnes),
            "fft" => Some(Benchmark::Fft),
            "lu" => Some(Benchmark::Lu),
            "water" | "water-nsq" | "water-nsquared" => Some(Benchmark::WaterNsquared),
            _ => None,
        }
    }

    /// Builds the instruction stream for one workload thread.
    ///
    /// Streams are deterministic in `(benchmark, thread_id, n_threads,
    /// seed)` and infinite. All threads of one run must use the same
    /// `n_threads` and `seed` so that their barrier schedules align.
    ///
    /// # Panics
    ///
    /// Panics if `thread_id >= n_threads` or `n_threads` is 0 or exceeds
    /// the largest supported target (1024, the directory uncore's core
    /// ceiling). The address-space layout ([`crate::mix`]) spaces
    /// per-thread regions 16 MiB apart, which keeps every thread's
    /// private and exported regions disjoint through thread 1023.
    pub fn stream(self, params: &WorkloadParams) -> Box<dyn InstrStream> {
        params.validate();
        match self {
            Benchmark::Barnes => Box::new(BarnesStream::new(params)),
            Benchmark::Fft => Box::new(FftStream::new(params)),
            Benchmark::Lu => Box::new(LuStream::new(params)),
            Benchmark::WaterNsquared => Box::new(WaterStream::new(params)),
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Identity of one workload thread within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadParams {
    /// This thread's index (0-based).
    pub thread_id: usize,
    /// Total workload threads (the paper uses 8).
    pub n_threads: usize,
    /// Run seed; all threads of one run share it.
    pub seed: u64,
}

impl WorkloadParams {
    /// Creates parameters for one thread of an `n_threads`-way run.
    pub fn new(thread_id: usize, n_threads: usize, seed: u64) -> Self {
        let p = WorkloadParams {
            thread_id,
            n_threads,
            seed,
        };
        p.validate();
        p
    }

    pub(crate) fn validate(&self) {
        assert!(
            self.n_threads >= 1 && self.n_threads <= MAX_DIRECTORY_CORES,
            "thread count must be between 1 and {MAX_DIRECTORY_CORES}"
        );
        assert!(
            self.thread_id < self.n_threads,
            "thread id {} out of range for {} threads",
            self.thread_id,
            self.n_threads
        );
    }

    /// A per-thread RNG seed that differs across threads and benchmarks.
    pub(crate) fn thread_seed(&self, salt: u64) -> u64 {
        self.seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(self.thread_id as u64)
            .wrapping_add(salt << 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_inputs_match_table_1() {
        assert_eq!(Benchmark::Barnes.input_set(), "1024 bodies");
        assert_eq!(Benchmark::Fft.input_set(), "64K points");
        assert_eq!(Benchmark::Lu.input_set(), "256 x 256 matrix");
        assert_eq!(Benchmark::WaterNsquared.input_set(), "216 molecules");
        assert_eq!(Benchmark::ALL.len(), 4);
    }

    #[test]
    fn parse_roundtrip() {
        for b in Benchmark::ALL {
            assert_eq!(Benchmark::parse(b.name()), Some(b));
        }
        assert_eq!(Benchmark::parse("FFT"), Some(Benchmark::Fft));
        assert_eq!(Benchmark::parse(""), None);
    }

    #[test]
    fn display_is_name() {
        assert_eq!(Benchmark::Lu.to_string(), "LU");
    }

    #[test]
    fn thread_seeds_differ() {
        let a = WorkloadParams::new(0, 8, 42).thread_seed(1);
        let b = WorkloadParams::new(1, 8, 42).thread_seed(1);
        let c = WorkloadParams::new(0, 8, 42).thread_seed(2);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_thread_id_rejected() {
        WorkloadParams::new(8, 8, 1);
    }

    #[test]
    #[should_panic(expected = "between 1 and 1024")]
    fn zero_threads_rejected() {
        WorkloadParams::new(0, 0, 1);
    }

    #[test]
    #[should_panic(expected = "between 1 and 1024")]
    fn oversized_thread_count_rejected() {
        WorkloadParams::new(0, 2048, 1);
    }

    #[test]
    fn directory_scale_thread_counts_build_streams() {
        for b in Benchmark::ALL {
            let mut s = b.stream(&WorkloadParams::new(63, 64, 7));
            for _ in 0..100 {
                let _ = s.next_instr();
            }
        }
    }

    #[test]
    fn every_benchmark_builds_streams() {
        for b in Benchmark::ALL {
            let mut s = b.stream(&WorkloadParams::new(0, 8, 7));
            for _ in 0..100 {
                let _ = s.next_instr();
            }
        }
    }
}
