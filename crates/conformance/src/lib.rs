//! # slacksim-conformance
//!
//! Cross-engine conformance harness for the engines, and a deterministic
//! schedule fuzzer for the campaign runner's worker pool.
//!
//! * [`oracle`] — a **differential oracle** comparing engines across a
//!   {scheme × workload × core-count} matrix: exact [`Fingerprint`]
//!   equality where the design guarantees it — barrier schemes across
//!   engines, every scheme across the window loop's host-thread counts —
//!   and metamorphic invariants everywhere else.
//! * [`vsched`] — a **virtual scheduler** ([`VirtualSched`]) that plugs
//!   into the pool's [`HostSched`](slacksim::HostSched) seam and runs the
//!   real pool under a seeded, fully deterministic interleaving explorer.
//!
//! ```
//! use slacksim_conformance::{fingerprint, run_engine};
//! use slacksim::{scheme::Scheme, Benchmark, EngineKind};
//!
//! // Greedy slack on the window loop is deterministic: two runs of one
//! // configuration print one report.
//! let scheme = Scheme::BoundedSlack { bound: 8 };
//! let a = run_engine(Benchmark::Fft, 2, &scheme, 2_000, 1, EngineKind::Threaded);
//! let b = run_engine(Benchmark::Fft, 2, &scheme, 2_000, 1, EngineKind::Threaded);
//! assert_eq!(fingerprint(&a), fingerprint(&b));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod oracle;
pub mod vsched;

pub use oracle::{
    check_invariants, fingerprint, kernel_fingerprint, run_engine, run_engine_on, run_resumed,
    run_resumed_on, run_speculative, Fingerprint, DETERMINISTIC_KERNEL_COUNTERS,
};
pub use vsched::{SchedDiag, SchedPolicy, VirtualSched};

/// Number of schedule seeds each fuzzing loop explores, scaled to the
/// build profile and overridable via `SLACKSIM_CONFORMANCE_SEEDS` (CI's
/// smoke step pins this to keep the run inside its time budget).
pub fn smoke_seeds() -> u64 {
    if let Ok(v) = std::env::var("SLACKSIM_CONFORMANCE_SEEDS") {
        if let Ok(n) = v.parse::<u64>() {
            return n.max(1);
        }
    }
    if cfg!(debug_assertions) {
        2
    } else {
        6
    }
}
