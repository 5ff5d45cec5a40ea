//! # slacksim-conformance
//!
//! Cross-engine conformance harness.
//!
//! [`oracle`] is a **differential oracle** comparing engines across a
//! {scheme × workload × core-count} matrix: exact [`Fingerprint`]
//! equality where the design guarantees it — barrier schemes across
//! engines, every scheme across the window loop's host-thread counts —
//! and metamorphic invariants everywhere else.
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

pub use oracle::{
    check_invariants, fingerprint, kernel_fingerprint, run_engine, run_engine_on, run_resumed,
    run_resumed_on, run_speculative, Fingerprint, DETERMINISTIC_KERNEL_COUNTERS,
};
