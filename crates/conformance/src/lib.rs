//! # slacksim-conformance
//!
//! Deterministic schedule-fuzzing and cross-engine conformance harness
//! for the slack engines.
//!
//! The threaded engine's correctness depends on a lock-free
//! synchronisation protocol (SPSC rings, parked-flag/fence hand-shakes,
//! snapshot mailboxes) whose bugs hide in host-scheduler interleavings
//! that ordinary tests cannot force or replay. This crate attacks that
//! from three sides:
//!
//! * [`vsched`] — a **virtual scheduler** ([`VirtualSched`]) that plugs
//!   into the engine's [`HostSched`](slacksim::HostSched) seam and runs
//!   the *real* threaded protocol under a seeded, fully deterministic
//!   interleaving explorer: random walks plus targeted adversarial
//!   policies (park-just-before-wake races, victim starvation,
//!   drain-vs-push preemption), with optional protocol
//!   [`Mutation`]s to prove the harness catches the bug class it hunts.
//! * [`oracle`] — a **differential oracle** comparing engines across a
//!   {scheme × workload × core-count} matrix: exact [`Fingerprint`]
//!   equality where the design guarantees it (cycle-by-cycle), and
//!   metamorphic invariants everywhere else, plus a greedy failure
//!   [`shrink`]er.
//! * [`repro`] — a **one-line repro format** (`conformance-repro v1
//!   ...`) so any failure replays from a single pasted line.
//!
//! ```
//! use slacksim_conformance::{run_virtual, SchedPolicy, Mutation, VirtCase};
//! use slacksim::{scheme::Scheme, Benchmark};
//!
//! let case = VirtCase {
//!     policy: SchedPolicy::RandomWalk,
//!     sched_seed: 42,
//!     mutation: Mutation::None,
//!     bench: Benchmark::Fft,
//!     cores: 2,
//!     scheme: Scheme::BoundedSlack { bound: 8 },
//!     target: 2_000,
//!     seed: 1,
//! };
//! let (report, diag) = run_virtual(&case);
//! assert!(report.committed >= 2_000);
//! assert_eq!(diag.lost_wakeups, 0, "correct protocol loses no wakeups");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod oracle;
pub mod repro;
pub mod vsched;

pub use oracle::{
    check_invariants, fingerprint, kernel_fingerprint, run_engine, run_engine_on, run_repro,
    run_resumed, run_resumed_on, run_speculative, run_virtual, shrink, Fingerprint,
    DETERMINISTIC_KERNEL_COUNTERS,
};
pub use repro::{format_scheme, parse_repro, parse_scheme, VirtCase};
pub use vsched::{Mutation, SchedDiag, SchedPolicy, VirtualSched};

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
