//! # slacksim-workloads — synthetic SPLASH-2-like workload generators
//!
//! The paper drives its 8-core target with four SPLASH-2 programs
//! (Table 1). Running the original PISA binaries would require the whole
//! SimpleScalar functional layer; slack-simulation behaviour, however,
//! depends only on the *timing signature* of each program's shared-memory
//! and synchronisation traffic. This crate provides deterministic
//! per-thread instruction-stream generators reproducing those signatures
//! (see `DESIGN.md` §4 for the substitution argument):
//!
//! * [`Benchmark::Barnes`] — irregular shared octree walking + per-cell
//!   locks (highest violation density);
//! * [`Benchmark::Fft`] — streaming compute / all-to-all transpose phases
//!   between barriers;
//! * [`Benchmark::Lu`] — read-shared pivot blocks + private owner-computes
//!   updates (lowest violation density);
//! * [`Benchmark::WaterNsquared`] — O(n²) FP-heavy pair interactions with
//!   per-molecule locks.
//!
//! All streams are infinite and deterministic in `(benchmark, thread,
//! n_threads, seed)`; threads of one run emit identical barrier-id
//! sequences so the simulated synchronisation device always converges.
//!
//! ## Example
//!
//! ```
//! use slacksim_cmp::isa::InstrStream;
//! use slacksim_workloads::{Benchmark, WorkloadParams};
//!
//! let mut stream = Benchmark::Fft.stream(&WorkloadParams::new(0, 8, 42));
//! let first = stream.next_instr();
//! let mut again = Benchmark::Fft.stream(&WorkloadParams::new(0, 8, 42));
//! assert_eq!(first, again.next_instr()); // deterministic
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod barnes;
pub mod fft;
pub mod lu;
pub mod mix;
pub mod params;
pub mod stream_testkit;
pub mod water;

pub use barnes::BarnesStream;
pub use fft::FftStream;
pub use lu::LuStream;
pub use params::{Benchmark, WorkloadParams};
pub use water::WaterStream;
