//! # slacksim-cmp — the target CMP substrate
//!
//! The simulated hardware of *"Adaptive and Speculative Slack Simulations
//! of CMPs on CMPs"* (Chen et al., MoBS 2010, §2.1): an 8-core chip
//! multiprocessor with
//!
//! * 4-wide out-of-order cores holding up to 64 in-flight instructions
//!   ([`core::CmpCore`]);
//! * lock-up-free 16 KB L1 I/D caches kept coherent by a MESI protocol
//!   ([`cache`], [`mesi`]);
//! * a split request/response snooping bus with single-cycle arbitration
//!   conflicts ([`bus`]);
//! * a shared 256 KB L2 with 8-cycle hits and 100-cycle misses ([`l2`]);
//! * the manager-side global cache-status map with per-entry violation
//!   monitors ([`map`]);
//! * a simulated synchronisation device executing barriers and locks
//!   reliably inside the simulator ([`sync`]).
//!
//! The substrate plugs into the `slacksim-core` kernel through
//! [`core::CmpCore`] (a [`slacksim_core::engine::CoreModel`]) and
//! [`uncore::CmpUncore`] (a [`slacksim_core::engine::UncoreModel`]);
//! workload generators feed cores through the [`isa::InstrStream`] trait.
//!
//! ## Example
//!
//! ```
//! use slacksim_cmp::config::CmpConfig;
//! use slacksim_cmp::core::CmpCore;
//! use slacksim_cmp::isa::{LoopStream, Op};
//! use slacksim_cmp::uncore::CmpUncore;
//! use slacksim_core::engine::{EngineConfig, SequentialEngine};
//! use slacksim_core::scheme::Scheme;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cmp = CmpConfig::with_cores(2);
//! let cores = CmpCore::build_cmp(&cmp, |i| {
//!     Box::new(LoopStream::new(vec![
//!         Op::IntAlu,
//!         Op::Load { addr: 0x1_0000 + i as u64 * 0x100 },
//!     ]))
//! });
//! let uncore = CmpUncore::new(&cmp);
//! let cfg = EngineConfig::new(Scheme::CycleByCycle, 5_000);
//! let report = SequentialEngine::new(cores, uncore, cfg).run()?;
//! assert_eq!(report.violations.total(), 0); // gold standard
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bus;
pub mod cache;
pub mod config;
pub mod core;
pub mod directory;
pub mod event;
pub mod isa;
pub mod l2;
mod lines;
pub mod map;
pub mod mesi;
pub mod sharers;
pub mod sync;
pub mod uncore;

pub use crate::core::CmpCore;
pub use cache::{CacheConfig, LineAddr};
pub use config::{CmpConfig, CoreConfig, UncoreConfig, UncoreKind};
pub use event::MemEvent;
pub use isa::{Instr, InstrStream, Op};
pub use mesi::{BusOp, MesiState};
pub use uncore::CmpUncore;
