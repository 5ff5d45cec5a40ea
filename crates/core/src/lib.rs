//! # slacksim-core — the slack-simulation kernel
//!
//! A from-scratch Rust implementation of the parallel CMP-on-CMP
//! simulation paradigm of *"Adaptive and Speculative Slack Simulations of
//! CMPs on CMPs"* (Chen, Dabbiru, Annavaram, Dubois — MoBS 2010).
//!
//! In slack simulation, every target core is simulated by its own (logical
//! or physical) host thread, and per-core simulated clocks are allowed to
//! drift apart within a *slack bound* instead of barrier-synchronising
//! every cycle. The kernel provides:
//!
//! * simulated-time primitives and event plumbing ([`time`], [`event`]);
//! * the pacing schemes of the paper — cycle-by-cycle, bounded slack,
//!   unbounded slack, quantum, and feedback-controlled *adaptive* slack
//!   ([`scheme`]);
//! * violation detection through timestamp monitoring variables
//!   ([`violation`]);
//! * checkpointing, rollback and the checkpoint-interval statistics behind
//!   the paper's speculative scheme ([`speculative`]), plus its analytical
//!   performance model ([`model`]);
//! * two interchangeable execution engines ([`engine`]): a deterministic
//!   sequential engine for reproducible accuracy experiments and a
//!   one-thread-per-core engine for wall-clock performance experiments.
//!
//! The kernel is target-agnostic: hardware models plug in through the
//! [`engine::CoreModel`] and [`engine::UncoreModel`] traits. The companion
//! crate `slacksim-cmp` provides the paper's 8-core snooping-bus CMP.
//!
//! ## Example
//!
//! A minimal self-contained target (one monitored resource, cores that
//! ping it) run under bounded slack:
//!
//! ```
//! use slacksim_core::engine::{
//!     CoreModel, EngineConfig, SequentialEngine, ServiceSink, TickCtx, UncoreModel,
//! };
//! use slacksim_core::event::{CoreId, Timestamped};
//! use slacksim_core::scheme::Scheme;
//! use slacksim_core::stats::Counters;
//! use slacksim_core::violation::{TimestampMonitor, ViolationEvent, ViolationKind};
//!
//! #[derive(Clone)]
//! struct Pinger(u64);
//! impl CoreModel for Pinger {
//!     type Event = ();
//!     fn tick(&mut self, ctx: &mut TickCtx<'_, ()>) -> u32 {
//!         while ctx.pop_event().is_some() {}
//!         if ctx.now().as_u64() % 4 == 0 {
//!             ctx.emit(());
//!         }
//!         self.0 += 1;
//!         1
//!     }
//!     fn committed(&self) -> u64 {
//!         self.0
//!     }
//!     fn counters(&self) -> Counters {
//!         Counters::new()
//!     }
//! }
//!
//! #[derive(Clone, Default)]
//! struct Bus(TimestampMonitor);
//! impl UncoreModel<()> for Bus {
//!     fn service(&mut self, from: CoreId, ev: Timestamped<()>, sink: &mut ServiceSink<()>) {
//!         if self.0.observe(ev.ts) {
//!             sink.report_violation(ViolationEvent {
//!                 kind: ViolationKind::Bus,
//!                 ts: ev.ts,
//!                 high_water: self.0.high_water(),
//!             });
//!         }
//!         sink.deliver(from, Timestamped::new(ev.ts + 3, ()));
//!     }
//!     fn counters(&self) -> Counters {
//!         Counters::new()
//!     }
//! }
//!
//! // Checkpointing by full clone is fine for toy models; real targets
//! // can implement `checkpoint::Checkpointable` for incremental deltas.
//! slacksim_core::impl_checkpointable_by_clone!(Pinger, Bus);
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cores = vec![Pinger(0); 4];
//! let cfg = EngineConfig::new(Scheme::BoundedSlack { bound: 16 }, 10_000);
//! let report = SequentialEngine::new(cores, Bus::default(), cfg).run()?;
//! assert!(report.committed >= 10_000);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod campaign;
pub mod checkpoint;
pub mod engine;
pub mod event;
pub mod fxhash;
pub mod model;
pub mod obs;
pub mod persist;
pub mod rng;
pub mod scheme;
pub mod speculative;
pub mod stats;
pub mod sync;
pub mod time;
pub mod violation;

pub use checkpoint::Checkpointable;
pub use engine::{
    CoreModel, EngineConfig, EngineError, SequentialEngine, ServiceSink, ThreadedEngine, TickCtx,
    UncoreModel,
};
pub use event::{CoreId, Timestamped};
pub use scheme::Scheme;
pub use speculative::{SpeculationConfig, ViolationSelect};
pub use stats::SimReport;
pub use time::Cycle;
pub use violation::{ViolationEvent, ViolationKind};
