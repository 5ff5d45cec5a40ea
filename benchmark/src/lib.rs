//! The repository's benchmark: six named workloads run through the public
//! API of `slacksim`, three end-to-end metrics measured with tracing off,
//! and a separate traced pass that attributes host time to simulator
//! layers from the outside. See `benchmark/README.md`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod cli;
pub mod compare;
pub mod fingerprint;
pub mod layers;
pub mod report;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
