//! Wall-clock benchmark of the BQSim library.
//!
//! One command runs one workload for a fixed time, checks every
//! operation's output, and prints the end-to-end metrics (or, traced,
//! the per-layer metrics) as a final JSON line. See `README.md` beside
//! this crate's manifest.

pub mod catalog;
pub mod env;
pub mod json;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
