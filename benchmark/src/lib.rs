//! # LawsDB end-to-end benchmark
//!
//! Five closed-loop workloads sent through the wire protocol, five
//! end-to-end metrics each, and every layer timed from outside: this
//! crate calls only public items of the `lawsdb` crate — stopwatches
//! around public functions, public result fields, the public metrics
//! registry and the trace trees the server returns to clients.
//!
//! See `README.md` beside this crate for the command, the workloads,
//! the metrics and how to read the output.

#![warn(missing_docs)]

pub mod compare;
pub mod fixture;
pub mod json;
pub mod metrics;
pub mod report;
pub mod rng;
pub mod run;
pub mod spans;
pub mod stats;
pub mod system;
pub mod workload;
