//! Evaluation harness for the Alpenhorn reproduction.
//!
//! The paper's evaluation (§8) ran on an EC2 testbed with up to 10 million
//! simulated users. This crate replaces that testbed with:
//!
//! * [`workload`] — workload generators: number of active users per round,
//!   uniform and Zipf-skewed recipient selection, and the induced mailbox
//!   load distributions;
//! * [`costmodel`] — a cost model whose per-operation constants are measured
//!   on the machine running the benchmarks (IBE, onion, hashing, dial-set
//!   scans), combined with the paper's network setup (three regions,
//!   c4.8xlarge-class servers) to predict round latency and client bandwidth
//!   at user counts that do not fit in one process;
//! * [`harness`] — scaled-down end-to-end runs against the real in-process
//!   cluster, used to sanity-check the model's shape;
//! * [`experiments`] — one driver per figure/measurement in §8, each
//!   producing the same series the paper plots;
//! * [`report`] — plain-text table rendering for EXPERIMENTS.md.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costmodel;
pub mod experiments;
pub mod harness;
pub mod report;
pub mod workload;

pub use costmodel::{CostModel, MeasuredCosts, NetworkModel};
pub use report::Table;
pub use workload::{RecipientDistribution, Workload};
