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
//! * [`experiments`] — one driver per figure/measurement in §8, each
//!   producing the same series the paper plots;
//! * [`report`] — plain-text table rendering for EXPERIMENTS.md.
//!
//! The model does not link the deployment. The end-to-end round it is
//! checked against is measured by `examples/e2e_bench` over the shipped
//! daemons.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costmodel;
pub mod experiments;
pub mod report;
pub mod workload;

pub use costmodel::{CostModel, MeasuredCosts, NetworkModel};
pub use report::Table;
pub use workload::{RecipientDistribution, Workload};
