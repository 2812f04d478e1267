//! One driver per evaluation artifact in §8 of the paper.
//!
//! Every driver produces a [`crate::report::Table`] whose rows match the
//! series the paper plots, computed from the cost model (calibrated with
//! measured per-operation costs). `examples/evaluation_sweep.rs` prints
//! every one of these tables, the ablations included, in one run.

pub mod ablations;
pub mod client_cpu;
pub mod crypto_sensitivity;
pub mod fig10_skew;
pub mod fig6_addfriend_bandwidth;
pub mod fig7_dialing_bandwidth;
pub mod fig8_addfriend_latency;
pub mod fig9_dialing_latency;

pub use client_cpu::client_cpu_table;
pub use crypto_sensitivity::crypto_sensitivity_table;
pub use fig10_skew::{dialing_spread, figure_10};
pub use fig6_addfriend_bandwidth::figure_6;
pub use fig7_dialing_bandwidth::figure_7;
pub use fig8_addfriend_latency::figure_8;
pub use fig9_dialing_latency::figure_9;

/// The user counts the paper sweeps in Figures 6-9.
pub const PAPER_USER_COUNTS: [usize; 4] = [10_000, 100_000, 1_000_000, 10_000_000];

/// The server counts the paper sweeps in Figures 8-9.
pub const PAPER_SERVER_COUNTS: [usize; 3] = [3, 5, 10];
