//! Alpenhorn private key generator (PKG) servers.
//!
//! Each PKG (§4 of the paper) maintains the account database binding email
//! addresses to long-term signing keys, generates a fresh IBE master key per
//! add-friend round (with the commit-then-reveal step from Appendix A), and
//! extracts per-round identity keys for authenticated users, signing an
//! attestation of `(identity, signing key, round)` that recipients check via
//! the multi-signature in a friend request (§4.5).
//!
//! Email-based registration (§4.6) is exercised against a simulated mail
//! delivery substrate: a real deployment would send SMTP mail, but the
//! registration, confirmation-token, lockout, and deregistration state
//! machine is identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod mail;
pub mod registry;
pub mod round_keys;
pub mod server;

pub use error::PkgError;
pub use mail::{MailDelivery, SimulatedMail};
pub use registry::{AccountRegistry, AccountStatus, LOCKOUT_SECONDS};
pub use round_keys::RoundKeyManager;
pub use server::{ExtractResponse, PkgServer, PreparedExtraction};
