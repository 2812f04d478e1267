//! Group-operation counters: hashes to G1, hashes to G2 and pairings.
//!
//! These are the operations whose cost a real curve multiplies by orders of
//! magnitude over the vendored stand-in (`vendor/README.md`), so counting
//! them is how a change proves how much curve work it saves without a real
//! curve to time. Every [`hash_to_g1`](crate::hash::hash_to_g1),
//! [`hash_to_g2`](crate::hash::hash_to_g2) and pairing in this crate bumps
//! one process-wide relaxed atomic; the counters never feed back into any
//! computation. They are plain atomics rather than `alpenhorn-obs` metrics so
//! this crate stays a leaf: a daemon that wants them in its exposition reads
//! [`snapshot`] (the coordinator's `GetTelemetry` does).

use std::sync::atomic::{AtomicU64, Ordering};

use ark_bls12_381::{Bls12_381, G1Projective, G2Projective};
use ark_ec::pairing::{Pairing, PairingOutput};
use ark_ec::CurveGroup;

static HASH_TO_G1: AtomicU64 = AtomicU64::new(0);
static HASH_TO_G2: AtomicU64 = AtomicU64::new(0);
static PAIRINGS: AtomicU64 = AtomicU64::new(0);

/// The group operations this process has run since it started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCounts {
    /// Messages hashed to G1 (signatures, attestations, token messages).
    pub hash_to_g1: u64,
    /// Messages hashed to G2 (IBE identities).
    pub hash_to_g2: u64,
    /// Pairings evaluated.
    pub pairings: u64,
}

impl OpCounts {
    /// The operations run between `earlier` and `self`.
    pub fn since(&self, earlier: &OpCounts) -> OpCounts {
        OpCounts {
            hash_to_g1: self.hash_to_g1 - earlier.hash_to_g1,
            hash_to_g2: self.hash_to_g2 - earlier.hash_to_g2,
            pairings: self.pairings - earlier.pairings,
        }
    }
}

/// The current counts. Every thread of the process contributes, so a test
/// that pins a count must be the only one running in its process.
pub fn snapshot() -> OpCounts {
    OpCounts {
        hash_to_g1: HASH_TO_G1.load(Ordering::Relaxed),
        hash_to_g2: HASH_TO_G2.load(Ordering::Relaxed),
        pairings: PAIRINGS.load(Ordering::Relaxed),
    }
}

pub(crate) fn count_hash_to_g1() {
    HASH_TO_G1.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn count_hash_to_g2() {
    HASH_TO_G2.fetch_add(1, Ordering::Relaxed);
}

/// e(p, q), counted.
pub(crate) fn pairing(p: G1Projective, q: G2Projective) -> PairingOutput<Bls12_381> {
    PAIRINGS.fetch_add(1, Ordering::Relaxed);
    Bls12_381::pairing(p.into_affine(), q.into_affine())
}
