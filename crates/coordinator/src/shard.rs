//! The submission intake for an open round.
//!
//! While a round is open, submissions arrive from many connections at once.
//! Each one is offered here from the snapshot path ([`crate::shared`]) under
//! one short `Mutex` — a digest insert, a token insert and a push — so
//! submitters never wait on the service write lock.
//!
//! ## Token spends
//!
//! On a rate-limited deployment each onion pays with a token that verifies
//! for this round only ([`crate::ratelimit::spend_message`]), so the intake
//! is the round's whole double-spend ledger: under the one mutex an onion
//! already seen is a retry (acked, nothing spent), a token already seen on
//! another onion is a double spend, and anything else records both. The set
//! is dropped with the intake when the round closes; no round id is ever
//! given a second intake (`docs/ARCHITECTURE.md` § "Rate-limit tokens").
//!
//! ## Determinism contract
//!
//! The mixnet is input-order-sensitive (each server applies a seeded shuffle
//! to whatever order it is handed), so the batch handed to the chain at round
//! close must not depend on arrival order or thread interleaving.
//! [`SubmissionIntake::seal`] therefore produces a *canonical* order: the
//! accepted onions sorted by their full SHA-256 digest. Two runs that accept
//! the same submission set hand the mixnet byte-identical input no matter how
//! the submissions interleaved. (Identical onions dedup, because equal bytes
//! have equal digests.)
//!
//! Arrival order is racy under concurrency, so it cannot be part of a
//! reproducibility contract. Sorting by digest leaks nothing (digests are of
//! encrypted onions) and the first mixnet server re-shuffles the batch
//! anyway.

use std::collections::HashSet;
use std::sync::{Mutex, MutexGuard};

use alpenhorn_crypto::sha256;
use alpenhorn_wire::SIGNATURE_LEN;

/// The outcome of offering one onion to the intake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// The onion was new and is now queued for the round.
    Accepted,
    /// An identical onion is already queued: a client retry. Callers answer
    /// `Ack`; the token is not spent again.
    Duplicate,
    /// The token already paid for another onion this round.
    DoubleSpend,
    /// The round was sealed before the offer: the submission arrived too
    /// late and must be retried next round.
    Sealed,
}

#[derive(Default)]
struct Queue {
    sealed: bool,
    seen: HashSet<[u8; 32]>,
    spent: HashSet<[u8; SIGNATURE_LEN]>,
    entries: Vec<([u8; 32], Vec<u8>)>,
}

/// Concurrent intake for one open round's submissions. See the module docs
/// for the canonical seal order.
#[derive(Default)]
pub struct SubmissionIntake {
    queue: Mutex<Queue>,
}

impl SubmissionIntake {
    /// Creates an empty, unsealed intake.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Offers one onion for the round, paid for by `token` (its verified
    /// signature) when the deployment is rate-limited. Recognises a retry of
    /// an accepted onion (even once sealed: it is in the batch), reports the
    /// round sealed, refuses a token already spent on another onion, or
    /// accepts the onion and spends its token.
    pub fn offer(&self, onion: &[u8], token: Option<&[u8; SIGNATURE_LEN]>) -> Offer {
        let digest = sha256::digest(onion);
        let mut queue = self.lock();
        if queue.seen.contains(&digest) {
            return Offer::Duplicate;
        }
        if queue.sealed {
            return Offer::Sealed;
        }
        if let Some(token) = token {
            if !queue.spent.insert(*token) {
                return Offer::DoubleSpend;
            }
        }
        queue.seen.insert(digest);
        queue.entries.push((digest, onion.to_vec()));
        Offer::Accepted
    }

    /// Accepted submissions so far (racy under concurrency; exact once
    /// sealed).
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether no submissions have been accepted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Seals the intake against further offers and drains the accepted
    /// onions in canonical order (sorted by digest; see module docs).
    pub fn seal(&self) -> Vec<Vec<u8>> {
        let mut entries = {
            let mut queue = self.lock();
            queue.sealed = true;
            std::mem::take(&mut queue.entries)
        };
        entries.sort_unstable_by_key(|&(digest, _)| digest);
        entries.into_iter().map(|(_, onion)| onion).collect()
    }
}

impl std::fmt::Debug for SubmissionIntake {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmissionIntake")
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn onions(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let mut onion = vec![0u8; 64];
                onion[..8].copy_from_slice(&(i as u64).to_be_bytes());
                onion
            })
            .collect()
    }

    fn natural_order_batch(set: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let intake = SubmissionIntake::new();
        for onion in set {
            assert_eq!(intake.offer(onion, None), Offer::Accepted);
        }
        intake.seal()
    }

    #[test]
    fn canonical_order_is_arrival_order_invariant() {
        let set = onions(200);
        let reference = natural_order_batch(&set);
        let digests: Vec<_> = reference.iter().map(|o| sha256::digest(o)).collect();
        assert!(
            digests.windows(2).all(|pair| pair[0] < pair[1]),
            "sealed batch is sorted by digest"
        );
        // Reverse arrival order; the sealed batch must not care.
        let intake = SubmissionIntake::new();
        for onion in set.iter().rev() {
            assert_eq!(intake.offer(onion, None), Offer::Accepted);
        }
        assert_eq!(intake.seal(), reference);
    }

    #[test]
    fn concurrent_interleavings_yield_the_reference_batch() {
        let set = onions(128);
        let reference = natural_order_batch(&set);
        let intake = SubmissionIntake::new();
        std::thread::scope(|s| {
            for chunk in set.chunks(32) {
                let intake = &intake;
                s.spawn(move || {
                    for onion in chunk {
                        assert_eq!(intake.offer(onion, None), Offer::Accepted);
                    }
                });
            }
        });
        assert_eq!(intake.seal(), reference);
    }

    #[test]
    fn duplicates_dedup_to_one_entry() {
        let intake = SubmissionIntake::new();
        let onion = vec![7u8; 48];
        assert_eq!(intake.offer(&onion, None), Offer::Accepted);
        assert_eq!(intake.offer(&onion, None), Offer::Duplicate);
        assert_eq!(intake.len(), 1);
        assert_eq!(intake.seal().len(), 1);
    }

    #[test]
    fn sealed_intake_refuses_offers() {
        let intake = SubmissionIntake::new();
        intake.offer(&[1u8; 32], None);
        let batch = intake.seal();
        assert_eq!(batch.len(), 1);
        assert_eq!(intake.offer(&[2u8; 32], None), Offer::Sealed);
        assert!(intake.seal().is_empty(), "second seal drains nothing");
    }
}
