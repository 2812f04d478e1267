//! What a chain round reports, and how a scripted compromised server
//! tampers with it.
//!
//! The chain driver itself, which passes a round's batch through every
//! [`MixServer`](crate::MixServer) in order, is `alpenhorn_mixd::MixChain`:
//! one driver for every deployment shape, in-process or over TCP.

use alpenhorn_crypto::ChaChaRng;

/// How a compromised mix server misbehaves (see [`MixAdversary`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MixMisbehavior {
    /// Silently discards about `percent`% of the onions it forwards — a
    /// denial-of-service / intersection-attack primitive. Detected by
    /// mailbox conservation: fewer messages come out than went in.
    DropOnions {
        /// Percentage of onions dropped, `0..=100`.
        percent: u8,
    },
    /// Re-injects duplicates of about `percent`% of the onions it forwards —
    /// the replay primitive behind tagging attacks. Detected by
    /// conservation in the other direction (more messages than submitted)
    /// and by duplicate ciphertexts in a mailbox.
    ReplayOnions {
        /// Percentage of onions duplicated, `0..=100`.
        percent: u8,
    },
    /// Forwards every onion but sorts the batch instead of shuffling it,
    /// making the output order a deterministic function of the message
    /// bytes — exactly the traffic-analysis correlation mixing exists to
    /// prevent. Conservation holds; the shuffle property check catches it.
    ReorderOnions,
}

/// A scripted compromise of one server in a chain: after the honest server
/// logic runs, the adversary tampers with the outgoing batch. The
/// tampering randomness is ChaCha-seeded per round, so a seeded scenario
/// replays the identical attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MixAdversary {
    /// Index (chain position) of the compromised server.
    pub server: usize,
    /// What the compromised server does to the batch.
    pub misbehavior: MixMisbehavior,
    /// Seed for the adversary's tampering decisions.
    pub seed: u64,
}

impl MixAdversary {
    /// Per-round tampering stream, keyed by the adversary seed and a round
    /// counter so replayed rounds tamper identically.
    fn rng(&self, round: u64) -> ChaChaRng {
        let mut seed = *b"alpenhorn mix adversary stream!!";
        seed[..8].copy_from_slice(&self.seed.to_le_bytes());
        seed[8..16].copy_from_slice(&round.to_le_bytes());
        ChaChaRng::from_seed_bytes(seed)
    }

    /// The batch the compromised server forwards instead of `batch`, for the
    /// `round`-th round mixed since the adversary was installed.
    pub fn tamper(&self, batch: Vec<Vec<u8>>, round: u64) -> Vec<Vec<u8>> {
        let mut rng = self.rng(round);
        match self.misbehavior {
            MixMisbehavior::DropOnions { percent } => {
                let p = f64::from(percent.min(100)) / 100.0;
                batch.into_iter().filter(|_| rng.gen_f64() >= p).collect()
            }
            MixMisbehavior::ReplayOnions { percent } => {
                let p = f64::from(percent.min(100)) / 100.0;
                let mut out = batch.clone();
                out.extend(batch.into_iter().filter(|_| rng.gen_f64() < p));
                out
            }
            MixMisbehavior::ReorderOnions => {
                let mut out = batch;
                out.sort_unstable();
                out
            }
        }
    }
}

/// Statistics collected from one mixnet round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundStats {
    /// Messages submitted by clients.
    pub client_messages: usize,
    /// Noise messages added, summed over the servers.
    pub noise: u64,
    /// Malformed messages dropped, summed over the servers.
    pub dropped: u64,
    /// Messages in the final batch (clients + noise - dropped).
    pub final_messages: usize,
}
