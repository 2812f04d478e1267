//! An in-process mixnet chain running complete rounds.
//!
//! The chain owns the mixnet servers, distributes their per-round onion keys
//! to clients, pushes a batch through every server in order, and hands the
//! final batch to the mailbox builders. This is the substrate the
//! coordinator crate and the evaluation harness drive; a production
//! deployment would place each [`MixServer`] on its
//! own machine, but the message flow is identical.

use alpenhorn_crypto::ChaChaRng;
use alpenhorn_ibe::dh::DhPublic;

use crate::mailbox::{AddFriendMailboxes, DialingMailboxes};
use crate::noise::NoiseConfig;
use crate::server::MixServer;
use crate::Protocol;

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

/// A scripted compromise of one server in a [`MixChain`]: after the honest
/// server logic runs, the adversary tampers with the outgoing batch. The
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

    fn tamper(&self, batch: Vec<Vec<u8>>, round: u64) -> Vec<Vec<u8>> {
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

/// Derives the seed for the server at `index` in a chain seeded with
/// `chain_seed`. This is the single source of truth shared by the in-process
/// [`MixChain`] and a distributed `mixd` daemon hosting the same chain
/// position, so both derive byte-identical per-round keys, noise, and
/// shuffles.
pub fn server_seed(chain_seed: [u8; 32], index: usize) -> [u8; 32] {
    let mut seed = chain_seed;
    seed[0] ^= index as u8;
    seed[1] ^= (index >> 8) as u8;
    seed
}

/// A chain of mixnet servers processed in order.
pub struct MixChain {
    servers: Vec<MixServer>,
    noise: NoiseConfig,
    /// Scripted compromise of one server (tests and chaos scenarios only).
    adversary: Option<MixAdversary>,
    /// Rounds mixed since the adversary was installed, keying its per-round
    /// tampering stream.
    tamper_rounds: u64,
}

impl MixChain {
    /// Creates a chain of `n` servers with the given noise configuration.
    /// Each server's randomness is derived from `seed` and its index.
    pub fn new(n: usize, noise: NoiseConfig, seed: [u8; 32]) -> Self {
        assert!(n >= 1, "a mixnet chain needs at least one server");
        let servers = (0..n)
            .map(|i| MixServer::new(i, server_seed(seed, i)))
            .collect();
        MixChain {
            servers,
            noise,
            adversary: None,
            tamper_rounds: 0,
        }
    }

    /// Installs (or with `None` removes) a scripted adversary compromising
    /// one server in the chain. Panics if the server index is out of range.
    /// This is the hook the scenario engine's malicious-mixer events drive;
    /// honest operation is byte-identical to a chain that never had the
    /// hook, because tampering happens strictly after the honest server
    /// logic and only when an adversary is installed.
    pub fn set_adversary(&mut self, adversary: Option<MixAdversary>) {
        if let Some(a) = &adversary {
            assert!(
                a.server < self.servers.len(),
                "adversary server index {} out of range ({} servers)",
                a.server,
                self.servers.len()
            );
        }
        self.adversary = adversary;
        self.tamper_rounds = 0;
    }

    /// The currently installed adversary, if any.
    pub fn adversary(&self) -> Option<&MixAdversary> {
        self.adversary.as_ref()
    }

    /// Number of servers in the chain.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Sets the per-server worker-thread count for round processing.
    /// `1` selects the sequential reference path; see
    /// [`MixServer::set_workers`]. Round outputs are identical for every
    /// worker count under a fixed seed.
    pub fn set_workers(&mut self, workers: usize) {
        for server in &mut self.servers {
            server.set_workers(workers);
        }
    }

    /// Whether the chain is empty (never true; chains have at least one server).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// The noise configuration in use.
    pub fn noise(&self) -> &NoiseConfig {
        &self.noise
    }

    /// Starts a round on every server and returns the onion public keys, in
    /// chain order, that clients must wrap their requests for.
    pub fn begin_round(&mut self) -> Vec<DhPublic> {
        self.servers.iter_mut().map(|s| s.begin_round()).collect()
    }

    /// Makes the next [`MixChain::begin_round`] open round id `next_round`
    /// on every server (see [`MixServer::resume_at`]).
    pub fn resume_at(&mut self, next_round: u64) {
        for server in &mut self.servers {
            server.resume_at(next_round);
        }
    }

    /// Whether any server in the chain still holds the onion secret of
    /// chain round `round` (rounds are numbered by
    /// [`MixChain::begin_round`] from 0).
    pub fn round_open_for(&self, round: u64) -> bool {
        self.servers.iter().any(|s| s.round_open_for(round))
    }

    /// Ends the round on every server, erasing round keys.
    pub fn end_round(&mut self) {
        for server in &mut self.servers {
            server.end_round();
        }
    }

    /// Pushes a batch of client onions through every server.
    fn mix(
        &mut self,
        batch: Vec<Vec<u8>>,
        protocol: Protocol,
        num_mailboxes: u32,
        publics: &[DhPublic],
    ) -> (Vec<Vec<u8>>, RoundStats) {
        let mut stats = RoundStats {
            client_messages: batch.len(),
            ..RoundStats::default()
        };
        let noise = self.noise;
        let mut current = batch;
        let server_count = self.servers.len();
        let tamper_round = self.tamper_rounds;
        if self.adversary.is_some() {
            self.tamper_rounds += 1;
        }
        for i in 0..server_count {
            let downstream = &publics[i + 1..];
            current = self.servers[i].process(current, downstream, protocol, &noise, num_mailboxes);
            stats.noise += self.servers[i].last_noise_added();
            stats.dropped += self.servers[i].last_malformed_dropped();
            // A compromised server tampers after its honest processing, so
            // the stats record what the server *claims* and `final_messages`
            // records what actually came out — the discrepancy is exactly
            // what the conservation invariant checks.
            if let Some(adversary) = self.adversary {
                if adversary.server == i {
                    current = adversary.tamper(current, tamper_round);
                }
            }
        }
        stats.final_messages = current.len();
        (current, stats)
    }

    /// Runs a complete add-friend round: mixes the batch and builds the
    /// add-friend mailboxes. `publics` must be the keys returned by
    /// [`MixChain::begin_round`] for this round.
    pub fn run_add_friend_round(
        &mut self,
        batch: Vec<Vec<u8>>,
        num_mailboxes: u32,
        publics: &[DhPublic],
    ) -> (AddFriendMailboxes, RoundStats) {
        let (finals, stats) = self.mix(batch, Protocol::AddFriend, num_mailboxes, publics);
        (
            AddFriendMailboxes::from_batch(&finals, num_mailboxes),
            stats,
        )
    }

    /// Runs a complete dialing round: mixes the batch and builds the Bloom
    /// filter mailboxes.
    pub fn run_dialing_round(
        &mut self,
        batch: Vec<Vec<u8>>,
        num_mailboxes: u32,
        publics: &[DhPublic],
    ) -> (DialingMailboxes, RoundStats) {
        let (finals, stats) = self.mix(batch, Protocol::Dialing, num_mailboxes, publics);
        (DialingMailboxes::from_batch(&finals, num_mailboxes), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::onion::wrap_onion;
    use alpenhorn_crypto::ChaChaRng;
    use alpenhorn_wire::{AddFriendEnvelope, DialRequest, DialToken, MailboxId};

    fn rng(seed: u8) -> ChaChaRng {
        ChaChaRng::from_seed_bytes([seed; 32])
    }

    #[test]
    fn add_friend_round_delivers_requests() {
        let mut rng = rng(1);
        let mut chain = MixChain::new(3, NoiseConfig::deterministic(2.0), [7u8; 32]);
        let publics = chain.begin_round();

        // Two real requests to mailbox 0 and one cover message.
        let mut batch = Vec::new();
        for fill in [0x11u8, 0x22] {
            let env = AddFriendEnvelope {
                mailbox: MailboxId(0),
                ciphertext: vec![fill; AddFriendEnvelope::CIPHERTEXT_LEN],
            };
            batch.push(wrap_onion(&env.encode(), &publics, &mut rng));
        }
        batch.push(wrap_onion(
            &AddFriendEnvelope::cover().encode(),
            &publics,
            &mut rng,
        ));

        let (mailboxes, stats) = chain.run_add_friend_round(batch, 1, &publics);
        chain.end_round();

        assert_eq!(stats.client_messages, 3);
        assert_eq!(stats.dropped, 0);
        // 2 noise per mailbox (1 real + cover) per server = 4 per server.
        assert_eq!(stats.noise, 12);
        // The real ciphertexts are present in mailbox 0.
        let delivered = mailboxes.mailbox(MailboxId(0));
        assert!(delivered
            .iter()
            .any(|c| c == &vec![0x11u8; AddFriendEnvelope::CIPHERTEXT_LEN]));
        assert!(delivered
            .iter()
            .any(|c| c == &vec![0x22u8; AddFriendEnvelope::CIPHERTEXT_LEN]));
        // Mailbox 0 also holds the add-friend noise addressed to it (2 per server).
        assert_eq!(delivered.len(), 2 + 6);
    }

    #[test]
    fn dialing_round_encodes_tokens_in_bloom_filter() {
        let mut rng = rng(2);
        let mut chain = MixChain::new(3, NoiseConfig::deterministic(5.0), [8u8; 32]);
        let publics = chain.begin_round();

        let token = DialToken([0x5au8; 32]);
        let req = DialRequest {
            mailbox: MailboxId(0),
            token,
        };
        let batch = vec![wrap_onion(&req.encode(), &publics, &mut rng)];
        let (mailboxes, stats) = chain.run_dialing_round(batch, 1, &publics);
        chain.end_round();

        assert_eq!(stats.client_messages, 1);
        let filter = mailboxes.mailbox(MailboxId(0)).unwrap();
        assert!(filter.contains(&token.0));
        // 1 real token + 5 noise per server per mailbox (mailbox 0 only; cover dropped).
        assert_eq!(mailboxes.total_tokens(), 1 + 3 * 5);
    }

    #[test]
    fn messages_shuffled_between_input_and_output() {
        // With deterministic payload markers and zero noise, the output order
        // should (overwhelmingly likely) differ from the input order.
        let mut rng = rng(3);
        let mut chain = MixChain::new(1, NoiseConfig::deterministic(0.0), [9u8; 32]);
        let publics = chain.begin_round();

        let count = 64u32;
        let batch: Vec<Vec<u8>> = (0..count)
            .map(|i| {
                let env = AddFriendEnvelope {
                    mailbox: MailboxId(0),
                    ciphertext: {
                        let mut c = vec![0u8; AddFriendEnvelope::CIPHERTEXT_LEN];
                        c[..4].copy_from_slice(&i.to_be_bytes());
                        c
                    },
                };
                wrap_onion(&env.encode(), &publics, &mut rng)
            })
            .collect();
        let (mailboxes, _) = chain.run_add_friend_round(batch, 1, &publics);
        let order: Vec<u32> = mailboxes
            .mailbox(MailboxId(0))
            .iter()
            .map(|c| u32::from_be_bytes(c[..4].try_into().unwrap()))
            .collect();
        assert_eq!(order.len(), count as usize);
        assert_ne!(order, (0..count).collect::<Vec<_>>(), "batch not shuffled");
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..count).collect::<Vec<_>>());
    }

    #[test]
    fn more_servers_add_more_noise() {
        let mut chain3 = MixChain::new(3, NoiseConfig::deterministic(4.0), [1u8; 32]);
        let p3 = chain3.begin_round();
        let (_, s3) = chain3.run_add_friend_round(vec![], 2, &p3);

        let mut chain5 = MixChain::new(5, NoiseConfig::deterministic(4.0), [1u8; 32]);
        let p5 = chain5.begin_round();
        let (_, s5) = chain5.run_add_friend_round(vec![], 2, &p5);

        assert!(s5.noise > s3.noise);
        assert_eq!(s3.noise, 3 * 4 * 3); // servers x mu x (mailboxes + cover)
        assert_eq!(s5.noise, 5 * 4 * 3);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_chain_rejected() {
        MixChain::new(0, NoiseConfig::light(), [0u8; 32]);
    }

    fn marker_batch(rng: &mut ChaChaRng, publics: &[DhPublic], count: u32) -> Vec<Vec<u8>> {
        (0..count)
            .map(|i| {
                let env = AddFriendEnvelope {
                    mailbox: MailboxId(0),
                    ciphertext: {
                        let mut c = vec![0u8; AddFriendEnvelope::CIPHERTEXT_LEN];
                        c[..4].copy_from_slice(&i.to_be_bytes());
                        c
                    },
                };
                wrap_onion(&env.encode(), publics, rng)
            })
            .collect()
    }

    #[test]
    fn dropping_adversary_breaks_conservation() {
        let mut rng = rng(4);
        let mut chain = MixChain::new(3, NoiseConfig::deterministic(0.0), [10u8; 32]);
        chain.set_adversary(Some(MixAdversary {
            server: 1,
            misbehavior: MixMisbehavior::DropOnions { percent: 50 },
            seed: 77,
        }));
        let publics = chain.begin_round();
        let batch = marker_batch(&mut rng, &publics, 64);
        let (_, stats) = chain.run_add_friend_round(batch, 1, &publics);
        assert_eq!(stats.client_messages, 64);
        assert_eq!(stats.noise, 0);
        assert!(
            stats.final_messages < 64,
            "a dropping mixer must lose messages: {stats:?}"
        );
    }

    #[test]
    fn replaying_adversary_inflates_final_batch_deterministically() {
        let run = || {
            let mut rng = rng(5);
            let mut chain = MixChain::new(3, NoiseConfig::deterministic(0.0), [11u8; 32]);
            chain.set_adversary(Some(MixAdversary {
                server: 0,
                misbehavior: MixMisbehavior::ReplayOnions { percent: 40 },
                seed: 78,
            }));
            let publics = chain.begin_round();
            let batch = marker_batch(&mut rng, &publics, 64);
            let (_, stats) = chain.run_add_friend_round(batch, 1, &publics);
            stats
        };
        let stats = run();
        assert!(
            stats.final_messages > 64,
            "a replaying mixer must add messages: {stats:?}"
        );
        // Seeded adversary: the replayed run tampers identically.
        assert_eq!(stats, run());
    }

    #[test]
    fn honest_chain_is_unchanged_by_the_hook() {
        let run = |with_hook: bool| {
            let mut rng = rng(6);
            let mut chain = MixChain::new(3, NoiseConfig::deterministic(2.0), [12u8; 32]);
            if with_hook {
                chain.set_adversary(Some(MixAdversary {
                    server: 2,
                    misbehavior: MixMisbehavior::DropOnions { percent: 100 },
                    seed: 1,
                }));
                chain.set_adversary(None);
            }
            let publics = chain.begin_round();
            let batch = marker_batch(&mut rng, &publics, 16);
            let (mailboxes, stats) = chain.run_add_friend_round(batch, 1, &publics);
            (mailboxes.mailbox(MailboxId(0)).to_vec(), stats)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn adversary_index_must_be_in_range() {
        let mut chain = MixChain::new(2, NoiseConfig::light(), [0u8; 32]);
        chain.set_adversary(Some(MixAdversary {
            server: 2,
            misbehavior: MixMisbehavior::ReorderOnions,
            seed: 0,
        }));
    }
}
