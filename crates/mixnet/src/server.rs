//! A single mixnet server's per-round processing.
//!
//! For each round, a server holds a fresh onion key. When the round's batch
//! arrives, the server peels its onion layer from every message, discards
//! malformed ones (resilience to client denial-of-service, §3.3), generates
//! Laplace noise addressed to every mailbox (wrapped for the *remaining*
//! servers so downstream servers cannot tell noise from real traffic), and
//! randomly permutes the combined batch before handing it to the next server.
//!
//! # Round pipeline
//!
//! Peeling and noise generation are sharded across a [`std::thread::scope`]
//! worker pool ([`MixServer::set_workers`]). Peeling operates **in place** on
//! the batch's own buffers ([`crate::onion::peel_layer_in_place`]), so the
//! steady-state peel loop performs no heap allocation per message. All round
//! randomness forks from a single round seed: one stream per mailbox for
//! noise, one for the shuffle. Workers own disjoint mailbox ranges and merge
//! in mailbox order before the shuffle, so for a fixed seed the output batch
//! is **byte-identical regardless of the worker count** — `workers = 1` is
//! the sequential reference the parallel path is equivalence-tested against.
//!
//! Forward secrecy: the round's onion secret and the permutation are erased
//! when the round ends ([`MixServer::end_round`]).
//!
//! # Round identity and distribution
//!
//! All per-round randomness (the onion keypair, noise, the shuffle) is
//! derived by HMAC from the server seed and an explicit **round id**
//! ([`MixServer::begin_round`]), never from a sequential rng stream.
//! Rounds are therefore independent: several may be open at once, repeating
//! an operation for the same round reproduces byte-identical output (what
//! makes the `mixd` daemon's RPCs retry-idempotent with no replay cache),
//! and the bytes a server produces depend only on (seed, index, round) —
//! not on which process hosts it or when its calls interleave with other
//! servers'. The chain driver, `alpenhorn_mixd::MixChain`, numbers the
//! rounds; a server only answers for the ids it is given.

use std::collections::BTreeMap;

use alpenhorn_crypto::{ChaChaRng, HmacKey};
use alpenhorn_ibe::dh::{DhPublic, DhSecret};
use alpenhorn_wire::{AddFriendEnvelope, MailboxId, RoundKind, DIAL_TOKEN_LEN};
use rand::RngCore;

use crate::noise::NoiseConfig;
use crate::onion::{peel_layer_in_place, wrap_onion_into};

/// One server's output for one round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessedBatch {
    /// The peeled, noised, shuffled batch.
    pub batch: Vec<Vec<u8>>,
    /// Noise onions the server injected.
    pub noise_added: u64,
    /// Malformed onions the server dropped.
    pub dropped: u64,
}

/// Below this much work (messages plus mailboxes), `process` stays on the
/// calling thread: spawning workers costs more than it saves.
const PARALLEL_THRESHOLD: usize = 256;

/// One mixnet server.
pub struct MixServer {
    /// Position in the chain, 0-based.
    index: usize,
    /// Human-readable name (for diagnostics).
    name: String,
    /// Per-round randomness derivation key (from the server seed).
    round_key: HmacKey,
    /// Onion secrets of the currently open rounds, by round id.
    open_rounds: BTreeMap<u64, DhSecret>,
    /// Worker threads used for round processing.
    workers: usize,
}

impl MixServer {
    /// Creates a server at position `index` in the chain, seeded with
    /// `seed` (servers in production would use OS entropy; the seed keeps
    /// simulations reproducible). Round processing uses all available cores;
    /// see [`MixServer::set_workers`].
    pub fn new(index: usize, seed: [u8; 32]) -> Self {
        MixServer {
            index,
            name: format!("mix-{index}"),
            round_key: HmacKey::new(&seed),
            open_rounds: BTreeMap::new(),
            workers: default_workers(),
        }
    }

    /// The rng for one derivation domain of one round: a pure function of
    /// (server seed, domain, round id).
    fn round_rng(&self, domain: &[u8], round: u64) -> ChaChaRng {
        let mut mac = self.round_key.mac_stream();
        mac.update(domain);
        mac.update(&round.to_be_bytes());
        ChaChaRng::from_seed_bytes(mac.finalize())
    }

    /// The server's position in the chain.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The server's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sets the number of worker threads used by [`MixServer::process`].
    /// `1` selects the sequential reference path. For any fixed seed the
    /// round output is identical under every worker count; only wall-clock
    /// time changes.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
    }

    /// The configured number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Begins (or re-derives) round `round`: derives its onion keypair and
    /// returns the public half clients wrap their requests for.
    ///
    /// Idempotent: the keypair is a pure function of (seed, round id), so a
    /// retried call returns the same key and disturbs nothing.
    pub fn begin_round(&mut self, round: u64) -> DhPublic {
        let mut rng = self.round_rng(b"onion-key", round);
        let secret = DhSecret::generate(&mut rng);
        let public = secret.public();
        self.open_rounds.insert(round, secret);
        public
    }

    /// Ends round `round`, erasing its onion secret (forward secrecy).
    /// Unknown or already-ended round ids are ignored, so retries are safe.
    pub fn end_round(&mut self, round: u64) {
        if let Some(mut secret) = self.open_rounds.remove(&round) {
            secret.erase();
        }
    }

    /// Processes round `round`'s batch: peel, add noise, shuffle. Returns
    /// `None` if the round is not open (never begun, or already ended).
    ///
    /// `downstream_publics` are the onion public keys of the servers after
    /// this one (empty for the last server); noise is wrapped for them so it
    /// remains indistinguishable from client traffic downstream.
    /// `num_mailboxes` is the number of real mailboxes for the round.
    ///
    /// The output is a pure function of (seed, round, inputs): reprocessing
    /// the same batch for the same round is byte-identical, which is what
    /// lets a driver retry a lost `Process` RPC without a replay cache.
    pub fn process(
        &mut self,
        round: u64,
        mut batch: Vec<Vec<u8>>,
        downstream_publics: &[DhPublic],
        protocol: RoundKind,
        noise: &NoiseConfig,
        num_mailboxes: u32,
    ) -> Option<ProcessedBatch> {
        let secret = self.open_rounds.get(&round)?.clone();

        // All round randomness derives from (seed, round) up front, so it is
        // independent of batch size, noise volume, worker count, and of any
        // other rounds open concurrently.
        let mut round_rng = self.round_rng(b"mix-round", round);
        let mut noise_seed = [0u8; 32];
        round_rng.fill_bytes(&mut noise_seed);
        let mut shuffle_rng = round_rng.fork(b"shuffle");

        // Mailbox slots 0..num_mailboxes are real; the last slot is cover.
        let mailbox_slots = num_mailboxes + 1;
        let work = batch.len() + mailbox_slots as usize;
        let workers = if work < PARALLEL_THRESHOLD {
            1
        } else {
            self.workers
        };

        let hop = self.index;
        let first_downstream_hop = self.index + 1;
        let mut kept = vec![false; batch.len()];

        // Each worker peels one contiguous batch chunk, then generates the
        // noise of one contiguous mailbox range, so every worker carries a
        // share of both phases and no thread idles while another peels the
        // whole batch. The calling thread runs the first share itself, so
        // `workers = 1` spawns nothing. Determinism is unaffected: results
        // are collected in share order, chunks and ranges are contiguous
        // and ascending, and each mailbox's noise stream is derived from
        // the round seed, so share boundaries cannot change the bytes.
        let chunk_len = batch.len().div_ceil(workers).max(1);
        let range_len = (mailbox_slots as usize).div_ceil(workers).max(1) as u32;
        let mut chunks = batch.chunks_mut(chunk_len).zip(kept.chunks_mut(chunk_len));
        let shares: Vec<_> = (0..workers as u32)
            .map(|w| {
                let start = w.saturating_mul(range_len).min(mailbox_slots);
                (chunks.next(), start..mailbox_slots.min(start + range_len))
            })
            .collect();
        let run_share = |(chunk, range): Share<'_>| {
            let dropped = chunk.map_or(0, |(messages, kept)| {
                peel_chunk(messages, kept, &secret, hop)
            });
            let mut noise_out = Vec::new();
            let added = generate_noise_range(
                range,
                num_mailboxes,
                &noise_seed,
                protocol,
                noise,
                downstream_publics,
                first_downstream_hop,
                &mut noise_out,
            );
            (dropped, noise_out, added)
        };
        let results: Vec<(u64, Vec<Vec<u8>>, u64)> = std::thread::scope(|s| {
            let mut shares = shares.into_iter();
            let first = shares.next().expect("at least one worker");
            let handles: Vec<_> = shares
                .map(|share| s.spawn(move || run_share(share)))
                .collect();
            let mut results = vec![run_share(first)];
            results.extend(handles.into_iter().map(|h| h.join().expect("mix worker")));
            results
        });
        let dropped: u64 = results.iter().map(|(dropped, _, _)| dropped).sum();
        let noise_count: u64 = results.iter().map(|(_, _, added)| added).sum();

        // Deterministic merge: surviving client messages in submission order,
        // then noise in mailbox order.
        let mut out: Vec<Vec<u8>> =
            Vec::with_capacity(batch.len() - dropped as usize + noise_count as usize);
        for (message, keep) in batch.into_iter().zip(kept) {
            if keep {
                out.push(message);
            }
        }
        for (_, mut shard, _) in results {
            out.append(&mut shard);
        }

        // Random permutation: the honest server's shuffle is what breaks the
        // link between inputs and outputs.
        shuffle_rng.shuffle(&mut out);
        Some(ProcessedBatch {
            batch: out,
            noise_added: noise_count,
            dropped,
        })
    }
}

/// One worker's share of a round: a batch chunk to peel (with its
/// survivor flags), if the batch reaches it, and a mailbox range to noise.
type Share<'a> = (
    Option<(&'a mut [Vec<u8>], &'a mut [bool])>,
    core::ops::Range<u32>,
);

fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Peels every message in `chunk` in place, marking survivors in `kept`, and
/// returns the number of malformed messages dropped. No allocation per
/// message: each onion shrinks within its own buffer.
fn peel_chunk(chunk: &mut [Vec<u8>], kept: &mut [bool], secret: &DhSecret, hop: usize) -> u64 {
    let mut dropped = 0u64;
    for (message, keep) in chunk.iter_mut().zip(kept.iter_mut()) {
        match peel_layer_in_place(message, secret, hop) {
            Ok(()) => *keep = true,
            Err(_) => dropped += 1,
        }
    }
    dropped
}

/// Generates the noise for mailbox slots `range` (slot `num_mailboxes` is the
/// cover mailbox), appending wrapped onions to `out` and returning how many
/// were added.
///
/// Each slot's randomness is an independent stream keyed by
/// `HMAC(noise_seed, slot)`, which makes the bytes a function of the round
/// seed and the mailbox alone — the partition of slots across workers cannot
/// affect them.
#[allow(clippy::too_many_arguments)]
fn generate_noise_range(
    range: core::ops::Range<u32>,
    num_mailboxes: u32,
    noise_seed: &[u8; 32],
    protocol: RoundKind,
    noise: &NoiseConfig,
    downstream_publics: &[DhPublic],
    first_hop: usize,
    out: &mut Vec<Vec<u8>>,
) -> u64 {
    let mut added = 0u64;
    // One payload scratch per worker, reused across all of its messages.
    let mut payload = Vec::new();
    // The per-slot streams all share the round's noise seed as HMAC key, so
    // its ipad/opad states are computed once per worker, not once per slot.
    let slot_stream_key = HmacKey::new(noise_seed);
    for slot in range {
        let mailbox = if slot == num_mailboxes {
            MailboxId::COVER
        } else {
            MailboxId(slot)
        };
        let mut rng = ChaChaRng::from_seed_bytes(slot_stream_key.mac(&slot.to_be_bytes()));
        let count = noise.sample_count(&mut rng);
        for _ in 0..count {
            noise_payload_into(protocol, mailbox, &mut rng, &mut payload);
            // The wrapped onion is the output message itself: its single
            // allocation is made at the exact final size by `wrap_onion_into`.
            let mut message = Vec::new();
            wrap_onion_into(
                &payload,
                downstream_publics,
                first_hop,
                &mut rng,
                &mut message,
            );
            out.push(message);
            added += 1;
        }
    }
    added
}

/// Builds one noise payload (the innermost request format) into `buf`.
///
/// The layouts mirror [`AddFriendEnvelope::encode`] and
/// [`alpenhorn_wire::DialRequest::encode`] — a 4-byte big-endian mailbox ID
/// followed by the random body — without routing the random bytes through an
/// owned envelope struct. `noise_payload_layouts_match_wire_encoders` in the
/// tests pins the equivalence.
fn noise_payload_into(
    protocol: RoundKind,
    mailbox: MailboxId,
    rng: &mut ChaChaRng,
    buf: &mut Vec<u8>,
) {
    let body_len = match protocol {
        // Noise is an IBE-ciphertext-shaped blob of random bytes; by
        // ciphertext anonymity (§4.3) it is indistinguishable from a real
        // encrypted friend request without a matching key.
        RoundKind::AddFriend => AddFriendEnvelope::CIPHERTEXT_LEN,
        RoundKind::Dialing => DIAL_TOKEN_LEN,
    };
    buf.clear();
    buf.extend_from_slice(&mailbox.as_u32().to_be_bytes());
    buf.resize(4 + body_len, 0);
    rng.fill_bytes(&mut buf[4..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::onion::wrap_onion;
    use alpenhorn_wire::{DialRequest, DialToken};

    #[test]
    fn begin_and_end_round() {
        let mut server = MixServer::new(0, [1u8; 32]);
        let process = |server: &mut MixServer, round| {
            server.process(
                round,
                vec![],
                &[],
                RoundKind::Dialing,
                &NoiseConfig::light(),
                1,
            )
        };
        assert!(process(&mut server, 0).is_none());
        let pk1 = server.begin_round(0);
        assert_eq!(server.begin_round(0).to_bytes(), pk1.to_bytes());
        assert!(process(&mut server, 0).is_some());
        server.end_round(0);
        assert!(process(&mut server, 0).is_none());
        let pk2 = server.begin_round(1);
        assert_ne!(pk1.to_bytes(), pk2.to_bytes(), "round keys must rotate");
    }

    #[test]
    fn process_peels_and_adds_noise() {
        let mut rng = ChaChaRng::from_seed_bytes([9u8; 32]);
        let mut server = MixServer::new(0, [2u8; 32]);
        let pk = server.begin_round(0);

        let payload = AddFriendEnvelope::cover().encode();
        let onion = wrap_onion(&payload, &[pk], &mut rng);
        let out = server
            .process(
                0,
                vec![onion],
                &[],
                RoundKind::AddFriend,
                &NoiseConfig::deterministic(5.0),
                2,
            )
            .unwrap();
        // 1 real message + 5 noise for each of 2 mailboxes + 5 for cover.
        assert_eq!(out.batch.len(), 1 + 5 * 3);
        assert_eq!(out.noise_added, 15);
        assert_eq!(out.dropped, 0);
        // Every output is a well-formed envelope (single server, so fully peeled).
        for msg in &out.batch {
            AddFriendEnvelope::decode(msg).unwrap();
        }
    }

    #[test]
    fn malformed_messages_dropped() {
        let mut server = MixServer::new(0, [3u8; 32]);
        server.begin_round(0);
        let out = server
            .process(
                0,
                vec![vec![1, 2, 3], vec![0u8; 500]],
                &[],
                RoundKind::Dialing,
                &NoiseConfig::deterministic(0.0),
                1,
            )
            .unwrap();
        assert!(out.batch.is_empty());
        assert_eq!(out.dropped, 2);
    }

    #[test]
    fn noise_for_downstream_server_is_wrapped() {
        // Server 0's noise must still be onion-encrypted for server 1.
        let mut server0 = MixServer::new(0, [4u8; 32]);
        let mut server1 = MixServer::new(1, [5u8; 32]);
        server0.begin_round(0);
        let pk1 = server1.begin_round(0);

        let out0 = server0
            .process(
                0,
                vec![],
                &[pk1],
                RoundKind::Dialing,
                &NoiseConfig::deterministic(3.0),
                1,
            )
            .unwrap();
        assert_eq!(out0.batch.len(), 6); // 3 noise x (1 mailbox + cover)

        // Server 1 can peel all of them into valid dial requests.
        let out1 = server1
            .process(
                0,
                out0.batch,
                &[],
                RoundKind::Dialing,
                &NoiseConfig::deterministic(0.0),
                1,
            )
            .unwrap();
        assert_eq!(out1.batch.len(), 6);
        assert_eq!(out1.dropped, 0);
        for msg in &out1.batch {
            DialRequest::decode(msg).unwrap();
        }
    }

    #[test]
    fn dialing_noise_tokens_are_random() {
        let mut server = MixServer::new(0, [6u8; 32]);
        server.begin_round(0);
        let out = server
            .process(
                0,
                vec![],
                &[],
                RoundKind::Dialing,
                &NoiseConfig::deterministic(10.0),
                1,
            )
            .unwrap()
            .batch;
        let tokens: std::collections::HashSet<[u8; 32]> = out
            .iter()
            .map(|m| DialRequest::decode(m).unwrap().token.0)
            .collect();
        assert_eq!(tokens.len(), out.len(), "noise tokens must not repeat");
    }

    #[test]
    fn process_of_an_unopened_round_is_none() {
        let mut server = MixServer::new(0, [7u8; 32]);
        server.begin_round(1);
        let out = server.process(2, vec![], &[], RoundKind::Dialing, &NoiseConfig::light(), 1);
        assert_eq!(out, None);
    }

    #[test]
    fn noise_payload_layouts_match_wire_encoders() {
        // The zero-copy noise path writes wire bytes directly; pin it to the
        // canonical encoders so the layouts cannot drift apart.
        let mut rng = ChaChaRng::from_seed_bytes([8u8; 32]);
        let mut buf = Vec::new();

        noise_payload_into(RoundKind::Dialing, MailboxId(7), &mut rng, &mut buf);
        let decoded = DialRequest::decode(&buf).unwrap();
        assert_eq!(
            buf,
            DialRequest {
                mailbox: MailboxId(7),
                token: DialToken(decoded.token.0),
            }
            .encode()
        );

        noise_payload_into(RoundKind::AddFriend, MailboxId::COVER, &mut rng, &mut buf);
        let decoded = AddFriendEnvelope::decode(&buf).unwrap();
        assert_eq!(
            buf,
            AddFriendEnvelope {
                mailbox: MailboxId::COVER,
                ciphertext: decoded.ciphertext.clone(),
            }
            .encode()
        );
    }

    /// Runs one identical round on servers differing only in worker count.
    fn run_round(
        workers: usize,
        batch_size: u32,
        protocol: RoundKind,
        num_mailboxes: u32,
    ) -> ProcessedBatch {
        let mut client_rng = ChaChaRng::from_seed_bytes([21u8; 32]);
        let mut server = MixServer::new(0, [22u8; 32]);
        server.set_workers(workers);
        let pk = server.begin_round(0);
        let batch: Vec<Vec<u8>> = (0..batch_size)
            .map(|i| {
                if i % 17 == 3 {
                    // Sprinkle malformed messages among the real ones.
                    vec![i as u8; 20]
                } else {
                    let mut payload = match protocol {
                        RoundKind::AddFriend => AddFriendEnvelope::cover().encode(),
                        RoundKind::Dialing => DialRequest {
                            mailbox: MailboxId::COVER,
                            token: DialToken([i as u8; 32]),
                        }
                        .encode(),
                    };
                    payload[..4].copy_from_slice(&(i % num_mailboxes).to_be_bytes());
                    wrap_onion(&payload, &[pk], &mut client_rng)
                }
            })
            .collect();
        server
            .process(
                0,
                batch,
                &[],
                protocol,
                &NoiseConfig::deterministic(2.0),
                num_mailboxes,
            )
            .unwrap()
    }

    #[test]
    fn parallel_process_is_byte_identical_to_sequential() {
        // Both shapes exceed PARALLEL_THRESHOLD, so worker counts > 1
        // genuinely exercise the threaded path: an add-friend batch of 400
        // messages over 41 mailbox slots, and a dial-shaped one of 1 000
        // messages over 2 slots, where some workers get no mailbox range.
        for (protocol, batch_size, num_mailboxes) in [
            (RoundKind::AddFriend, 400, 40),
            (RoundKind::Dialing, 1000, 1),
        ] {
            let sequential = run_round(1, batch_size, protocol, num_mailboxes);
            for workers in [2, 3, 8] {
                let parallel = run_round(workers, batch_size, protocol, num_mailboxes);
                assert_eq!(parallel, sequential, "{protocol:?}, workers = {workers}");
            }
        }
    }
}
