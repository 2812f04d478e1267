//! Property tests: the distributed chain is byte-equivalent to the
//! in-process chain.
//!
//! [`MixChain`] over loopback mixers routes every request through the full
//! wire codec — exactly the bytes a TCP deployment exchanges — so these
//! properties pin the whole distribution surface: for any mixer count,
//! batch, and protocol, the mailboxes and round stats must equal what a
//! chain of directly called daemons produces from the same cluster seed. A
//! socket-level test runs the same comparison against real `mixd` daemons
//! over TCP, including a mid-run disconnect to prove retry-recovery is
//! invisible in the output, and a pinned digest checks the bytes across
//! commits.

use std::sync::Mutex;

use proptest::prelude::*;

use alpenhorn_crypto::{ChaChaRng, Sha256};
use alpenhorn_ibe::dh::DhPublic;
use alpenhorn_mixd::{server_config, MixChain, MixRetryPolicy, MixdServer, Mixer, RemoteMixer};
use alpenhorn_mixnet::onion::wrap_onion;
use alpenhorn_mixnet::{NoiseConfig, RoundStats};
use alpenhorn_wire::server::serve;
use alpenhorn_wire::{AddFriendEnvelope, DialRequest, DialToken, MailboxId, RoundKind};

const ROUNDS: u64 = 3;

/// Builds round `r`'s client batch: real envelopes spread over the
/// mailboxes, wrapped for the whole chain. Pure function of its inputs, so
/// both deployments see identical onions.
fn batch_for(
    protocol: RoundKind,
    round: u64,
    publics: &[DhPublic],
    batch_size: usize,
    num_mailboxes: u32,
    seed: u8,
) -> Vec<Vec<u8>> {
    let mut rng_seed = [seed; 32];
    rng_seed[0] ^= round as u8;
    rng_seed[1] ^= protocol as u8;
    let mut rng = ChaChaRng::from_seed_bytes(rng_seed);
    (0..batch_size)
        .map(|i| {
            let mailbox = MailboxId(i as u32 % num_mailboxes);
            let payload = match protocol {
                RoundKind::AddFriend => AddFriendEnvelope {
                    mailbox,
                    ciphertext: {
                        let mut c = vec![0u8; AddFriendEnvelope::CIPHERTEXT_LEN];
                        c[..8].copy_from_slice(&(round << 16 | i as u64).to_be_bytes());
                        c
                    },
                }
                .encode(),
                RoundKind::Dialing => DialRequest {
                    mailbox,
                    token: DialToken([i as u8 ^ round as u8 ^ seed; 32]),
                }
                .encode(),
            };
            wrap_onion(&payload, publics, &mut rng)
        })
        .collect()
}

/// Runs `ROUNDS` rounds through `chain`, begin, run and end once per round,
/// as the coordinator drives it, returning per-round final mailboxes as
/// comparable values.
#[allow(clippy::type_complexity)]
fn run(
    mut chain: MixChain,
    protocol: RoundKind,
    cluster_seed: [u8; 32],
    batch_size: usize,
    num_mailboxes: u32,
) -> Vec<(String, RoundStats)> {
    (0..ROUNDS)
        .map(|round| {
            let publics = chain.begin_round().unwrap();
            let batch = batch_for(
                protocol,
                round,
                &publics,
                batch_size,
                num_mailboxes,
                cluster_seed[0],
            );
            let out = match protocol {
                RoundKind::AddFriend => {
                    let (boxes, stats) = chain
                        .run_add_friend_round(batch, num_mailboxes, &publics)
                        .unwrap();
                    (format!("{:?}", boxes.mailboxes), stats)
                }
                RoundKind::Dialing => {
                    let (boxes, stats) = chain
                        .run_dialing_round(batch, num_mailboxes, &publics)
                        .unwrap();
                    (
                        format!("{:?} {:?}", boxes.mailboxes, boxes.token_counts),
                        stats,
                    )
                }
            };
            chain.end_round();
            out
        })
        .collect()
}

/// The in-process reference: `ROUNDS` rounds on a chain of directly called
/// daemons.
#[allow(clippy::type_complexity)]
fn run_in_process(
    protocol: RoundKind,
    mixers: usize,
    noise: NoiseConfig,
    cluster_seed: [u8; 32],
    batch_size: usize,
    num_mailboxes: u32,
) -> Vec<(String, RoundStats)> {
    let chain = MixChain::in_process(protocol, mixers, noise, cluster_seed);
    run(chain, protocol, cluster_seed, batch_size, num_mailboxes)
}

proptest! {
    // Each case runs 2 x ROUNDS full mixnet rounds with real DH onions;
    // keep the case count moderate.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any mixer count, batch size, mailbox count, protocol, and seed:
    /// distributed == in-process, byte for byte.
    #[test]
    fn remote_chain_over_loopback_equals_in_process_chain(
        mixers in 1usize..5,
        batch_size in 0usize..10,
        num_mailboxes in 1u32..4,
        dialing in any::<bool>(),
        seed in any::<u8>(),
    ) {
        let protocol = if dialing { RoundKind::Dialing } else { RoundKind::AddFriend };
        let cluster_seed = [seed; 32];
        let noise = NoiseConfig::deterministic(1.5);
        let local = run_in_process(protocol, mixers, noise, cluster_seed, batch_size, num_mailboxes);
        let remote_chain = MixChain::loopback(protocol, mixers, noise, cluster_seed);
        let remote = run(remote_chain, protocol, cluster_seed, batch_size, num_mailboxes);
        prop_assert_eq!(local, remote);
    }
}

/// The same equivalence over real sockets: three `mixd` daemons serving
/// TCP, the middle one's connection severed between rounds. Retries must
/// make the recovery invisible: output identical to the in-process chain.
#[test]
fn remote_chain_over_tcp_equals_in_process_chain_despite_disconnects() {
    let cluster_seed = [77u8; 32];
    let noise = NoiseConfig::deterministic(2.0);
    let protocol = RoundKind::AddFriend;
    let mixers = 3;

    let handles: Vec<_> = (0..mixers)
        .map(|i| {
            let daemon = Mutex::new(MixdServer::new(cluster_seed, i));
            serve("127.0.0.1:0", server_config(), daemon).unwrap()
        })
        .collect();
    let remotes: Vec<Box<dyn Mixer>> = handles
        .iter()
        .map(|h| {
            Box::new(
                RemoteMixer::new(h.local_addr().to_string())
                    .with_retry(MixRetryPolicy::aggressive_test()),
            ) as Box<dyn Mixer>
        })
        .collect();
    let mut remote_chain = MixChain::new(protocol, remotes, noise);

    let local = run_in_process(protocol, mixers, noise, cluster_seed, 6, 2);

    // Mix round by round so we can sever a connection between rounds; the
    // next call must silently reconnect and replay.
    let mut remote = Vec::new();
    for round in 0..ROUNDS {
        let publics = remote_chain.begin_round().unwrap();
        let batch = batch_for(protocol, round, &publics, 6, 2, cluster_seed[0]);
        let (boxes, stats) = remote_chain
            .run_add_friend_round(batch, 2, &publics)
            .unwrap();
        remote.push((format!("{:?}", boxes.mailboxes), stats));
        remote_chain.end_round();
        // Crash the middle mixer's transport between every round.
        remote_chain.disconnect_mixer(1);
    }
    assert_eq!(local, remote);
}

/// SHA-256 of a fixed seeded run: three rounds of each protocol through a
/// three-mixer chain, each batch carrying 12 onions and one malformed
/// message. Recorded from the chain driver as it stood before the in-process
/// and distributed drivers were merged, so it checks the bytes across
/// commits: onion keys, noise, shuffles, drops, mailbox encoding and round
/// numbering.
const GOLDEN_DIGEST: &str = "09e6e637a624976b825f34add9805dcb135c53b433721aad5332ca96a807b04c";

/// Runs the golden scenario on the chains `chain_for` builds and hashes
/// every mailbox (id, then length-prefixed contents) and every round's
/// stats.
fn golden_digest(chain_for: impl Fn(RoundKind, NoiseConfig, [u8; 32]) -> MixChain) -> String {
    let cluster_seed = [0x35u8; 32];
    let mut hash = Sha256::new();
    let mut update = |bytes: &[u8]| {
        hash.update(&(bytes.len() as u64).to_be_bytes());
        hash.update(bytes);
    };
    for (protocol, noise) in [
        (RoundKind::AddFriend, NoiseConfig::deterministic(2.0)),
        (RoundKind::Dialing, NoiseConfig::deterministic(3.0)),
    ] {
        let mut chain = chain_for(protocol, noise, cluster_seed);
        for round in 0..ROUNDS {
            let publics = chain.begin_round().unwrap();
            let mut batch = batch_for(protocol, round, &publics, 12, 2, cluster_seed[0]);
            batch.push(vec![round as u8; 40]);
            let stats = match protocol {
                RoundKind::AddFriend => {
                    let (boxes, stats) = chain.run_add_friend_round(batch, 2, &publics).unwrap();
                    for (id, contents) in &boxes.mailboxes {
                        update(&id.to_be_bytes());
                        for ciphertext in contents {
                            update(ciphertext);
                        }
                    }
                    stats
                }
                RoundKind::Dialing => {
                    let (boxes, stats) = chain.run_dialing_round(batch, 2, &publics).unwrap();
                    for (id, set) in &boxes.mailboxes {
                        update(&id.to_be_bytes());
                        update(set);
                        update(&(boxes.token_counts[id] as u64).to_be_bytes());
                    }
                    stats
                }
            };
            for value in [
                stats.client_messages as u64,
                stats.noise,
                stats.dropped,
                stats.final_messages as u64,
            ] {
                update(&value.to_be_bytes());
            }
            chain.end_round();
        }
    }
    alpenhorn_crypto::hex::encode(&hash.finalize())
}

#[test]
fn golden_digest_is_unchanged_on_every_mixer_kind() {
    assert_eq!(
        golden_digest(|protocol, noise, seed| MixChain::in_process(protocol, 3, noise, seed)),
        GOLDEN_DIGEST
    );
    assert_eq!(
        golden_digest(|protocol, noise, seed| MixChain::loopback(protocol, 3, noise, seed)),
        GOLDEN_DIGEST
    );
}
