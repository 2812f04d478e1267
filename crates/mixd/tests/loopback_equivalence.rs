//! Property tests: the distributed chain is byte-equivalent to the
//! in-process chain.
//!
//! [`RemoteMixChain`] over loopback mixers routes every request through the
//! full wire codec — exactly the bytes a TCP deployment exchanges — so these
//! properties pin the whole distribution surface: for any mixer count,
//! batch, and protocol, the mailboxes and round stats must equal what
//! `MixChain` produces from the same cluster seed. A final
//! socket-level test runs the same comparison against real `mixd` daemons
//! over TCP, including a mid-run disconnect to prove retry-recovery is
//! invisible in the output.

use std::sync::Mutex;

use proptest::prelude::*;

use alpenhorn_crypto::ChaChaRng;
use alpenhorn_ibe::dh::DhPublic;
use alpenhorn_mixd::{
    chain_seed, server_config, MixRetryPolicy, MixdServer, Mixer, RemoteMixChain, RemoteMixer,
};
use alpenhorn_mixnet::onion::wrap_onion;
use alpenhorn_mixnet::{MixChain, NoiseConfig};
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

/// Runs `ROUNDS` rounds on the in-process chain, returning per-round final
/// mailboxes as comparable values.
#[allow(clippy::type_complexity)]
fn run_in_process(
    protocol: RoundKind,
    mixers: usize,
    noise: NoiseConfig,
    cluster_seed: [u8; 32],
    batch_size: usize,
    num_mailboxes: u32,
) -> Vec<(String, alpenhorn_mixnet::RoundStats)> {
    let mut chain = MixChain::new(mixers, noise, chain_seed(cluster_seed, protocol));
    (0..ROUNDS)
        .map(|round| {
            let publics = chain.begin_round();
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
                    let (boxes, stats) = chain.run_add_friend_round(batch, num_mailboxes, &publics);
                    (format!("{:?}", boxes.mailboxes), stats)
                }
                RoundKind::Dialing => {
                    let (boxes, stats) = chain.run_dialing_round(batch, num_mailboxes, &publics);
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

/// Runs the same `ROUNDS` rounds through a [`RemoteMixChain`], begin, run
/// and end once per round, as the coordinator drives it.
#[allow(clippy::type_complexity)]
fn run_remote(
    mut chain: RemoteMixChain,
    protocol: RoundKind,
    cluster_seed: [u8; 32],
    batch_size: usize,
    num_mailboxes: u32,
) -> Vec<(String, alpenhorn_mixnet::RoundStats)> {
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
            chain.end_round().unwrap();
            out
        })
        .collect()
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
        let remote_chain = RemoteMixChain::loopback(protocol, mixers, noise, cluster_seed);
        let remote = run_remote(remote_chain, protocol, cluster_seed, batch_size, num_mailboxes);
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
    let mut remote_chain = RemoteMixChain::new(protocol, remotes, noise);

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
        remote_chain.end_round().unwrap();
        // Crash the middle mixer's transport between every round.
        remote_chain.disconnect_mixer(1);
    }
    assert_eq!(local, remote);
}
