//! Property tests: the parallel round pipeline is equivalent to the
//! sequential reference.
//!
//! `MixServer::process` with `workers = 1` is the sequential reference path;
//! any higher worker count must produce — under a fixed seed — the same
//! multiset of messages (byte-identical after sorting) and, because noise
//! streams are keyed per mailbox and merged deterministically before the
//! shuffle, the byte-identical output in the same order.

use proptest::prelude::*;

use alpenhorn_crypto::ChaChaRng;
use alpenhorn_mixnet::onion::wrap_onion;
use alpenhorn_mixnet::{MixServer, NoiseConfig, ProcessedBatch};
use alpenhorn_wire::{AddFriendEnvelope, RoundKind};

/// Runs one round on server 0 of a two-server chain with the given worker
/// count. Everything else — server
/// seed, client traffic, malformed messages, noise parameters — is a
/// function of the inputs alone, so runs differ only in parallelism.
fn run_round(
    workers: usize,
    seed: [u8; 32],
    batch_size: usize,
    malformed_stride: usize,
    num_mailboxes: u32,
) -> ProcessedBatch {
    let mut server0 = MixServer::new(0, seed);
    let mut server1_seed = seed;
    server1_seed[0] ^= 0xFF;
    let mut server1 = MixServer::new(1, server1_seed);
    server0.set_workers(workers);

    let pk0 = server0.begin_round(0);
    let pk1 = server1.begin_round(0);

    let mut client_rng = ChaChaRng::from_seed_bytes(seed);
    let batch: Vec<Vec<u8>> = (0..batch_size)
        .map(|i| {
            if malformed_stride > 0 && i % malformed_stride == 1 {
                vec![i as u8; i % 97]
            } else {
                let mut payload = AddFriendEnvelope::cover().encode();
                payload[..4].copy_from_slice(&(i as u32).to_be_bytes());
                wrap_onion(&payload, &[pk0, pk1], &mut client_rng)
            }
        })
        .collect();

    server0
        .process(
            0,
            batch,
            &[pk1],
            RoundKind::AddFriend,
            &NoiseConfig::deterministic(2.0),
            num_mailboxes,
        )
        .expect("round 0 is open")
}

proptest! {
    // Each case wraps and processes a few hundred onions; a handful of cases
    // gives seed diversity without ballooning the test runtime.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn parallel_process_is_a_permutation_of_and_identical_to_sequential(
        seed in any::<[u8; 32]>(),
        batch_size in 260usize..420,
        malformed_stride in 0usize..23,
        workers in 2usize..9,
        num_mailboxes in 1u32..48,
    ) {
        let sequential = run_round(1, seed, batch_size, malformed_stride, num_mailboxes);
        let parallel = run_round(workers, seed, batch_size, malformed_stride, num_mailboxes);

        prop_assert_eq!(parallel.noise_added, sequential.noise_added);
        prop_assert_eq!(parallel.dropped, sequential.dropped);

        // The parallel output is a permutation of the sequential reference:
        // byte-identical after sorting.
        let mut sorted_parallel = parallel.batch.clone();
        let mut sorted_sequential = sequential.batch.clone();
        sorted_parallel.sort();
        sorted_sequential.sort();
        prop_assert_eq!(&sorted_parallel, &sorted_sequential);

        // Stronger: per-mailbox noise streams and ordered merging make the
        // output byte-identical in order, not merely as a multiset.
        prop_assert_eq!(&parallel.batch, &sequential.batch);
    }
}
