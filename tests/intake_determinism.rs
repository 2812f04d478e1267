//! Property tests for the submission intake's determinism contract
//! (`docs/CONCURRENCY.md`): for **any** arrival order — including genuinely
//! concurrent interleavings — the sealed batch handed to the mixnet is
//! byte-identical to the natural-order batch, and a full round therefore
//! publishes byte-identical mailboxes.

use alpenhorn_coordinator::service::CoordinatorService;
use alpenhorn_coordinator::{Cluster, ClusterConfig, SharedCoordinator, SubmissionIntake};
use alpenhorn_wire::{MailboxId, Request, Response, Round};
use proptest::prelude::*;

/// Seals a batch after offering `onions` in iteration order.
fn sealed_batch<'a>(onions: impl IntoIterator<Item = &'a Vec<u8>>) -> Vec<Vec<u8>> {
    let intake = SubmissionIntake::new();
    for onion in onions {
        intake.offer(onion, None);
    }
    intake.seal()
}

/// Deterministic Fisher–Yates driven by a splitmix-style step, so proptest
/// shrinking stays reproducible.
fn shuffled(len: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut state = seed | 1;
    for i in (1..len).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any arrival permutation ⇒ the natural-order batch. Duplicate onions
    /// in the generated set dedup identically on both sides.
    #[test]
    fn any_arrival_order_yields_the_natural_order_batch(
        onions in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 32..64),
            1..40,
        ),
        seed in any::<u64>(),
    ) {
        let reference = sealed_batch(&onions);
        let order = shuffled(onions.len(), seed);
        prop_assert_eq!(sealed_batch(order.iter().map(|&i| &onions[i])), reference);
    }
}

proptest! {
    // Thread spawning per case is comparatively expensive; a handful of
    // cases is the coverage that matters.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Real concurrency: four submitter threads racing into the intake must
    /// still seal to the sequential batch.
    #[test]
    fn concurrent_interleavings_yield_the_sequential_batch(salt in any::<u8>()) {
        let onions: Vec<Vec<u8>> = (0..64u64)
            .map(|i| {
                let mut onion = vec![salt; 48];
                onion[..8].copy_from_slice(&i.to_be_bytes());
                onion
            })
            .collect();
        let reference = sealed_batch(&onions);
        let intake = SubmissionIntake::new();
        std::thread::scope(|scope| {
            for chunk in onions.chunks(16) {
                let intake = &intake;
                scope.spawn(move || {
                    for onion in chunk {
                        intake.offer(onion, None);
                    }
                });
            }
        });
        prop_assert_eq!(intake.seal(), reference);
    }
}

/// Runs one full add-friend round through the shared coordinator: submit
/// `count` distinct onions (in the given arrival order), close the round,
/// and download every published mailbox.
fn round_mailboxes(seed: u8, count: usize, reverse: bool) -> Vec<Vec<Vec<u8>>> {
    let shared = SharedCoordinator::new(CoordinatorService::new(Cluster::new(
        ClusterConfig::test(seed),
    )));
    let Response::AddFriendRoundInfo(info) = shared.handle(Request::BeginAddFriendRound {
        round: Round(1),
        expected_real: count as u64,
    }) else {
        panic!("round opens");
    };
    let mut onions: Vec<Vec<u8>> = (0..count as u64)
        .map(|i| {
            let mut onion = vec![0u8; info.onion_len as usize];
            onion[..8].copy_from_slice(&i.to_be_bytes());
            onion
        })
        .collect();
    if reverse {
        onions.reverse();
    }
    for onion in onions {
        assert_eq!(
            shared.handle(Request::SubmitAddFriend {
                round: Round(1),
                onion,
                token: None,
            }),
            Response::Ack
        );
    }
    let Response::RoundClosed(_) = shared.handle(Request::CloseAddFriendRound { round: Round(1) })
    else {
        panic!("round closes");
    };
    (0..info.num_mailboxes)
        .map(|m| {
            let Response::AddFriendMailbox { contents } =
                shared.handle(Request::FetchAddFriendMailbox {
                    round: Round(1),
                    mailbox: MailboxId(m),
                })
            else {
                panic!("mailbox {m} published");
            };
            contents
        })
        .collect()
}

proptest! {
    // Full mixnet rounds are the expensive end of the pyramid; a few seeded
    // cases suffice on top of the intake-level properties above.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// End to end: a round fed in reversed arrival order publishes mailboxes
    /// byte-identical to the natural-order round — the mixnet input really
    /// is canonical.
    #[test]
    fn reversed_arrival_publishes_identical_mailboxes(seed in 0u8..8) {
        let reference = round_mailboxes(seed, 24, false);
        let reversed = round_mailboxes(seed, 24, true);
        prop_assert_eq!(reversed, reference);
    }
}
