//! Integration tests for the privacy-relevant observable behaviour: what the
//! servers and the network actually see must not depend on whether a client
//! is communicating, and destroying state must actually destroy it.

use alpenhorn::{Client, ClientConfig, Identity, LoopbackTransport, Round};
use alpenhorn_coordinator::{Cluster, ClusterConfig};
use alpenhorn_mixnet::NoiseConfig;
use alpenhorn_wire::{AddFriendEnvelope, DIAL_REQUEST_LEN, ONION_LAYER_OVERHEAD};

fn id(s: &str) -> Identity {
    Identity::new(s).unwrap()
}

fn registered_client(net: &mut LoopbackTransport, email: &str, seed: u8) -> Client {
    let pkg_keys = net.with_cluster(|c| c.pkg_verifying_keys());
    let mut c = Client::new(id(email), pkg_keys, ClientConfig::default(), [seed; 32]);
    c.register(net).unwrap();
    c
}

#[test]
fn upload_size_is_identical_for_real_and_cover_traffic() {
    // The entry server enforces a fixed request size; verify that a client
    // sending a real friend request and a client sending cover traffic submit
    // byte-for-byte equally sized onions (otherwise size alone would leak who
    // is adding friends).
    let mut net = LoopbackTransport::new(Cluster::new(ClusterConfig::test(80)));
    let mut active = registered_client(&mut net, "active@example.com", 1);
    let mut idle = registered_client(&mut net, "idle@example.com", 2);
    let mut target = registered_client(&mut net, "target@example.com", 3);

    active.add_friend(id("target@example.com"), None);
    let info = net
        .with_cluster(|c| c.begin_add_friend_round(Round(1), 3))
        .unwrap();
    // The expected onion size is fixed and announced by the round info.
    let expected = AddFriendEnvelope::ENCODED_LEN + 3 * ONION_LAYER_OVERHEAD;
    assert_eq!(info.onion_len, expected);
    active.participate_add_friend(&mut net).unwrap();
    idle.participate_add_friend(&mut net).unwrap();
    target.participate_add_friend(&mut net).unwrap();
    let stats = net
        .with_cluster(|c| c.close_add_friend_round(Round(1)))
        .unwrap();
    // All three submissions were accepted, which (per the entry server's size
    // check) means they all had exactly `info.onion_len` bytes.
    assert_eq!(stats.client_messages, 3);

    // Dialing requests are likewise fixed-size.
    let dial_info = net
        .with_cluster(|c| c.begin_dialing_round(Round(1), 3))
        .unwrap();
    assert_eq!(
        dial_info.onion_len,
        DIAL_REQUEST_LEN + 3 * ONION_LAYER_OVERHEAD
    );
}

#[test]
fn mailbox_contents_dominated_by_noise_even_with_one_active_user() {
    // An adversary observing a mailbox must not be able to tell how many real
    // requests it holds: every mailbox receives Laplace noise from every
    // server. With deterministic noise of mean mu, a mailbox with one real
    // request holds 1 + servers*mu entries.
    let config = ClusterConfig {
        add_friend_noise: NoiseConfig::deterministic(50.0),
        ..ClusterConfig::test(81)
    };
    let mut net = LoopbackTransport::new(Cluster::new(config));
    let mut alice = registered_client(&mut net, "alice@example.com", 4);
    let mut bob = registered_client(&mut net, "bob@gmail.com", 5);
    alice.add_friend(id("bob@gmail.com"), None);

    let info = net
        .with_cluster(|c| c.begin_add_friend_round(Round(1), 2))
        .unwrap();
    alice.participate_add_friend(&mut net).unwrap();
    bob.participate_add_friend(&mut net).unwrap();
    let stats = net
        .with_cluster(|c| c.close_add_friend_round(Round(1)))
        .unwrap();
    assert_eq!(stats.noise, 3 * 50 * (info.num_mailboxes as u64 + 1));

    let mailbox =
        alpenhorn_wire::MailboxId::for_recipient(&id("bob@gmail.com"), info.num_mailboxes);
    let contents = net
        .with_cluster(|c| c.cdn().fetch_add_friend_mailbox(Round(1), mailbox))
        .unwrap();
    // 1 real request + 50 noise entries from each of the 3 servers.
    assert_eq!(contents.len(), 1 + 3 * 50);
    // Every entry has the same size; the real one is not distinguishable by
    // length.
    assert!(contents
        .iter()
        .all(|c| c.len() == AddFriendEnvelope::CIPHERTEXT_LEN));
}

#[test]
fn noise_tokens_inflate_dialing_mailboxes_uniformly() {
    let config = ClusterConfig {
        dialing_noise: NoiseConfig::deterministic(40.0),
        ..ClusterConfig::test(82)
    };
    let mut net = LoopbackTransport::new(Cluster::new(config));
    let mut idle = registered_client(&mut net, "idle@example.com", 6);

    net.with_cluster(|c| c.begin_dialing_round(Round(1), 1))
        .unwrap();
    idle.participate_dialing(&mut net).unwrap();
    net.with_cluster(|c| c.close_dialing_round(Round(1)))
        .unwrap();
    let filter = net
        .with_cluster(|c| {
            c.cdn()
                .fetch_dialing_mailbox(Round(1), alpenhorn_wire::MailboxId(0))
        })
        .unwrap();
    // The idle client's cover token went to the cover mailbox; only noise is
    // encoded here, and there is plenty of it.
    assert_eq!(filter.inserted(), 3 * 40);
}

#[test]
fn removing_a_friend_destroys_the_evidence() {
    // §3.2: after removing a friend from the address book, a device
    // compromise no longer reveals whether the two users were friends.
    let mut net = LoopbackTransport::new(Cluster::new(ClusterConfig::test(83)));
    let mut alice = registered_client(&mut net, "alice@example.com", 7);
    let mut bob = registered_client(&mut net, "bob@gmail.com", 8);

    alice.add_friend(id("bob@gmail.com"), None);
    for r in 1..=2u64 {
        net.with_cluster(|c| c.begin_add_friend_round(Round(r), 2))
            .unwrap();
        alice.participate_add_friend(&mut net).unwrap();
        bob.participate_add_friend(&mut net).unwrap();
        net.with_cluster(|c| c.close_add_friend_round(Round(r)))
            .unwrap();
        alice.process_add_friend_mailbox(&mut net).unwrap();
        bob.process_add_friend_mailbox(&mut net).unwrap();
    }
    assert!(alice.keywheels().contains(&id("bob@gmail.com")));

    alice.remove_friend(&id("bob@gmail.com"));
    assert!(!alice.keywheels().contains(&id("bob@gmail.com")));
    assert!(alice.address_book().get(&id("bob@gmail.com")).is_none());
    assert!(alice.address_book().is_empty());
}

#[test]
fn dialing_tokens_are_unlinkable_across_rounds_and_friends() {
    // Tokens are HMAC outputs: an observer of the Bloom filters cannot link
    // two rounds of the same conversation. Structurally: the tokens a client
    // would send for the same friend in different rounds, and for different
    // friends in the same round, never repeat.
    use std::collections::HashSet;
    let mut table = alpenhorn_keywheel::KeywheelTable::new();
    for i in 0..20 {
        table.insert(
            id(&format!("friend{i}@example.com")),
            [i as u8; 32],
            Round(1),
        );
    }
    let mut seen = HashSet::new();
    for round in 1..=50u64 {
        for (_, _, token) in table.expected_tokens(Round(round), 3) {
            assert!(seen.insert(token.0), "token repeated");
        }
    }
    assert_eq!(seen.len(), 20 * 3 * 50);
}

#[test]
fn differential_privacy_budget_matches_paper() {
    // §8.1: the deployed noise parameters give (ln 2, 1e-4)-DP for 900
    // add-friend operations and 26,000 dials.
    let add = NoiseConfig::paper_add_friend().dp();
    assert!(add.epsilon_after(900, 1e-4) <= core::f64::consts::LN_2 * 1.02);
    let dial = NoiseConfig::paper_dialing().dp();
    assert!(dial.epsilon_after(26_000, 1e-4) <= core::f64::consts::LN_2 * 1.02);
}

// ---------------------------------------------------------------------------
// Malicious-mixer cases: a compromised mix server that drops, replays, or
// reorders onions must be caught by the existing observable checks — message
// conservation across the chain for drops and replays, and the
// uniform-shuffle property for reordering.
// ---------------------------------------------------------------------------

#[test]
fn dropping_mixer_is_flagged_by_the_conservation_invariant() {
    use alpenhorn_mixnet::{MixMisbehavior, Protocol};
    use alpenhorn_scenario::{Action, MailboxConservation, ScenarioBuilder, ScenarioEngine};

    let build = |compromised: bool| {
        let mut builder = ScenarioBuilder::new("dropping-mixer", 84)
            .population(6)
            .steps(2)
            .register(1, 0..6);
        if compromised {
            builder = builder.at(
                2,
                Action::MaliciousMixer {
                    server: 1,
                    misbehavior: MixMisbehavior::DropOnions { percent: 60 },
                },
            );
        }
        builder.build()
    };
    let _ = Protocol::AddFriend; // the adversary taps both protocol chains

    let mut honest = ScenarioEngine::new(build(false)).unwrap();
    honest.add_checker(Box::new(MailboxConservation));
    honest.run().unwrap();
    assert!(
        honest.rounds().iter().all(|r| r.violations.is_empty()),
        "honest chain must pass conservation"
    );

    let mut compromised = ScenarioEngine::new(build(true)).unwrap();
    compromised.add_checker(Box::new(MailboxConservation));
    compromised.run().unwrap();
    assert!(
        compromised.rounds()[0].violations.is_empty(),
        "round before the compromise is clean"
    );
    assert!(
        compromised.rounds()[1]
            .violations
            .iter()
            .any(|v| v.checker == "mailbox-conservation"),
        "dropped onions must show up as a conservation deficit: {:?}",
        compromised.rounds()[1]
    );
}

#[test]
fn replaying_mixer_is_flagged_by_the_conservation_invariant() {
    use alpenhorn_mixnet::MixMisbehavior;
    use alpenhorn_scenario::{Action, MailboxConservation, ScenarioBuilder, ScenarioEngine};

    let scenario = ScenarioBuilder::new("replaying-mixer", 85)
        .population(6)
        .steps(2)
        .register(1, 0..6)
        .at(
            2,
            Action::MaliciousMixer {
                server: 2,
                misbehavior: MixMisbehavior::ReplayOnions { percent: 80 },
            },
        )
        .build();
    let mut engine = ScenarioEngine::new(scenario).unwrap();
    engine.add_checker(Box::new(MailboxConservation));
    engine.run().unwrap();

    assert!(engine.rounds()[0].violations.is_empty());
    let report = &engine.rounds()[1];
    assert!(
        report.add_friend.final_messages
            > report.add_friend.client_messages + report.add_friend.total_noise,
        "replayed onions must inflate the final batch: {report:?}"
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.checker == "mailbox-conservation"),
        "the surplus must be flagged"
    );
}

#[test]
fn reordering_mixer_defeats_the_shuffle_property() {
    use alpenhorn_mixnet::{wrap_onion, MixAdversary, MixChain, MixMisbehavior, NoiseConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // Deterministic payload markers and zero noise, as in the mixnet's own
    // shuffle test: an honest chain emits the batch in an order that is
    // neither the input order nor sorted; a mixer that "forgets" to shuffle
    // (sorting its batch) produces fully ordered output, which the
    // uniform-shuffle spot check rejects.
    let run = |adversary: Option<MixAdversary>| -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(86);
        let mut chain = MixChain::new(3, NoiseConfig::deterministic(0.0), [86u8; 32]);
        chain.set_adversary(adversary);
        let publics = chain.begin_round();
        let batch: Vec<Vec<u8>> = (0..64u32)
            .map(|i| {
                let env = AddFriendEnvelope {
                    mailbox: alpenhorn_wire::MailboxId(0),
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
        mailboxes
            .mailbox(alpenhorn_wire::MailboxId(0))
            .iter()
            .map(|c| u32::from_be_bytes(c[..4].try_into().unwrap()))
            .collect()
    };

    let sorted: Vec<u32> = (0..64).collect();
    let honest = run(None);
    assert_ne!(honest, sorted, "an honest chain shuffles");

    let reordered = run(Some(MixAdversary {
        server: 2,
        misbehavior: MixMisbehavior::ReorderOnions,
        seed: 86,
    }));
    assert_eq!(
        reordered, sorted,
        "the reordering mixer's output is fully ordered — the shuffle check catches it"
    );
}
