//! Scenario tests for the client against an in-process cluster, driven
//! through the loopback transport.

use alpenhorn_coordinator::{Cluster, ClusterConfig};
use alpenhorn_wire::{Identity, Round};

use crate::client::{Client, ClientConfig};
use crate::error::ClientError;
use crate::events::ClientEvent;
use crate::transport::LoopbackTransport;

fn id(s: &str) -> Identity {
    Identity::new(s).unwrap()
}

fn deployment(seed: u8) -> LoopbackTransport {
    LoopbackTransport::new(Cluster::new(ClusterConfig::test(seed)))
}

fn new_client(net: &mut LoopbackTransport, email: &str, seed: u8, config: ClientConfig) -> Client {
    let pkg_keys = net.with_cluster(|c| c.pkg_verifying_keys());
    let mut client = Client::new(id(email), pkg_keys, config, [seed; 32]);
    client.register(net).unwrap();
    client
}

/// Runs one complete add-friend round for the given clients and returns each
/// client's events, in the same order as `clients`.
fn run_add_friend_round(
    net: &mut LoopbackTransport,
    round: Round,
    clients: &mut [&mut Client],
) -> Vec<Vec<ClientEvent>> {
    net.with_cluster(|c| c.begin_add_friend_round(round, clients.len()))
        .unwrap();
    for client in clients.iter_mut() {
        client.participate_add_friend(net).unwrap();
    }
    net.with_cluster(|c| c.close_add_friend_round(round))
        .unwrap();
    clients
        .iter_mut()
        .map(|c| c.process_add_friend_mailbox(net).unwrap())
        .collect()
}

/// Sends an admin request through the service, as a deployment's round
/// driver does: a dialing close then announces the next round with the
/// service's rate-limit flag, which the bare cluster does not know.
fn admin(net: &mut LoopbackTransport, request: alpenhorn_wire::Request) {
    use crate::transport::Transport;
    let response = net.call(request).unwrap();
    assert!(
        !matches!(response, alpenhorn_wire::Response::Error(_)),
        "{response:?}"
    );
}

fn begin_dialing(net: &mut LoopbackTransport, round: Round, expected_real: usize) {
    let expected_real = expected_real as u64;
    admin(
        net,
        alpenhorn_wire::Request::BeginDialingRound {
            round,
            expected_real,
        },
    );
}

fn close_dialing(net: &mut LoopbackTransport, round: Round) {
    admin(net, alpenhorn_wire::Request::CloseDialingRound { round });
}

/// Runs one complete dialing round and returns each client's events
/// (participation events followed by mailbox events).
fn run_dialing_round(
    net: &mut LoopbackTransport,
    round: Round,
    clients: &mut [&mut Client],
) -> Vec<Vec<ClientEvent>> {
    begin_dialing(net, round, clients.len());
    let mut events: Vec<Vec<ClientEvent>> = Vec::new();
    for client in clients.iter_mut() {
        let mut mine = Vec::new();
        if let Some(e) = client.participate_dialing(net).unwrap() {
            mine.push(e);
        }
        events.push(mine);
    }
    close_dialing(net, round);
    for (client, mine) in clients.iter_mut().zip(events.iter_mut()) {
        mine.extend(client.process_dialing_mailbox(net).unwrap());
    }
    events
}

/// Establishes a confirmed friendship between two clients (two add-friend
/// rounds: request then confirmation).
fn befriend(
    net: &mut LoopbackTransport,
    a: &mut Client,
    b: &mut Client,
    first_round: u64,
) -> Round {
    let bob = b.identity().clone();
    a.add_friend(bob, None);
    run_add_friend_round(net, Round(first_round), &mut [a, b]);
    let events = run_add_friend_round(net, Round(first_round + 1), &mut [a, b]);
    // The initiator sees the confirmation in the second round.
    let confirmed = events[0]
        .iter()
        .find_map(|e| match e {
            ClientEvent::FriendConfirmed { dialing_round, .. } => Some(*dialing_round),
            _ => None,
        })
        .expect("initiator should see FriendConfirmed");
    confirmed
}

#[test]
fn add_friend_handshake_confirms_both_sides() {
    let mut net = deployment(10);
    let mut alice = new_client(&mut net, "alice@example.com", 1, ClientConfig::default());
    let mut bob = new_client(&mut net, "bob@gmail.com", 2, ClientConfig::default());

    alice.add_friend(id("bob@gmail.com"), None);

    // Round 1: Alice's request reaches Bob.
    let events = run_add_friend_round(&mut net, Round(1), &mut [&mut alice, &mut bob]);
    assert!(events[0].is_empty());
    assert!(matches!(
        events[1].as_slice(),
        [ClientEvent::FriendRequestReceived { from, auto_accepted: true, .. }] if *from == id("alice@example.com")
    ));

    // Round 2: Bob's confirmation reaches Alice.
    let events = run_add_friend_round(&mut net, Round(2), &mut [&mut alice, &mut bob]);
    let confirmed_round = match events[0].as_slice() {
        [ClientEvent::FriendConfirmed {
            friend,
            dialing_round,
        }] if *friend == id("bob@gmail.com") => *dialing_round,
        other => panic!("expected FriendConfirmed, got {other:?}"),
    };

    // Both sides now have synchronized keywheels starting at the same round.
    assert!(alice.keywheels().contains(&id("bob@gmail.com")));
    assert!(bob.keywheels().contains(&id("alice@example.com")));
    assert_eq!(
        alice.keywheels().get(&id("bob@gmail.com")).unwrap().round(),
        confirmed_round
    );
    assert_eq!(
        bob.keywheels()
            .get(&id("alice@example.com"))
            .unwrap()
            .round(),
        confirmed_round
    );
    let a_token = alice
        .keywheels()
        .dial_token(&id("bob@gmail.com"), confirmed_round, 0)
        .unwrap()
        .unwrap();
    let b_token = bob
        .keywheels()
        .dial_token(&id("alice@example.com"), confirmed_round, 0)
        .unwrap()
        .unwrap();
    assert_eq!(a_token, b_token);
}

#[test]
fn dialing_delivers_call_and_matching_session_keys() {
    let mut net = deployment(11);
    let mut alice = new_client(&mut net, "alice@example.com", 3, ClientConfig::default());
    let mut bob = new_client(&mut net, "bob@gmail.com", 4, ClientConfig::default());
    let start = befriend(&mut net, &mut alice, &mut bob, 1);

    alice.call(id("bob@gmail.com"), 2).unwrap();

    // Run dialing rounds up to and including the keywheel start round.
    let mut alice_key = None;
    let mut bob_key = None;
    for r in 1..=start.as_u64() {
        let events = run_dialing_round(&mut net, Round(r), &mut [&mut alice, &mut bob]);
        for e in &events[0] {
            if let ClientEvent::OutgoingCallPlaced {
                session_key,
                intent,
                ..
            } = e
            {
                assert_eq!(*intent, 2);
                alice_key = Some(*session_key);
            }
        }
        for e in &events[1] {
            if let ClientEvent::IncomingCall {
                from,
                intent,
                session_key,
                ..
            } = e
            {
                assert_eq!(*from, id("alice@example.com"));
                assert_eq!(*intent, 2);
                bob_key = Some(*session_key);
            }
        }
    }
    let alice_key = alice_key.expect("alice placed the call");
    let bob_key = bob_key.expect("bob received the call");
    assert_eq!(alice_key, bob_key);
}

#[test]
fn idle_clients_send_cover_traffic_and_receive_nothing() {
    let mut net = deployment(12);
    let mut carol = new_client(&mut net, "carol@x.org", 5, ClientConfig::default());

    let af = run_add_friend_round(&mut net, Round(1), &mut [&mut carol]);
    assert!(af[0].is_empty());
    let dial = run_dialing_round(&mut net, Round(1), &mut [&mut carol]);
    assert!(dial[0].is_empty());
}

#[test]
fn manual_accept_flow() {
    let mut net = deployment(13);
    let mut alice = new_client(&mut net, "alice@example.com", 6, ClientConfig::default());
    let manual = ClientConfig {
        auto_accept_friends: false,
        ..ClientConfig::default()
    };
    let mut bob = new_client(&mut net, "bob@gmail.com", 7, manual);

    alice.add_friend(id("bob@gmail.com"), None);
    let events = run_add_friend_round(&mut net, Round(1), &mut [&mut alice, &mut bob]);
    assert!(matches!(
        events[1].as_slice(),
        [ClientEvent::FriendRequestReceived {
            auto_accepted: false,
            ..
        }]
    ));

    // Without an accept, nothing is confirmed in round 2.
    let events = run_add_friend_round(&mut net, Round(2), &mut [&mut alice, &mut bob]);
    assert!(events[0].is_empty());

    // Bob accepts; round 3 confirms.
    bob.accept_friend_request(&id("alice@example.com")).unwrap();
    let events = run_add_friend_round(&mut net, Round(3), &mut [&mut alice, &mut bob]);
    assert!(events[0].iter().any(|e| e.is_friend_confirmed()));
}

#[test]
fn reject_flow_discards_request() {
    let mut net = deployment(14);
    let mut alice = new_client(&mut net, "alice@example.com", 8, ClientConfig::default());
    let manual = ClientConfig {
        auto_accept_friends: false,
        ..ClientConfig::default()
    };
    let mut bob = new_client(&mut net, "bob@gmail.com", 9, manual);

    alice.add_friend(id("bob@gmail.com"), None);
    run_add_friend_round(&mut net, Round(1), &mut [&mut alice, &mut bob]);
    bob.reject_friend_request(&id("alice@example.com")).unwrap();
    assert_eq!(
        bob.reject_friend_request(&id("alice@example.com")),
        Err(ClientError::NoPendingRequest(id("alice@example.com")))
    );
    // No confirmation ever arrives for Alice.
    let events = run_add_friend_round(&mut net, Round(2), &mut [&mut alice, &mut bob]);
    assert!(events[0].is_empty());
    assert!(!bob.keywheels().contains(&id("alice@example.com")));
}

#[test]
fn out_of_band_key_mismatch_is_rejected() {
    let mut net = deployment(15);
    let mut alice = new_client(&mut net, "alice@example.com", 10, ClientConfig::default());
    let mut bob = new_client(&mut net, "bob@gmail.com", 11, ClientConfig::default());
    let mut mallory = new_client(&mut net, "mallory@evil.com", 12, ClientConfig::default());

    // Alice knows Bob's real key out-of-band, so a request from a different
    // identity is unaffected, but if she had pinned the wrong key for Bob the
    // reply would be rejected. Pin Mallory's key under Bob's entry to force a
    // mismatch when Bob's real reply arrives.
    alice.add_friend(id("bob@gmail.com"), Some(mallory.signing_public_key()));

    run_add_friend_round(
        &mut net,
        Round(1),
        &mut [&mut alice, &mut bob, &mut mallory],
    );
    let events = run_add_friend_round(
        &mut net,
        Round(2),
        &mut [&mut alice, &mut bob, &mut mallory],
    );
    assert!(matches!(
        events[0].as_slice(),
        [ClientEvent::FriendRequestRejected { from, .. }] if *from == id("bob@gmail.com")
    ));
    assert!(!alice.keywheels().contains(&id("bob@gmail.com")));
}

#[test]
fn call_requires_confirmed_friend_and_valid_intent() {
    let mut net = deployment(16);
    let mut alice = new_client(&mut net, "alice@example.com", 13, ClientConfig::default());
    assert_eq!(
        alice.call(id("stranger@x.com"), 0),
        Err(ClientError::NotAFriend(id("stranger@x.com")))
    );

    let mut bob = new_client(&mut net, "bob@gmail.com", 14, ClientConfig::default());
    befriend(&mut net, &mut alice, &mut bob, 1);
    assert_eq!(
        alice.call(id("bob@gmail.com"), 10),
        Err(ClientError::InvalidIntent {
            intent: 10,
            num_intents: 10
        })
    );
    assert!(alice.call(id("bob@gmail.com"), 9).is_ok());
}

#[test]
fn unregistered_client_cannot_participate() {
    let mut net = deployment(17);
    let pkg_keys = net.with_cluster(|c| c.pkg_verifying_keys());
    let mut ghost = Client::new(
        id("ghost@x.com"),
        pkg_keys,
        ClientConfig::default(),
        [99u8; 32],
    );
    net.with_cluster(|c| c.begin_add_friend_round(Round(1), 1))
        .unwrap();
    assert_eq!(
        ghost.participate_add_friend(&mut net),
        Err(ClientError::NotRegistered)
    );
    net.with_cluster(|c| c.close_add_friend_round(Round(1)))
        .unwrap();
}

#[test]
fn mailbox_processing_without_participation_is_an_error() {
    let mut net = deployment(25);
    let mut alice = new_client(&mut net, "alice@example.com", 26, ClientConfig::default());
    assert_eq!(
        alice.process_add_friend_mailbox(&mut net),
        Err(ClientError::NoRoundState)
    );
    assert_eq!(
        alice.process_dialing_mailbox(&mut net),
        Err(ClientError::NoRoundState)
    );
}

#[test]
fn remove_friend_erases_keywheel() {
    let mut net = deployment(18);
    let mut alice = new_client(&mut net, "alice@example.com", 15, ClientConfig::default());
    let mut bob = new_client(&mut net, "bob@gmail.com", 16, ClientConfig::default());
    befriend(&mut net, &mut alice, &mut bob, 1);

    assert!(alice.keywheels().contains(&id("bob@gmail.com")));
    alice.remove_friend(&id("bob@gmail.com"));
    assert!(!alice.keywheels().contains(&id("bob@gmail.com")));
    assert!(alice.address_book().get(&id("bob@gmail.com")).is_none());
    assert_eq!(
        alice.call(id("bob@gmail.com"), 0),
        Err(ClientError::NotAFriend(id("bob@gmail.com")))
    );
}

#[test]
fn compromise_recovery_resets_state() {
    let mut net = deployment(19);
    let mut alice = new_client(&mut net, "alice@example.com", 17, ClientConfig::default());
    let mut bob = new_client(&mut net, "bob@gmail.com", 18, ClientConfig::default());
    befriend(&mut net, &mut alice, &mut bob, 1);

    let old_key = alice.signing_public_key();
    alice.deregister(&mut net).unwrap();
    alice.reset_after_compromise();

    assert!(!alice.is_registered());
    assert_ne!(alice.signing_public_key().to_bytes(), old_key.to_bytes());
    assert!(alice.address_book().is_empty());
    assert!(!alice.keywheels().contains(&id("bob@gmail.com")));

    // Re-registration is blocked by the 30-day lockout, then succeeds.
    assert!(alice.register(&mut net).is_err());
    net.with_cluster(|c| c.advance_time(31 * 24 * 60 * 60));
    alice.register(&mut net).unwrap();
    assert!(alice.is_registered());
}

#[test]
fn simultaneous_add_friend_converges() {
    // Both users add each other in the same round; both must end up with the
    // same keywheel.
    let mut net = deployment(20);
    let mut alice = new_client(&mut net, "alice@example.com", 19, ClientConfig::default());
    let mut bob = new_client(&mut net, "bob@gmail.com", 20, ClientConfig::default());

    alice.add_friend(id("bob@gmail.com"), None);
    bob.add_friend(id("alice@example.com"), None);

    let events = run_add_friend_round(&mut net, Round(1), &mut [&mut alice, &mut bob]);
    // Each sees the other's request as the confirmation of their own.
    assert!(events[0].iter().any(|e| e.is_friend_confirmed()));
    assert!(events[1].iter().any(|e| e.is_friend_confirmed()));

    let a_wheel = alice.keywheels().get(&id("bob@gmail.com")).unwrap();
    let b_wheel = bob.keywheels().get(&id("alice@example.com")).unwrap();
    assert_eq!(a_wheel.round(), b_wheel.round());
    let r = a_wheel.round();
    assert_eq!(
        a_wheel.dial_token(r, 1).unwrap(),
        b_wheel.dial_token(r, 1).unwrap()
    );
}

#[test]
fn abandon_dialing_round_preserves_forward_secrecy() {
    let mut net = deployment(21);
    let mut alice = new_client(&mut net, "alice@example.com", 21, ClientConfig::default());
    let mut bob = new_client(&mut net, "bob@gmail.com", 22, ClientConfig::default());
    let start = befriend(&mut net, &mut alice, &mut bob, 1);

    // Alice gives up on the start round (e.g. mailbox never downloaded).
    alice.abandon_dialing_round(start);
    // Her keywheel has advanced: tokens for the abandoned round are gone.
    assert!(alice
        .keywheels()
        .dial_token(&id("bob@gmail.com"), start, 0)
        .unwrap()
        .is_err());
    // The next round still works and stays in sync with Bob.
    let next = start.next();
    assert_eq!(
        alice
            .keywheels()
            .dial_token(&id("bob@gmail.com"), next, 0)
            .unwrap()
            .unwrap(),
        bob.keywheels()
            .dial_token(&id("alice@example.com"), next, 0)
            .unwrap()
            .unwrap()
    );
}

#[test]
fn queued_call_waits_for_keywheel_start_round() {
    let mut net = deployment(22);
    let mut alice = new_client(&mut net, "alice@example.com", 23, ClientConfig::default());
    let mut bob = new_client(&mut net, "bob@gmail.com", 24, ClientConfig::default());
    let start = befriend(&mut net, &mut alice, &mut bob, 1);
    assert!(start.as_u64() > 1, "keywheel starts in the future");

    alice.call(id("bob@gmail.com"), 0).unwrap();
    // Round 1 is before the keywheel start: the call is deferred and Bob
    // receives nothing.
    let events = run_dialing_round(&mut net, Round(1), &mut [&mut alice, &mut bob]);
    assert!(events[0].is_empty());
    assert!(events[1].is_empty());
    // At the start round the deferred call goes out.
    for r in 2..=start.as_u64() {
        let events = run_dialing_round(&mut net, Round(r), &mut [&mut alice, &mut bob]);
        if r == start.as_u64() {
            assert!(events[0]
                .iter()
                .any(|e| matches!(e, ClientEvent::OutgoingCallPlaced { .. })));
            assert!(events[1].iter().any(|e| e.is_incoming_call()));
        }
    }
}

#[test]
fn rate_limited_deployment_is_transparent_to_clients() {
    // With a rate-limiting policy configured, the client transparently
    // obtains blind-signed tokens and the full handshake + call flow works
    // unchanged; server-side the spent tokens are recorded.
    use alpenhorn_coordinator::{CoordinatorService, RateLimitPolicy, ServiceConfig};
    let service = CoordinatorService::with_config(
        Cluster::new(ClusterConfig::test(23)),
        ServiceConfig {
            rate_limit: Some(RateLimitPolicy { budget_per_day: 64 }),
        },
    );
    let mut net = LoopbackTransport::with_service(service);
    let mut alice = new_client(&mut net, "alice@example.com", 27, ClientConfig::default());
    let mut bob = new_client(&mut net, "bob@gmail.com", 28, ClientConfig::default());
    let start = befriend(&mut net, &mut alice, &mut bob, 1);
    alice.call(id("bob@gmail.com"), 1).unwrap();
    let mut delivered = false;
    for r in 1..=start.as_u64() {
        let events = run_dialing_round(&mut net, Round(r), &mut [&mut alice, &mut bob]);
        delivered |= events[1].iter().any(|e| e.is_incoming_call());
    }
    assert!(delivered, "call delivered under rate limiting");
}

#[test]
fn budget_failure_keeps_queued_friend_request() {
    // A rate-limit failure during participation must not silently degrade a
    // queued friend request into cover traffic: once the budget recovers,
    // the request still goes out.
    use alpenhorn_coordinator::{CoordinatorService, RateLimitPolicy, ServiceConfig};
    use alpenhorn_wire::RateLimitReason;
    let service = CoordinatorService::with_config(
        Cluster::new(ClusterConfig::test(26)),
        ServiceConfig {
            rate_limit: Some(RateLimitPolicy { budget_per_day: 1 }),
        },
    );
    let mut net = LoopbackTransport::with_service(service);
    let mut alice = new_client(&mut net, "alice@example.com", 30, ClientConfig::default());
    let mut bob = new_client(&mut net, "bob@gmail.com", 31, ClientConfig::default());

    // Round 1 burns Alice's single daily token on cover traffic.
    net.with_cluster(|c| c.begin_add_friend_round(Round(1), 2))
        .unwrap();
    alice.participate_add_friend(&mut net).unwrap();
    net.with_cluster(|c| c.close_add_friend_round(Round(1)))
        .unwrap();
    alice.process_add_friend_mailbox(&mut net).unwrap();

    // Now she queues a real request; participation fails on the exhausted
    // budget, but the request must stay queued.
    alice.add_friend(id("bob@gmail.com"), None);
    net.with_cluster(|c| c.begin_add_friend_round(Round(2), 2))
        .unwrap();
    assert_eq!(
        alice.participate_add_friend(&mut net),
        Err(ClientError::RateLimited(RateLimitReason::BudgetExhausted))
    );

    // The budget window rolls; the retry sends the preserved request and
    // Bob receives it.
    net.with_cluster(|c| c.advance_time(24 * 60 * 60 + 1));
    alice.participate_add_friend(&mut net).unwrap();
    bob.participate_add_friend(&mut net).unwrap();
    net.with_cluster(|c| c.close_add_friend_round(Round(2)))
        .unwrap();
    alice.process_add_friend_mailbox(&mut net).unwrap();
    let events = bob.process_add_friend_mailbox(&mut net).unwrap();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ClientEvent::FriendRequestReceived { .. })),
        "queued request survived the rate-limit failure, got {events:?}"
    );
}

#[test]
fn exhausted_budget_blocks_participation() {
    use alpenhorn_coordinator::{CoordinatorService, RateLimitPolicy, ServiceConfig};
    use alpenhorn_wire::RateLimitReason;
    let service = CoordinatorService::with_config(
        Cluster::new(ClusterConfig::test(24)),
        ServiceConfig {
            rate_limit: Some(RateLimitPolicy { budget_per_day: 1 }),
        },
    );
    let mut net = LoopbackTransport::with_service(service);
    let mut alice = new_client(&mut net, "alice@example.com", 29, ClientConfig::default());
    net.with_cluster(|c| c.begin_add_friend_round(Round(1), 1))
        .unwrap();
    alice.participate_add_friend(&mut net).unwrap();
    net.with_cluster(|c| c.close_add_friend_round(Round(1)))
        .unwrap();
    alice.process_add_friend_mailbox(&mut net).unwrap();

    // The single daily token is spent; the next round's participation fails
    // with a typed rate-limit error until the budget window rolls.
    net.with_cluster(|c| c.begin_add_friend_round(Round(2), 1))
        .unwrap();
    assert_eq!(
        alice.participate_add_friend(&mut net),
        Err(ClientError::RateLimited(RateLimitReason::BudgetExhausted))
    );
    net.with_cluster(|c| {
        c.advance_time(24 * 60 * 60 + 1);
    });
    alice.participate_add_friend(&mut net).unwrap();
    net.with_cluster(|c| c.close_add_friend_round(Round(2)))
        .unwrap();
}

#[test]
fn saved_client_round_trips_byte_identically() {
    // Save → load → save must reproduce the exact payload: every field
    // (including the RNG position) survives the round trip.
    let mut net = deployment(30);
    let mut alice = new_client(&mut net, "alice@example.com", 31, ClientConfig::default());
    let mut bob = new_client(&mut net, "bob@gmail.com", 32, ClientConfig::default());
    alice.add_friend(id("bob@gmail.com"), None);
    run_add_friend_round(&mut net, Round(1), &mut [&mut alice, &mut bob]);

    let saved = alice.save_state();
    let reloaded = Client::load_state(&saved).unwrap();
    assert_eq!(reloaded.save_state(), saved);
    assert_eq!(reloaded.identity(), alice.identity());
    assert_eq!(
        reloaded.signing_public_key().to_bytes(),
        alice.signing_public_key().to_bytes()
    );
    assert_eq!(reloaded.is_registered(), alice.is_registered());
    assert_eq!(reloaded.address_book().len(), alice.address_book().len());
    assert_eq!(reloaded.keywheels().len(), alice.keywheels().len());
}

#[test]
fn corrupted_save_is_rejected_not_loaded() {
    let mut net = deployment(33);
    let alice = new_client(&mut net, "alice@example.com", 34, ClientConfig::default());
    let saved = alice.save_state();
    // Every single-byte corruption must be caught by the record checksum.
    for byte in [0, saved.len() / 2, saved.len() - 1] {
        let mut bad = saved.clone();
        bad[byte] ^= 0x10;
        assert!(Client::load_state(&bad).is_err(), "flip at {byte}");
    }
    // Truncation too.
    assert!(Client::load_state(&saved[..saved.len() - 3]).is_err());
}

#[test]
fn reloaded_client_resumes_mid_handshake_and_dials() {
    // Alice dies after the first add-friend round (her reply from Bob still
    // in flight) and Bob dies after the handshake; both resume from saved
    // state and complete the friendship and a call.
    let mut net = deployment(35);
    let mut alice = new_client(&mut net, "alice@example.com", 36, ClientConfig::default());
    let mut bob = new_client(&mut net, "bob@gmail.com", 37, ClientConfig::default());
    alice.add_friend(id("bob@gmail.com"), None);
    run_add_friend_round(&mut net, Round(1), &mut [&mut alice, &mut bob]);

    // Alice's process dies; a new process loads her state (queued handshake,
    // pending DH secret and all).
    let mut alice = Client::load_state(&alice.save_state()).unwrap();
    let events = run_add_friend_round(&mut net, Round(2), &mut [&mut alice, &mut bob]);
    assert!(
        events[0].iter().any(ClientEvent::is_friend_confirmed),
        "reloaded Alice still completes the handshake: {events:?}"
    );

    // Bob's process dies too; his reloaded state still dials Alice.
    let mut bob = Client::load_state(&bob.save_state()).unwrap();
    bob.call(id("alice@example.com"), 2).unwrap();
    let start = alice
        .keywheels()
        .get(&id("bob@gmail.com"))
        .expect("keywheel established")
        .round();
    for r in 1..=start.as_u64() {
        let events = run_dialing_round(&mut net, Round(r), &mut [&mut alice, &mut bob]);
        if r == start.as_u64() {
            assert!(
                events[0].iter().any(ClientEvent::is_incoming_call),
                "Alice receives the reloaded Bob's call: {events:?}"
            );
        }
    }
}

#[test]
fn save_to_and_load_from_files_atomically() {
    let dir = std::env::temp_dir().join(format!("alpenhorn-client-save-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("alice.state");

    assert!(Client::load_from(&path).unwrap().is_none());
    let mut net = deployment(38);
    let alice = new_client(&mut net, "alice@example.com", 39, ClientConfig::default());
    alice.save_to(&path).unwrap();
    let reloaded = Client::load_from(&path).unwrap().expect("save exists");
    assert_eq!(reloaded.save_state(), alice.save_state());
    std::fs::remove_dir_all(dir).unwrap();
}

/// Records the name of every request it passes on and the onion of every
/// acknowledged submission and, with `announce` off, strips the announced
/// next round from dialing mailbox replies — the deployment as it was
/// before closes announced rounds, where every participation asks for the
/// round info.
struct Recorder<T> {
    inner: T,
    announce: bool,
    calls: Vec<&'static str>,
    onions: Vec<Vec<u8>>,
}

impl<T> Recorder<T> {
    fn new(inner: T, announce: bool) -> Self {
        Recorder {
            inner,
            announce,
            calls: Vec::new(),
            onions: Vec::new(),
        }
    }

    /// The requests recorded since the last call.
    fn take(&mut self) -> Vec<&'static str> {
        std::mem::take(&mut self.calls)
    }
}

impl<T: crate::transport::Transport> crate::transport::Transport for Recorder<T> {
    fn call(
        &mut self,
        request: alpenhorn_wire::Request,
    ) -> Result<alpenhorn_wire::Response, crate::transport::TransportError> {
        use alpenhorn_wire::{Request, Response};
        self.calls.push(request.name());
        let onion = match &request {
            Request::SubmitAddFriend { onion, .. } | Request::SubmitDialing { onion, .. } => {
                Some(onion.clone())
            }
            _ => None,
        };
        Ok(match self.inner.call(request)? {
            Response::DialingMailbox { filter, .. } if !self.announce => Response::DialingMailbox {
                filter,
                next_round: None,
            },
            Response::Ack => {
                self.onions.extend(onion);
                Response::Ack
            }
            response => response,
        })
    }
}

fn rate_limited_deployment(seed: u8, budget_per_day: u32) -> LoopbackTransport {
    use alpenhorn_coordinator::{CoordinatorService, RateLimitPolicy, ServiceConfig};
    LoopbackTransport::with_service(CoordinatorService::with_config(
        Cluster::new(ClusterConfig::test(seed)),
        ServiceConfig {
            rate_limit: Some(RateLimitPolicy { budget_per_day }),
        },
    ))
}

#[test]
fn a_right_round_guess_takes_two_calls_and_a_wrong_one_charges_nothing() {
    const BUDGET: u32 = 8;
    let mut net = rate_limited_deployment(40, BUDGET);
    let mut alice = new_client(&mut net, "alice@example.com", 40, ClientConfig::default());
    let mut counted = Recorder::new(net.clone(), true);
    // Round 1 has nothing to guess from: round info, issuance, extraction,
    // submit. Round 2 is guessed: one batch, then the submit. Round 3 passes
    // without Alice, so her guess for round 4 is wrong: the batch stops at
    // the extraction the PKGs refuse, and she continues serially.
    for (round, expected_calls) in [(1, 4), (2, 2), (3, 0), (4, 4)] {
        net.with_cluster(|c| c.begin_add_friend_round(Round(round), 1))
            .unwrap();
        let before = counted.calls.len();
        if expected_calls > 0 {
            assert_eq!(alice.participate_add_friend(&mut counted), Ok(Round(round)));
        }
        assert_eq!(
            counted.calls.len() - before,
            expected_calls,
            "round {round}"
        );
        net.with_cluster(|c| c.close_add_friend_round(Round(round)))
            .unwrap();
    }
    // One unit per participation: the wrong guess charged nothing.
    assert_eq!(
        net.service()
            .remaining_token_budget(&id("alice@example.com")),
        Some(BUDGET - 3)
    );
}

#[test]
fn a_batched_participation_submits_the_serial_paths_onion() {
    // The same client state participates twice in one round: once guessing
    // the round (batch), once reloaded from a save (the guess is not
    // persisted, so serially). The token's serial and blinding factor come
    // from the same point of the RNG stream either way, so the onions are
    // byte-identical — the second submission is acked as a retry of the
    // first, and its issuance re-signs the same blinded message for free.
    const BUDGET: u32 = 8;
    let mut net = rate_limited_deployment(41, BUDGET);
    let mut alice = new_client(&mut net, "alice@example.com", 41, ClientConfig::default());
    alice.add_friend(id("bob@gmail.com"), None);
    net.with_cluster(|c| c.begin_add_friend_round(Round(1), 1))
        .unwrap();
    alice.participate_add_friend(&mut net).unwrap();
    net.with_cluster(|c| c.close_add_friend_round(Round(1)))
        .unwrap();
    alice.add_friend(id("carol@x.org"), None);
    let mut reloaded = Client::load_state(&alice.save_state()).unwrap();

    net.with_cluster(|c| c.begin_add_friend_round(Round(2), 1))
        .unwrap();
    let mut batched = Recorder::new(net.clone(), true);
    alice.participate_add_friend(&mut batched).unwrap();
    let mut serial = Recorder::new(net.clone(), true);
    reloaded.participate_add_friend(&mut serial).unwrap();
    assert_eq!((batched.calls.len(), serial.calls.len()), (2, 4));
    assert_eq!(batched.onions, serial.onions);
    let stats = net
        .with_cluster(|c| c.close_add_friend_round(Round(2)))
        .unwrap();
    assert_eq!(stats.client_messages, 1);
    assert_eq!(
        net.service()
            .remaining_token_budget(&id("alice@example.com")),
        Some(BUDGET - 2)
    );
}

/// Alice and Bob befriend, Alice calls Bob, and both take part in dialing
/// rounds 1 to the keywheel start + 2, each round opened for the scripted
/// number of real tokens. The round at the keywheel start, where the call
/// goes out, opens with ten times the mailboxes of the round before it, and
/// the next one with the old size again. Round `skip`, if any, never opens:
/// the round after it does.
fn resized_dialing_run(
    mut net: LoopbackTransport,
    announce: bool,
    skip: Option<u64>,
) -> DialingRun {
    let mut alice = new_client(&mut net, "alice@example.com", 50, ClientConfig::default());
    let mut bob = new_client(&mut net, "bob@gmail.com", 51, ClientConfig::default());
    let start = befriend(&mut net, &mut alice, &mut bob, 1);
    alice.call(id("bob@gmail.com"), 1).unwrap();
    let mut nets = [
        Recorder::new(net.clone(), announce),
        Recorder::new(net.clone(), announce),
    ];
    let mut run = DialingRun::default();
    for r in (1..=start.as_u64() + 2).filter(|&r| Some(r) != skip) {
        let expected_real = if r == start.as_u64() { 1000 } else { 100 };
        begin_dialing(&mut net, Round(r), expected_real);
        for (client, net) in [&mut alice, &mut bob].into_iter().zip(&mut nets) {
            run.events.extend(client.participate_dialing(net).unwrap());
        }
        close_dialing(&mut net, Round(r));
        for (client, net) in [&mut alice, &mut bob].into_iter().zip(&mut nets) {
            run.events
                .extend(client.process_dialing_mailbox(net).unwrap());
        }
        run.calls.push(nets.each_mut().map(|net| net.take()));
    }
    run
}

/// What [`resized_dialing_run`] observed.
#[derive(Default)]
struct DialingRun {
    /// Both clients' events, in order.
    events: Vec<ClientEvent>,
    /// Per dialing round that opened, the requests it cost each client.
    calls: Vec<[Vec<&'static str>; 2]>,
}

#[test]
fn announced_rounds_take_one_crossing_and_a_resized_round_one_fetch_more() {
    let run = resized_dialing_run(deployment(50), true, None);
    let reference = resized_dialing_run(deployment(50), false, None);
    assert_eq!(run.events, reference.events);
    assert!(run
        .events
        .iter()
        .any(|e| matches!(e, ClientEvent::IncomingCall { .. })));
    let calls = run.calls;

    let fetch = "get_dialing_round_info";
    let (submit, scan) = ("submit_dialing", "fetch_dialing_mailbox");
    let start = calls.len() - 2;
    for (r, per_client) in calls.iter().enumerate() {
        let expected = match r {
            // Nothing announced yet: the client asks.
            0 => vec![fetch, submit, scan],
            // Resized: the announced count is refused, the client asks once.
            r if r + 1 == start => vec![submit, fetch, submit, scan],
            // Sized back: the announcement from the resized round is stale
            // again.
            r if r == start => vec![submit, fetch, submit, scan],
            _ => vec![submit, scan],
        };
        assert_eq!(per_client, &[expected.clone(), expected], "round {}", r + 1);
    }
    for per_client in reference.calls {
        assert_eq!(
            per_client,
            [vec![fetch, submit, scan], vec![fetch, submit, scan]]
        );
    }
}

#[test]
fn a_skipped_announced_round_costs_one_fetch_more() {
    // Round 3 never opens, so round 2's announcement is refused with
    // `RoundNotOpen` in round 4.
    let run = resized_dialing_run(deployment(55), true, Some(3));
    let reference = resized_dialing_run(deployment(55), false, Some(3));
    assert_eq!(run.events, reference.events);
    assert_eq!(
        run.calls[2],
        [
            vec![
                "submit_dialing",
                "get_dialing_round_info",
                "submit_dialing",
                "fetch_dialing_mailbox"
            ],
            vec![
                "submit_dialing",
                "get_dialing_round_info",
                "submit_dialing",
                "fetch_dialing_mailbox"
            ],
        ]
    );
}

#[test]
fn a_rate_limited_client_holds_no_announcement_and_pays_one_token_a_round() {
    // A token issued for an announced round that is then skipped would be
    // a unit of the day's budget lost, so rate-limited clients ask for the
    // round info every round: resized and skipped rounds cost them nothing
    // extra, and the events are those of a deployment without
    // announcements.
    const BUDGET: u32 = 20;
    let net = rate_limited_deployment(52, BUDGET);
    let run = resized_dialing_run(net.clone(), true, Some(3));
    let reference = resized_dialing_run(rate_limited_deployment(52, BUDGET), false, Some(3));
    assert_eq!(run.events, reference.events);
    assert_eq!(run.calls, reference.calls);
    let every_round = [
        "get_dialing_round_info",
        "issue_rate_limit_token",
        "submit_dialing",
        "fetch_dialing_mailbox",
    ];
    for per_client in &run.calls {
        assert_eq!(per_client, &[every_round.to_vec(), every_round.to_vec()]);
    }
    // One issuance and one spend per participation: the two add-friend
    // rounds of the handshake, then every dialing round that opened.
    let participations = run.calls.len() as u32 + 2;
    for who in ["alice@example.com", "bob@gmail.com"] {
        assert_eq!(
            net.service().remaining_token_budget(&id(who)),
            Some(BUDGET - participations)
        );
    }
    assert_eq!(
        net.service().spent_token_count(),
        Some(2 * participations as usize)
    );
}

/// Serves one client's dialing rounds 1 and 2 from onion keys whose
/// secrets the test holds: round 1 through `GetDialingRoundInfo`, round 2
/// through round 1's mailbox, announced with one mailbox. Round 2 opens
/// with two, so the announced submission is refused as stale. Keeps every
/// submitted onion.
struct StaleAnnouncement {
    info: alpenhorn_wire::rpc::DialingRoundWire,
    onions: Vec<Vec<u8>>,
}

impl crate::transport::Transport for StaleAnnouncement {
    fn call(
        &mut self,
        request: alpenhorn_wire::Request,
    ) -> Result<alpenhorn_wire::Response, crate::transport::TransportError> {
        use alpenhorn_wire::{Request, Response, RpcError};
        Ok(match request {
            Request::GetDialingRoundInfo => Response::DialingRoundInfo(self.info.clone()),
            Request::SubmitDialing {
                num_mailboxes,
                onion,
                ..
            } => {
                self.onions.push(onion);
                match num_mailboxes == self.info.num_mailboxes {
                    true => Response::Ack,
                    false => Response::Error(RpcError::StaleRoundInfo {
                        expected: self.info.num_mailboxes,
                        actual: num_mailboxes,
                    }),
                }
            }
            Request::FetchDialingMailbox { .. } => {
                let announced = alpenhorn_wire::rpc::DialingRoundWire {
                    round: Round(2),
                    ..self.info.clone()
                };
                Response::DialingMailbox {
                    filter: alpenhorn_bloom::DialSet::new(Vec::<[u8; 32]>::new()).to_bytes(),
                    next_round: Some(announced),
                }
            }
            other => panic!("unexpected request {}", other.name()),
        })
    }
}

#[test]
fn a_refused_onion_and_its_resubmission_share_no_ephemeral_key() {
    use alpenhorn_ibe::dh::DhSecret;
    use alpenhorn_mixnet::onion::peel_layer;
    use alpenhorn_wire::{DH_PK_LEN, DIAL_REQUEST_LEN, ONION_LAYER_OVERHEAD};

    let mut rng = alpenhorn_crypto::ChaChaRng::from_seed_bytes([56; 32]);
    let secrets: Vec<DhSecret> = (0..3).map(|_| DhSecret::generate(&mut rng)).collect();
    let mut net = StaleAnnouncement {
        info: alpenhorn_wire::rpc::DialingRoundWire {
            round: Round(1),
            onion_keys: secrets.iter().map(|s| s.public().to_bytes()).collect(),
            num_mailboxes: 1,
            onion_len: (DIAL_REQUEST_LEN + 3 * ONION_LAYER_OVERHEAD) as u32,
            rate_limited: false,
        },
        onions: Vec::new(),
    };
    let mut alice = Client::new(
        id("alice@example.com"),
        Vec::new(),
        ClientConfig::default(),
        [56; 32],
    );
    alice.participate_dialing(&mut net).unwrap();
    alice.process_dialing_mailbox(&mut net).unwrap();
    assert_eq!(alice.announced_dialing_round(), Some(Round(2)));
    net.info.round = Round(2);
    net.info.num_mailboxes = 2;
    alice.participate_dialing(&mut net).unwrap();

    // Round 1's onion, then round 2's refused one and its resubmission:
    // peel each, keeping every hop's ephemeral key and the cover request.
    let peeled: Vec<(Vec<Vec<u8>>, Vec<u8>)> = net
        .onions
        .iter()
        .map(|onion| {
            let mut layer = onion.clone();
            let mut ephemerals = Vec::new();
            for (hop, secret) in secrets.iter().enumerate() {
                ephemerals.push(layer[..DH_PK_LEN].to_vec());
                layer = peel_layer(&layer, secret, hop).unwrap();
            }
            (ephemerals, layer)
        })
        .collect();
    let [_, (refused_keys, refused_request), (resent_keys, resent_request)] = &peeled[..] else {
        panic!("three submissions, got {}", peeled.len());
    };
    for key in refused_keys {
        assert!(!resent_keys.contains(key), "ephemeral key reused");
    }
    // A cover dial draws a new random token too.
    assert_ne!(refused_request, resent_request);
}

#[test]
fn fast_forward_and_abandon_drop_a_stale_announcement() {
    let mut net = deployment(53);
    let mut alice = new_client(&mut net, "alice@example.com", 53, ClientConfig::default());
    run_dialing_round(&mut net, Round(1), &mut [&mut alice]);
    assert_eq!(alice.announced_dialing_round(), Some(Round(2)));
    // Catching up to round 2 keeps round 2's announcement; giving up on
    // round 2 drops it.
    alice.fast_forward(Round(2));
    assert_eq!(alice.announced_dialing_round(), Some(Round(2)));
    alice.abandon_dialing_round(Round(2));
    assert_eq!(alice.announced_dialing_round(), None);

    let mut net = deployment(54);
    let mut bob = new_client(&mut net, "bob@gmail.com", 54, ClientConfig::default());
    run_dialing_round(&mut net, Round(1), &mut [&mut bob]);
    bob.abandon_dialing_round(Round(1));
    assert_eq!(bob.announced_dialing_round(), Some(Round(2)));
    // Sleeping past round 2 drops it; the next participation asks.
    bob.fast_forward(Round(5));
    assert_eq!(bob.announced_dialing_round(), None);
    net.with_cluster(|c| c.begin_dialing_round(Round(5), 1))
        .unwrap();
    let mut recorded = Recorder::new(net.clone(), true);
    bob.participate_dialing(&mut recorded).unwrap();
    assert_eq!(
        recorded.take(),
        ["get_dialing_round_info", "submit_dialing"]
    );
}

/// Loopback that swaps one PKG's identity key share (or attestation) in
/// every `IdentityKeys` reply for the next PKG's: a well-formed point that
/// is the wrong one.
struct SwapShare {
    inner: LoopbackTransport,
    pkg: usize,
    attestation: bool,
}

impl crate::transport::Transport for SwapShare {
    fn call(
        &mut self,
        request: alpenhorn_wire::Request,
    ) -> Result<alpenhorn_wire::Response, crate::transport::TransportError> {
        let mut response = self.inner.call(request)?;
        if let alpenhorn_wire::Response::IdentityKeys(shares) = &mut response {
            let next = shares[(self.pkg + 1) % shares.len()];
            let share = &mut shares[self.pkg];
            if self.attestation {
                share.attestation = next.attestation;
            } else {
                share.identity_key = next.identity_key;
            }
        }
        Ok(response)
    }
}

/// Alice sends Bob a friend request in round 1 and Bob participates through
/// `SwapShare`; returns Bob's participation result, then lets him retry
/// honestly and checks that the request still reaches him.
fn participate_with_swapped_share(seed: u8, pkg: usize, attestation: bool) -> ClientError {
    let mut net = deployment(seed);
    let mut alice = new_client(&mut net, "alice@example.com", seed, ClientConfig::default());
    let mut bob = new_client(&mut net, "bob@gmail.com", seed + 1, ClientConfig::default());
    alice.add_friend(id("bob@gmail.com"), None);
    net.with_cluster(|c| c.begin_add_friend_round(Round(1), 2))
        .unwrap();
    alice.participate_add_friend(&mut net).unwrap();
    let mut swapped = SwapShare {
        inner: net.clone(),
        pkg,
        attestation,
    };
    let refused = bob.participate_add_friend(&mut swapped).unwrap_err();

    // The refusal kept no round state: an honest retry scans the request.
    bob.participate_add_friend(&mut net).unwrap();
    net.with_cluster(|c| c.close_add_friend_round(Round(1)))
        .unwrap();
    let events = bob.process_add_friend_mailbox(&mut net).unwrap();
    assert!(matches!(
        events[..],
        [ClientEvent::FriendRequestReceived { .. }]
    ));
    refused
}

#[test]
fn a_bad_attestation_is_named_by_its_pkg_index() {
    for pkg in 0..3 {
        assert_eq!(
            participate_with_swapped_share(60 + 2 * pkg as u8, pkg, true),
            ClientError::Coordinator(
                alpenhorn_coordinator::CoordinatorError::CommitmentMismatch { pkg_index: pkg }
            )
        );
    }
}

#[test]
fn a_wrong_identity_key_share_is_named_by_its_pkg_index() {
    let rejected = || {
        alpenhorn_obs::global()
            .snapshot()
            .value("client_identity_key_shares_rejected_total")
    };
    for pkg in 0..3 {
        let before = rejected();
        assert_eq!(
            participate_with_swapped_share(70 + 2 * pkg as u8, pkg, false),
            ClientError::IdentityKeyShareMismatch { pkg_index: pkg }
        );
        assert_eq!(rejected() - before, 1);
    }
}
