//! Loopback ↔ TCP transport equivalence and the networked `alpenhornd` path.
//!
//! The acceptance scenario: two clients complete an add-friend handshake and
//! a dial through [`TcpTransport`] against a running `alpenhornd`-style
//! server on localhost, producing exactly the same [`ClientEvent`] sequence
//! as the loopback path (same seeds, same round schedule). Both runs drive
//! rounds through the *admin RPCs*, so the entire lifecycle — registration,
//! round open, key extraction, submission, round close, mailbox fetch — goes
//! through the versioned RPC boundary on both transports. The scenario runs
//! twice, the second time against a rate-limited deployment, where each
//! client's second add-friend round is one three-member `Request::Batch`
//! (round info, key extraction, token issuance) on the socket.

use alpenhorn::{
    Client, ClientConfig, ClientEvent, Identity, LoopbackTransport, TcpTransport, Transport,
};
use alpenhorn_coordinator::server::serve;
use alpenhorn_coordinator::service::{CoordinatorService, RateLimitPolicy, ServiceConfig};
use alpenhorn_coordinator::{Cluster, ClusterConfig};
use alpenhorn_ibe::sig::VerifyingKey;
use alpenhorn_wire::{Request, Response, Round};

const SCENARIO_SEED: u8 = 60;

fn id(s: &str) -> Identity {
    Identity::new(s).unwrap()
}

/// Issues an admin request, panicking on a server-side error (round driving
/// must not fail in these tests).
fn admin<T: Transport>(net: &mut T, request: Request) -> Response {
    let response = net.call(request).expect("admin transport call succeeds");
    if let Response::Error(e) = &response {
        panic!("admin request failed: {e}");
    }
    response
}

/// Fetches the PKG verification keys over the RPC boundary.
fn pkg_keys<T: Transport>(net: &mut T) -> Vec<VerifyingKey> {
    let Response::PkgKeys(keys) = admin(net, Request::GetPkgKeys) else {
        panic!("expected PKG keys");
    };
    keys.iter()
        .map(|bytes| VerifyingKey::from_bytes(bytes).expect("valid PKG key"))
        .collect()
}

/// Runs the full seeded scenario — register, add-friend handshake, call,
/// dial — through per-actor transports, recording every client event in
/// order. The caller provides one transport per actor (admin, alice, bob),
/// exactly like three connections to one daemon.
fn run_scenario<T: Transport>(
    mut admin_net: T,
    mut alice_net: T,
    mut bob_net: T,
) -> Vec<(String, ClientEvent)> {
    let keys = pkg_keys(&mut admin_net);
    let mut alice = Client::new(
        id("alice@example.com"),
        keys.clone(),
        ClientConfig::default(),
        [1u8; 32],
    );
    let mut bob = Client::new(
        id("bob@gmail.com"),
        keys,
        ClientConfig::default(),
        [2u8; 32],
    );
    alice.register(&mut alice_net).unwrap();
    bob.register(&mut bob_net).unwrap();

    alice.add_friend(id("bob@gmail.com"), None);

    let mut events: Vec<(String, ClientEvent)> = Vec::new();
    let mut keywheel_start = Round(0);
    for r in 1..=2u64 {
        admin(
            &mut admin_net,
            Request::BeginAddFriendRound {
                round: Round(r),
                expected_real: 2,
            },
        );
        alice.participate_add_friend(&mut alice_net).unwrap();
        bob.participate_add_friend(&mut bob_net).unwrap();
        admin(
            &mut admin_net,
            Request::CloseAddFriendRound { round: Round(r) },
        );
        for event in alice.process_add_friend_mailbox(&mut alice_net).unwrap() {
            if let ClientEvent::FriendConfirmed { dialing_round, .. } = &event {
                keywheel_start = *dialing_round;
            }
            events.push(("alice".into(), event));
        }
        for event in bob.process_add_friend_mailbox(&mut bob_net).unwrap() {
            events.push(("bob".into(), event));
        }
    }
    assert!(keywheel_start.as_u64() > 0, "handshake must confirm");

    alice.call(id("bob@gmail.com"), 1).unwrap();
    for r in 1..=keywheel_start.as_u64() {
        admin(
            &mut admin_net,
            Request::BeginDialingRound {
                round: Round(r),
                expected_real: 2,
            },
        );
        if let Some(event) = alice.participate_dialing(&mut alice_net).unwrap() {
            events.push(("alice".into(), event));
        }
        if let Some(event) = bob.participate_dialing(&mut bob_net).unwrap() {
            events.push(("bob".into(), event));
        }
        admin(
            &mut admin_net,
            Request::CloseDialingRound { round: Round(r) },
        );
        for event in alice.process_dialing_mailbox(&mut alice_net).unwrap() {
            events.push(("alice".into(), event));
        }
        for event in bob.process_dialing_mailbox(&mut bob_net).unwrap() {
            events.push(("bob".into(), event));
        }
    }
    events
}

/// The scenario's deployment, with or without rate limiting (a budget the
/// scenario never exhausts).
fn service(rate_limited: bool) -> CoordinatorService {
    CoordinatorService::with_config(
        Cluster::new(ClusterConfig::test(SCENARIO_SEED)),
        ServiceConfig {
            rate_limit: rate_limited.then_some(RateLimitPolicy { budget_per_day: 16 }),
        },
    )
}

fn loopback_events(rate_limited: bool) -> Vec<(String, ClientEvent)> {
    let net = LoopbackTransport::with_service(service(rate_limited));
    run_scenario(net.clone(), net.clone(), net)
}

fn tcp_events(rate_limited: bool) -> Vec<(String, ClientEvent)> {
    let handle = serve(service(rate_limited), "127.0.0.1:0").expect("server binds");
    let addr = handle.local_addr();
    let events = run_scenario(
        TcpTransport::connect(addr).unwrap(),
        TcpTransport::connect(addr).unwrap(),
        TcpTransport::connect(addr).unwrap(),
    );
    handle.shutdown();
    events
}

/// The acceptance criterion: the same seeded scenario over TCP against a
/// live localhost daemon yields the same client-event sequence as loopback —
/// byte-identical, checked on the serialized debug form.
#[test]
fn tcp_and_loopback_produce_identical_event_sequences() {
    for rate_limited in [false, true] {
        let hits = alpenhorn_obs::global()
            .counter("client_round_speculation_total", &[("outcome", "hit")]);
        let before = hits.get();
        let loopback = loopback_events(rate_limited);
        let tcp = tcp_events(rate_limited);
        // Each client's second add-friend round guessed right on both
        // transports (other tests in this process only add to the counter).
        assert!(hits.get() - before >= 4, "rate_limited = {rate_limited}");
        assert_identical_streams(&loopback, &tcp);
    }
}

/// Checks that `reference` exercised the protocol and that `other` equals
/// it, typed and byte for byte.
fn assert_identical_streams(reference: &[(String, ClientEvent)], other: &[(String, ClientEvent)]) {
    // The scenario must actually exercise the protocol: a handshake
    // confirmation on each side, an outgoing call, and an incoming call.
    assert!(reference
        .iter()
        .any(|(who, e)| who == "alice" && e.is_friend_confirmed()));
    assert!(reference
        .iter()
        .any(|(who, e)| who == "bob" && matches!(e, ClientEvent::FriendRequestReceived { .. })));
    assert!(reference
        .iter()
        .any(|(who, e)| who == "alice" && matches!(e, ClientEvent::OutgoingCallPlaced { .. })));
    assert!(reference
        .iter()
        .any(|(who, e)| who == "bob" && e.is_incoming_call()));

    // Typed equality, then byte equality of the rendered sequence.
    assert_eq!(reference, other);
    let render = |events: &[(String, ClientEvent)]| {
        events
            .iter()
            .map(|(who, e)| format!("{who}: {e:?}"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(render(reference).into_bytes(), render(other).into_bytes());
}

/// Runs the same seeded scenario against a live daemon, but with alice's and
/// bob's round participation racing on concurrent connections. Mailbox
/// processing stays in the reference order (alice, then bob) so the event
/// streams are directly comparable.
fn concurrent_tcp_events(addr: std::net::SocketAddr) -> Vec<(String, ClientEvent)> {
    let mut admin_net = TcpTransport::connect(addr).unwrap();
    let mut alice_net = TcpTransport::connect(addr).unwrap();
    let mut bob_net = TcpTransport::connect(addr).unwrap();
    let keys = pkg_keys(&mut admin_net);
    let mut alice = Client::new(
        id("alice@example.com"),
        keys.clone(),
        ClientConfig::default(),
        [1u8; 32],
    );
    let mut bob = Client::new(
        id("bob@gmail.com"),
        keys,
        ClientConfig::default(),
        [2u8; 32],
    );
    alice.register(&mut alice_net).unwrap();
    bob.register(&mut bob_net).unwrap();

    alice.add_friend(id("bob@gmail.com"), None);

    let mut events: Vec<(String, ClientEvent)> = Vec::new();
    let mut keywheel_start = Round(0);
    for r in 1..=2u64 {
        admin(
            &mut admin_net,
            Request::BeginAddFriendRound {
                round: Round(r),
                expected_real: 2,
            },
        );
        std::thread::scope(|scope| {
            scope.spawn(|| alice.participate_add_friend(&mut alice_net).unwrap());
            scope.spawn(|| bob.participate_add_friend(&mut bob_net).unwrap());
        });
        admin(
            &mut admin_net,
            Request::CloseAddFriendRound { round: Round(r) },
        );
        for event in alice.process_add_friend_mailbox(&mut alice_net).unwrap() {
            if let ClientEvent::FriendConfirmed { dialing_round, .. } = &event {
                keywheel_start = *dialing_round;
            }
            events.push(("alice".into(), event));
        }
        for event in bob.process_add_friend_mailbox(&mut bob_net).unwrap() {
            events.push(("bob".into(), event));
        }
    }
    assert!(keywheel_start.as_u64() > 0, "handshake must confirm");

    alice.call(id("bob@gmail.com"), 1).unwrap();
    for r in 1..=keywheel_start.as_u64() {
        admin(
            &mut admin_net,
            Request::BeginDialingRound {
                round: Round(r),
                expected_real: 2,
            },
        );
        let (alice_event, bob_event) = std::thread::scope(|scope| {
            let a = scope.spawn(|| alice.participate_dialing(&mut alice_net).unwrap());
            let b = scope.spawn(|| bob.participate_dialing(&mut bob_net).unwrap());
            (a.join().unwrap(), b.join().unwrap())
        });
        if let Some(event) = alice_event {
            events.push(("alice".into(), event));
        }
        if let Some(event) = bob_event {
            events.push(("bob".into(), event));
        }
        admin(
            &mut admin_net,
            Request::CloseDialingRound { round: Round(r) },
        );
        for event in alice.process_dialing_mailbox(&mut alice_net).unwrap() {
            events.push(("alice".into(), event));
        }
        for event in bob.process_dialing_mailbox(&mut bob_net).unwrap() {
            events.push(("bob".into(), event));
        }
    }
    events
}

/// PR 8 equivalence criterion: clients whose submissions *race* through the
/// sharded intake on concurrent connections see event streams byte-identical
/// to the sequential single-connection loopback run — arrival order does not
/// leak into the protocol.
#[test]
fn concurrent_submissions_match_sequential_loopback() {
    let sequential = loopback_events(false);

    let handle = serve(service(false), "127.0.0.1:0").expect("server binds");
    let concurrent = concurrent_tcp_events(handle.local_addr());
    handle.shutdown();
    assert_identical_streams(&sequential, &concurrent);
}

/// Many clients hit one daemon concurrently: registrations and submissions
/// race across connections, and every submission lands in the round.
#[test]
fn alpenhornd_serves_concurrent_clients() {
    const CLIENTS: usize = 8;
    let service = CoordinatorService::new(Cluster::new(ClusterConfig::test(61)));
    let handle = serve(service, "127.0.0.1:0").expect("server binds");
    let addr = handle.local_addr();

    let mut admin_net = TcpTransport::connect(addr).unwrap();
    let keys = pkg_keys(&mut admin_net);
    admin(
        &mut admin_net,
        Request::BeginAddFriendRound {
            round: Round(1),
            expected_real: CLIENTS as u64,
        },
    );

    let threads: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let keys = keys.clone();
            std::thread::spawn(move || {
                let mut net = TcpTransport::connect(addr).expect("client connects");
                let mut client = Client::new(
                    Identity::new(&format!("user{i}@example.com")).unwrap(),
                    keys,
                    ClientConfig::default(),
                    [100 + i as u8; 32],
                );
                client.register(&mut net).expect("registers over TCP");
                client
                    .participate_add_friend(&mut net)
                    .expect("participates over TCP");
            })
        })
        .collect();
    for thread in threads {
        thread.join().expect("client thread succeeds");
    }

    let Response::RoundClosed(stats) = admin(
        &mut admin_net,
        Request::CloseAddFriendRound { round: Round(1) },
    ) else {
        panic!("expected round stats");
    };
    assert_eq!(stats.client_messages, CLIENTS as u64);
    assert!(stats.total_noise > 0);
    handle.shutdown();
}

/// A hostile peer sending garbage gets a typed error and cannot wedge the
/// daemon for well-behaved clients.
#[test]
fn daemon_survives_garbage_connections() {
    use std::io::Write as _;
    let service = CoordinatorService::new(Cluster::new(ClusterConfig::test(62)));
    let handle = serve(service, "127.0.0.1:0").expect("server binds");
    let addr = handle.local_addr();

    // Garbage peer.
    let mut garbage = std::net::TcpStream::connect(addr).unwrap();
    garbage.write_all(&[0xff; 64]).unwrap();
    garbage.flush().unwrap();

    // A well-behaved client still gets served.
    let mut net = TcpTransport::connect(addr).unwrap();
    let keys = pkg_keys(&mut net);
    assert_eq!(keys.len(), 3);
    drop(garbage);
    handle.shutdown();
}

/// Reusing a TCP transport after a failure poisons it: the retry gets the
/// typed `ClientError::TransportPoisoned` carrying the *original* failure,
/// not a generic transport error — callers can tell "replace the connection"
/// apart from transient I/O.
#[test]
fn poisoned_transport_reports_typed_error_with_original_failure() {
    use alpenhorn::{ClientError, TransportError};
    use alpenhorn_wire::WireError;
    use std::io::{Read as _, Write as _};

    // A hostile "coordinator" that answers the first frame with garbage
    // (valid length on the socket, invalid frame magic) and then hangs up.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut buf = [0u8; 1024];
        let _ = stream.read(&mut buf);
        let _ = stream.write_all(b"XX not a frame at all.............");
        let _ = stream.flush();
    });

    let mut net = TcpTransport::connect(addr).unwrap();
    let mut client = Client::new(
        id("poison@example.com"),
        Vec::new(),
        ClientConfig::default(),
        [9u8; 32],
    );

    // First call: the garbage reply surfaces as a wire-level transport error
    // and poisons the connection.
    let first = client.register(&mut net).unwrap_err();
    assert_eq!(
        first,
        ClientError::Transport(TransportError::Wire(WireError::BadMagic))
    );
    assert!(net.is_poisoned());

    // Second call: typed poisoned error, original failure preserved inside.
    let second = client.register(&mut net).unwrap_err();
    let ClientError::TransportPoisoned { original } = second else {
        panic!("expected TransportPoisoned, got {second:?}");
    };
    assert_eq!(*original, TransportError::Wire(WireError::BadMagic));

    // A fresh connection recovers (to a daemon this time).
    let service = CoordinatorService::new(Cluster::new(ClusterConfig::test(63)));
    let handle = serve(service, "127.0.0.1:0").expect("server binds");
    let mut net = TcpTransport::connect(handle.local_addr()).unwrap();
    assert!(!net.is_poisoned());
    assert_eq!(pkg_keys(&mut net).len(), 3);
    handle.shutdown();
    server.join().unwrap();
}
