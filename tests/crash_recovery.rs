//! Crash-recovery acceptance tests for the durable coordinator.
//!
//! The acceptance criterion (ISSUE 5): a seeded scenario with a kill +
//! restart of the coordinator *between rounds* yields exactly the same
//! [`ClientEvent`] sequence as an uncrashed run — previously registered
//! clients complete the add-friend handshake and a dial against the
//! recovered deployment, byte-identically. Event equality cannot see a
//! wrong PKG ratchet or a reused onion key (clients learn each round's keys
//! afresh, from the round info or the previous dialing mailbox), so the round infos served after the restart — `pkg_publics` and
//! `onion_keys` — must match the uncrashed run's too.
//!
//! Two deployment shapes run the same scenario:
//!
//! * in-process ([`DurableLoopback`]): the [`CoordinatorService`] is dropped
//!   between rounds and recovered from its data directory — runs in tier-1
//!   `cargo test`;
//! * a real `alpenhornd` process killed with SIGKILL mid-deployment and
//!   restarted with the same flags — `#[ignore]`d here and driven as the
//!   `crash-recovery smoke` stage of `scripts/ci.sh` (the daemon binary must
//!   already be built).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use alpenhorn::{
    Client, ClientConfig, ClientEvent, Identity, LoopbackTransport, TcpTransport, Transport,
};
use alpenhorn_coordinator::persist::REC_ADD_FRIEND_ROUND_BEGUN;
use alpenhorn_coordinator::service::{CoordinatorService, RateLimitPolicy, ServiceConfig};
use alpenhorn_coordinator::{Cluster, ClusterConfig};
use alpenhorn_ibe::sig::VerifyingKey;
use alpenhorn_storage::{RecoveryReport, StorageConfig, StorageError};
use alpenhorn_wire::rpc::{AddFriendRoundWire, DialingRoundWire};
use alpenhorn_wire::{RateLimitReason, Request, Response, Round, RoundKind, RpcError};

const SCENARIO_SEED: u8 = 64;
const RATE_LIMIT_BUDGET: u32 = 50;

fn id(s: &str) -> Identity {
    Identity::new(s).unwrap()
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "alpenhorn-crash-recovery-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A deployment the scenario can connect to and (maybe) crash mid-way.
trait Deployment {
    type Net: Transport;
    /// A fresh connection to the (possibly restarted) deployment.
    fn connect(&mut self) -> Self::Net;
    /// Kills the deployment without warning and brings a recovered instance
    /// back up. A no-op for the uncrashed baseline.
    fn crash_and_restart(&mut self);
}

fn admin<T: Transport>(net: &mut T, request: Request) -> Response {
    let response = net.call(request).expect("admin transport call succeeds");
    if let Response::Error(e) = &response {
        panic!("admin request failed: {e}");
    }
    response
}

fn pkg_keys<T: Transport>(net: &mut T) -> Vec<VerifyingKey> {
    let Response::PkgKeys(keys) = admin(net, Request::GetPkgKeys) else {
        panic!("expected PKG keys");
    };
    keys.iter()
        .map(|bytes| VerifyingKey::from_bytes(bytes).expect("valid PKG key"))
        .collect()
}

/// What one run of the scenario observed.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Every client event, in order.
    events: Vec<(String, ClientEvent)>,
    /// Every `Begin*Round` reply (round info with PKG publics and onion
    /// keys), in order.
    opens: Vec<Response>,
}

/// The full seeded scenario: register two clients, run add-friend round 1,
/// **crash the deployment**, then complete the handshake in round 2 and a
/// dial in the following dialing rounds — all against the recovered state.
fn run_scenario<D: Deployment>(deploy: &mut D) -> Observed {
    let mut admin_net = deploy.connect();
    let mut alice_net = deploy.connect();
    let mut bob_net = deploy.connect();

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
    let mut opens: Vec<Response> = Vec::new();
    let mut keywheel_start = Round(0);
    let run_add_friend = |round: Round,
                          admin_net: &mut D::Net,
                          alice_net: &mut D::Net,
                          bob_net: &mut D::Net,
                          alice: &mut Client,
                          bob: &mut Client,
                          events: &mut Vec<(String, ClientEvent)>,
                          opens: &mut Vec<Response>,
                          keywheel_start: &mut Round| {
        opens.push(admin(
            admin_net,
            Request::BeginAddFriendRound {
                round,
                expected_real: 2,
            },
        ));
        alice.participate_add_friend(alice_net).unwrap();
        bob.participate_add_friend(bob_net).unwrap();
        admin(admin_net, Request::CloseAddFriendRound { round });
        for event in alice.process_add_friend_mailbox(alice_net).unwrap() {
            if let ClientEvent::FriendConfirmed { dialing_round, .. } = &event {
                *keywheel_start = *dialing_round;
            }
            events.push(("alice".into(), event));
        }
        for event in bob.process_add_friend_mailbox(bob_net).unwrap() {
            events.push(("bob".into(), event));
        }
    };

    run_add_friend(
        Round(1),
        &mut admin_net,
        &mut alice_net,
        &mut bob_net,
        &mut alice,
        &mut bob,
        &mut events,
        &mut opens,
        &mut keywheel_start,
    );

    // ------------------------------------------------------------------
    // The crash: the coordinator dies between rounds and comes back from
    // its journal. Old connections are gone; everyone reconnects.
    // ------------------------------------------------------------------
    deploy.crash_and_restart();
    let mut admin_net = deploy.connect();
    let mut alice_net = deploy.connect();
    let mut bob_net = deploy.connect();

    run_add_friend(
        Round(2),
        &mut admin_net,
        &mut alice_net,
        &mut bob_net,
        &mut alice,
        &mut bob,
        &mut events,
        &mut opens,
        &mut keywheel_start,
    );
    assert!(
        keywheel_start.as_u64() > 0,
        "handshake must complete against the recovered deployment"
    );

    alice.call(id("bob@gmail.com"), 1).unwrap();
    for r in 1..=keywheel_start.as_u64() {
        opens.push(admin(
            &mut admin_net,
            Request::BeginDialingRound {
                round: Round(r),
                expected_real: 2,
            },
        ));
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
    Observed { events, opens }
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        rate_limit: Some(RateLimitPolicy {
            budget_per_day: RATE_LIMIT_BUDGET,
        }),
    }
}

/// In-process durable deployment over the loopback transport.
struct DurableLoopback {
    dir: PathBuf,
    net: Option<LoopbackTransport>,
    crash: bool,
}

impl DurableLoopback {
    fn new(dir: PathBuf, crash: bool) -> Self {
        let mut deploy = DurableLoopback {
            dir,
            net: None,
            crash,
        };
        deploy.open();
        deploy
    }

    fn open(&mut self) {
        let cluster = Cluster::new(ClusterConfig::test(SCENARIO_SEED));
        let storage = StorageConfig {
            checkpoint_every_records: 64,
        };
        let (service, _report) =
            CoordinatorService::with_storage(cluster, service_config(), &self.dir, storage)
                .expect("durable service opens");
        self.net = Some(LoopbackTransport::with_service(service));
    }
}

impl Deployment for DurableLoopback {
    type Net = LoopbackTransport;

    fn connect(&mut self) -> LoopbackTransport {
        self.net.as_ref().expect("deployment is up").clone()
    }

    fn crash_and_restart(&mut self) {
        if !self.crash {
            return;
        }
        // Drop every handle to the service — the in-process equivalent of
        // the process dying — then recover a brand-new service from disk.
        self.net = None;
        self.open();
    }
}

/// The acceptance criterion, in-process: a crash + recovery between rounds
/// is invisible in the client event stream.
#[test]
fn crashed_and_recovered_coordinator_yields_identical_events() {
    let baseline_dir = tmpdir("baseline");
    let crashed_dir = tmpdir("crashed");

    let baseline = run_scenario(&mut DurableLoopback::new(baseline_dir.clone(), false));
    let crashed = run_scenario(&mut DurableLoopback::new(crashed_dir.clone(), true));

    // The scenario must actually exercise the protocol end to end.
    assert!(baseline
        .events
        .iter()
        .any(|(who, e)| who == "alice" && e.is_friend_confirmed()));
    assert!(baseline
        .events
        .iter()
        .any(|(who, e)| who == "bob" && matches!(e, ClientEvent::FriendRequestReceived { .. })));
    assert!(baseline
        .events
        .iter()
        .any(|(who, e)| who == "alice" && matches!(e, ClientEvent::OutgoingCallPlaced { .. })));
    assert!(baseline
        .events
        .iter()
        .any(|(who, e)| who == "bob" && e.is_incoming_call()));

    // Same PKG publics and onion keys served after the restart.
    assert_eq!(baseline.opens, crashed.opens);
    // Typed equality, then byte equality of the rendered sequences.
    assert_eq!(baseline.events, crashed.events);
    let render = |events: &[(String, ClientEvent)]| {
        events
            .iter()
            .map(|(who, e)| format!("{who}: {e:?}"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        render(&baseline.events).into_bytes(),
        render(&crashed.events).into_bytes()
    );

    let _ = std::fs::remove_dir_all(baseline_dir);
    let _ = std::fs::remove_dir_all(crashed_dir);
}

/// Registrations and rate-limit budgets persist: the registered account
/// needs no re-registration. A token spent before the crash stays spent
/// because its round is never reopened
/// (`a_round_open_at_a_crash_is_never_reopened`).
#[test]
fn spent_tokens_and_registrations_survive_recovery() {
    let dir = tmpdir("budget");
    let mut deploy = DurableLoopback::new(dir.clone(), true);

    let mut net = deploy.connect();
    let keys = pkg_keys(&mut net);
    let mut alice = Client::new(
        id("alice@example.com"),
        keys,
        ClientConfig::default(),
        [5u8; 32],
    );
    alice.register(&mut net).unwrap();
    admin(
        &mut net,
        Request::BeginAddFriendRound {
            round: Round(1),
            expected_real: 1,
        },
    );
    alice.participate_add_friend(&mut net).unwrap();

    drop(net);
    deploy.crash_and_restart();
    let mut net = deploy.connect();

    // The account survived: extraction (which requires a registered signing
    // key) works in the next round without re-registering.
    assert!(alice.is_registered());
    admin(
        &mut net,
        Request::BeginAddFriendRound {
            round: Round(2),
            expected_real: 1,
        },
    );
    alice.participate_add_friend(&mut net).unwrap();
    admin(&mut net, Request::CloseAddFriendRound { round: Round(2) });
    alice.process_add_friend_mailbox(&mut net).unwrap();

    let _ = std::fs::remove_dir_all(dir);
}

// ---------------------------------------------------------------------------
// PKG ratchet file, mix-round numbering, and compaction placement.
// ---------------------------------------------------------------------------

const RATCHET_SEED: u8 = 9;

/// A small threshold, so round boundaries compact and recovery also runs
/// through a v3 snapshot rather than only a WAL.
const SMALL_CHECKPOINTS: StorageConfig = StorageConfig {
    checkpoint_every_records: 2,
};

fn open_with(
    config: ClusterConfig,
    dir: &Path,
) -> Result<(CoordinatorService, RecoveryReport), StorageError> {
    CoordinatorService::with_storage(
        Cluster::new(config),
        ServiceConfig::default(),
        dir,
        SMALL_CHECKPOINTS,
    )
}

fn open_durable(dir: &Path) -> CoordinatorService {
    match open_with(ClusterConfig::test(RATCHET_SEED), dir) {
        Ok((service, _)) => service,
        Err(e) => panic!("durable service opens: {e}"),
    }
}

fn open_error(config: ClusterConfig, dir: &Path) -> StorageError {
    match open_with(config, dir) {
        Ok(_) => panic!("recovery must refuse this data dir"),
        Err(e) => e,
    }
}

/// One add-friend round, begun and closed; returns the begin reply.
fn add_friend_round(service: &mut CoordinatorService, round: u64) -> AddFriendRoundWire {
    let Response::AddFriendRoundInfo(info) =
        service.begin_round(RoundKind::AddFriend, Round(round), 1)
    else {
        panic!("add-friend round {round} opens");
    };
    let closed = service.close_round(RoundKind::AddFriend, Round(round));
    assert!(matches!(closed, Response::RoundClosed(_)));
    info
}

/// One dialing round, begun and closed; returns the begin reply.
fn dialing_round(service: &mut CoordinatorService, round: u64) -> DialingRoundWire {
    let Response::DialingRoundInfo(info) = service.begin_round(RoundKind::Dialing, Round(round), 1)
    else {
        panic!("dialing round {round} opens");
    };
    let closed = service.close_round(RoundKind::Dialing, Round(round));
    assert!(matches!(closed, Response::RoundClosed(_)));
    info
}

fn ratchet_file(dir: &Path) -> PathBuf {
    dir.join("pkg-ratchets.key")
}

/// Every file in `dir`, by name.
fn dir_contents(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| {
            let entry = entry.unwrap();
            (
                entry.file_name().into_string().unwrap(),
                std::fs::read(entry.path()).unwrap(),
            )
        })
        .collect()
}

/// The live snapshot generation, read off the WAL file name.
fn generation(dir: &Path) -> u64 {
    dir_contents(dir)
        .keys()
        .filter_map(|name| {
            name.strip_prefix("wal-")?
                .strip_suffix(".log")?
                .parse()
                .ok()
        })
        .max()
        .expect("a durable data dir always has a WAL")
}

fn contains(haystack: &[u8], needle: &[u8]) -> bool {
    haystack.windows(needle.len()).any(|w| w == needle)
}

/// After a restart, `BeginAddFriendRound` reveals the same `pkg_publics` as
/// an uncrashed twin — both after a plain restart and after a crash between
/// the round-open WAL append and the ratchet-file rewrite (simulated by
/// putting the previous file back).
#[test]
fn restart_serves_the_uncrashed_twins_pkg_publics() {
    let twin_dir = tmpdir("ratchet-twin");
    let mut twin = open_durable(&twin_dir);
    let expected: Vec<_> = (1..=4).map(|r| add_friend_round(&mut twin, r)).collect();

    // Plain restart after round 2.
    let restart_dir = tmpdir("ratchet-restart");
    let mut service = open_durable(&restart_dir);
    let mut served: Vec<_> = (1..=2).map(|r| add_friend_round(&mut service, r)).collect();
    drop(service);
    let mut service = open_durable(&restart_dir);
    served.extend((3..=4).map(|r| add_friend_round(&mut service, r)));
    assert_eq!(served, expected);

    // Round 2's open reached the journal, but the file still holds round
    // 1's positions: recovery must advance them once.
    let dir = tmpdir("ratchet-lagging");
    let mut service = open_durable(&dir);
    let mut served = vec![add_friend_round(&mut service, 1)];
    let after_round_1 = std::fs::read(ratchet_file(&dir)).unwrap();
    served.push(add_friend_round(&mut service, 2));
    drop(service);
    assert_ne!(std::fs::read(ratchet_file(&dir)).unwrap(), after_round_1);
    std::fs::write(ratchet_file(&dir), &after_round_1).unwrap();
    let mut service = open_durable(&dir);
    served.extend((3..=4).map(|r| add_friend_round(&mut service, r)));
    assert_eq!(served, expected);

    drop(twin);
    for dir in [twin_dir, restart_dir, dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A restarted coordinator resumes mix-round numbering: its onion keys
/// equal the uncrashed twin's and differ from every earlier round's.
#[test]
fn restart_never_reuses_an_earlier_rounds_onion_keys() {
    let run = |dir: &Path, crash_before: Option<u64>| {
        let mut service = open_durable(dir);
        let mut keys = (Vec::new(), Vec::new());
        for r in 1..=4 {
            if crash_before == Some(r) {
                drop(service);
                service = open_durable(dir);
            }
            keys.0.push(add_friend_round(&mut service, r).onion_keys);
            keys.1.push(dialing_round(&mut service, r).onion_keys);
        }
        keys
    };
    let twin_dir = tmpdir("onion-twin");
    let dir = tmpdir("onion-crashed");
    let twin = run(&twin_dir, None);
    let crashed = run(&dir, Some(3));
    assert_eq!(crashed, twin);
    for per_round in [&crashed.0, &crashed.1] {
        for (i, keys) in per_round.iter().enumerate() {
            for earlier in &per_round[..i] {
                for key in keys {
                    assert!(
                        !earlier.contains(key),
                        "round {} re-serves an onion key of an earlier round",
                        i + 1
                    );
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(twin_dir);
    let _ = std::fs::remove_dir_all(dir);
}

/// A restart between `CloseDialingRound(r)` and `BeginDialingRound(r + 1)`
/// loses the announcement held in memory, but recovery resumes the dialing
/// chain at the announced round's chain round, so the begin re-derives the
/// keys the clients were told — also after an announced round was skipped,
/// whose chain round the journal counts so it is never reopened. Runs once
/// recovering from a compacted snapshot and once replaying the WAL.
#[test]
fn restart_after_a_dialing_close_reopens_the_announced_keys() {
    for (tag, storage) in [
        ("snapshot", SMALL_CHECKPOINTS),
        ("wal", StorageConfig::default()),
    ] {
        let dir = tmpdir(&format!("announced-keys-{tag}"));
        let open = || {
            let (service, _) = CoordinatorService::with_storage(
                Cluster::new(ClusterConfig::test(RATCHET_SEED)),
                ServiceConfig::default(),
                &dir,
                storage,
            )
            .expect("durable service opens");
            service
        };
        let mut service = open();
        let first = dialing_round(&mut service, 1);
        // The announced round 2 is skipped: round 3 opens instead.
        let third = dialing_round(&mut service, 3);
        let announced = service.cluster().announced_dialing_info().unwrap().clone();
        assert_eq!(announced.round, Round(4));
        drop(service);

        let mut service = open();
        let fourth = dialing_round(&mut service, 4);
        let announced_keys: Vec<_> = announced.onion_keys.iter().map(|k| k.to_bytes()).collect();
        assert_eq!(
            fourth.onion_keys, announced_keys,
            "recovered from the {tag}"
        );
        for earlier in [&first, &third] {
            assert_ne!(fourth.onion_keys, earlier.onion_keys);
        }
        drop(service);
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Records the requests a client sends.
struct Recorded {
    inner: LoopbackTransport,
    sent: Vec<Request>,
}

impl Recorded {
    fn new(inner: LoopbackTransport) -> Self {
        Recorded {
            inner,
            sent: Vec::new(),
        }
    }

    /// The `Submit*` requests sent so far.
    fn submissions(&self) -> impl Iterator<Item = &Request> {
        self.sent.iter().filter(|request| {
            matches!(
                request,
                Request::SubmitAddFriend { .. } | Request::SubmitDialing { .. }
            )
        })
    }
}

impl Transport for Recorded {
    fn call(&mut self, request: Request) -> Result<Response, alpenhorn::TransportError> {
        self.sent.push(request.clone());
        self.inner.call(request)
    }
}

/// `submission` (token included) re-addressed to `round`.
fn in_round(submission: &Request, round: Round) -> Request {
    match submission.clone() {
        Request::SubmitAddFriend { onion, token, .. } => Request::SubmitAddFriend {
            round,
            onion,
            token,
        },
        Request::SubmitDialing {
            num_mailboxes,
            onion,
            token,
            ..
        } => Request::SubmitDialing {
            round,
            num_mailboxes,
            onion,
            token,
        },
        other => panic!("not a submission: {other:?}"),
    }
}

fn reply<T: Transport>(net: &mut T, request: Request) -> Response {
    net.call(request).expect("transport call succeeds")
}

const INVALID_TOKEN: Response = Response::Error(RpcError::RateLimited {
    reason: RateLimitReason::InvalidToken,
});

/// Clients that scanned dialing round 1 hold round 2's announced info
/// across a coordinator restart. A recovered begin of the announced size
/// accepts it: one crossing per participation. A resized one refuses it
/// with the typed stale count, and each client fetches the round info and
/// resubmits: three. Either way every submission is mixed, none dropped.
#[test]
fn announced_dialing_info_survives_a_restart_or_falls_back() {
    for (resized, crossings) in [(false, 1), (true, 3)] {
        let dir = tmpdir(&format!("announced-restart-{resized}"));
        let open = || {
            let (service, _) = CoordinatorService::with_storage(
                Cluster::new(ClusterConfig::test(SCENARIO_SEED)),
                ServiceConfig::default(),
                &dir,
                StorageConfig::default(),
            )
            .expect("durable service opens");
            service
        };
        let net = LoopbackTransport::with_service(open());
        let mut admin_net = net.clone();
        let mut users = clients(&mut admin_net, 2);
        for user in &mut users {
            user.register(&mut admin_net).unwrap();
        }
        let dial = |net: &mut LoopbackTransport, round: u64, expected_real: u64| {
            admin(
                net,
                Request::BeginDialingRound {
                    round: Round(round),
                    expected_real,
                },
            )
        };
        dial(&mut admin_net, 1, 1);
        for user in &mut users {
            user.participate_dialing(&mut admin_net.clone()).unwrap();
        }
        admin(
            &mut admin_net,
            Request::CloseDialingRound { round: Round(1) },
        );
        for user in &mut users {
            user.process_dialing_mailbox(&mut admin_net.clone())
                .unwrap();
            assert_eq!(user.announced_dialing_round(), Some(Round(2)));
        }

        net.restart_with(open);
        dial(&mut admin_net, 2, if resized { 1000 } else { 1 });
        for user in &mut users {
            let mut recorded = Recorded::new(net.clone());
            user.participate_dialing(&mut recorded).unwrap();
            assert_eq!(recorded.sent.len(), crossings, "resized = {resized}");
        }
        let Response::RoundClosed(stats) = admin(
            &mut admin_net,
            Request::CloseDialingRound { round: Round(2) },
        ) else {
            panic!("round 2 closes");
        };
        assert_eq!(stats.client_messages, 2);
        assert_eq!(
            stats.final_messages,
            2 + stats.total_noise,
            "no onion dropped"
        );
        drop(net);
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// After several add-friend opens no file in the data dir holds a
/// superseded ratchet position, and the snapshot and WAL hold no position
/// at all — only `pkg-ratchets.key` holds the current one.
#[test]
fn superseded_ratchets_are_erased_from_the_data_dir() {
    let dir = tmpdir("erasure");
    let mut service = open_durable(&dir);
    let mut positions = vec![service.cluster().pkg_ratchets()];
    for r in 1..=5 {
        add_friend_round(&mut service, r);
        dialing_round(&mut service, r);
        positions.push(service.cluster().pkg_ratchets());
    }
    drop(service);

    let files = dir_contents(&dir);
    assert!(files.keys().any(|name| name.ends_with(".snap")));
    let (current, superseded) = positions.split_last().unwrap();
    for (name, bytes) in &files {
        for ratchet in superseded.iter().flatten() {
            assert!(
                !contains(bytes, ratchet),
                "{name} holds a superseded ratchet"
            );
        }
        for ratchet in current {
            assert_eq!(
                contains(bytes, ratchet),
                name == "pkg-ratchets.key",
                "{name}: the current ratchet lives in the ratchet file only"
            );
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A ratchet file ahead of the journal, for another PKG count, or corrupt
/// stops recovery with a typed error and leaves every file in place.
#[test]
fn bad_ratchet_file_refuses_recovery_and_leaves_files_in_place() {
    let ahead_dir = tmpdir("bad-ahead-source");
    let mut service = open_durable(&ahead_dir);
    add_friend_round(&mut service, 1);
    add_friend_round(&mut service, 2);
    drop(service);
    let dir = tmpdir("bad-file");
    let mut service = open_durable(&dir);
    add_friend_round(&mut service, 1);
    drop(service);
    let good = std::fs::read(ratchet_file(&dir)).unwrap();

    let refuse = |config: ClusterConfig, file: &[u8], why: &str| {
        std::fs::write(ratchet_file(&dir), file).unwrap();
        let before = dir_contents(&dir);
        let error = open_error(config, &dir);
        assert_eq!(dir_contents(&dir), before, "{why}: files untouched");
        error
    };

    let ahead = std::fs::read(ratchet_file(&ahead_dir)).unwrap();
    let e = refuse(ClusterConfig::test(RATCHET_SEED), &ahead, "ahead");
    assert!(
        matches!(e, StorageError::BadPayload { context } if context.contains("ahead")),
        "{e}"
    );

    let two_pkgs = ClusterConfig {
        num_pkgs: 2,
        ..ClusterConfig::test(RATCHET_SEED)
    };
    let e = refuse(two_pkgs, &good, "PKG count");
    assert!(
        matches!(e, StorageError::BadPayload { context } if context.contains("count")),
        "{e}"
    );

    let mut corrupt = good.clone();
    let byte = corrupt.len() / 2;
    corrupt[byte] ^= 0x01;
    let e = refuse(ClusterConfig::test(RATCHET_SEED), &corrupt, "corrupt");
    assert!(matches!(e, StorageError::Corrupt(_)), "{e}");

    // The untouched files still recover once the good file is back.
    std::fs::write(ratchet_file(&dir), &good).unwrap();
    drop(open_durable(&dir));
    let _ = std::fs::remove_dir_all(ahead_dir);
    let _ = std::fs::remove_dir_all(dir);
}

/// Compaction runs at round boundaries only: a burst of client RPCs past
/// the checkpoint threshold leaves the generation alone, and the next
/// `Begin*Round`/`Close*Round` compacts.
#[test]
fn compaction_waits_for_the_next_round_boundary() {
    let dir = tmpdir("compaction");
    let storage = StorageConfig {
        checkpoint_every_records: 4,
    };
    let (service, _) = CoordinatorService::with_storage(
        Cluster::new(ClusterConfig::test(SCENARIO_SEED)),
        service_config(),
        &dir,
        storage,
    )
    .expect("durable service opens");
    let mut net = LoopbackTransport::with_service(service);
    let keys = pkg_keys(&mut net);
    let mut clients: Vec<Client> = (0..4u8)
        .map(|i| {
            Client::new(
                id(&format!("user{i}@example.com")),
                keys.clone(),
                ClientConfig::default(),
                [10 + i; 32],
            )
        })
        .collect();

    // Four registrations journal four records: due, but not compacted.
    for client in &mut clients {
        client.register(&mut net).unwrap();
    }
    assert_eq!(generation(&dir), 0);
    admin(
        &mut net,
        Request::BeginAddFriendRound {
            round: Round(1),
            expected_real: 4,
        },
    );
    assert_eq!(generation(&dir), 1, "the round open compacts");

    // Extract + issue + submit per client: twelve records, no compaction.
    for client in &mut clients {
        client.participate_add_friend(&mut net).unwrap();
    }
    assert_eq!(generation(&dir), 1, "client RPCs never compact");
    admin(&mut net, Request::CloseAddFriendRound { round: Round(1) });
    assert_eq!(generation(&dir), 2, "the round close compacts");

    drop(net);
    let _ = std::fs::remove_dir_all(dir);
}

// ---------------------------------------------------------------------------
// Durability classes: one fsync per round open and one barrier per close.
// ---------------------------------------------------------------------------

fn open_loopback(seed: u8, dir: &Path) -> LoopbackTransport {
    let (service, _) = CoordinatorService::with_storage(
        Cluster::new(ClusterConfig::test(seed)),
        service_config(),
        dir,
        StorageConfig::default(),
    )
    .expect("durable service opens");
    LoopbackTransport::with_service(service)
}

fn clients(net: &mut LoopbackTransport, count: usize) -> Vec<Client> {
    let keys = pkg_keys(net);
    (0..count)
        .map(|i| {
            Client::new(
                id(&format!("user{i}@example.com")),
                keys.clone(),
                ClientConfig::default(),
                [i as u8 + 1; 32],
            )
        })
        .collect()
}

fn wal_fsyncs(net: &LoopbackTransport) -> u64 {
    net.shared().read().wal_fsyncs()
}

/// The live WAL file of a data dir.
fn wal_file(dir: &Path) -> PathBuf {
    dir.join(format!("wal-{}.log", generation(dir)))
}

/// The record kinds of `wal`, each with its end offset.
fn wal_records(wal: &[u8]) -> Vec<(u8, u64)> {
    let mut records = Vec::new();
    let mut offset = 0;
    while offset < wal.len() {
        let (record, len) = alpenhorn_storage::record::decode_at(wal, offset).expect("valid WAL");
        offset += len;
        records.push((record.kind, offset as u64));
    }
    records
}

/// A durable, rate-limited add-friend round of `k` clients — each issues a
/// token, extracts its keys and submits — costs exactly two WAL fsyncs: the
/// synced round open and the close barrier. The per-client records are all
/// still journalled, two per client (the extraction and the issuance; the
/// submission spends its token into the round's intake and journals
/// nothing).
#[test]
fn a_round_costs_two_wal_fsyncs_for_any_client_count() {
    for k in [1usize, 8, 64] {
        let dir = tmpdir(&format!("fsync-budget-{k}"));
        let mut net = open_loopback(SCENARIO_SEED, &dir);
        let mut clients = clients(&mut net, k);
        for client in &mut clients {
            client.register(&mut net).unwrap();
        }
        let registered = std::fs::metadata(wal_file(&dir)).unwrap().len();
        let before = wal_fsyncs(&net);
        admin(
            &mut net,
            Request::BeginAddFriendRound {
                round: Round(1),
                expected_real: k as u64,
            },
        );
        for client in &mut clients {
            client.participate_add_friend(&mut net).unwrap();
        }
        admin(&mut net, Request::CloseAddFriendRound { round: Round(1) });
        assert_eq!(wal_fsyncs(&net) - before, 2, "{k} clients");

        let wal = std::fs::read(wal_file(&dir)).unwrap();
        let per_client = wal_records(&wal[registered as usize..])
            .iter()
            .filter(|&&(kind, _)| kind != REC_ADD_FRIEND_ROUND_BEGUN)
            .count();
        assert_eq!(per_client, 2 * k, "{k} clients");
        drop(net);
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Key extraction and token issuance run concurrently on the coordinator's
/// PKG path, so their buffered records reach the WAL in whatever order the
/// threads interleave. Their replays commute: a process crash mid-round
/// recovers every identity's issuance budget and `last_seen` exactly as the
/// live coordinator held them.
#[test]
fn concurrent_pkg_path_records_recover_to_the_live_state() {
    const SEED: u8 = 72;
    let dir = tmpdir("pkg-path");
    let mut net = open_loopback(SEED, &dir);
    let mut clients = clients(&mut net, 8);
    for client in &mut clients {
        client.register(&mut net).unwrap();
    }
    // Extraction refreshes `last_seen` to the clock; move it off the
    // registration time so a lost refresh would show.
    net.shared().write().advance_clock(3_600);
    admin(
        &mut net,
        Request::BeginAddFriendRound {
            round: Round(1),
            expected_real: 8,
        },
    );
    std::thread::scope(|scope| {
        for half in clients.chunks_mut(4) {
            let mut net = net.clone();
            scope.spawn(move || {
                for client in half {
                    client.participate_add_friend(&mut net).unwrap();
                }
            });
        }
    });
    let state = |net: &LoopbackTransport| -> Vec<(Option<u32>, Option<u64>)> {
        let service = net.shared().read();
        let registry = service.cluster().account_registry();
        clients
            .iter()
            .map(|c| {
                (
                    service.remaining_token_budget(c.identity()),
                    registry.account_last_seen(c.identity()),
                )
            })
            .collect()
    };
    let live = state(&net);
    assert!(live
        .iter()
        .all(|&(budget, seen)| budget == Some(RATE_LIMIT_BUDGET - 1) && seen == Some(3_600)));
    drop(net);
    assert_eq!(state(&open_loopback(SEED, &dir)), live);
    let _ = std::fs::remove_dir_all(dir);
}

/// Round 3 onward of the suffix-loss scenario, from the clients' state at
/// the crash: user0 befriends user2 and calls them. Round 3 refuses
/// `round_2_submission`'s token, which was spent in round 2.
fn continue_after_crash(
    net: &mut LoopbackTransport,
    saved: &[Vec<u8>],
    round_2_submission: &Request,
) -> Vec<(String, ClientEvent)> {
    let mut clients: Vec<Client> = saved
        .iter()
        .map(|bytes| Client::load_state(bytes).expect("client state reloads"))
        .collect();
    let friend = clients[2].identity().clone();
    clients[0].add_friend(friend.clone(), None);
    let mut events = Vec::new();
    let mut keywheel_start = Round(0);
    for round in 3..=4 {
        admin(
            net,
            Request::BeginAddFriendRound {
                round: Round(round),
                expected_real: 3,
            },
        );
        if round == 3 {
            let stale = in_round(round_2_submission, Round(3));
            assert_eq!(reply(net, stale), INVALID_TOKEN);
        }
        for client in &mut clients {
            client.participate_add_friend(net).unwrap();
        }
        admin(
            net,
            Request::CloseAddFriendRound {
                round: Round(round),
            },
        );
        for client in &mut clients {
            for event in client.process_add_friend_mailbox(net).unwrap() {
                if let ClientEvent::FriendConfirmed { dialing_round, .. } = &event {
                    keywheel_start = *dialing_round;
                }
                events.push((client.identity().to_string(), event));
            }
        }
    }
    assert!(keywheel_start.as_u64() > 0, "the handshake completes");
    clients[0].call(friend, 1).unwrap();
    for round in 1..=keywheel_start.as_u64() {
        admin(
            net,
            Request::BeginDialingRound {
                round: Round(round),
                expected_real: 3,
            },
        );
        for client in &mut clients {
            if let Some(event) = client.participate_dialing(net).unwrap() {
                events.push((client.identity().to_string(), event));
            }
        }
        admin(
            net,
            Request::CloseDialingRound {
                round: Round(round),
            },
        );
        for client in &mut clients {
            for event in client.process_dialing_mailbox(net).unwrap() {
                events.push((client.identity().to_string(), event));
            }
        }
    }
    assert!(events.iter().any(|(_, e)| e.is_incoming_call()));
    events
}

/// A machine crash loses at most the WAL suffix written since the last
/// fsync. After round 1's close barrier and round 2's synced open, two of
/// three clients take part in round 2; then the WAL is cut at every record
/// boundary of that unsynced suffix and each copy recovered. Every recovery
/// opens, keeps the round counter, refuses to reopen round 2 (so no token
/// spent in it can be spent again), refunds at most the issuance since the
/// barrier, refuses a round-2 token in round 3, and carries on to the same
/// client events as the deployment that never crashed.
#[test]
fn losing_the_unsynced_suffix_costs_only_what_the_barrier_bounds() {
    const SEED: u8 = 71;
    let dir = tmpdir("suffix");
    let mut net = open_loopback(SEED, &dir);
    let mut clients = clients(&mut net, 3);
    let identities: Vec<Identity> = clients.iter().map(|c| c.identity().clone()).collect();
    let budgets = |net: &LoopbackTransport| -> Vec<u32> {
        let service = net.shared().read();
        identities
            .iter()
            .map(|who| service.remaining_token_budget(who).unwrap())
            .collect()
    };
    for client in &mut clients {
        client.register(&mut net).unwrap();
    }

    admin(
        &mut net,
        Request::BeginAddFriendRound {
            round: Round(1),
            expected_real: 3,
        },
    );
    for client in &mut clients {
        client.participate_add_friend(&mut net).unwrap();
    }
    admin(&mut net, Request::CloseAddFriendRound { round: Round(1) });
    let at_barrier = budgets(&net);

    admin(
        &mut net,
        Request::BeginAddFriendRound {
            round: Round(2),
            expected_real: 3,
        },
    );
    let wal_name = wal_file(&dir)
        .file_name()
        .unwrap()
        .to_str()
        .unwrap()
        .to_string();
    let synced_len = std::fs::metadata(wal_file(&dir)).unwrap().len();
    let mut recorded = Recorded::new(net.clone());
    for client in &mut clients[..2] {
        client.participate_add_friend(&mut recorded).unwrap();
    }
    let round_2_submission = recorded.submissions().next().unwrap().clone();
    let at_crash = budgets(&net);
    let next_round = net.shared().read().next_round();
    // What the OS holds at the crash, and the clients' state then.
    let image = dir_contents(&dir);
    let saved: Vec<Vec<u8>> = clients.iter().map(Client::save_state).collect();

    // The uncrashed twin closes round 2 and carries on.
    admin(&mut net, Request::CloseAddFriendRound { round: Round(2) });
    let twin_events = continue_after_crash(&mut net, &saved, &round_2_submission);
    drop(net);

    let suffix: Vec<(u8, u64)> = wal_records(&image[&wal_name])
        .into_iter()
        .filter(|&(_, end)| end > synced_len)
        .collect();
    assert_eq!(suffix.len(), 4, "issue and extract by two clients");
    let cuts = std::iter::once(synced_len).chain(suffix.iter().map(|&(_, end)| end));
    for cut in cuts {
        let crashed = tmpdir(&format!("suffix-cut-{cut}"));
        for (name, bytes) in &image {
            let bytes = if *name == wal_name {
                &bytes[..cut as usize]
            } else {
                &bytes[..]
            };
            std::fs::write(crashed.join(name), bytes).unwrap();
        }
        let mut net = open_loopback(SEED, &crashed);
        assert_eq!(net.shared().read().next_round(), next_round, "cut {cut}");
        let reopen = Request::BeginAddFriendRound {
            round: Round(2),
            expected_real: 3,
        };
        assert!(
            matches!(
                reply(&mut net, reopen),
                Response::Error(RpcError::BadRequest { .. })
            ),
            "cut {cut}"
        );
        for ((recovered, barrier), crash) in budgets(&net).iter().zip(&at_barrier).zip(&at_crash) {
            assert!(
                crash <= recovered && recovered <= barrier,
                "cut {cut}: budget {recovered} outside [{crash}, {barrier}]"
            );
        }
        assert_eq!(
            continue_after_crash(&mut net, &saved, &round_2_submission),
            twin_events,
            "cut {cut}"
        );
        drop(net);
        let _ = std::fs::remove_dir_all(crashed);
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// A crash with a round open abandons that round for good, for either
/// protocol: the recovered coordinator refuses to begin it again and
/// journals nothing, opens the next round, and refuses there every token
/// spent before the crash. No spent token outlives the crash on disk, and
/// none needs to.
#[test]
fn a_round_open_at_a_crash_is_never_reopened() {
    for protocol in [RoundKind::AddFriend, RoundKind::Dialing] {
        let dir = tmpdir(&format!("reopen-{}", protocol.label()));
        let begin = |round: u64| match protocol {
            RoundKind::AddFriend => Request::BeginAddFriendRound {
                round: Round(round),
                expected_real: 2,
            },
            RoundKind::Dialing => Request::BeginDialingRound {
                round: Round(round),
                expected_real: 2,
            },
        };
        let mut net = open_loopback(SCENARIO_SEED, &dir);
        let mut users = clients(&mut net, 2);
        for user in &mut users {
            user.register(&mut net).unwrap();
        }
        admin(&mut net, begin(1));
        let mut recorded = Recorded::new(net.clone());
        for user in &mut users {
            let participated = match protocol {
                RoundKind::AddFriend => user.participate_add_friend(&mut recorded).map(|_| ()),
                RoundKind::Dialing => user.participate_dialing(&mut recorded).map(|_| ()),
            };
            participated.unwrap();
        }
        let spent: Vec<Request> = recorded.submissions().cloned().collect();
        assert_eq!(spent.len(), 2);
        assert_eq!(net.shared().read().spent_token_count(), Some(2));

        drop(recorded);
        drop(net); // the crash
        let mut net = open_loopback(SCENARIO_SEED, &dir);
        let on_disk = dir_contents(&dir);
        assert!(
            matches!(
                reply(&mut net, begin(1)),
                Response::Error(RpcError::BadRequest { .. })
            ),
            "{protocol:?}: the round open at the crash is not begun again"
        );
        assert_eq!(
            dir_contents(&dir),
            on_disk,
            "a refused begin journals nothing"
        );
        admin(&mut net, begin(2));
        for submission in &spent {
            assert_eq!(
                reply(&mut net, in_round(submission, Round(2))),
                INVALID_TOKEN
            );
            assert_eq!(
                reply(&mut net, submission.clone()),
                Response::Error(RpcError::RoundNotOpen {
                    requested: Round(1)
                })
            );
        }
        assert_eq!(net.shared().read().spent_token_count(), Some(0));
        drop(net);
        let _ = std::fs::remove_dir_all(dir);
    }
}

// ---------------------------------------------------------------------------
// The real-daemon SIGKILL variant (ci.sh "crash-recovery smoke" stage).
// ---------------------------------------------------------------------------

/// A live `alpenhornd` child process with a data dir.
struct LiveDaemon {
    child: std::process::Child,
    addr: String,
    dir: PathBuf,
    seed: u8,
    crash: bool,
}

fn alpenhornd_path() -> PathBuf {
    // target/{profile}/deps/crash_recovery-... → target/{profile}/alpenhornd
    let mut path = std::env::current_exe().expect("test binary path");
    path.pop();
    if path.ends_with("deps") {
        path.pop();
    }
    path.push(format!("alpenhornd{}", std::env::consts::EXE_SUFFIX));
    assert!(
        path.exists(),
        "alpenhornd binary not found at {} — build it first (cargo build)",
        path.display()
    );
    path
}

impl LiveDaemon {
    fn spawn(dir: PathBuf, seed: u8, crash: bool) -> Self {
        let mut daemon = LiveDaemon {
            child: Self::launch(&dir, seed),
            addr: String::new(),
            dir,
            seed,
            crash,
        };
        daemon.await_listening();
        daemon
    }

    fn launch(dir: &PathBuf, seed: u8) -> std::process::Child {
        std::process::Command::new(alpenhornd_path())
            .args([
                "--listen",
                "127.0.0.1:0",
                "--seed",
                &seed.to_string(),
                "--rate-limit-budget",
                &RATE_LIMIT_BUDGET.to_string(),
                "--data-dir",
            ])
            .arg(dir)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::inherit())
            .spawn()
            .expect("alpenhornd spawns")
    }

    /// Reads the daemon's stdout until the "listening on ADDR" line.
    fn await_listening(&mut self) {
        use std::io::BufRead as _;
        let stdout = self.child.stdout.take().expect("stdout piped");
        let mut lines = std::io::BufReader::new(stdout).lines();
        for line in &mut lines {
            let line = line.expect("daemon stdout");
            if let Some(rest) = line.strip_prefix("alpenhornd listening on ") {
                self.addr = rest
                    .split_whitespace()
                    .next()
                    .expect("address on the listening line")
                    .to_string();
                // Drain the rest of stdout in the background so the daemon
                // never blocks on a full pipe.
                std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
                return;
            }
        }
        panic!("daemon exited before announcing its listen address");
    }
}

impl Drop for LiveDaemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Deployment for LiveDaemon {
    type Net = TcpTransport;

    fn connect(&mut self) -> TcpTransport {
        TcpTransport::connect(&self.addr).expect("connect to alpenhornd")
    }

    fn crash_and_restart(&mut self) {
        if !self.crash {
            return;
        }
        // SIGKILL: no destructors, no final flush — durability must come
        // entirely from the synced WAL and snapshots.
        self.child.kill().expect("SIGKILL alpenhornd");
        self.child.wait().expect("reap alpenhornd");
        self.child = Self::launch(&self.dir, self.seed);
        self.await_listening();
    }
}

/// The acceptance criterion against the real daemon: SIGKILL `alpenhornd`
/// between rounds, restart it, and the client event stream is byte-identical
/// to an uncrashed daemon's. Run by `scripts/ci.sh` (needs the binary built):
///
/// ```sh
/// cargo test --release --test crash_recovery -- --ignored
/// ```
#[test]
#[ignore = "spawns and SIGKILLs a real alpenhornd; run via scripts/ci.sh"]
fn sigkill_and_restart_alpenhornd_yields_identical_events() {
    let baseline_dir = tmpdir("daemon-baseline");
    let crashed_dir = tmpdir("daemon-crashed");

    let baseline = run_scenario(&mut LiveDaemon::spawn(
        baseline_dir.clone(),
        SCENARIO_SEED,
        false,
    ));
    let crashed = run_scenario(&mut LiveDaemon::spawn(
        crashed_dir.clone(),
        SCENARIO_SEED,
        true,
    ));

    assert!(baseline
        .events
        .iter()
        .any(|(who, e)| who == "bob" && e.is_incoming_call()));
    // Events, and the PKG publics and onion keys served after the restart.
    assert_eq!(baseline, crashed);

    let _ = std::fs::remove_dir_all(baseline_dir);
    let _ = std::fs::remove_dir_all(crashed_dir);
}
