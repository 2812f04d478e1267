//! Observability end-to-end: the PR 10 acceptance scenario.
//!
//! Boots the full distributed topology (coordinator + 3 `mixd` daemons +
//! 4 `cdnd` nodes on localhost), runs complete add-friend and dialing
//! rounds through it, then fetches `GetTelemetry` from each process type
//! and asserts:
//!
//! * **(a) trace linkage** — one correlation id (derived from the round)
//!   links spans reported by the coordinator, the mix daemons, and the CDN
//!   nodes;
//! * **(b) counter reconciliation** — mixnet output equals submissions plus
//!   noise (nothing dropped on the healthy path), and the shard fleet served
//!   exactly `k` shard fetches per reassembled mailbox download;
//! * **(c) determinism** — the client event stream is byte-identical to the
//!   in-process reference run, with all instrumentation enabled in both;
//! * **(d) documentation** — every metric family in the three expositions
//!   is named in `docs/OBSERVABILITY.md`.

use std::sync::{Arc, Mutex};

use alpenhorn::{
    CdnRoutedTransport, Client, ClientConfig, ClientEvent, Identity, LoopbackTransport,
    TcpTransport, Transport,
};
use alpenhorn_cdn::{CdnNodeState, NodeClient, ShardedCdn, TcpNode};
use alpenhorn_coordinator::server::serve as coordinator_serve;
use alpenhorn_coordinator::service::CoordinatorService;
use alpenhorn_coordinator::{Cluster, ClusterConfig};
use alpenhorn_ibe::sig::VerifyingKey;
use alpenhorn_mixd::{MixdServer, Mixer, RemoteMixer};
use alpenhorn_wire::server::{serve, ServerHandle};
use alpenhorn_wire::{
    CdnRequest, CdnResponse, MixerRequest, MixerResponse, Request, Response, Round, RoundKind,
    TelemetryWire,
};

const SCENARIO_SEED: u8 = 100;
const CDN_NODES: usize = 4;
const DATA_SHARDS: usize = 3;
const PARITY_SHARDS: usize = 1;

fn id(s: &str) -> Identity {
    Identity::new(s).unwrap()
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

/// The seeded reference scenario: register, two add-friend rounds completing
/// a handshake, then dialing rounds up to the keywheel start with one call
/// placed.
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

#[test]
fn telemetry_links_rounds_across_all_process_types() {
    // Reference: the whole deployment in-process, instrumentation enabled
    // (it is always enabled — there is no uninstrumented build).
    let reference = {
        let net = LoopbackTransport::new(Cluster::new(ClusterConfig::test(SCENARIO_SEED)));
        run_scenario(net.clone(), net.clone(), net)
    };

    // Distributed topology: 3 mixd + 4 cdnd + coordinator, all over TCP.
    let config = ClusterConfig::test(SCENARIO_SEED);
    let mixds: Vec<ServerHandle> = (0..config.num_mix_servers)
        .map(|i| {
            let daemon = Mutex::new(MixdServer::new(config.seed, i));
            serve("127.0.0.1:0", alpenhorn_mixd::server_config(), daemon).expect("mixd binds")
        })
        .collect();
    let cdnds: Vec<ServerHandle> = (0..CDN_NODES)
        .map(|_| {
            let node = Mutex::new(CdnNodeState::new());
            serve("127.0.0.1:0", alpenhorn_cdn::server_config(), node).expect("cdnd binds")
        })
        .collect();
    let mixer_fleet = || -> Vec<Box<dyn Mixer>> {
        mixds
            .iter()
            .map(|h| Box::new(RemoteMixer::new(h.local_addr().to_string())) as Box<dyn Mixer>)
            .collect()
    };
    let cdn_fleet = || -> Vec<Box<dyn NodeClient>> {
        cdnds
            .iter()
            .map(|h| Box::new(TcpNode::new(h.local_addr().to_string())) as Box<dyn NodeClient>)
            .collect()
    };
    let mut cluster = Cluster::new(config);
    cluster.connect_remote_mixers(mixer_fleet(), mixer_fleet());
    cluster.connect_cdn_nodes(cdn_fleet(), DATA_SHARDS, PARITY_SHARDS);
    let coordinator = coordinator_serve(CoordinatorService::new(cluster), "127.0.0.1:0")
        .expect("coordinator binds");
    let coordinator_addr = coordinator.local_addr();

    let client_fleet = Arc::new(ShardedCdn::new(cdn_fleet(), DATA_SHARDS, PARITY_SHARDS));
    let routed = || {
        CdnRoutedTransport::new(
            TcpTransport::connect(coordinator_addr).expect("client connects"),
            Arc::clone(&client_fleet),
        )
    };

    // Counter reconciliation works on deltas over the distributed run only:
    // the registry is process-global and the reference run above already
    // incremented the shared counters. The binary's other test is ignored
    // outside `--ignored` runs, so the deltas are exact.
    let before = alpenhorn_obs::global().snapshot();
    let distributed = run_scenario(routed(), routed(), routed());
    let after = alpenhorn_obs::global().snapshot();

    // (c) Byte-identical client event stream, instrumentation enabled.
    assert_eq!(reference, distributed);
    let render = |events: &[(String, ClientEvent)]| {
        events
            .iter()
            .map(|(who, e)| format!("{who}: {e:?}"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        render(&reference).into_bytes(),
        render(&distributed).into_bytes()
    );

    // Fetch telemetry from each process type, over each one's own protocol.
    let coordinator_telemetry = {
        let mut net = TcpTransport::connect(coordinator_addr).expect("admin connects");
        let Response::Telemetry(t) = admin(&mut net, Request::GetTelemetry) else {
            panic!("expected telemetry");
        };
        t
    };
    let mixd_telemetry = match RemoteMixer::new(mixds[0].local_addr().to_string())
        .call(MixerRequest::GetTelemetry)
    {
        Ok(MixerResponse::Telemetry(t)) => t,
        other => panic!("expected mixd telemetry, got {other:?}"),
    };
    let cdn_telemetry = {
        let mut node = TcpNode::new(cdnds[0].local_addr().to_string());
        match node.call(&CdnRequest::GetTelemetry) {
            Ok(CdnResponse::Telemetry(t)) => t,
            other => panic!("expected cdn telemetry, got {other:?}"),
        }
    };

    // (a) One correlation id — add-friend round 1 — links spans across all
    // three process types, and each process reports only its own component.
    let corr = alpenhorn_obs::correlation_id(RoundKind::AddFriend.code(), 1);
    let linked = |telemetry: &TelemetryWire, component: &str| {
        assert!(
            telemetry
                .spans
                .iter()
                .all(|span| span.component == component),
            "{component} telemetry must only report its own spans"
        );
        assert!(
            telemetry.spans.iter().any(|span| span.correlation == corr),
            "no {component} span carries the add-friend round 1 correlation id"
        );
    };
    linked(&coordinator_telemetry, "coordinator");
    linked(&mixd_telemetry, "mixd");
    linked(&cdn_telemetry, "cdn");
    // The coordinator's trace covers the whole round: dispatch, the mix
    // chain drive, and the CDN publish.
    for name in ["mix_begin", "mix_process", "mix_end", "cdn_publish"] {
        assert!(
            coordinator_telemetry
                .spans
                .iter()
                .any(|s| s.name == name && s.correlation == corr),
            "coordinator trace is missing a {name} span for round 1"
        );
    }
    assert!(!coordinator_telemetry.exposition.is_empty());
    assert!(!mixd_telemetry.exposition.is_empty());
    assert!(!cdn_telemetry.exposition.is_empty());
    for telemetry in [&coordinator_telemetry, &mixd_telemetry, &cdn_telemetry] {
        assert_families_documented(&telemetry.exposition);
    }

    // (b) Counters reconcile. Mixnet accounting first: everything that went
    // in (submissions + noise) came out, nothing dropped on the healthy path.
    let d = |key: &str| after.value(key).saturating_sub(before.value(key));
    for protocol in ["add-friend", "dialing"] {
        let submissions = d(&format!(
            "coordinator_round_submissions_total{{protocol=\"{protocol}\"}}"
        ));
        let noise = d(&format!(
            "coordinator_round_noise_total{{protocol=\"{protocol}\"}}"
        ));
        let dropped = d(&format!(
            "coordinator_round_dropped_total{{protocol=\"{protocol}\"}}"
        ));
        let finals = d(&format!(
            "coordinator_round_final_messages_total{{protocol=\"{protocol}\"}}"
        ));
        assert!(submissions > 0, "{protocol} rounds saw no submissions");
        assert_eq!(dropped, 0, "healthy path must drop nothing");
        assert_eq!(
            finals,
            submissions + noise,
            "{protocol} mixnet output must equal submissions + noise"
        );
    }

    // Shard-fleet accounting: every mailbox download the fleet reassembled
    // (every fetch that did not fall back to the origin) cost exactly `k`
    // shard fetches, with no parity reads — all nodes are healthy — and the
    // nodes served every one of those fetches.
    let reassembled = d("cdn_fetches_total") - d("client_cdn_origin_fallbacks_total");
    assert!(reassembled > 0, "no sharded downloads were served");
    assert_eq!(
        d("cdn_shard_fetches_total"),
        DATA_SHARDS as u64 * reassembled,
        "healthy-path shard fetches must be k x reassembled downloads"
    );
    assert_eq!(
        d("cdn_node_shard_fetches_total"),
        d("cdn_shard_fetches_total")
    );
    assert_eq!(d("cdn_fetch_parity_bytes_total"), 0);
    assert_eq!(d("cdn_parity_decodes_total"), 0);

    // Lock accounting: every dispatch of an RPC that takes the service lock
    // recorded exactly one wait for it, and the snapshot and submission
    // paths recorded none.
    let dispatched = |rpc: &str| {
        ["ok", "error"]
            .iter()
            .map(|outcome| {
                d(&format!(
                    "coordinator_rpc_total{{rpc=\"{rpc}\",outcome=\"{outcome}\"}}"
                ))
            })
            .sum::<u64>()
    };
    let waited = |rpc: &str| d(&format!("coordinator_lock_wait_us_count{{rpc=\"{rpc}\"}}"));
    for rpc in [
        "register",
        "complete_registration",
        "extract_identity_keys",
        "begin_add_friend_round",
        "close_add_friend_round",
        "begin_dialing_round",
        "close_dialing_round",
    ] {
        assert!(dispatched(rpc) > 0, "the scenario never dispatched {rpc}");
        assert_eq!(waited(rpc), dispatched(rpc), "{rpc}: one lock wait each");
    }
    for rpc in [
        "get_add_friend_round_info",
        "get_dialing_round_info",
        "submit_add_friend",
        "submit_dialing",
    ] {
        assert!(dispatched(rpc) > 0, "the scenario never dispatched {rpc}");
        assert_eq!(waited(rpc), 0, "{rpc} takes no service lock");
    }

    // Round-info accounting: a dialing participation takes its round info
    // from the previous mailbox's announcement or from one
    // `GetDialingRoundInfo` call, and then submits once. Only the first
    // dialing round has nothing announced, and every round here opens with
    // the same size, so no announcement is refused.
    let round_info = |source: &str| {
        d(&format!(
            "client_dialing_round_info_total{{source=\"{source}\"}}"
        ))
    };
    assert_eq!(
        round_info("fetched"),
        dispatched("get_dialing_round_info"),
        "every fetched round info is one coordinator call"
    );
    assert!(
        round_info("announced") > 0,
        "no participation used an announcement"
    );
    assert_eq!(
        round_info("announced") + round_info("fetched"),
        dispatched("submit_dialing")
    );
    assert_eq!(d("coordinator_dialing_stale_info_total"), 0);

    coordinator.shutdown();
    for daemon in cdnds.into_iter().chain(mixds) {
        daemon.shutdown();
    }
}

/// Asserts that every metric family in `exposition` is named in
/// `docs/OBSERVABILITY.md`, so a metric cannot ship undocumented. A
/// histogram's `_bucket`/`_sum`/`_count` lines belong to its family.
fn assert_families_documented(exposition: &str) {
    let doc = include_str!("../docs/OBSERVABILITY.md");
    let documented: std::collections::HashSet<&str> = doc
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .collect();
    for line in exposition.lines() {
        let name = line.split(['{', ' ']).next().unwrap_or_default();
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| name.strip_suffix(suffix))
            .unwrap_or(name);
        assert!(
            documented.contains(family),
            "metric family {family} is not documented in docs/OBSERVABILITY.md"
        );
    }
}

/// A spawned `alpenhornd` child, killed on drop.
struct LiveDaemon {
    child: std::process::Child,
    addr: String,
}

impl Drop for LiveDaemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl LiveDaemon {
    /// Spawns the `alpenhornd` binary next to this test binary and waits
    /// for its stdout listen announcement.
    fn spawn() -> LiveDaemon {
        use std::io::BufRead as _;
        // target/{profile}/deps/observability_e2e-… → target/{profile}/alpenhornd
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
        let child = std::process::Command::new(path)
            .args(["--listen", "127.0.0.1:0", "--log-level", "warn"])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::inherit())
            .spawn()
            .expect("alpenhornd spawns");
        // Into the kill-on-drop guard before anything can panic, so no
        // code path leaks the child.
        let mut daemon = LiveDaemon {
            child,
            addr: String::new(),
        };
        let stdout = daemon.child.stdout.take().expect("stdout piped");
        let mut lines = std::io::BufReader::new(stdout).lines();
        for line in &mut lines {
            let line = line.expect("daemon stdout");
            if let Some(rest) = line.strip_prefix("alpenhornd listening on ") {
                daemon.addr = rest
                    .split_whitespace()
                    .next()
                    .expect("address on the listening line")
                    .to_string();
                std::thread::spawn(move || for _ in lines.map_while(Result::ok) {});
                return daemon;
            }
        }
        panic!("daemon exited before announcing its listen address");
    }
}

/// The ci.sh "observability" smoke: a real `alpenhornd` process answers
/// `GetTelemetry` over TCP with a live exposition and round-scoped spans.
#[test]
#[ignore = "spawns a real alpenhornd; run via scripts/ci.sh"]
fn get_telemetry_smoke_against_live_alpenhornd() {
    let daemon = LiveDaemon::spawn();
    let mut net = TcpTransport::connect(&daemon.addr).expect("connect to alpenhornd");

    // Drive one (noise-only) add-friend round so the daemon has something
    // to report, then fetch its telemetry.
    admin(
        &mut net,
        Request::BeginAddFriendRound {
            round: Round(1),
            expected_real: 1,
        },
    );
    admin(&mut net, Request::CloseAddFriendRound { round: Round(1) });
    let Response::Telemetry(telemetry) = admin(&mut net, Request::GetTelemetry) else {
        panic!("expected telemetry from the live daemon");
    };

    assert!(
        telemetry.exposition.contains("coordinator_rpc_total"),
        "live exposition must carry RPC outcome counters:\n{}",
        telemetry.exposition
    );
    assert!(
        telemetry
            .exposition
            .contains("coordinator_rounds_closed_total{protocol=\"add-friend\"} 1"),
        "the closed round must be visible in the exposition:\n{}",
        telemetry.exposition
    );
    let corr = alpenhorn_obs::correlation_id(RoundKind::AddFriend.code(), 1);
    assert!(
        telemetry
            .spans
            .iter()
            .any(|span| span.component == "coordinator" && span.correlation == corr),
        "the daemon must report round-scoped coordinator spans"
    );
}
