//! Distributed-deployment equivalence: the PR 9 acceptance scenario.
//!
//! A coordinator driving **3 networked `mixd` daemons** over the MixerRpc
//! protocol and offloading mailboxes to **4 networked `cdnd` nodes** as
//! 3-data + 1-parity erasure shards must be indistinguishable to clients
//! from the plain in-process deployment — even when one `cdnd` is killed
//! mid-run. Clients fetch their mailboxes through [`CdnRoutedTransport`],
//! reassembling blobs from any 3 surviving nodes by XOR-only decode, and
//! the resulting [`ClientEvent`] stream is byte-identical to the loopback
//! fault-free run.

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
use alpenhorn_wire::{Request, Response, Round};

const SCENARIO_SEED: u8 = 90;
/// The fixed fleet geometry under test: 4 nodes, 3 data + 1 parity shards.
const CDN_NODES: usize = 4;
const DATA_SHARDS: usize = 3;
const PARITY_SHARDS: usize = 1;
/// Shard `i` lands on node `i % 4`, so node 1 always holds a *data* shard:
/// killing it forces a parity (XOR decode) path on every later fetch.
const KILLED_NODE: usize = 1;

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

/// The seeded reference scenario (same shape as `transport_equivalence`):
/// register, two add-friend rounds completing a handshake, then dialing
/// rounds up to the keywheel start with one call placed. `mid_run` fires
/// between the add-friend and dialing phases — where the distributed run
/// kills a CDN node.
fn run_scenario<T: Transport>(
    mut admin_net: T,
    mut alice_net: T,
    mut bob_net: T,
    mid_run: impl FnOnce(),
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

    mid_run();

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

/// The reference: everything in one process, no faults.
fn in_process_events() -> Vec<(String, ClientEvent)> {
    let net = LoopbackTransport::new(Cluster::new(ClusterConfig::test(SCENARIO_SEED)));
    run_scenario(net.clone(), net.clone(), net, || {})
}

struct Deployment {
    coordinator: ServerHandle,
    mixds: Vec<ServerHandle>,
    cdnds: Vec<ServerHandle>,
}

/// Boots the whole distributed topology on localhost: 3 `mixd` daemons,
/// 4 `cdnd` nodes, and a coordinator wired to all of them.
fn boot_deployment() -> Deployment {
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
    Deployment {
        coordinator,
        mixds,
        cdnds,
    }
}

/// The PR 9 acceptance criterion: a real multi-daemon deployment with one
/// CDN node killed mid-run produces a client-event stream byte-identical to
/// the in-process fault-free run, with post-kill mailbox fetches served by
/// XOR-only parity decode from the 3 surviving nodes.
#[test]
fn distributed_deployment_with_cdn_node_loss_matches_in_process_run() {
    let reference = in_process_events();

    let Deployment {
        coordinator,
        mixds,
        mut cdnds,
    } = boot_deployment();
    let coordinator_addr = coordinator.local_addr();

    // Clients reach the CDN fleet directly, like browsers hitting a CDN,
    // with the coordinator as origin fallback.
    let client_fleet = Arc::new(ShardedCdn::new(
        cdnds
            .iter()
            .map(|h| Box::new(TcpNode::new(h.local_addr().to_string())) as Box<dyn NodeClient>)
            .collect(),
        DATA_SHARDS,
        PARITY_SHARDS,
    ));
    let routed = || {
        CdnRoutedTransport::new(
            TcpTransport::connect(coordinator_addr).expect("client connects"),
            Arc::clone(&client_fleet),
        )
    };

    let killed = cdnds.remove(KILLED_NODE);
    // This binary runs one test, so registry deltas over the run are exact.
    let before = alpenhorn_obs::global().snapshot();
    let distributed = run_scenario(routed(), routed(), routed(), || killed.shutdown());
    let after = alpenhorn_obs::global().snapshot();
    assert_eq!(reference, distributed);
    // Byte-identical on the rendered stream, not just typed equality.
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

    // The fleet actually served the mailboxes: every download it reassembled
    // cost `k` shard fetches, and the post-kill fetches needed parity bytes —
    // the XOR decode path, not straight data-shard concatenation.
    let d = |key: &str| after.value(key) - before.value(key);
    let reassembled = d("cdn_fetches_total") - d("client_cdn_origin_fallbacks_total");
    assert!(
        reassembled > 0,
        "no mailbox downloads were served from the shard fleet"
    );
    assert_eq!(
        d("cdn_shard_fetches_total"),
        DATA_SHARDS as u64 * reassembled,
        "every reassembled download costs k shard fetches"
    );
    assert!(
        d("cdn_fetch_parity_bytes_total") > 0 && d("cdn_parity_decodes_total") > 0,
        "killing data-shard node {KILLED_NODE} must force parity decode"
    );

    // A direct fleet read with the node down still reconstructs (any-3-of-4),
    // and because the dead node held a data shard, only via parity decode.
    let mut reconstructed = 0;
    for mailbox in 0..8u32 {
        let probe = client_fleet
            .fetch(
                alpenhorn_wire::RoundKind::Dialing,
                Round(1),
                alpenhorn_wire::MailboxId(mailbox),
            )
            .expect("fleet read survives one lost node");
        if probe.blob.is_some() {
            reconstructed += 1;
            assert!(
                probe.parity_bytes > 0,
                "reconstruction must have read a parity shard"
            );
        }
    }
    assert!(reconstructed > 0, "round 1 published no dialing mailboxes");

    coordinator.shutdown();
    for daemon in cdnds.into_iter().chain(mixds) {
        daemon.shutdown();
    }
}
