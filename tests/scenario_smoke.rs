//! Scenario smoke tests: three small scripted timelines — a churn wave, a
//! crash-restart storm, and a partition window — written in the text format,
//! executed end to end with the full invariant-checker suite, plus the proof
//! that a scripted timeline reproduces the same workload driven by hand. These
//! are the scenarios `scripts/ci.sh` runs in its "scenario smoke" stage, so
//! they are sized to finish in seconds.

use alpenhorn::{
    Client, ClientConfig, ClientEvent, FaultProbabilities, Identity, LoopbackTransport, Round,
};
use alpenhorn_coordinator::{Cluster, ClusterConfig};
use alpenhorn_scenario::{
    drive, LedgerConsistency, MailboxConservation, Scenario, ScenarioBuilder, ScenarioEngine,
    SubmissionAccounting, TwinChecker,
};
use alpenhorn_storage::StorageConfig;

fn arm(engine: &mut ScenarioEngine) {
    let twin = TwinChecker::new(engine.scenario()).expect("twin engine builds");
    engine.add_checker(Box::new(MailboxConservation));
    engine.add_checker(Box::new(SubmissionAccounting));
    engine.add_checker(Box::new(LedgerConsistency));
    engine.add_checker(Box::new(twin));
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "alpenhorn-scenario-smoke-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const CHURN_WAVE: &str = "
# A churn wave: a base population joins, a second wave arrives, part of the
# first wave leaves, with Zipf-skewed befriending traffic throughout.
scenario churn-wave
seed 90
population 16
steps 5

@1 register 0..8
@1 befriend-zipf 0..4 0..8 1.1
@2 register 8..16          # wave in
@2 befriend 8 9
@3 deregister 0..3         # wave out
@4 call 8 9 5              # friendship from step 2 confirms at step 3
";

const CRASH_STORM: &str = "
# A crash-restart storm: the coordinator dies and recovers from its WAL on
# three consecutive steps, mid-conversation. Clients never notice.
scenario crash-restart-storm
seed 91
population 6
steps 5

@1 register 0..6
@1 befriend 0 1
@2 crash-restart
@3 crash-restart
@3 call 0 1 7
@4 crash-restart
";

const PARTITION_WINDOW: &str = "
# A partition window: two idle clients drop off the network for a step and
# heal. Surviving traffic is untouched; the twin checker proves convergence.
scenario partition-window
seed 92
population 6
steps 4

@1 register 0..6
@1 befriend 0 1
@2 partition-begin 4..6
@3 partition-end 4..6
@3 call 0 1 2
";

#[test]
fn churn_wave_scenario_passes_all_checkers() {
    let scenario = Scenario::parse(CHURN_WAVE).expect("churn scenario parses");
    let mut engine = ScenarioEngine::new(scenario).unwrap();
    arm(&mut engine);
    engine.run().unwrap();

    let report = engine.into_report();
    assert_eq!(report.rounds.len(), 5);
    assert!(report.violations().is_empty(), "{:?}", report.violations());
    assert_eq!(report.rounds[0].participants, 8);
    assert_eq!(report.rounds[1].participants, 16, "second wave joined");
    assert_eq!(report.rounds[2].participants, 13, "three churned out");
    assert!(
        report.client_events[9]
            .iter()
            .any(|e| matches!(e, ClientEvent::IncomingCall { .. })),
        "the wave-two call landed"
    );
}

#[test]
fn crash_restart_storm_is_invisible_to_clients() {
    let dir = temp_dir("storm");
    let scenario = Scenario::parse(CRASH_STORM).expect("storm scenario parses");
    let mut engine = ScenarioEngine::with_data_dir(
        scenario,
        &dir,
        StorageConfig {
            checkpoint_every_records: 256,
        },
    )
    .unwrap();
    arm(&mut engine);
    engine.run().unwrap();

    let report = engine.into_report();
    assert!(report.violations().is_empty(), "{:?}", report.violations());
    assert_eq!(
        report.rounds.last().unwrap().restarts,
        4,
        "initial boot plus three scripted crashes"
    );
    assert!(
        report.client_events[1]
            .iter()
            .any(|e| matches!(e, ClientEvent::IncomingCall { .. })),
        "the call placed between crashes was delivered"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partition_window_converges_with_fault_free_twin() {
    let scenario = Scenario::parse(PARTITION_WINDOW).expect("partition scenario parses");
    let mut engine = ScenarioEngine::new(scenario).unwrap();
    arm(&mut engine);
    engine.run().unwrap();

    let report = engine.into_report();
    assert!(report.violations().is_empty(), "{:?}", report.violations());
    assert_eq!(report.rounds[1].missed_add_friend, 2, "window bites");
    assert_eq!(report.rounds[2].missed_add_friend, 0, "window healed");
}

#[test]
fn same_scenario_text_replays_the_identical_timeline() {
    let run = || {
        let scenario = Scenario::parse(CHURN_WAVE).unwrap();
        let mut engine = ScenarioEngine::new(scenario).unwrap();
        engine.run().unwrap();
        let summaries: Vec<String> = engine.rounds().iter().map(|r| r.summary()).collect();
        (summaries, engine.into_report().client_events)
    };
    let (first_rounds, first_events) = run();
    let (second_rounds, second_events) = run();
    assert_eq!(first_rounds, second_rounds, "round reports replay");
    assert_eq!(first_events, second_events, "event streams replay");
}

#[test]
fn render_parse_round_trip_preserves_execution() {
    // A scenario that went through render() + parse() executes identically
    // to the original — the text format loses nothing the engine reads.
    let original = Scenario::parse(PARTITION_WINDOW).unwrap();
    let reparsed = Scenario::parse(&original.render()).unwrap();
    assert_eq!(original, reparsed);
}

/// Four clients under the `Population` seeding convention (identity
/// `user{i}@example.com`, seed `[32 + i + 1; 32]` over
/// `ClusterConfig::test(32)`), driven by hand over the admin RPCs: one
/// befriending at step 1, one call at step 3, four add-friend + dialing
/// round pairs. Returns each client's events in arrival order.
fn hand_driven_seed_32_run() -> Vec<Vec<ClientEvent>> {
    let mut net = LoopbackTransport::new(Cluster::new(ClusterConfig::test(32)));
    let pkg_keys = net.with_cluster(|c| c.pkg_verifying_keys());
    let mut clients: Vec<Client> = (0..4u8)
        .map(|i| {
            let identity = Identity::new(&format!("user{i}@example.com")).unwrap();
            let mut client = Client::new(
                identity,
                pkg_keys.clone(),
                ClientConfig::default(),
                [32 + i + 1; 32],
            );
            client.register(&mut net).unwrap();
            client
        })
        .collect();
    let target = clients[1].identity().clone();
    clients[0].add_friend(target.clone(), None);
    let mut events: Vec<Vec<ClientEvent>> = vec![Vec::new(); clients.len()];
    for step in 1..=4 {
        if step == 3 {
            clients[0].call(target.clone(), 7).unwrap();
        }
        let round = Round(step);
        drive::begin_add_friend_round(&mut net, round, 4).unwrap();
        for client in &mut clients {
            client.participate_add_friend(&mut net).unwrap();
        }
        drive::close_add_friend_round(&mut net, round).unwrap();
        for (client, events) in clients.iter_mut().zip(&mut events) {
            events.extend(client.process_add_friend_mailbox(&mut net).unwrap());
        }
        drive::begin_dialing_round(&mut net, round, 4).unwrap();
        for (client, events) in clients.iter_mut().zip(&mut events) {
            events.extend(client.participate_dialing(&mut net).unwrap());
        }
        drive::close_dialing_round(&mut net, round).unwrap();
        for (client, events) in clients.iter_mut().zip(&mut events) {
            events.extend(client.process_dialing_mailbox(&mut net).unwrap());
        }
    }
    events
}

#[test]
fn scenario_timeline_reproduces_hand_driven_runs_byte_for_byte() {
    let hand = hand_driven_seed_32_run();
    assert!(
        hand[1].iter().any(ClientEvent::is_incoming_call),
        "the call landed in the reference run"
    );

    // The same workload as a scripted scenario, optionally with a flaky
    // window overlaid on every client mid-timeline.
    let scripted = |with_flaky: bool| {
        let mut builder = ScenarioBuilder::new("equivalence", 32)
            .population(4)
            .steps(4)
            .register(1, 0..4)
            .befriend(1, 0, 1)
            .call(3, 0, 1, 7);
        if with_flaky {
            builder = builder.flaky_window(
                2,
                4,
                0..4,
                FaultProbabilities {
                    drop_request: 0.15,
                    drop_response: 0.1,
                    duplicate_request: 0.1,
                    corrupt_response: 0.0,
                    delay: 0.2,
                    max_delay_ms: 1,
                },
            );
        }
        let mut engine = ScenarioEngine::new(builder.build()).unwrap();
        engine.run().unwrap();
        engine.into_report().client_events
    };

    assert_eq!(scripted(false), hand, "scenario-driven ≡ hand-driven");
    assert_eq!(
        scripted(true),
        hand,
        "a scripted flaky window stays invisible to the event streams"
    );
}
