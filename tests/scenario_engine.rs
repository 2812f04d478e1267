//! Acceptance tests for the scenario engine at population scale.
//!
//! The headline scenario holds 100,000 simulated clients (lightweight lazy
//! handles; only the scripted actives materialize full state) and composes
//! the three disruptive primitives — a churn wave, a crash-restart storm,
//! and a partition window — on one timeline. It must converge: every
//! surviving client's event stream byte-identical to a same-seed fault-free
//! twin, and the coordinator ledger identical as well. A second run of the
//! same scenario replays the identical timeline.

use alpenhorn_scenario::{
    Action, LedgerConsistency, MailboxConservation, Scenario, ScenarioBuilder, ScenarioEngine,
    SubmissionAccounting, TwinChecker,
};
use alpenhorn_storage::StorageConfig;

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "alpenhorn-scenario-accept-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// 100k population; 40 actives churn in at step 1 and 10 more (at the far
/// end of the index space) at step 2; the coordinator crash-restarts on
/// steps 2, 4, and 5; four idle actives are partitioned for step 3; Zipf
/// traffic plus two scripted calls ride on top.
fn acceptance_scenario() -> Scenario {
    ScenarioBuilder::new("acceptance-100k", 99)
        .population(100_000)
        .steps(6)
        .register(1, 0..40)
        .befriend(1, 0, 1)
        .befriend(1, 2, 3)
        // Zipf targets deliberately exclude the scripted call pairs 0..4: a
        // client sends one real onion per round, so skewed traffic aimed at
        // a caller would queue behind (and delay) its handshake — correct
        // protocol behavior, but not what this timeline wants to measure.
        .at(
            1,
            Action::BefriendZipf {
                initiators: (4..12).into(),
                targets: (12..40).into(),
                exponent: 1.2,
            },
        )
        .register(2, 99_990..100_000)
        .crash_restart(2)
        .partition_window(3, 4, 30..34)
        .call(3, 0, 1, 1)
        .crash_restart(4)
        .crash_restart(5)
        .call(5, 2, 3, 9)
        .build()
}

fn run_acceptance(tag: &str) -> (Vec<String>, Vec<(usize, Vec<alpenhorn::ClientEvent>)>) {
    let dir = temp_dir(tag);
    let scenario = acceptance_scenario();
    let mut engine = ScenarioEngine::with_data_dir(
        scenario,
        &dir,
        StorageConfig {
            checkpoint_every_records: 4096,
        },
    )
    .unwrap();
    let twin = TwinChecker::new(engine.scenario()).unwrap();
    engine.add_checker(Box::new(MailboxConservation));
    engine.add_checker(Box::new(SubmissionAccounting));
    engine.add_checker(Box::new(LedgerConsistency));
    engine.add_checker(Box::new(twin));
    engine.run().unwrap();

    let summaries: Vec<String> = engine.rounds().iter().map(|r| r.summary()).collect();
    assert!(
        engine.rounds().iter().all(|r| r.violations.is_empty()),
        "acceptance scenario must satisfy every invariant: {:#?}",
        engine
            .rounds()
            .iter()
            .flat_map(|r| &r.violations)
            .collect::<Vec<_>>()
    );

    let report = engine.into_report();
    let events: Vec<(usize, Vec<alpenhorn::ClientEvent>)> = report
        .client_events
        .iter()
        .enumerate()
        .filter(|(_, e)| !e.is_empty())
        .map(|(i, e)| (i, e.clone()))
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    (summaries, events)
}

#[test]
fn hundred_k_scenario_composing_churn_crash_and_partition_converges() {
    let (summaries, events) = run_acceptance("main");

    // The twin checker already proved per-step byte-identity of event
    // streams and round counters against the fault-free twin. Sanity-check
    // the shape on top of that.
    assert_eq!(summaries.len(), 6);
    assert!(
        summaries.last().unwrap().contains("next round 7"),
        "ledger advanced once per step across three crashes: {summaries:?}"
    );
    let callees: Vec<usize> = events
        .iter()
        .filter(|(_, e)| {
            e.iter()
                .any(|ev| matches!(ev, alpenhorn::ClientEvent::IncomingCall { .. }))
        })
        .map(|(i, _)| *i)
        .collect();
    assert!(callees.contains(&1), "call at step 3 delivered to client 1");
    assert!(callees.contains(&3), "call at step 5 delivered to client 3");
}

#[test]
fn hundred_k_scenario_replays_identically() {
    let first = run_acceptance("replay-a");
    let second = run_acceptance("replay-b");
    assert_eq!(first.0, second.0, "round summaries replay byte-identically");
    assert_eq!(first.1, second.1, "event streams replay byte-identically");
}

#[test]
fn rate_limit_tokens_are_never_double_spent_across_crashes() {
    let dir = temp_dir("tokens");
    let scenario = ScenarioBuilder::new("token-ledger", 98)
        .population(8)
        .steps(4)
        .rate_limit(64)
        .register(1, 0..8)
        .befriend(1, 0, 1)
        .crash_restart(3)
        .build();
    let mut engine = ScenarioEngine::with_data_dir(
        scenario,
        &dir,
        StorageConfig {
            checkpoint_every_records: 1024,
        },
    )
    .unwrap();
    // LedgerConsistency asserts each step's two rounds spend exactly one
    // token per accepted submission — the step after the crash too.
    engine.add_checker(Box::new(LedgerConsistency));
    engine.run().unwrap();

    let report = engine.into_report();
    assert!(report.violations().is_empty(), "{:?}", report.violations());
    let spent: Vec<Option<usize>> = report.rounds.iter().map(|r| r.spent_tokens).collect();
    assert_eq!(
        spent,
        [Some(8 * 2); 4],
        "eight clients, two submissions per step, every step"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
