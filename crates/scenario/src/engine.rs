//! The stepped scenario engine.
//!
//! A [`ScenarioEngine`] interprets a [`Scenario`] against a real
//! [`CoordinatorService`] deployment reached through the loopback transport:
//! each step applies the actions scheduled for it (churn, befriending,
//! calls, sleeps, fault windows, crashes, mixer compromises), then runs one
//! add-friend round and one dialing round — round number `k` at step `k` —
//! with every awake registered client participating through its own
//! fault-injectable transport. At the end of each step the registered
//! invariant checkers run over a [`RoundContext`] and their violations are
//! recorded (not fatal: a scenario that *should* trip a checker, like a
//! malicious-mixer run, is still stepped to completion so the violation can
//! be asserted on).
//!
//! Everything is a pure function of the scenario (seed included): replaying
//! the same scenario yields byte-identical client event streams, fault
//! schedules, and reports.

use alpenhorn::{Client, ClientError, ClientEvent, LoopbackTransport};
use alpenhorn_cdn::{LoopbackNode, NodeClient};
use alpenhorn_coordinator::service::CoordinatorService;
use alpenhorn_coordinator::{Cluster, ClusterConfig, RateLimitPolicy, ServiceConfig};
use alpenhorn_mixnet::MixAdversary;
use alpenhorn_storage::{StorageConfig, StorageError};
use alpenhorn_wire::rpc::RoundStatsWire;
use alpenhorn_wire::{Round, RoundKind};
use rand::distributions::{Distribution, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::drive;
use crate::invariant::{InvariantChecker, RoundContext, Violation};
use crate::population::Population;
use crate::script::{Action, Scenario};

/// An error from building or stepping a [`ScenarioEngine`].
#[derive(Debug)]
pub enum EngineError {
    /// A client operation failed outside any scripted fault window.
    Client {
        /// Population index of the failing client.
        index: usize,
        /// The underlying client error.
        source: ClientError,
    },
    /// An admin round-driving RPC failed.
    Drive(drive::DriveError),
    /// The scenario scripted a crash-restart but the engine was built
    /// without a durable data directory ([`ScenarioEngine::new`]).
    CrashWithoutDurability {
        /// The step that scripted the crash.
        step: u64,
    },
    /// Durable storage failed during boot or recovery.
    Storage(StorageError),
    /// The scenario itself is malformed (index out of range, action on an
    /// unregistered client, stepping past the end).
    BadScenario(String),
}

impl core::fmt::Display for EngineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EngineError::Client { index, source } => {
                write!(f, "client {index} failed outside a fault window: {source}")
            }
            EngineError::Drive(e) => write!(f, "round driving failed: {e}"),
            EngineError::CrashWithoutDurability { step } => write!(
                f,
                "step {step} scripts crash-restart but the engine has no data directory"
            ),
            EngineError::Storage(e) => write!(f, "durable storage failed: {e}"),
            EngineError::BadScenario(m) => write!(f, "bad scenario: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<drive::DriveError> for EngineError {
    fn from(e: drive::DriveError) -> Self {
        EngineError::Drive(e)
    }
}

/// The structured report for one executed step (one add-friend plus one
/// dialing round).
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// The step (and round number) this report covers.
    pub step: u64,
    /// Registered, awake clients scheduled to participate this step.
    pub participants: usize,
    /// Participants whose add-friend participation failed inside a scripted
    /// fault window.
    pub missed_add_friend: usize,
    /// Participants whose dialing participation failed inside a scripted
    /// fault window (their keywheels were fast-forwarded past the round).
    pub missed_dialing: usize,
    /// Server-reported add-friend round statistics.
    pub add_friend: RoundStatsWire,
    /// Server-reported dialing round statistics.
    pub dialing: RoundStatsWire,
    /// Rate-limit tokens spent into the step's two rounds (`None` when rate
    /// limiting is off).
    pub spent_tokens: Option<usize>,
    /// The coordinator's persistent round counter after the step.
    pub next_round: Round,
    /// Coordinator boots so far (1 = initial; each further increment was a
    /// scripted crash-restart). Zero for ephemeral engines.
    pub restarts: u64,
    /// Invariant violations the checkers reported for this step.
    pub violations: Vec<Violation>,
    /// Registry metrics that grew during this step (`metric{labels}` →
    /// increase), from the process-wide observability registry. Timing
    /// metrics (`_us` histograms) are excluded: wall-clock durations are
    /// non-deterministic, and the report should diff cleanly between two
    /// runs of the same scenario.
    pub metrics_delta: Vec<(String, u64)>,
}

impl RoundReport {
    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "step {}: {} participants ({} af-miss, {} dial-miss), af {}+{}→{}, dial {}+{}→{}, next round {}, {} violation(s)",
            self.step,
            self.participants,
            self.missed_add_friend,
            self.missed_dialing,
            self.add_friend.client_messages,
            self.add_friend.total_noise,
            self.add_friend.final_messages,
            self.dialing.client_messages,
            self.dialing.total_noise,
            self.dialing.final_messages,
            self.next_round.as_u64(),
            self.violations.len(),
        )
    }
}

/// The cumulative result of a scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name.
    pub scenario: String,
    /// Per-step reports, in step order.
    pub rounds: Vec<RoundReport>,
    /// Every client event emitted, indexed by population index.
    pub client_events: Vec<Vec<ClientEvent>>,
}

impl ScenarioReport {
    /// All violations across all steps, flattened.
    pub fn violations(&self) -> Vec<&Violation> {
        self.rounds.iter().flat_map(|r| &r.violations).collect()
    }
}

/// Executes a [`Scenario`] step by step; see the module docs.
pub struct ScenarioEngine {
    scenario: Scenario,
    net: LoopbackTransport,
    durable: Option<DurableState>,
    population: Population,
    sampler: StdRng,
    next_step: u64,
    paused: bool,
    checkers: Vec<Box<dyn InvariantChecker>>,
    rounds: Vec<RoundReport>,
    client_events: Vec<Vec<ClientEvent>>,
    last_step_events: Vec<(usize, Vec<ClientEvent>)>,
    cdn_nodes: Vec<LoopbackNode>,
}

/// Where a durable engine's coordinator keeps its state, and how often it
/// has booted from it (1 = initial; each further boot is a scripted
/// crash-restart).
struct DurableState {
    data_dir: std::path::PathBuf,
    storage: StorageConfig,
    boots: u64,
}

impl DurableState {
    /// Recovers a coordinator for `scenario` from the data dir, on a cluster
    /// freshly built from the scenario's seed (long-term keys re-derive from
    /// it). The previous service must already be dropped, so its WAL handle
    /// is closed before the directory is reopened.
    fn boot(&mut self, scenario: &Scenario) -> Result<CoordinatorService, StorageError> {
        let (service, _) = CoordinatorService::with_storage(
            Cluster::new(ClusterConfig::test(scenario.seed as u8)),
            service_config(scenario),
            &self.data_dir,
            self.storage,
        )?;
        self.boots += 1;
        Ok(service)
    }
}

fn service_config(scenario: &Scenario) -> ServiceConfig {
    ServiceConfig {
        rate_limit: scenario
            .rate_limit_budget
            .map(|budget_per_day| RateLimitPolicy { budget_per_day }),
    }
}

impl ScenarioEngine {
    /// Builds an ephemeral engine (no durability; [`Action::CrashRestart`]
    /// is an error). The deployment seed is `scenario.seed as u8` over
    /// [`ClusterConfig::test`], the [`Population`] seeding convention.
    pub fn new(scenario: Scenario) -> Result<Self, EngineError> {
        let config = ClusterConfig::test(scenario.seed as u8);
        let service =
            CoordinatorService::with_config(Cluster::new(config), service_config(&scenario));
        Self::build(scenario, LoopbackTransport::with_service(service), None)
    }

    /// Builds an engine whose coordinator journals to `data_dir`, enabling
    /// scripted [`Action::CrashRestart`] events (drop the service, recover
    /// it from disk, as a supervisor restarting a dead `alpenhornd` would).
    pub fn with_data_dir(
        scenario: Scenario,
        data_dir: impl Into<std::path::PathBuf>,
        storage: StorageConfig,
    ) -> Result<Self, EngineError> {
        let mut durable = DurableState {
            data_dir: data_dir.into(),
            storage,
            boots: 0,
        };
        let service = durable.boot(&scenario).map_err(EngineError::Storage)?;
        Self::build(
            scenario,
            LoopbackTransport::with_service(service),
            Some(durable),
        )
    }

    fn build(
        scenario: Scenario,
        net: LoopbackTransport,
        durable: Option<DurableState>,
    ) -> Result<Self, EngineError> {
        for (step, action) in &scenario.events {
            if *step == 0 || *step > scenario.steps {
                return Err(EngineError::BadScenario(format!(
                    "event {action:?} scheduled at step {step}, outside 1..={}",
                    scenario.steps
                )));
            }
        }
        let population = Population::new(scenario.seed, scenario.population, &net);
        let client_events = (0..scenario.population).map(|_| Vec::new()).collect();
        Ok(ScenarioEngine {
            sampler: StdRng::seed_from_u64(scenario.seed ^ 0x5ce7_a210_7a61_e57a),
            scenario,
            net,
            durable,
            population,
            next_step: 1,
            paused: false,
            checkers: Vec::new(),
            rounds: Vec::new(),
            client_events,
            last_step_events: Vec::new(),
            cdn_nodes: Vec::new(),
        })
    }

    /// Attaches an in-process erasure-coded CDN fleet of `node_count`
    /// [`LoopbackNode`]s to the coordinator (shards split `data` + `parity`).
    /// The coordinator then offloads every closed round's mailboxes to the
    /// fleet as erasure-coded shards, and [`Action::CdnNodeDown`] /
    /// [`Action::CdnNodeUp`] become meaningful levers. Publishing is
    /// best-effort: node outages cost offload, never round completion, which
    /// is exactly the property scenarios assert by comparing against the
    /// fault-free twin.
    pub fn attach_cdn_fleet(&mut self, node_count: usize, data: usize, parity: usize) {
        let handles: Vec<LoopbackNode> = (0..node_count).map(|_| LoopbackNode::new()).collect();
        let clients: Vec<Box<dyn NodeClient>> = handles
            .iter()
            .map(|h| Box::new(h.clone_handle()) as Box<dyn NodeClient>)
            .collect();
        self.net
            .with_cluster(|c| c.connect_cdn_nodes(clients, data, parity));
        self.cdn_nodes = handles;
    }

    /// Registers an invariant checker, evaluated at every step boundary.
    pub fn add_checker(&mut self, checker: Box<dyn InvariantChecker>) {
        self.checkers.push(checker);
    }

    /// The scenario being executed.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The next step [`ScenarioEngine::step`] would execute (1-based).
    pub fn next_step(&self) -> u64 {
        self.next_step
    }

    /// Whether the scenario has run to completion.
    pub fn finished(&self) -> bool {
        self.next_step > self.scenario.steps
    }

    /// Pauses the engine: [`ScenarioEngine::run_until`] and
    /// [`ScenarioEngine::run`] stop before their next step. Explicit
    /// [`ScenarioEngine::step`] calls still work — single-stepping a paused
    /// engine is the inspection workflow.
    pub fn pause(&mut self) {
        self.paused = true;
    }

    /// Resumes after [`ScenarioEngine::pause`].
    pub fn resume(&mut self) {
        self.paused = false;
    }

    /// The population (read access for assertions).
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// The loopback transport into the deployment (admin/inspection view).
    pub fn net(&self) -> &LoopbackTransport {
        &self.net
    }

    /// Per-step reports so far.
    pub fn rounds(&self) -> &[RoundReport] {
        &self.rounds
    }

    /// The `(population index, events)` pairs the most recent step emitted,
    /// in participation order, non-empty entries only. This is what a
    /// convergence checker compares against its fault-free twin.
    pub fn last_step_events(&self) -> &[(usize, Vec<ClientEvent>)] {
        &self.last_step_events
    }

    /// All events each client has emitted so far, by population index.
    pub fn client_events(&self) -> &[Vec<ClientEvent>] {
        &self.client_events
    }

    /// Consumes the engine into its cumulative report.
    pub fn into_report(self) -> ScenarioReport {
        ScenarioReport {
            scenario: self.scenario.name.clone(),
            rounds: self.rounds,
            client_events: self.client_events,
        }
    }

    /// Runs steps until `step` (inclusive) has executed, stopping early if
    /// paused.
    pub fn run_until(&mut self, step: u64) -> Result<(), EngineError> {
        while self.next_step <= step.min(self.scenario.steps) && !self.paused {
            self.step()?;
        }
        Ok(())
    }

    /// Runs the remaining steps to the scenario's end (honoring pause).
    pub fn run(&mut self) -> Result<(), EngineError> {
        self.run_until(self.scenario.steps)
    }

    /// Executes one step: wake sleepers, apply the step's actions, run the
    /// add-friend and dialing rounds, evaluate checkers. Returns the step's
    /// report.
    pub fn step(&mut self) -> Result<&RoundReport, EngineError> {
        let step = self.next_step;
        if step > self.scenario.steps {
            return Err(EngineError::BadScenario(format!(
                "stepping past the scenario's {} steps",
                self.scenario.steps
            )));
        }
        self.next_step += 1;
        let round = Round(step);
        let metrics_before = alpenhorn_obs::global().snapshot();

        // 1. Wake sleepers whose time has come: fast-forward their keywheels
        // to the current round so forward secrecy holds over the gap.
        for i in self.population.registered_indices() {
            let handle = self.population.handle_mut(i);
            if matches!(handle.asleep_until, Some(until) if step >= until) {
                handle.asleep_until = None;
                if let Some((client, _)) = handle.client_and_transport() {
                    client.fast_forward(round);
                }
            }
        }

        // 2. Apply the step's scripted actions, in timeline order.
        let actions: Vec<Action> = self.scenario.actions_at(step).cloned().collect();
        for action in actions {
            self.apply(step, action)?;
        }

        // 3. One add-friend and one dialing round, both numbered `step`. The
        // spent-token count is read after the actions: a crash-restart
        // resets it.
        let spent_before = self.net.service().spent_token_count();
        let participants: Vec<usize> = self
            .population
            .registered_indices()
            .into_iter()
            .filter(|&i| !self.population.handle(i).is_asleep(step))
            .collect();
        let expected = participants.len() as u64;
        let mut step_events: Vec<(usize, Vec<ClientEvent>)> = Vec::new();
        let mut admin = self.net.clone();

        drive::begin_add_friend_round(&mut admin, round, expected)?;
        let mut af_ok: Vec<usize> = Vec::with_capacity(participants.len());
        let mut missed_add_friend = 0usize;
        for &i in &participants {
            match self.try_client(i, |client, net| client.participate_add_friend(net))? {
                Some(_) => af_ok.push(i),
                None => missed_add_friend += 1,
            }
        }
        let add_friend = drive::close_add_friend_round(&mut admin, round)?;
        for &i in &af_ok {
            match self.try_client(i, |client, net| client.process_add_friend_mailbox(net))? {
                Some(events) if !events.is_empty() => step_events.push((i, events)),
                _ => {}
            }
        }

        drive::begin_dialing_round(&mut admin, round, expected)?;
        let mut dial_ok: Vec<usize> = Vec::with_capacity(participants.len());
        let mut missed_dialing = 0usize;
        for &i in &participants {
            match self.try_client(i, |client, net| client.participate_dialing(net))? {
                Some(event) => {
                    dial_ok.push(i);
                    if let Some(e) = event {
                        push_events(&mut step_events, i, vec![e]);
                    }
                }
                None => {
                    missed_dialing += 1;
                    // §5.1: give up on the round but keep ratcheting, so the
                    // client's forward secrecy (and its keywheel position
                    // relative to the fault-free twin) is preserved.
                    if let Some((client, _)) = self.population.handle_mut(i).client_and_transport()
                    {
                        client.abandon_dialing_round(round);
                    }
                }
            }
        }
        let dialing = drive::close_dialing_round(&mut admin, round)?;
        for &i in &dial_ok {
            match self.try_client(i, |client, net| client.process_dialing_mailbox(net))? {
                Some(events) if !events.is_empty() => push_events(&mut step_events, i, events),
                Some(_) => {}
                None => {
                    if let Some((client, _)) = self.population.handle_mut(i).client_and_transport()
                    {
                        client.abandon_dialing_round(round);
                    }
                }
            }
        }

        // 4. Build the report and evaluate invariant checkers.
        let (spent_tokens, next_round) = {
            let service = self.net.service();
            let spent = service.spent_token_count().zip(spent_before);
            (
                spent.map(|(after, before)| after - before),
                service.next_round(),
            )
        };
        let mut report = RoundReport {
            step,
            participants: participants.len(),
            missed_add_friend,
            missed_dialing,
            add_friend,
            dialing,
            spent_tokens,
            next_round,
            restarts: self.durable.as_ref().map_or(0, |d| d.boots),
            violations: Vec::new(),
            metrics_delta: metrics_delta_since(&metrics_before),
        };
        let ctx = RoundContext {
            step,
            round,
            participants: participants.len(),
            missed_add_friend,
            missed_dialing,
            add_friend,
            dialing,
            spent_tokens,
            next_round,
            step_events: &step_events,
        };
        for checker in &mut self.checkers {
            if let Err(message) = checker.check(&ctx) {
                report.violations.push(Violation {
                    checker: checker.name(),
                    message,
                });
            }
        }

        for (i, events) in &step_events {
            self.client_events[*i].extend(events.iter().cloned());
        }
        self.last_step_events = step_events;
        self.rounds.push(report);
        Ok(self.rounds.last().expect("just pushed"))
    }

    /// Runs a client protocol operation through the client's own transport.
    /// `Ok(Some(v))` on success; `Ok(None)` when the operation failed but a
    /// scripted fault window is open on the client's link (an expected
    /// miss); `Err` otherwise.
    fn try_client<V>(
        &mut self,
        i: usize,
        f: impl FnOnce(
            &mut Client,
            &mut alpenhorn::FaultyTransport<LoopbackTransport>,
        ) -> Result<V, ClientError>,
    ) -> Result<Option<V>, EngineError> {
        let handle = self.population.handle_mut(i);
        let disturbed = handle.link_is_disturbed();
        let (client, transport) = handle
            .client_and_transport()
            .expect("participants are registered");
        match f(client, transport) {
            Ok(v) => Ok(Some(v)),
            Err(_) if disturbed => {
                // Clear any poisoned-connection state so the client can talk
                // again the moment its window heals.
                let _ = alpenhorn::Transport::reset(transport);
                Ok(None)
            }
            Err(source) => Err(EngineError::Client { index: i, source }),
        }
    }

    fn apply(&mut self, step: u64, action: Action) -> Result<(), EngineError> {
        let population = self.population.len();
        let check_range = |r: &crate::script::ClientRange| -> Result<(), EngineError> {
            if r.end > population {
                return Err(EngineError::BadScenario(format!(
                    "client range {r} exceeds population {population}"
                )));
            }
            Ok(())
        };
        match action {
            Action::Register { clients } => {
                check_range(&clients)?;
                for i in clients.iter() {
                    self.population
                        .register(i, &self.net)
                        .map_err(|source| EngineError::Client { index: i, source })?;
                }
            }
            Action::Deregister { clients } => {
                check_range(&clients)?;
                for i in clients.iter() {
                    self.population
                        .deregister(i)
                        .map_err(|source| EngineError::Client { index: i, source })?;
                }
            }
            Action::Befriend { initiator, target } => {
                self.add_friend(initiator, target)?;
            }
            Action::BefriendZipf {
                initiators,
                targets,
                exponent,
            } => {
                check_range(&initiators)?;
                check_range(&targets)?;
                if targets.is_empty() {
                    return Err(EngineError::BadScenario(
                        "befriend-zipf with an empty target range".into(),
                    ));
                }
                let zipf = Zipf::new(targets.len() as u64, exponent).map_err(|e| {
                    EngineError::BadScenario(format!("befriend-zipf exponent: {e}"))
                })?;
                for i in initiators.iter() {
                    // Sample before any skip so the rng stream is identical
                    // however registration state differs between runs.
                    let rank = zipf.sample(&mut self.sampler) as usize;
                    let target = targets.start + (rank - 1);
                    if target == i || !self.population.handle(i).is_registered() {
                        continue;
                    }
                    self.add_friend(i, target)?;
                }
            }
            Action::Call {
                caller,
                callee,
                intent,
            } => {
                let callee_identity = Population::identity(callee);
                let handle = self.population.handle_mut(caller);
                let Some((client, _)) = handle.client_and_transport() else {
                    return Err(EngineError::BadScenario(format!(
                        "call from unregistered client {caller}"
                    )));
                };
                client
                    .call(callee_identity, intent)
                    .map_err(|source| EngineError::Client {
                        index: caller,
                        source,
                    })?;
            }
            Action::Sleep {
                clients,
                until_step,
            } => {
                check_range(&clients)?;
                for i in clients.iter() {
                    if self.population.handle(i).is_registered() {
                        self.population.handle_mut(i).asleep_until = Some(until_step);
                    }
                }
            }
            Action::BeginPartition { clients } => {
                check_range(&clients)?;
                for i in clients.iter() {
                    let handle = self.population.handle_mut(i);
                    if let Some(t) = handle.transport_mut() {
                        t.begin_partition();
                        handle.partitioned = true;
                    }
                }
            }
            Action::EndPartition { clients } => {
                check_range(&clients)?;
                for i in clients.iter() {
                    let handle = self.population.handle_mut(i);
                    if let Some(t) = handle.transport_mut() {
                        t.end_partition();
                        handle.partitioned = false;
                    }
                }
            }
            Action::BeginFlaky { clients, faults } => {
                check_range(&clients)?;
                for i in clients.iter() {
                    let handle = self.population.handle_mut(i);
                    if let Some(t) = handle.transport_mut() {
                        t.begin_flaky(faults);
                        handle.flaky = true;
                    }
                }
            }
            Action::EndFlaky { clients } => {
                check_range(&clients)?;
                for i in clients.iter() {
                    let handle = self.population.handle_mut(i);
                    if let Some(t) = handle.transport_mut() {
                        t.end_flaky();
                        handle.flaky = false;
                    }
                }
            }
            Action::CrashRestart => {
                let Some(durable) = self.durable.as_mut() else {
                    return Err(EngineError::CrashWithoutDurability { step });
                };
                let scenario = &self.scenario;
                let mut failure = None;
                self.net.restart_with(|| match durable.boot(scenario) {
                    Ok(service) => service,
                    Err(e) => {
                        failure = Some(e);
                        CoordinatorService::new(Cluster::new(ClusterConfig::test(0)))
                    }
                });
                if let Some(e) = failure {
                    return Err(EngineError::Storage(e));
                }
            }
            Action::MaliciousMixer {
                server,
                misbehavior,
            } => {
                let adversary = MixAdversary {
                    server,
                    misbehavior,
                    seed: self.scenario.seed ^ 0xad5e_ad5e,
                };
                self.net.with_cluster(|c| {
                    c.set_mix_adversary(RoundKind::AddFriend, Some(adversary));
                    c.set_mix_adversary(RoundKind::Dialing, Some(adversary));
                });
            }
            Action::HonestMixer => {
                self.net.with_cluster(|c| {
                    c.set_mix_adversary(RoundKind::AddFriend, None);
                    c.set_mix_adversary(RoundKind::Dialing, None);
                });
            }
            Action::MixerCrash { server } => {
                self.net.with_cluster(|c| c.disconnect_mixer(server));
            }
            Action::CdnNodeDown { node } => {
                self.cdn_node(step, node)?.set_alive(false);
            }
            Action::CdnNodeUp { node } => {
                self.cdn_node(step, node)?.set_alive(true);
            }
            Action::AdvanceClock { seconds } => {
                self.net.service().advance_clock(seconds);
            }
        }
        Ok(())
    }

    fn cdn_node(&self, step: u64, node: usize) -> Result<&LoopbackNode, EngineError> {
        if self.cdn_nodes.is_empty() {
            return Err(EngineError::BadScenario(format!(
                "step {step} scripts a CDN node event but no fleet is attached \
                 (call attach_cdn_fleet before running)"
            )));
        }
        self.cdn_nodes.get(node).ok_or_else(|| {
            EngineError::BadScenario(format!(
                "step {step} addresses CDN node {node}, but the fleet has {} nodes",
                self.cdn_nodes.len()
            ))
        })
    }

    fn add_friend(&mut self, initiator: usize, target: usize) -> Result<(), EngineError> {
        let target_identity = Population::identity(target);
        let handle = self.population.handle_mut(initiator);
        let Some((client, _)) = handle.client_and_transport() else {
            return Err(EngineError::BadScenario(format!(
                "befriend from unregistered client {initiator}"
            )));
        };
        client.add_friend(target_identity, None);
        Ok(())
    }
}

/// The registry activity since `before`, with wall-clock timing excluded: a
/// histogram named `*_us` snapshots as `*_us_count`/`*_us_sum` keys, and both
/// carry (or count) non-deterministic durations, so they are dropped from
/// the report while event counters pass through.
fn metrics_delta_since(before: &alpenhorn_obs::MetricsSnapshot) -> Vec<(String, u64)> {
    alpenhorn_obs::global()
        .snapshot()
        .delta_since(before)
        .into_iter()
        .filter(|(key, _)| {
            let name = key.split('{').next().unwrap_or(key);
            !(name.ends_with("_us") || name.ends_with("_us_count") || name.ends_with("_us_sum"))
        })
        .collect()
}

fn push_events(
    step_events: &mut Vec<(usize, Vec<ClientEvent>)>,
    i: usize,
    events: Vec<ClientEvent>,
) {
    if let Some((_, existing)) = step_events.iter_mut().find(|(j, _)| *j == i) {
        existing.extend(events);
    } else {
        step_events.push((i, events));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariant::{
        LedgerConsistency, MailboxConservation, SubmissionAccounting, TwinChecker,
    };
    use crate::script::ScenarioBuilder;
    use alpenhorn_mixnet::MixMisbehavior;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "alpenhorn-scenario-test-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn standard_checkers(engine: &mut ScenarioEngine) {
        let twin = TwinChecker::new(engine.scenario()).expect("twin builds");
        engine.add_checker(Box::new(MailboxConservation));
        engine.add_checker(Box::new(SubmissionAccounting));
        engine.add_checker(Box::new(LedgerConsistency));
        engine.add_checker(Box::new(twin));
    }

    #[test]
    fn clean_run_satisfies_all_invariants_and_delivers_a_call() {
        let scenario = ScenarioBuilder::new("clean", 71)
            .population(6)
            .steps(4)
            .register(1, 0..6)
            .befriend(1, 0, 1)
            .call(3, 0, 1, 9)
            .build();
        let mut engine = ScenarioEngine::new(scenario).unwrap();
        standard_checkers(&mut engine);
        engine.run().unwrap();

        let report = engine.into_report();
        assert_eq!(report.rounds.len(), 4);
        assert!(report.violations().is_empty(), "{:?}", report.violations());
        assert!(
            report.client_events[1]
                .iter()
                .any(|e| matches!(e, ClientEvent::IncomingCall { .. })),
            "callee saw the dial: {:?}",
            report.client_events[1]
        );
    }

    #[test]
    fn crash_restart_without_durability_is_a_typed_error() {
        let scenario = ScenarioBuilder::new("ephemeral-crash", 72)
            .population(2)
            .steps(2)
            .register(1, 0..2)
            .crash_restart(2)
            .build();
        let mut engine = ScenarioEngine::new(scenario).unwrap();
        engine.step().unwrap();
        assert!(matches!(
            engine.step(),
            Err(EngineError::CrashWithoutDurability { step: 2 })
        ));
    }

    #[test]
    fn crash_restart_is_invisible_to_clients_and_the_ledger() {
        let dir = temp_dir("crash");
        let scenario = ScenarioBuilder::new("crash-mid-timeline", 73)
            .population(4)
            .steps(4)
            .register(1, 0..4)
            .befriend(1, 2, 3)
            .crash_restart(3)
            .call(4, 2, 3, 1)
            .build();
        let mut engine = ScenarioEngine::with_data_dir(
            scenario,
            &dir,
            alpenhorn_storage::StorageConfig {
                checkpoint_every_records: 1024,
            },
        )
        .unwrap();
        standard_checkers(&mut engine);
        engine.run().unwrap();

        let report = engine.into_report();
        assert!(report.violations().is_empty(), "{:?}", report.violations());
        assert_eq!(report.rounds[3].restarts, 2, "boot plus one scripted crash");
        assert!(
            report.client_events[3]
                .iter()
                .any(|e| matches!(e, ClientEvent::IncomingCall { .. })),
            "call delivered across the crash"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partitioned_idle_clients_miss_rounds_but_streams_converge() {
        let scenario = ScenarioBuilder::new("partition", 74)
            .population(6)
            .steps(3)
            .register(1, 0..6)
            .befriend(1, 0, 1)
            .partition_window(2, 3, 4..6)
            .build();
        let mut engine = ScenarioEngine::new(scenario).unwrap();
        standard_checkers(&mut engine);
        engine.run().unwrap();

        let report = engine.into_report();
        assert!(report.violations().is_empty(), "{:?}", report.violations());
        assert_eq!(report.rounds[1].missed_add_friend, 2);
        assert_eq!(report.rounds[1].missed_dialing, 2);
        assert_eq!(report.rounds[2].missed_add_friend, 0, "window healed");
    }

    #[test]
    fn malicious_mixer_breaks_conservation_until_replaced() {
        let scenario = ScenarioBuilder::new("mixer", 75)
            .population(4)
            .steps(3)
            .register(1, 0..4)
            .at(
                2,
                Action::MaliciousMixer {
                    server: 1,
                    misbehavior: MixMisbehavior::DropOnions { percent: 60 },
                },
            )
            .at(3, Action::HonestMixer)
            .build();
        let mut engine = ScenarioEngine::new(scenario).unwrap();
        engine.add_checker(Box::new(MailboxConservation));
        engine.run().unwrap();

        let rounds = engine.rounds();
        assert!(rounds[0].violations.is_empty(), "honest step clean");
        assert!(
            rounds[1]
                .violations
                .iter()
                .any(|v| v.checker == "mailbox-conservation"),
            "dropping mixer must trip conservation: {:?}",
            rounds[1]
        );
        assert!(rounds[2].violations.is_empty(), "honest again");
    }

    #[test]
    fn cdn_node_outage_never_disturbs_the_round_stream() {
        // A fleet node dying mid-run (and a mixer transport blip) must be
        // invisible to clients: shard offload is best-effort and the origin
        // CDN keeps the authoritative copy, so the event streams match the
        // fault-free twin's byte for byte.
        let scenario = ScenarioBuilder::new("cdn-outage", 78)
            .population(4)
            .steps(4)
            .register(1, 0..4)
            .befriend(1, 0, 1)
            .call(3, 0, 1, 2)
            .cdn_node_outage(2, 4, 3)
            .mixer_crash(3, 1)
            .build();
        let mut engine = ScenarioEngine::new(scenario.clone()).unwrap();
        engine.attach_cdn_fleet(4, 3, 1);
        standard_checkers(&mut engine);
        engine.run().unwrap();
        let faulty = engine.into_report();
        assert!(faulty.violations().is_empty(), "{:?}", faulty.violations());

        let mut twin = ScenarioEngine::new(scenario.fault_free_twin()).unwrap();
        twin.attach_cdn_fleet(4, 3, 1);
        twin.run().unwrap();
        assert_eq!(faulty.client_events, twin.into_report().client_events);
    }

    #[test]
    fn cdn_node_event_without_fleet_is_a_bad_scenario() {
        let scenario = ScenarioBuilder::new("no-fleet", 79)
            .population(2)
            .steps(2)
            .register(1, 0..2)
            .at(2, Action::CdnNodeDown { node: 0 })
            .build();
        let mut engine = ScenarioEngine::new(scenario).unwrap();
        let err = engine.run().unwrap_err();
        assert!(matches!(err, EngineError::BadScenario(_)), "{err}");
    }

    #[test]
    fn pause_halts_run_but_allows_single_stepping() {
        let scenario = ScenarioBuilder::new("pause", 76)
            .population(2)
            .steps(3)
            .register(1, 0..2)
            .build();
        let mut engine = ScenarioEngine::new(scenario).unwrap();
        engine.pause();
        engine.run().unwrap();
        assert_eq!(engine.rounds().len(), 0, "paused run does nothing");
        engine.step().unwrap();
        assert_eq!(engine.rounds().len(), 1, "explicit stepping still works");
        engine.resume();
        engine.run().unwrap();
        assert!(engine.finished());
        assert_eq!(engine.rounds().len(), 3);
    }

    #[test]
    fn sleeping_clients_fast_forward_and_rejoin() {
        let scenario = ScenarioBuilder::new("mobile", 77)
            .population(4)
            .steps(5)
            .register(1, 0..4)
            .befriend(1, 0, 1)
            .sleep(3, 1..2, 5)
            .call(4, 0, 1, 2)
            .build();
        let mut engine = ScenarioEngine::new(scenario).unwrap();
        standard_checkers(&mut engine);
        engine.run().unwrap();

        let report = engine.into_report();
        assert!(report.violations().is_empty(), "{:?}", report.violations());
        assert_eq!(report.rounds[2].participants, 3, "client 1 slept step 3");
        assert_eq!(report.rounds[4].participants, 4, "client 1 woke at step 5");
    }
}
