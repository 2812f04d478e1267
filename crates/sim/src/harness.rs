//! Scaled-down end-to-end runs against the real in-process cluster.
//!
//! These runs exercise every real code path (registration, key extraction,
//! IBE encryption, onion wrapping, mixing, noise, mailbox building, trial
//! decryption, dial-set scanning) with tens to hundreds of real clients. The
//! benchmark harness uses them both to validate the cost model's shape and
//! to measure the paper's per-operation claims on live protocol traffic.

use std::time::{Duration, Instant};

use alpenhorn::{
    Client, ClientConfig, ClientEvent, FaultPlan, FaultyTransport, InjectedFault,
    LoopbackTransport, RetryPolicy,
};
use alpenhorn_coordinator::{Cluster, ClusterConfig};
use alpenhorn_scenario::drive;
use alpenhorn_wire::{Identity, Round};

/// Result of one end-to-end add-friend round.
#[derive(Debug, Clone)]
pub struct AddFriendRunResult {
    /// Wall-clock time for the mixnet/mailbox processing (server side).
    pub server_time: Duration,
    /// Average wall-clock time per client for mailbox scanning.
    pub client_scan_time: Duration,
    /// Number of friend requests delivered (events observed).
    pub requests_delivered: usize,
    /// Total messages in the final batch (clients + noise).
    pub final_messages: usize,
}

/// Result of one end-to-end dialing round.
#[derive(Debug, Clone)]
pub struct DialingRunResult {
    /// Wall-clock time for the mixnet and dial-set processing (server side).
    pub server_time: Duration,
    /// Average wall-clock time per client for dial-set scanning.
    pub client_scan_time: Duration,
    /// Number of calls delivered.
    pub calls_delivered: usize,
}

/// An in-process population of registered clients attached to one cluster
/// through the loopback transport (the deterministic fast path — no
/// serialization, no sockets).
pub struct SmallDeployment {
    /// The loopback transport wrapping the cluster (PKGs + mixnet + CDN).
    pub net: LoopbackTransport,
    /// The clients, in creation order.
    pub clients: Vec<Client>,
    /// When set, every client RPC goes through this fault-injected view of
    /// the same cluster instead of the clean loopback (see
    /// [`SmallDeployment::with_chaos`]). Admin traffic (round open/close,
    /// inspection) always stays on the clean transport.
    chaos: Option<FaultyTransport<LoopbackTransport>>,
    next_add_friend_round: u64,
    next_dialing_round: u64,
}

impl SmallDeployment {
    /// Builds a deployment with `num_clients` registered clients.
    pub fn new(num_clients: usize, seed: u8) -> Self {
        let mut net = LoopbackTransport::new(Cluster::new(ClusterConfig::test(seed)));
        let pkg_keys = net.with_cluster(|c| c.pkg_verifying_keys());
        let mut clients = Vec::with_capacity(num_clients);
        for i in 0..num_clients {
            let identity = Identity::new(&format!("user{i}@example.com")).expect("valid identity");
            let mut client = Client::new(
                identity,
                pkg_keys.clone(),
                ClientConfig::default(),
                [seed.wrapping_add(i as u8 + 1); 32],
            );
            client.register(&mut net).expect("registration succeeds");
            clients.push(client);
        }
        SmallDeployment {
            net,
            clients,
            chaos: None,
            next_add_friend_round: 1,
            next_dialing_round: 1,
        }
    }

    /// Routes all subsequent client RPCs through a [`FaultyTransport`]
    /// injecting the given deterministic [`FaultPlan`], and arms every
    /// client with `retry` so the run converges despite the faults.
    /// Registration (already done in [`SmallDeployment::new`]) is not
    /// affected. Admin traffic stays clean: the round-driving RPCs are not
    /// retry-idempotent, so a production round driver owns its scheduling.
    pub fn with_chaos(mut self, plan: FaultPlan, retry: RetryPolicy) -> Self {
        self.chaos = Some(FaultyTransport::new(self.net.clone(), plan));
        for client in &mut self.clients {
            client.set_retry_policy(retry.clone());
        }
        self
    }

    /// The faults injected so far (empty when not running under
    /// [`SmallDeployment::with_chaos`]), as `(call index, fault)` pairs.
    pub fn fault_schedule(&self) -> &[(u64, InjectedFault)] {
        self.chaos.as_ref().map_or(&[], |f| f.schedule())
    }

    /// Runs `f` with mutable access to the underlying cluster (server-side
    /// inspection: CDN counters, simulated clock, round statistics).
    pub fn with_cluster<R>(&mut self, f: impl FnOnce(&mut Cluster) -> R) -> R {
        self.net.with_cluster(f)
    }

    /// Identity of client `i`.
    pub fn identity(&self, i: usize) -> Identity {
        self.clients[i].identity().clone()
    }

    /// Runs one add-friend round for every client and returns timing plus all
    /// events indexed by client.
    pub fn run_add_friend_round(&mut self) -> (AddFriendRunResult, Vec<Vec<ClientEvent>>) {
        let round = Round(self.next_add_friend_round);
        self.next_add_friend_round += 1;
        let clients = self.clients.len() as u64;
        // Rounds are driven through the admin RPC surface (not the
        // `with_cluster` escape hatch) so durable deployments journal them.
        drive::begin_add_friend_round(&mut self.net, round, clients).expect("round opens");
        for client in &mut self.clients {
            match &mut self.chaos {
                Some(faulty) => client.participate_add_friend(faulty),
                None => client.participate_add_friend(&mut self.net),
            }
            .expect("participation succeeds");
        }
        let server_start = Instant::now();
        let stats = drive::close_add_friend_round(&mut self.net, round).expect("round closes");
        let server_time = server_start.elapsed();

        let scan_start = Instant::now();
        let mut all_events = Vec::with_capacity(self.clients.len());
        let mut delivered = 0;
        for client in &mut self.clients {
            let events = match &mut self.chaos {
                Some(faulty) => client.process_add_friend_mailbox(faulty),
                None => client.process_add_friend_mailbox(&mut self.net),
            }
            .expect("mailbox scan succeeds");
            delivered += events
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        ClientEvent::FriendRequestReceived { .. }
                            | ClientEvent::FriendConfirmed { .. }
                    )
                })
                .count();
            all_events.push(events);
        }
        let client_scan_time = scan_start.elapsed() / self.clients.len().max(1) as u32;
        (
            AddFriendRunResult {
                server_time,
                client_scan_time,
                requests_delivered: delivered,
                final_messages: stats.final_messages as usize,
            },
            all_events,
        )
    }

    /// Runs one dialing round for every client and returns timing plus events.
    pub fn run_dialing_round(&mut self) -> (DialingRunResult, Vec<Vec<ClientEvent>>) {
        let round = Round(self.next_dialing_round);
        self.next_dialing_round += 1;
        let clients = self.clients.len() as u64;
        drive::begin_dialing_round(&mut self.net, round, clients).expect("round opens");
        let mut all_events: Vec<Vec<ClientEvent>> = Vec::with_capacity(self.clients.len());
        for client in &mut self.clients {
            let mut events = Vec::new();
            if let Some(e) = match &mut self.chaos {
                Some(faulty) => client.participate_dialing(faulty),
                None => client.participate_dialing(&mut self.net),
            }
            .expect("participation succeeds")
            {
                events.push(e);
            }
            all_events.push(events);
        }
        let server_start = Instant::now();
        drive::close_dialing_round(&mut self.net, round).expect("round closes");
        let server_time = server_start.elapsed();

        let scan_start = Instant::now();
        let mut delivered = 0;
        for (client, events) in self.clients.iter_mut().zip(all_events.iter_mut()) {
            let incoming = match &mut self.chaos {
                Some(faulty) => client.process_dialing_mailbox(faulty),
                None => client.process_dialing_mailbox(&mut self.net),
            }
            .expect("scan succeeds");
            delivered += incoming.iter().filter(|e| e.is_incoming_call()).count();
            events.extend(incoming);
        }
        let client_scan_time = scan_start.elapsed() / self.clients.len().max(1) as u32;
        (
            DialingRunResult {
                server_time,
                client_scan_time,
                calls_delivered: delivered,
            },
            all_events,
        )
    }

    /// Establishes friendships pairing client `2i` with client `2i+1`, running
    /// two add-friend rounds. Returns the keywheel start round of the pairs.
    pub fn befriend_pairs(&mut self) -> Round {
        for i in (0..self.clients.len()).step_by(2) {
            if i + 1 < self.clients.len() {
                let target = self.clients[i + 1].identity().clone();
                self.clients[i].add_friend(target, None);
            }
        }
        self.run_add_friend_round();
        let (_, events) = self.run_add_friend_round();
        events
            .iter()
            .flatten()
            .find_map(|e| match e {
                ClientEvent::FriendConfirmed { dialing_round, .. } => Some(*dialing_round),
                _ => None,
            })
            .unwrap_or(Round(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_deployment_end_to_end() {
        let mut deployment = SmallDeployment::new(6, 30);
        let start = deployment.befriend_pairs();
        // All three pairs are confirmed.
        for i in (0..6).step_by(2) {
            let friend = deployment.identity(i + 1);
            assert!(deployment.clients[i].keywheels().contains(&friend));
        }

        // Each even client calls its partner; run dialing rounds up to the
        // keywheel start and count deliveries.
        for i in (0..6).step_by(2) {
            let friend = deployment.identity(i + 1);
            deployment.clients[i].call(friend, 0).unwrap();
        }
        let mut delivered = 0;
        for _ in 0..start.as_u64() {
            let (result, _) = deployment.run_dialing_round();
            delivered += result.calls_delivered;
        }
        assert_eq!(delivered, 3);
    }

    #[test]
    fn chaotic_deployment_matches_clean_run() {
        let run = |chaos: bool| {
            let mut deployment = SmallDeployment::new(4, 32);
            if chaos {
                let plan = FaultPlan {
                    drop_request: 0.15,
                    drop_response: 0.1,
                    duplicate_request: 0.1,
                    delay: 0.2,
                    max_delay_ms: 1,
                    disconnect_at: vec![6],
                    ..FaultPlan::quiet(9)
                };
                deployment = deployment.with_chaos(plan, RetryPolicy::aggressive_test());
            }
            let target = deployment.identity(1);
            deployment.clients[0].add_friend(target, None);
            let (result, events) = deployment.run_add_friend_round();
            (
                result.requests_delivered,
                events,
                deployment.fault_schedule().len(),
            )
        };
        let (clean_delivered, clean_events, clean_faults) = run(false);
        let (chaos_delivered, chaos_events, chaos_faults) = run(true);
        assert_eq!(clean_faults, 0);
        assert!(chaos_faults > 0, "the plan must actually bite");
        assert_eq!(clean_delivered, 1);
        assert_eq!(clean_delivered, chaos_delivered);
        assert_eq!(clean_events, chaos_events, "faults are invisible");
    }

    #[test]
    fn scenario_timeline_reproduces_hand_driven_runs_byte_for_byte() {
        use alpenhorn::FaultProbabilities;
        use alpenhorn_scenario::{ScenarioBuilder, ScenarioEngine};

        // Hand-driven reference: seed 32, one befriending at step 1, one
        // call at step 3, four add-friend + dialing round pairs.
        let mut deployment = SmallDeployment::new(4, 32);
        let target = deployment.identity(1);
        deployment.clients[0].add_friend(target.clone(), None);
        let mut hand: Vec<Vec<ClientEvent>> = vec![Vec::new(); 4];
        for step in 1..=4u64 {
            if step == 3 {
                deployment.clients[0].call(target.clone(), 7).unwrap();
            }
            let (_, af_events) = deployment.run_add_friend_round();
            let (_, dial_events) = deployment.run_dialing_round();
            for (i, events) in af_events.into_iter().enumerate() {
                hand[i].extend(events);
            }
            for (i, events) in dial_events.into_iter().enumerate() {
                hand[i].extend(events);
            }
        }
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

    #[test]
    fn add_friend_round_counts_messages() {
        let mut deployment = SmallDeployment::new(4, 31);
        let target = deployment.identity(1);
        deployment.clients[0].add_friend(target, None);
        let (result, events) = deployment.run_add_friend_round();
        assert!(result.final_messages >= 4, "clients plus noise");
        assert_eq!(result.requests_delivered, 1);
        assert_eq!(events.len(), 4);
    }
}
