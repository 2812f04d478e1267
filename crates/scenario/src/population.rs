//! A lazily materialized population of simulated clients.
//!
//! A [`Population`] holds one [`Handle`] per population index — a few dozen
//! bytes each, so a 100k-client population costs megabytes, not the gigabytes
//! that 100k full keywheel states would. A handle only materializes a real
//! [`Client`] (long-term keys, keywheel table, its own fault-injectable
//! transport) when a scripted `register` event touches its index; everything
//! the script never touches stays a stub. PKG verification keys are fetched
//! once and shared.
//!
//! [`Population::register`] defines the seeding convention: identity
//! `user{i}@example.com`, client seed `[seed8.wrapping_add(i as u8 + 1); 32]`
//! over `ClusterConfig::test(seed8)`. A scenario-driven run is therefore
//! byte-identical to a hand-driven run of the same seed and clients, which
//! `tests/scenario_smoke.rs` asserts.

use alpenhorn::{
    Client, ClientConfig, ClientError, FaultPlan, FaultyTransport, LoopbackTransport, RetryPolicy,
};
use alpenhorn_ibe::sig::VerifyingKey;
use alpenhorn_wire::Identity;

/// The lightweight per-index state; see the module docs.
pub struct Handle {
    /// The materialized client, present only while registered.
    pub(crate) client: Option<Box<Client>>,
    /// Whether the index is currently registered with the coordinator.
    pub(crate) registered: bool,
    /// When set, the client sleeps (skips rounds) until this step.
    pub(crate) asleep_until: Option<u64>,
    /// Whether a scripted partition window is currently open for this client.
    pub(crate) partitioned: bool,
    /// Whether a scripted flaky window is currently open for this client.
    pub(crate) flaky: bool,
    /// The client's own fault-injectable view of the shared deployment,
    /// created at materialization and kept across deregistration so call
    /// indices stay monotonic.
    pub(crate) transport: Option<FaultyTransport<LoopbackTransport>>,
}

impl Handle {
    fn stub() -> Self {
        Handle {
            client: None,
            registered: false,
            asleep_until: None,
            partitioned: false,
            flaky: false,
            transport: None,
        }
    }

    /// Whether the handle currently carries a registered, materialized
    /// client.
    pub fn is_registered(&self) -> bool {
        self.registered
    }

    /// Whether the client is asleep at `step`.
    pub fn is_asleep(&self, step: u64) -> bool {
        matches!(self.asleep_until, Some(until) if step < until)
    }

    /// Whether a scripted partition or flaky window is open on this client's
    /// link (participation failures are expected, not scenario bugs).
    pub fn link_is_disturbed(&self) -> bool {
        self.partitioned || self.flaky
    }

    /// The materialized client and its transport, for driving protocol
    /// rounds. `None` until registered.
    pub fn client_and_transport(
        &mut self,
    ) -> Option<(&mut Client, &mut FaultyTransport<LoopbackTransport>)> {
        match (&mut self.client, &mut self.transport) {
            (Some(client), Some(transport)) => Some((client, transport)),
            _ => None,
        }
    }

    /// The materialized client, read-only.
    pub fn client(&self) -> Option<&Client> {
        self.client.as_deref()
    }

    /// The client's fault-injection transport, if materialized.
    pub fn transport_mut(&mut self) -> Option<&mut FaultyTransport<LoopbackTransport>> {
        self.transport.as_mut()
    }
}

/// The full population: shared PKG keys plus one [`Handle`] per index.
pub struct Population {
    seed: u64,
    pkg_keys: Vec<VerifyingKey>,
    handles: Vec<Handle>,
}

impl Population {
    /// Builds `size` stub handles over a deployment reachable through `net`
    /// (the PKG keys are fetched once here). No client state is
    /// materialized yet.
    pub fn new(seed: u64, size: usize, net: &LoopbackTransport) -> Self {
        let pkg_keys = net.with_cluster(|c| c.pkg_verifying_keys());
        Population {
            seed,
            pkg_keys,
            handles: (0..size).map(|_| Handle::stub()).collect(),
        }
    }

    /// Population size (registered or not).
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Number of currently registered clients.
    pub fn registered_count(&self) -> usize {
        self.handles.iter().filter(|h| h.registered).count()
    }

    /// The deterministic identity of population index `i` (exists whether or
    /// not the index was ever registered).
    pub fn identity(i: usize) -> Identity {
        Identity::new(&format!("user{i}@example.com")).expect("derived identity is valid")
    }

    /// The handle at `i`.
    pub fn handle(&self, i: usize) -> &Handle {
        &self.handles[i]
    }

    /// The handle at `i`, mutably.
    pub fn handle_mut(&mut self, i: usize) -> &mut Handle {
        &mut self.handles[i]
    }

    /// Indices of all registered clients, in index order — the deterministic
    /// participant iteration order for a round.
    pub fn registered_indices(&self) -> Vec<usize> {
        (0..self.handles.len())
            .filter(|&i| self.handles[i].registered)
            .collect()
    }

    /// Materializes (if needed) and registers client `i`. Registering an
    /// already-registered index is a no-op, so overlapping churn waves
    /// compose.
    pub fn register(&mut self, i: usize, net: &LoopbackTransport) -> Result<(), ClientError> {
        let seed8 = self.seed as u8;
        let handle = &mut self.handles[i];
        if handle.registered {
            return Ok(());
        }
        if handle.client.is_none() {
            // The seeding convention; see module docs.
            let mut client = Client::new(
                Self::identity(i),
                self.pkg_keys.clone(),
                ClientConfig::default(),
                [seed8.wrapping_add(i as u8 + 1); 32],
            );
            client.set_retry_policy(RetryPolicy::aggressive_test());
            handle.client = Some(Box::new(client));
        }
        if handle.transport.is_none() {
            // Per-client fault wrapper over the shared deployment; quiet
            // until a scripted window opens. The plan seed folds the client
            // index in so concurrent flaky windows draw independent streams.
            let plan = FaultPlan::quiet(self.seed.wrapping_mul(0x0100_0000_01b3) ^ i as u64);
            handle.transport = Some(FaultyTransport::new(net.clone(), plan));
        }
        let (client, transport) = handle.client_and_transport().expect("just materialized");
        client.register(transport)?;
        handle.registered = true;
        Ok(())
    }

    /// Deregisters client `i` and drops its materialized state (the
    /// departing half of churn). The transport handle is kept so a later
    /// re-registration continues the same fault-plan call sequence.
    /// Deregistering an unregistered index is a no-op.
    pub fn deregister(&mut self, i: usize) -> Result<(), ClientError> {
        let handle = &mut self.handles[i];
        if !handle.registered {
            return Ok(());
        }
        let (client, transport) = handle
            .client_and_transport()
            .expect("registered implies state");
        client.deregister(transport)?;
        handle.registered = false;
        handle.client = None;
        handle.asleep_until = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpenhorn_coordinator::{Cluster, ClusterConfig};

    #[test]
    fn handles_are_lazy_and_registration_is_idempotent() {
        let net = LoopbackTransport::new(Cluster::new(ClusterConfig::test(40)));
        let mut pop = Population::new(40, 10_000, &net);
        assert_eq!(pop.len(), 10_000);
        assert_eq!(pop.registered_count(), 0);
        assert!(
            pop.handle(9_999).client().is_none(),
            "stubs carry no client"
        );

        pop.register(3, &net).unwrap();
        pop.register(3, &net).unwrap();
        assert_eq!(pop.registered_count(), 1);
        assert_eq!(
            pop.handle(3).client().unwrap().identity().as_str(),
            "user3@example.com"
        );

        pop.deregister(3).unwrap();
        assert_eq!(pop.registered_count(), 0);
        assert!(
            pop.handle(3).client().is_none(),
            "state dropped on churn-out"
        );
        // Re-registration materializes a fresh client deterministically —
        // once the PKG's deregistration lockout has elapsed (scenarios
        // script this with an advance-clock event between churn waves).
        net.service().advance_clock(60 * 60 * 24 * 31);
        pop.register(3, &net).unwrap();
        assert_eq!(pop.registered_count(), 1);
    }
}
