//! Deterministic fault injection for transports.
//!
//! [`FaultyTransport`] wraps any [`Transport`] and perturbs its calls
//! according to a [`FaultPlan`] — a declarative description (data, not code)
//! of request/response drops, injected delays, disconnects mid-call, frame
//! corruption, duplicate deliveries, and scripted partition windows. Because
//! it wraps the `Transport` trait, the same plan runs over the in-process
//! loopback dispatch and over a real TCP connection to `alpenhornd`.
//!
//! Every random decision is drawn from a ChaCha stream keyed by the plan
//! seed **and the call index**, so the fault schedule is a pure function of
//! `(plan, sequence of calls)`: replaying a scenario with the same plan
//! injects byte-for-byte the same faults (`tests/chaos.rs` asserts this).
//! The injected schedule is recorded and exposed via
//! [`FaultyTransport::schedule`] for that comparison.
//!
//! The faults model the client-visible failure surface of a real network:
//!
//! * **request drop** — the call fails before the server sees it;
//! * **response drop / disconnect mid-call** — the server *executed* the
//!   request but the client never learns it (the hard case for idempotency);
//! * **duplicate delivery** — the server executes the request twice;
//! * **corruption** — the reply arrives as an undecodable frame;
//! * **partition window** — a scripted range of calls during which the
//!   coordinator is unreachable.

use std::time::Duration;

use alpenhorn_crypto::ChaChaRng;
use alpenhorn_wire::{Request, Response, WireError};

use crate::transport::{Transport, TransportError};

/// A half-open range of transport call indices during which the coordinator
/// is unreachable (every call fails without reaching the server).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionWindow {
    /// First call index inside the partition.
    pub from: u64,
    /// First call index after the partition heals.
    pub until: u64,
}

impl PartitionWindow {
    fn contains(&self, call: u64) -> bool {
        (self.from..self.until).contains(&call)
    }
}

/// The per-call fault probabilities of a [`FaultPlan`], grouped so windows
/// and plan composition can manipulate them as one value.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultProbabilities {
    /// Probability the request is dropped before reaching the server.
    pub drop_request: f64,
    /// Probability the response is dropped after server execution.
    pub drop_response: f64,
    /// Probability the request is delivered (and executed) twice.
    pub duplicate_request: f64,
    /// Probability the response frame arrives corrupted.
    pub corrupt_response: f64,
    /// Probability an extra delay is injected before the call proceeds.
    pub delay: f64,
    /// Upper bound (inclusive, milliseconds) for injected delays.
    pub max_delay_ms: u64,
}

impl FaultProbabilities {
    /// The union of two independent fault sources: each fault fires if
    /// either source fires (`1 - (1-a)(1-b)`), and delays take the longer
    /// bound. Used when a flaky-link window overlays a base plan, and by
    /// [`FaultPlan::compose`].
    pub fn union(self, other: FaultProbabilities) -> FaultProbabilities {
        fn either(a: f64, b: f64) -> f64 {
            1.0 - (1.0 - a) * (1.0 - b)
        }
        FaultProbabilities {
            drop_request: either(self.drop_request, other.drop_request),
            drop_response: either(self.drop_response, other.drop_response),
            duplicate_request: either(self.duplicate_request, other.duplicate_request),
            corrupt_response: either(self.corrupt_response, other.corrupt_response),
            delay: either(self.delay, other.delay),
            max_delay_ms: self.max_delay_ms.max(other.max_delay_ms),
        }
    }
}

/// A half-open range of call indices during which extra fault probabilities
/// overlay the plan's base rates — a scripted flaky-link episode, the
/// probabilistic sibling of [`PartitionWindow`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlakyWindow {
    /// First call index inside the flaky window.
    pub from: u64,
    /// First call index after the link heals.
    pub until: u64,
    /// The extra fault rates in force during the window, unioned with the
    /// plan's base probabilities.
    pub faults: FaultProbabilities,
}

impl FlakyWindow {
    fn contains(&self, call: u64) -> bool {
        (self.from..self.until).contains(&call)
    }
}

/// A declarative, seed-driven fault schedule for a [`FaultyTransport`].
///
/// Probabilities are per call and independent; scripted fields
/// (`disconnect_at`, `partitions`, `flaky`) key on the transport's
/// zero-based call index. The default plan injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault decision stream. Two transports with equal plans
    /// (seed included) inject identical fault schedules.
    pub seed: u64,
    /// Probability the request is dropped before reaching the server.
    pub drop_request: f64,
    /// Probability the server's response is dropped after the server
    /// executed the request (the client sees a connection reset).
    pub drop_response: f64,
    /// Probability the request is delivered twice (the server executes it
    /// twice; the client sees the second reply).
    pub duplicate_request: f64,
    /// Probability the response frame arrives corrupted (surfaces as a
    /// checksum failure).
    pub corrupt_response: f64,
    /// Probability an extra delay is injected before the call proceeds.
    pub delay: f64,
    /// Upper bound (inclusive, milliseconds) for injected delays; a delay
    /// draws uniformly from `1..=max_delay_ms`.
    pub max_delay_ms: u64,
    /// Call indices at which the connection dies mid-call: the request is
    /// delivered (the server executes it), the response never arrives, and
    /// the transport is poisoned until [`Transport::reset`].
    pub disconnect_at: Vec<u64>,
    /// Scripted partition windows (see [`PartitionWindow`]).
    pub partitions: Vec<PartitionWindow>,
    /// Scripted flaky-link windows whose extra fault rates overlay the base
    /// probabilities for the calls they cover (see [`FlakyWindow`]).
    pub flaky: Vec<FlakyWindow>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            drop_request: 0.0,
            drop_response: 0.0,
            duplicate_request: 0.0,
            corrupt_response: 0.0,
            delay: 0.0,
            max_delay_ms: 0,
            disconnect_at: Vec::new(),
            partitions: Vec::new(),
            flaky: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A plan that injects nothing (identical to [`FaultPlan::default`] with
    /// an explicit seed): useful as a base for builder-style construction.
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    fn in_partition(&self, call: u64) -> bool {
        self.partitions.iter().any(|w| w.contains(call))
    }

    /// The plan's base probabilities as one value.
    pub fn probabilities(&self) -> FaultProbabilities {
        FaultProbabilities {
            drop_request: self.drop_request,
            drop_response: self.drop_response,
            duplicate_request: self.duplicate_request,
            corrupt_response: self.corrupt_response,
            delay: self.delay,
            max_delay_ms: self.max_delay_ms,
        }
    }

    /// Replaces the base probabilities from one value (the inverse of
    /// [`FaultPlan::probabilities`]).
    pub fn set_probabilities(&mut self, p: FaultProbabilities) {
        self.drop_request = p.drop_request;
        self.drop_response = p.drop_response;
        self.duplicate_request = p.duplicate_request;
        self.corrupt_response = p.corrupt_response;
        self.delay = p.delay;
        self.max_delay_ms = p.max_delay_ms;
    }

    /// The fault probabilities in force at `call`: the base rates unioned
    /// with every flaky window covering the call. With no flaky windows this
    /// is exactly [`FaultPlan::probabilities`], so pre-existing plans keep
    /// their schedules bit-for-bit.
    pub fn effective(&self, call: u64) -> FaultProbabilities {
        self.flaky
            .iter()
            .filter(|w| w.contains(call))
            .fold(self.probabilities(), |acc, w| acc.union(w.faults))
    }

    /// Composes two plans into one: fault probabilities union (either
    /// source firing injects the fault), scripted indices and windows
    /// concatenate, and the seed mixes both inputs so the composite draws a
    /// fresh — but still deterministic — decision stream. This is how the
    /// scenario engine layers a scenario-wide chaos profile over a
    /// per-client link profile.
    pub fn compose(&self, other: &FaultPlan) -> FaultPlan {
        let mut composed = FaultPlan::quiet(
            self.seed
                .rotate_left(17)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ other.seed,
        );
        composed.set_probabilities(self.probabilities().union(other.probabilities()));
        composed.disconnect_at = self
            .disconnect_at
            .iter()
            .chain(&other.disconnect_at)
            .copied()
            .collect();
        composed.partitions = self
            .partitions
            .iter()
            .chain(&other.partitions)
            .copied()
            .collect();
        composed.flaky = self.flaky.iter().chain(&other.flaky).copied().collect();
        composed
    }
}

/// One fault a [`FaultyTransport`] injected, recorded against the call index
/// it perturbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedFault {
    /// The request was dropped before the server saw it.
    DropRequest,
    /// The server executed the request but the response was dropped.
    DropResponse,
    /// The request was delivered (and executed) twice.
    DuplicateRequest,
    /// The response arrived as a corrupted frame.
    CorruptResponse,
    /// An extra delay of this many milliseconds was injected.
    Delay(u64),
    /// The connection died mid-call (request delivered, no response) and the
    /// transport is poisoned until reset.
    Disconnect,
    /// The call fell inside a scripted partition window.
    Partition,
}

/// A [`Transport`] wrapper injecting deterministic faults per a
/// [`FaultPlan`]. See the module docs for the fault model.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    plan: FaultPlan,
    calls: u64,
    poisoned: Option<TransportError>,
    schedule: Vec<(u64, InjectedFault)>,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        FaultyTransport {
            inner,
            plan,
            calls: 0,
            poisoned: None,
            schedule: Vec::new(),
        }
    }

    /// The faults injected so far, `(call index, fault)` in injection order.
    /// Two runs of the same scenario under equal plans record equal
    /// schedules — the determinism contract `tests/chaos.rs` asserts.
    pub fn schedule(&self) -> &[(u64, InjectedFault)] {
        &self.schedule
    }

    /// Number of calls issued through this transport (including faulted
    /// ones).
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Opens a partition window starting at the next call. The coordinator
    /// is unreachable through this transport until [`end_partition`]
    /// (`until` is left open-ended). The scenario engine uses this pair to
    /// compile round-scoped partition events down to call-index windows
    /// without predicting how many calls a round will issue.
    ///
    /// [`end_partition`]: FaultyTransport::end_partition
    pub fn begin_partition(&mut self) {
        self.plan.partitions.push(PartitionWindow {
            from: self.calls,
            until: u64::MAX,
        });
    }

    /// Heals every open-ended partition window as of the next call.
    pub fn end_partition(&mut self) {
        let now = self.calls;
        for window in &mut self.plan.partitions {
            if window.until == u64::MAX {
                window.until = now;
            }
        }
    }

    /// Opens a flaky-link window starting at the next call: `faults` overlay
    /// the plan's base probabilities until [`end_flaky`].
    ///
    /// [`end_flaky`]: FaultyTransport::end_flaky
    pub fn begin_flaky(&mut self, faults: FaultProbabilities) {
        self.plan.flaky.push(FlakyWindow {
            from: self.calls,
            until: u64::MAX,
            faults,
        });
    }

    /// Heals every open-ended flaky window as of the next call.
    pub fn end_flaky(&mut self) {
        let now = self.calls;
        for window in &mut self.plan.flaky {
            if window.until == u64::MAX {
                window.until = now;
            }
        }
    }

    /// The plan driving the injection.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Per-call decision stream: keyed by plan seed and call index, so the
    /// schedule does not depend on how many draws earlier calls consumed.
    fn call_rng(&self, call: u64) -> ChaChaRng {
        let mut seed = *b"alpenhorn fault plan derivation!";
        seed[..8].copy_from_slice(&self.plan.seed.to_le_bytes());
        seed[8..16].copy_from_slice(&call.to_le_bytes());
        ChaChaRng::from_seed_bytes(seed)
    }

    fn record(&mut self, call: u64, fault: InjectedFault) {
        self.schedule.push((call, fault));
    }
}

/// Draws a probability decision: true with probability `p`.
fn chance(rng: &mut ChaChaRng, p: f64) -> bool {
    p > 0.0 && rng.gen_f64() < p
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn call(&mut self, request: Request) -> Result<Response, TransportError> {
        if let Some(original) = &self.poisoned {
            return Err(TransportError::Poisoned {
                original: Box::new(original.clone()),
            });
        }
        let call = self.calls;
        self.calls += 1;

        // Draw every probabilistic decision up front, in a fixed order, from
        // the per-call stream: the schedule is then a pure function of
        // (plan, call index), whatever the outcomes short-circuit below.
        // Flaky windows raise the rates for the calls they cover without
        // disturbing the draw order, so calls outside every window keep the
        // schedule they had before the window was scripted.
        let eff = self.plan.effective(call);
        let mut rng = self.call_rng(call);
        let delay_ms = if chance(&mut rng, eff.delay) && eff.max_delay_ms > 0 {
            1 + rng.gen_range(eff.max_delay_ms)
        } else {
            0
        };
        let drop_request = chance(&mut rng, eff.drop_request);
        let duplicate = chance(&mut rng, eff.duplicate_request);
        let drop_response = chance(&mut rng, eff.drop_response);
        let corrupt = chance(&mut rng, eff.corrupt_response);

        if self.plan.in_partition(call) {
            self.record(call, InjectedFault::Partition);
            return Err(TransportError::Io {
                kind: std::io::ErrorKind::TimedOut,
                detail: format!("injected fault: partition window at call {call}"),
            });
        }
        if self.plan.disconnect_at.contains(&call) {
            // Mid-call disconnect: the server sees and executes the request;
            // the client's read side is then severed and the connection is
            // unusable until reset.
            let _ = self.inner.call(request);
            self.record(call, InjectedFault::Disconnect);
            let error = TransportError::Io {
                kind: std::io::ErrorKind::ConnectionReset,
                detail: format!("injected fault: disconnect mid-call at call {call}"),
            };
            self.poisoned = Some(error.clone());
            return Err(error);
        }
        if delay_ms > 0 {
            self.record(call, InjectedFault::Delay(delay_ms));
            std::thread::sleep(Duration::from_millis(delay_ms));
        }
        if drop_request {
            self.record(call, InjectedFault::DropRequest);
            return Err(TransportError::Io {
                kind: std::io::ErrorKind::TimedOut,
                detail: format!("injected fault: request dropped at call {call}"),
            });
        }

        let mut response = self.inner.call(request.clone())?;
        if duplicate {
            self.record(call, InjectedFault::DuplicateRequest);
            response = self.inner.call(request)?;
        }
        if drop_response {
            self.record(call, InjectedFault::DropResponse);
            return Err(TransportError::Io {
                kind: std::io::ErrorKind::ConnectionReset,
                detail: format!("injected fault: response dropped at call {call}"),
            });
        }
        if corrupt {
            self.record(call, InjectedFault::CorruptResponse);
            return Err(TransportError::Wire(WireError::ChecksumMismatch));
        }
        Ok(response)
    }

    fn reset(&mut self) -> Result<(), TransportError> {
        self.poisoned = None;
        self.inner.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::LoopbackTransport;
    use alpenhorn_coordinator::{Cluster, ClusterConfig};

    fn aggressive_plan(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_request: 0.2,
            drop_response: 0.15,
            duplicate_request: 0.1,
            corrupt_response: 0.1,
            delay: 0.3,
            max_delay_ms: 2,
            disconnect_at: vec![3],
            partitions: vec![PartitionWindow { from: 7, until: 9 }],
            flaky: Vec::new(),
        }
    }

    fn drive(plan: FaultPlan) -> Vec<(u64, InjectedFault)> {
        let net = LoopbackTransport::new(Cluster::new(ClusterConfig::test(50)));
        let mut faulty = FaultyTransport::new(net, plan);
        for _ in 0..40 {
            if faulty.call(Request::GetPkgKeys).is_err() {
                let _ = faulty.reset();
            }
        }
        faulty.schedule().to_vec()
    }

    #[test]
    fn same_plan_same_seed_injects_identical_schedule() {
        let first = drive(aggressive_plan(42));
        let second = drive(aggressive_plan(42));
        assert!(!first.is_empty(), "an aggressive plan must inject faults");
        assert_eq!(first, second);
    }

    #[test]
    fn different_seeds_inject_different_schedules() {
        assert_ne!(drive(aggressive_plan(1)), drive(aggressive_plan(2)));
    }

    #[test]
    fn quiet_plan_injects_nothing() {
        assert!(drive(FaultPlan::quiet(9)).is_empty());
    }

    #[test]
    fn flaky_window_only_perturbs_covered_calls() {
        let storm = FaultProbabilities {
            drop_request: 1.0,
            ..FaultProbabilities::default()
        };
        let mut plan = FaultPlan::quiet(5);
        plan.flaky.push(FlakyWindow {
            from: 10,
            until: 20,
            faults: storm,
        });
        let schedule = drive(plan);
        assert_eq!(schedule.len(), 10, "exactly the covered calls fault");
        assert!(schedule
            .iter()
            .all(|(call, f)| (10..20).contains(call) && *f == InjectedFault::DropRequest));
    }

    #[test]
    fn flaky_window_leaves_base_schedule_untouched_elsewhere() {
        // A plan with a flaky window injects, outside the window, exactly
        // what the windowless plan injects: windows raise rates without
        // re-keying the decision stream.
        let base = aggressive_plan(42);
        let mut windowed = base.clone();
        windowed.flaky.push(FlakyWindow {
            from: 15,
            until: 25,
            faults: FaultProbabilities {
                corrupt_response: 0.9,
                ..FaultProbabilities::default()
            },
        });
        let bare: Vec<_> = drive(base)
            .into_iter()
            .filter(|(call, _)| !(15..25).contains(call))
            .collect();
        let overlaid: Vec<_> = drive(windowed)
            .into_iter()
            .filter(|(call, _)| !(15..25).contains(call))
            .collect();
        assert_eq!(bare, overlaid);
    }

    #[test]
    fn runtime_partition_window_opens_and_heals() {
        let net = LoopbackTransport::new(Cluster::new(ClusterConfig::test(52)));
        let mut faulty = FaultyTransport::new(net, FaultPlan::quiet(0));
        assert!(faulty.call(Request::GetPkgKeys).is_ok());
        faulty.begin_partition();
        assert!(faulty.call(Request::GetPkgKeys).is_err());
        assert!(faulty.call(Request::GetPkgKeys).is_err());
        faulty.end_partition();
        assert!(faulty.call(Request::GetPkgKeys).is_ok());
        assert_eq!(
            faulty.plan().partitions,
            vec![PartitionWindow { from: 1, until: 3 }]
        );
    }

    #[test]
    fn runtime_flaky_window_opens_and_heals() {
        let net = LoopbackTransport::new(Cluster::new(ClusterConfig::test(53)));
        let mut faulty = FaultyTransport::new(net, FaultPlan::quiet(0));
        faulty.begin_flaky(FaultProbabilities {
            drop_request: 1.0,
            ..FaultProbabilities::default()
        });
        assert!(faulty.call(Request::GetPkgKeys).is_err());
        faulty.end_flaky();
        assert!(faulty.call(Request::GetPkgKeys).is_ok());
    }

    #[test]
    fn compose_unions_probabilities_and_scripts() {
        let a = aggressive_plan(1);
        let mut b = FaultPlan::quiet(2);
        b.drop_request = 0.5;
        b.disconnect_at = vec![11];
        b.partitions = vec![PartitionWindow { from: 1, until: 2 }];
        let c = a.compose(&b);
        let expect = 1.0 - (1.0 - a.drop_request) * (1.0 - b.drop_request);
        assert!((c.drop_request - expect).abs() < 1e-12);
        assert_eq!(c.disconnect_at, vec![3, 11]);
        assert_eq!(c.partitions.len(), 2);
        assert_ne!(c.seed, a.seed);
        assert_ne!(c.seed, b.seed);
        // Deterministic: composing the same inputs yields the same plan.
        assert_eq!(c, a.compose(&b));
    }

    #[test]
    fn disconnect_poisons_until_reset() {
        let net = LoopbackTransport::new(Cluster::new(ClusterConfig::test(51)));
        let mut faulty = FaultyTransport::new(
            net,
            FaultPlan {
                disconnect_at: vec![0],
                ..FaultPlan::default()
            },
        );
        assert!(matches!(
            faulty.call(Request::GetPkgKeys),
            Err(TransportError::Io { .. })
        ));
        // Poisoned until reset, carrying the original failure.
        assert!(matches!(
            faulty.call(Request::GetPkgKeys),
            Err(TransportError::Poisoned { .. })
        ));
        faulty.reset().unwrap();
        assert!(faulty.call(Request::GetPkgKeys).is_ok());
    }
}
