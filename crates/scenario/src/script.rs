//! Scenarios as data: a scripted event timeline over a client population.
//!
//! A [`Scenario`] is a pure description — name, seed, population size, step
//! count, and a list of `(step, action)` events — with no behavior of its
//! own. The [`ScenarioEngine`](crate::ScenarioEngine) interprets it against
//! a real deployment. Two representations are provided:
//!
//! * a typed Rust builder ([`ScenarioBuilder`]) for tests and benches, and
//! * a simple line-oriented text format ([`Scenario::parse`] /
//!   [`Scenario::render`]) so scenarios can live in files and diffs; the two
//!   round-trip exactly.
//!
//! See `docs/SCENARIOS.md` for the format reference and event taxonomy.

use core::fmt;

use alpenhorn::FaultProbabilities;
use alpenhorn_mixnet::MixMisbehavior;

/// A half-open range `start..end` of population indices an action applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientRange {
    /// First client index included.
    pub start: usize,
    /// First client index excluded.
    pub end: usize,
}

impl ClientRange {
    /// `start..end` as an iterator over the covered indices.
    pub fn iter(&self) -> core::ops::Range<usize> {
        self.start..self.end
    }

    /// Number of clients covered.
    pub fn len(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Whether the range covers no clients.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Whether `index` falls inside the range.
    pub fn contains(&self, index: usize) -> bool {
        (self.start..self.end).contains(&index)
    }
}

impl fmt::Display for ClientRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

impl From<core::ops::Range<usize>> for ClientRange {
    fn from(r: core::ops::Range<usize>) -> Self {
        ClientRange {
            start: r.start,
            end: r.end,
        }
    }
}

/// One scripted action in a scenario timeline. Actions at a step are applied
/// in file order at the start of that step, before the step's add-friend and
/// dialing rounds run.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Register the clients in the range with the coordinator (materializing
    /// their full state; unregistered population indices are lightweight
    /// handles). Already-registered indices are left alone, so overlapping
    /// churn waves compose.
    Register {
        /// The population indices to register.
        clients: ClientRange,
    },
    /// Deregister (and drop the state of) the clients in the range. The
    /// departing half of a churn wave.
    Deregister {
        /// The population indices to deregister.
        clients: ClientRange,
    },
    /// Client `initiator` sends an add-friend request to client `target` in
    /// the next add-friend round (auto-accepted by the target's policy).
    Befriend {
        /// Population index of the requesting client.
        initiator: usize,
        /// Population index of the target client.
        target: usize,
    },
    /// Every client in `initiators` befriends a Zipf-sampled client from
    /// `targets` (rank 1 = `targets.start`): a skewed social graph where a
    /// few popular users receive most friend requests. Self-targets are
    /// skipped. Sampling uses the engine's scripted rng, so the graph is a
    /// pure function of the scenario seed.
    BefriendZipf {
        /// Clients sending the friend requests.
        initiators: ClientRange,
        /// Candidate targets, Zipf-ranked from `targets.start`.
        targets: ClientRange,
        /// Zipf exponent (`s >= 0`; larger = more skewed).
        exponent: f64,
    },
    /// Client `caller` dials client `callee` (who must be a confirmed
    /// friend) with the given intent in the next dialing round.
    Call {
        /// Population index of the dialing client.
        caller: usize,
        /// Population index of the friend being dialed.
        callee: usize,
        /// The intent number (paper §5.4).
        intent: u32,
    },
    /// The clients in the range go offline (a mobile device in a pocket):
    /// they skip every round until `until_step`, at which point they
    /// fast-forward their keywheels to the current round and resume.
    Sleep {
        /// The population indices going to sleep.
        clients: ClientRange,
        /// First step at which the clients participate again.
        until_step: u64,
    },
    /// Opens a partition between the clients in the range and the
    /// coordinator: every RPC they issue fails until the matching
    /// [`Action::EndPartition`]. Compiled down to per-client
    /// `FaultPlan` partition windows at runtime.
    BeginPartition {
        /// The population indices cut off.
        clients: ClientRange,
    },
    /// Heals the partition for the clients in the range.
    EndPartition {
        /// The population indices reconnected.
        clients: ClientRange,
    },
    /// Opens a flaky-link window for the clients in the range: the given
    /// fault probabilities overlay their transports until the matching
    /// [`Action::EndFlaky`]. Their retry policies are expected to absorb
    /// the faults.
    BeginFlaky {
        /// The population indices on the flaky link.
        clients: ClientRange,
        /// The fault rates in force during the window.
        faults: FaultProbabilities,
    },
    /// Heals the flaky link for the clients in the range.
    EndFlaky {
        /// The population indices healed.
        clients: ClientRange,
    },
    /// Crash the coordinator (dropping all in-memory state) and restart it
    /// from its durable data directory. Only valid on an engine built with
    /// [`ScenarioEngine::with_data_dir`](crate::ScenarioEngine::with_data_dir).
    CrashRestart,
    /// Compromise mix server `server` (on both the add-friend and dialing
    /// chains) with the given misbehavior until [`Action::HonestMixer`].
    MaliciousMixer {
        /// Chain position of the compromised server.
        server: usize,
        /// What the compromised server does.
        misbehavior: MixMisbehavior,
    },
    /// Restore every mix server to honest operation.
    HonestMixer,
    /// Sever the coordinator's transport to mix server `server` on both
    /// chains (a `mixd` daemon restarting, a network blip). Remote mixers
    /// reconnect and retry on the next round; because mix rounds are derived
    /// statelessly from (seed, round id), recovery must be invisible in the
    /// round's output. A no-op on in-process mixers.
    MixerCrash {
        /// Chain position of the crashed mixer.
        server: usize,
    },
    /// Take CDN node `node` down: every shard put or get against it fails
    /// like a dead TCP peer until the matching [`Action::CdnNodeUp`].
    /// Requires a fleet attached with
    /// [`ScenarioEngine::attach_cdn_fleet`](crate::ScenarioEngine::attach_cdn_fleet).
    CdnNodeDown {
        /// Fleet index of the node going down.
        node: usize,
    },
    /// Bring CDN node `node` back up (its stored shards intact).
    CdnNodeUp {
        /// Fleet index of the node coming back.
        node: usize,
    },
    /// Advance the deployment's simulated clock (e.g. across a rate-limit
    /// budget day boundary).
    AdvanceClock {
        /// Seconds to advance.
        seconds: u64,
    },
}

/// A complete scripted scenario: metadata plus the `(step, action)` timeline.
///
/// Steps are 1-based; step `k` runs add-friend round `k` and dialing round
/// `k` after applying the actions scheduled at `k`.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Scenario name (reports, logs).
    pub name: String,
    /// Master seed: the deployment seed, every client seed, and the
    /// engine's sampling rng all derive from it.
    pub seed: u64,
    /// Total population size (lightweight handles; only registered clients
    /// carry full state).
    pub population: usize,
    /// Number of steps (rounds) to run.
    pub steps: u64,
    /// When set, the deployment enforces §9 rate limiting with this
    /// per-user daily token budget.
    pub rate_limit_budget: Option<u32>,
    /// The timeline: actions applied at the start of their step, in order.
    pub events: Vec<(u64, Action)>,
}

/// An error from [`Scenario::parse`], carrying the 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line the error was found on.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scenario parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl Scenario {
    /// The actions scheduled at `step`, in timeline order.
    pub fn actions_at(&self, step: u64) -> impl Iterator<Item = &Action> {
        self.events
            .iter()
            .filter(move |(s, _)| *s == step)
            .map(|(_, a)| a)
    }

    /// The same workload with every fault event removed: crash-restarts,
    /// partition and flaky windows, and mixer compromises are dropped, while
    /// churn, befriending, calls, sleeps, and clock advances are kept. This
    /// is the reference run for convergence checking — surviving clients in
    /// the faulted run must produce byte-identical event streams to their
    /// twin here.
    pub fn fault_free_twin(&self) -> Scenario {
        let mut twin = self.clone();
        twin.name = format!("{}-twin", self.name);
        twin.events.retain(|(_, action)| {
            !matches!(
                action,
                Action::CrashRestart
                    | Action::BeginPartition { .. }
                    | Action::EndPartition { .. }
                    | Action::BeginFlaky { .. }
                    | Action::EndFlaky { .. }
                    | Action::MaliciousMixer { .. }
                    | Action::HonestMixer
                    | Action::MixerCrash { .. }
                    | Action::CdnNodeDown { .. }
                    | Action::CdnNodeUp { .. }
            )
        });
        twin
    }

    /// Serializes the scenario to the text format; [`Scenario::parse`]
    /// returns an equal scenario (`parse(render(s)) == s` up to the name
    /// line always being present).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("scenario {}\n", self.name));
        out.push_str(&format!("seed {}\n", self.seed));
        out.push_str(&format!("population {}\n", self.population));
        out.push_str(&format!("steps {}\n", self.steps));
        if let Some(budget) = self.rate_limit_budget {
            out.push_str(&format!("rate-limit {budget}\n"));
        }
        for (step, action) in &self.events {
            out.push_str(&format!("@{step} {}\n", render_action(action)));
        }
        out
    }

    /// Parses the text format (see `docs/SCENARIOS.md`). Blank lines and
    /// `#` comments are ignored; header lines may appear in any order but
    /// must precede the first `@step` event line.
    pub fn parse(text: &str) -> Result<Scenario, ParseError> {
        let mut scenario = Scenario {
            name: String::new(),
            seed: 0,
            population: 0,
            steps: 0,
            rate_limit_budget: None,
            events: Vec::new(),
        };
        let mut saw_name = false;
        for (index, raw) in text.lines().enumerate() {
            let line_no = index + 1;
            let line = match raw.find('#') {
                Some(pos) => &raw[..pos],
                None => raw,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let err = |message: String| ParseError {
                line: line_no,
                message,
            };
            let mut tokens = line.split_whitespace();
            let head = tokens.next().expect("non-empty line has a first token");
            let rest: Vec<&str> = tokens.collect();
            match head {
                "scenario" => {
                    scenario.name = rest.join(" ");
                    saw_name = true;
                }
                "seed" => scenario.seed = parse_one(&rest, line_no, "seed")?,
                "population" => scenario.population = parse_one(&rest, line_no, "population")?,
                "steps" => scenario.steps = parse_one(&rest, line_no, "steps")?,
                "rate-limit" => {
                    scenario.rate_limit_budget = Some(parse_one(&rest, line_no, "rate-limit")?)
                }
                _ if head.starts_with('@') => {
                    let step: u64 = head[1..]
                        .parse()
                        .map_err(|_| err(format!("bad step number {head:?}")))?;
                    let action = parse_action(&rest, line_no)?;
                    scenario.events.push((step, action));
                }
                _ => return Err(err(format!("unknown directive {head:?}"))),
            }
        }
        if !saw_name {
            return Err(ParseError {
                line: 1,
                message: "missing `scenario <name>` header".into(),
            });
        }
        Ok(scenario)
    }
}

fn render_action(action: &Action) -> String {
    match action {
        Action::Register { clients } => format!("register {clients}"),
        Action::Deregister { clients } => format!("deregister {clients}"),
        Action::Befriend { initiator, target } => format!("befriend {initiator} {target}"),
        Action::BefriendZipf {
            initiators,
            targets,
            exponent,
        } => format!("befriend-zipf {initiators} {targets} {exponent}"),
        Action::Call {
            caller,
            callee,
            intent,
        } => format!("call {caller} {callee} {intent}"),
        Action::Sleep {
            clients,
            until_step,
        } => format!("sleep {clients} until {until_step}"),
        Action::BeginPartition { clients } => format!("partition-begin {clients}"),
        Action::EndPartition { clients } => format!("partition-end {clients}"),
        Action::BeginFlaky { clients, faults } => {
            let mut line = format!("flaky-begin {clients}");
            for (key, value) in [
                ("drop_request", faults.drop_request),
                ("drop_response", faults.drop_response),
                ("duplicate_request", faults.duplicate_request),
                ("corrupt_response", faults.corrupt_response),
                ("delay", faults.delay),
            ] {
                if value > 0.0 {
                    line.push_str(&format!(" {key}={value}"));
                }
            }
            if faults.max_delay_ms > 0 {
                line.push_str(&format!(" max_delay_ms={}", faults.max_delay_ms));
            }
            line
        }
        Action::EndFlaky { clients } => format!("flaky-end {clients}"),
        Action::CrashRestart => "crash-restart".into(),
        Action::MaliciousMixer {
            server,
            misbehavior,
        } => match misbehavior {
            MixMisbehavior::DropOnions { percent } => {
                format!("malicious-mixer {server} drop {percent}")
            }
            MixMisbehavior::ReplayOnions { percent } => {
                format!("malicious-mixer {server} replay {percent}")
            }
            MixMisbehavior::ReorderOnions => format!("malicious-mixer {server} reorder"),
        },
        Action::HonestMixer => "honest-mixer".into(),
        Action::MixerCrash { server } => format!("mixer-crash {server}"),
        Action::CdnNodeDown { node } => format!("cdn-node-down {node}"),
        Action::CdnNodeUp { node } => format!("cdn-node-up {node}"),
        Action::AdvanceClock { seconds } => format!("advance-clock {seconds}"),
    }
}

fn parse_one<T: core::str::FromStr>(
    rest: &[&str],
    line: usize,
    what: &str,
) -> Result<T, ParseError> {
    if rest.len() != 1 {
        return Err(ParseError {
            line,
            message: format!("`{what}` takes exactly one argument"),
        });
    }
    rest[0].parse().map_err(|_| ParseError {
        line,
        message: format!("bad {what} value {:?}", rest[0]),
    })
}

fn parse_range(token: &str, line: usize) -> Result<ClientRange, ParseError> {
    let err = || ParseError {
        line,
        message: format!("bad client range {token:?} (expected start..end)"),
    };
    let (start, end) = token.split_once("..").ok_or_else(err)?;
    Ok(ClientRange {
        start: start.parse().map_err(|_| err())?,
        end: end.parse().map_err(|_| err())?,
    })
}

fn parse_num<T: core::str::FromStr>(token: &str, line: usize, what: &str) -> Result<T, ParseError> {
    token.parse().map_err(|_| ParseError {
        line,
        message: format!("bad {what} value {token:?}"),
    })
}

fn parse_action(rest: &[&str], line: usize) -> Result<Action, ParseError> {
    let err = |message: String| ParseError { line, message };
    let verb = *rest
        .first()
        .ok_or_else(|| err("event line has no action".into()))?;
    let args = &rest[1..];
    let want = |n: usize| -> Result<(), ParseError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(err(format!(
                "`{verb}` takes {n} argument(s), got {}",
                args.len()
            )))
        }
    };
    Ok(match verb {
        "register" => {
            want(1)?;
            Action::Register {
                clients: parse_range(args[0], line)?,
            }
        }
        "deregister" => {
            want(1)?;
            Action::Deregister {
                clients: parse_range(args[0], line)?,
            }
        }
        "befriend" => {
            want(2)?;
            Action::Befriend {
                initiator: parse_num(args[0], line, "initiator")?,
                target: parse_num(args[1], line, "target")?,
            }
        }
        "befriend-zipf" => {
            want(3)?;
            Action::BefriendZipf {
                initiators: parse_range(args[0], line)?,
                targets: parse_range(args[1], line)?,
                exponent: parse_num(args[2], line, "exponent")?,
            }
        }
        "call" => {
            want(3)?;
            Action::Call {
                caller: parse_num(args[0], line, "caller")?,
                callee: parse_num(args[1], line, "callee")?,
                intent: parse_num(args[2], line, "intent")?,
            }
        }
        "sleep" => {
            if args.len() != 3 || args[1] != "until" {
                return Err(err("`sleep` syntax: sleep <range> until <step>".into()));
            }
            Action::Sleep {
                clients: parse_range(args[0], line)?,
                until_step: parse_num(args[2], line, "until step")?,
            }
        }
        "partition-begin" => {
            want(1)?;
            Action::BeginPartition {
                clients: parse_range(args[0], line)?,
            }
        }
        "partition-end" => {
            want(1)?;
            Action::EndPartition {
                clients: parse_range(args[0], line)?,
            }
        }
        "flaky-begin" => {
            if args.is_empty() {
                return Err(err("`flaky-begin` needs a client range".into()));
            }
            let clients = parse_range(args[0], line)?;
            let mut faults = FaultProbabilities::default();
            for pair in &args[1..] {
                let (key, value) = pair.split_once('=').ok_or_else(|| {
                    err(format!("bad fault setting {pair:?} (expected key=value)"))
                })?;
                match key {
                    "drop_request" => faults.drop_request = parse_num(value, line, key)?,
                    "drop_response" => faults.drop_response = parse_num(value, line, key)?,
                    "duplicate_request" => faults.duplicate_request = parse_num(value, line, key)?,
                    "corrupt_response" => faults.corrupt_response = parse_num(value, line, key)?,
                    "delay" => faults.delay = parse_num(value, line, key)?,
                    "max_delay_ms" => faults.max_delay_ms = parse_num(value, line, key)?,
                    _ => return Err(err(format!("unknown fault setting {key:?}"))),
                }
            }
            Action::BeginFlaky { clients, faults }
        }
        "flaky-end" => {
            want(1)?;
            Action::EndFlaky {
                clients: parse_range(args[0], line)?,
            }
        }
        "crash-restart" => {
            want(0)?;
            Action::CrashRestart
        }
        "malicious-mixer" => {
            if args.len() < 2 {
                return Err(err(
                    "`malicious-mixer` syntax: malicious-mixer <server> drop|replay <pct> | reorder"
                        .into(),
                ));
            }
            let server = parse_num(args[0], line, "server index")?;
            let misbehavior = match (args[1], args.get(2)) {
                ("drop", Some(pct)) if args.len() == 3 => MixMisbehavior::DropOnions {
                    percent: parse_num(pct, line, "drop percent")?,
                },
                ("replay", Some(pct)) if args.len() == 3 => MixMisbehavior::ReplayOnions {
                    percent: parse_num(pct, line, "replay percent")?,
                },
                ("reorder", None) if args.len() == 2 => MixMisbehavior::ReorderOnions,
                _ => return Err(err(format!("bad mixer misbehavior {:?}", &args[1..]))),
            };
            Action::MaliciousMixer {
                server,
                misbehavior,
            }
        }
        "honest-mixer" => {
            want(0)?;
            Action::HonestMixer
        }
        "mixer-crash" => {
            want(1)?;
            Action::MixerCrash {
                server: parse_num(args[0], line, "server index")?,
            }
        }
        "cdn-node-down" => {
            want(1)?;
            Action::CdnNodeDown {
                node: parse_num(args[0], line, "node index")?,
            }
        }
        "cdn-node-up" => {
            want(1)?;
            Action::CdnNodeUp {
                node: parse_num(args[0], line, "node index")?,
            }
        }
        "advance-clock" => {
            want(1)?;
            Action::AdvanceClock {
                seconds: parse_num(args[0], line, "seconds")?,
            }
        }
        _ => return Err(err(format!("unknown action {verb:?}"))),
    })
}

/// Fluent builder for a [`Scenario`].
///
/// ```
/// use alpenhorn_scenario::{ScenarioBuilder, ClientRange};
///
/// let scenario = ScenarioBuilder::new("churn", 42)
///     .population(1000)
///     .steps(4)
///     .register(1, ClientRange { start: 0, end: 8 })
///     .befriend(2, 0, 1)
///     .partition_window(3, 4, ClientRange { start: 4, end: 6 })
///     .build();
/// assert_eq!(scenario.events.len(), 4);
/// ```
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl ScenarioBuilder {
    /// Starts a scenario with the given name and master seed.
    pub fn new(name: &str, seed: u64) -> Self {
        ScenarioBuilder {
            scenario: Scenario {
                name: name.to_string(),
                seed,
                population: 0,
                steps: 0,
                rate_limit_budget: None,
                events: Vec::new(),
            },
        }
    }

    /// Sets the population size.
    pub fn population(mut self, population: usize) -> Self {
        self.scenario.population = population;
        self
    }

    /// Sets the number of steps to run.
    pub fn steps(mut self, steps: u64) -> Self {
        self.scenario.steps = steps;
        self
    }

    /// Enables §9 rate limiting with the given per-user daily budget.
    pub fn rate_limit(mut self, budget_per_day: u32) -> Self {
        self.scenario.rate_limit_budget = Some(budget_per_day);
        self
    }

    /// Schedules an arbitrary action at `step`.
    pub fn at(mut self, step: u64, action: Action) -> Self {
        self.scenario.events.push((step, action));
        self
    }

    /// Registers `clients` at `step`.
    pub fn register(self, step: u64, clients: impl Into<ClientRange>) -> Self {
        self.at(
            step,
            Action::Register {
                clients: clients.into(),
            },
        )
    }

    /// Deregisters `clients` at `step`.
    pub fn deregister(self, step: u64, clients: impl Into<ClientRange>) -> Self {
        self.at(
            step,
            Action::Deregister {
                clients: clients.into(),
            },
        )
    }

    /// Client `initiator` befriends `target` starting at `step`.
    pub fn befriend(self, step: u64, initiator: usize, target: usize) -> Self {
        self.at(step, Action::Befriend { initiator, target })
    }

    /// Client `caller` dials friend `callee` at `step`.
    pub fn call(self, step: u64, caller: usize, callee: usize, intent: u32) -> Self {
        self.at(
            step,
            Action::Call {
                caller,
                callee,
                intent,
            },
        )
    }

    /// `clients` sleep from `step` until `until_step`.
    pub fn sleep(self, step: u64, clients: impl Into<ClientRange>, until_step: u64) -> Self {
        self.at(
            step,
            Action::Sleep {
                clients: clients.into(),
                until_step,
            },
        )
    }

    /// Partitions `clients` from step `from` (inclusive) to `until`
    /// (exclusive): emits the begin/end event pair.
    pub fn partition_window(self, from: u64, until: u64, clients: impl Into<ClientRange>) -> Self {
        let clients = clients.into();
        self.at(from, Action::BeginPartition { clients })
            .at(until, Action::EndPartition { clients })
    }

    /// Overlays `faults` on `clients` from step `from` (inclusive) to
    /// `until` (exclusive): emits the begin/end event pair.
    pub fn flaky_window(
        self,
        from: u64,
        until: u64,
        clients: impl Into<ClientRange>,
        faults: FaultProbabilities,
    ) -> Self {
        let clients = clients.into();
        self.at(from, Action::BeginFlaky { clients, faults })
            .at(until, Action::EndFlaky { clients })
    }

    /// Crash-restarts the coordinator at `step`.
    pub fn crash_restart(self, step: u64) -> Self {
        self.at(step, Action::CrashRestart)
    }

    /// Severs the transport to mix server `server` at `step`.
    pub fn mixer_crash(self, step: u64, server: usize) -> Self {
        self.at(step, Action::MixerCrash { server })
    }

    /// Takes CDN node `node` down from step `from` (inclusive) to `until`
    /// (exclusive): emits the down/up event pair.
    pub fn cdn_node_outage(self, from: u64, until: u64, node: usize) -> Self {
        self.at(from, Action::CdnNodeDown { node })
            .at(until, Action::CdnNodeUp { node })
    }

    /// Finishes the build.
    pub fn build(self) -> Scenario {
        self.scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_scenario() -> Scenario {
        ScenarioBuilder::new("kitchen-sink", 77)
            .population(100)
            .steps(9)
            .rate_limit(16)
            .register(1, ClientRange { start: 0, end: 40 })
            .at(
                2,
                Action::BefriendZipf {
                    initiators: ClientRange { start: 0, end: 20 },
                    targets: ClientRange { start: 0, end: 40 },
                    exponent: 1.1,
                },
            )
            .befriend(2, 30, 31)
            .call(4, 30, 31, 7)
            .sleep(3, ClientRange { start: 35, end: 38 }, 6)
            .partition_window(4, 6, ClientRange { start: 20, end: 25 })
            .flaky_window(
                5,
                7,
                ClientRange { start: 10, end: 15 },
                FaultProbabilities {
                    drop_request: 0.25,
                    delay: 0.1,
                    max_delay_ms: 1,
                    ..FaultProbabilities::default()
                },
            )
            .crash_restart(5)
            .at(
                6,
                Action::MaliciousMixer {
                    server: 1,
                    misbehavior: MixMisbehavior::DropOnions { percent: 50 },
                },
            )
            .at(7, Action::HonestMixer)
            .mixer_crash(6, 2)
            .cdn_node_outage(5, 7, 3)
            .at(8, Action::AdvanceClock { seconds: 86_400 })
            .deregister(8, ClientRange { start: 0, end: 5 })
            .build()
    }

    #[test]
    fn render_parse_round_trips() {
        let scenario = full_scenario();
        let text = scenario.render();
        let reparsed = Scenario::parse(&text).expect("rendered text parses");
        assert_eq!(scenario, reparsed);
        // And rendering is a fixed point.
        assert_eq!(text, reparsed.render());
    }

    #[test]
    fn parse_accepts_comments_and_blank_lines() {
        let text = "\
# a churn wave
scenario churn
seed 9
population 50   # inline comment
steps 3

@1 register 0..50
@2 deregister 0..10
";
        let scenario = Scenario::parse(text).unwrap();
        assert_eq!(scenario.name, "churn");
        assert_eq!(scenario.population, 50);
        assert_eq!(scenario.events.len(), 2);
    }

    #[test]
    fn parse_reports_line_numbers() {
        let text = "scenario x\n@1 register zero..ten\n";
        let e = Scenario::parse(text).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("client range"));
    }

    #[test]
    fn parse_rejects_unknown_actions() {
        let e = Scenario::parse("scenario x\n@1 explode 0..5\n").unwrap_err();
        assert!(e.message.contains("unknown action"));
    }

    #[test]
    fn twin_strips_faults_but_keeps_workload() {
        let scenario = full_scenario();
        let twin = scenario.fault_free_twin();
        assert_eq!(twin.seed, scenario.seed);
        assert_eq!(twin.population, scenario.population);
        assert!(twin.events.iter().all(|(_, a)| !matches!(
            a,
            Action::CrashRestart
                | Action::BeginPartition { .. }
                | Action::EndPartition { .. }
                | Action::BeginFlaky { .. }
                | Action::EndFlaky { .. }
                | Action::MaliciousMixer { .. }
                | Action::HonestMixer
                | Action::MixerCrash { .. }
                | Action::CdnNodeDown { .. }
                | Action::CdnNodeUp { .. }
        )));
        // Workload survives: churn, befriending, calls, sleeps, clock.
        assert!(twin
            .events
            .iter()
            .any(|(_, a)| matches!(a, Action::Register { .. })));
        assert!(twin
            .events
            .iter()
            .any(|(_, a)| matches!(a, Action::Sleep { .. })));
        assert!(twin
            .events
            .iter()
            .any(|(_, a)| matches!(a, Action::AdvanceClock { .. })));
    }
}
