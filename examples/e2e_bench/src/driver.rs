//! The closed-loop load generator: sets a fleet up, walks seeded clients
//! through full rounds from two driver threads, checks what they see, and
//! collects the raw samples `report` turns into metrics.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use alpenhorn::{
    CdnRoutedTransport, Client, ClientConfig, ClientEvent, Identity, Round, TcpTransport, Transport,
};
use alpenhorn_cdn::{NodeClient, ShardedCdn, TcpNode};
use alpenhorn_ibe::sig::VerifyingKey;
use alpenhorn_wire::{
    CdnRequest, CdnResponse, Frame, MixerRequest, MixerResponse, Request, Response, RoundKind,
    TelemetryWire,
};

use crate::fleet::{self, Fleet, FleetSpec, Usage, Watchdog, DATA_SHARDS, PARITY_SHARDS};
use crate::probe::{NodeTap, Probe, Recorded, Side, Span, Tap};
use crate::workload::{Script, SplitMix, Step, Workload};

/// Driver threads: one per core of the box this was sized on (the issue's
/// prototype found a single caller bimodal there).
pub const DRIVERS: usize = 2;
/// Rounds run and discarded before measuring, so connections, lazily built
/// tables and allocator pools exist.
const WARMUP_ROUNDS: usize = 2;
/// Every instance measures at least this many rounds. What must repeat
/// exactly for a seed is taken over this fixed prefix, not over however many
/// rounds fit the time box: the metered clients' bytes, and peak memory
/// (daemons keep closed rounds, so memory grows with the round count).
const FIXED_ROUNDS: usize = 10;

const SETUP_LIMIT: Duration = Duration::from_secs(60);
const ROUND_LIMIT: Duration = Duration::from_secs(30);
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);
const IO_TIMEOUT: Duration = Duration::from_secs(30);

type ClientNet = Tap<CdnRoutedTransport<Tap<TcpTransport>>>;

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Measuring time of the whole run, split evenly over the instances.
    pub seconds: f64,
    pub trace: bool,
    /// Fleets set up one after another in this run.
    pub instances: usize,
    /// Run exactly this many measured rounds per instance instead of
    /// filling the time box (`--smoke`).
    pub fixed_rounds: Option<usize>,
}

/// Wall time of one round's phases, milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundTiming {
    pub begin: f64,
    pub submit: f64,
    pub close: f64,
    pub fetch: f64,
    pub wall: f64,
}

/// Everything the traced instances of a run observed.
#[derive(Default)]
pub struct Traced {
    pub rounds: Vec<RoundTiming>,
    /// Span lists, one per probe (parents index within a list).
    pub spans: Vec<Vec<Span>>,
    pub bytes: HashMap<&'static str, crate::probe::Bytes>,
    pub shard_fetches: u64,
    pub parity_fetches: u64,
    pub origin_fallbacks: u64,
    /// Counter movement over the measured windows, summed per daemon kind:
    /// exposition key -> delta.
    pub coordinator: HashMap<String, f64>,
    pub mixd: HashMap<String, f64>,
    pub cdnd: HashMap<String, f64>,
    /// Per round: total `cdn_publish` span time in the coordinator, ms;
    /// `None` when the round's spans had left the ring.
    pub publish_ms: Vec<Option<f64>>,
    pub usage: Usage,
    pub harness_cpu_ms: f64,
    pub data_dir_bytes: u64,
}

/// Raw samples of one run, pooled over its instances.
#[derive(Default)]
pub struct Samples {
    pub setup_s: Vec<f64>,
    /// Measured rounds with the probes off (all of a timed run; the
    /// baseline instance of a traced run).
    pub rounds: Vec<RoundTiming>,
    pub participate_us: Vec<f64>,
    pub fetch_us: Vec<f64>,
    pub server_cpu_ms: f64,
    pub server_rss_peak_mb: f64,
    /// Framed bytes of the metered clients over `metered_client_rounds`.
    pub metered_up: u64,
    pub metered_down: u64,
    pub metered_client_rounds: u64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub traced: Traced,
    pub flag_lines: Vec<String>,
}

impl Samples {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// One driver thread's share of the population.
struct Worker {
    /// Global index of `clients[0]`.
    base: usize,
    clients: Vec<Client>,
    net: ClientNet,
    probe: Arc<Probe>,
    participate_us: Vec<f64>,
    fetch_us: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    /// Latest keywheel start any of its clients agreed on (dial set-up).
    keywheel_start: u64,
}

impl Worker {
    fn fail(&mut self, client: usize, what: impl std::fmt::Display) {
        self.failures
            .push(format!("client {}: {what}", self.base + client));
    }
}

fn parallel<R: Send>(workers: &mut [Worker], f: impl Fn(&mut Worker) -> R + Sync) -> Vec<R> {
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .map(|worker| scope.spawn(move || f(worker)))
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("driver thread panicked"))
            .collect()
    })
}

/// Which clients' calls the probes record in a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Record {
    Off,
    /// Each driver thread's first client: the metered ones of a timed run.
    Metered,
    /// Everyone, and the admin connection: a traced run.
    All,
}

/// What a round phase needs to know besides the per-client steps.
#[derive(Clone, Copy)]
struct Phase<'a> {
    protocol: RoundKind,
    round: u64,
    steps: &'a [Step],
    identities: &'a [Identity],
    /// Keep the client-call timings of this round.
    measured: bool,
    record: Record,
    /// Hold clients to `Step::expect` (off during the dial handshake).
    check_events: bool,
}

fn submit_phase(worker: &mut Worker, phase: Phase<'_>) {
    for i in 0..worker.clients.len() {
        let step = phase.steps[worker.base + i];
        if !step.participates {
            continue;
        }
        worker.probe.set_on(match phase.record {
            Record::Off => false,
            Record::Metered => i == 0,
            Record::All => true,
        });
        let client = &mut worker.clients[i];
        if let Some((peer, intent)) = step.target {
            let peer = phase.identities[peer as usize].clone();
            match phase.protocol {
                RoundKind::AddFriend => client.add_friend(peer, None),
                RoundKind::Dialing => {
                    if let Err(e) = client.call(peer, intent) {
                        worker.fail(i, format!("call refused: {e}"));
                        continue;
                    }
                }
            }
        }
        let client = &mut worker.clients[i];
        let started = Instant::now();
        let span = worker.probe.begin("participate");
        let placed = match phase.protocol {
            RoundKind::AddFriend => client
                .participate_add_friend(&mut worker.net)
                .map(|_| false),
            RoundKind::Dialing => client
                .participate_dialing(&mut worker.net)
                .map(|event| event.is_some()),
        };
        worker.probe.end(span);
        let micros = started.elapsed().as_secs_f64() * 1e6;
        worker.attempted += 1;
        match placed {
            Err(e) => worker.fail(i, format!("participate failed: {e}")),
            Ok(placed)
                if phase.protocol == RoundKind::Dialing && placed != step.target.is_some() =>
            {
                worker.fail(i, format!("call placed = {placed}, scripted otherwise"))
            }
            Ok(_) if phase.measured => worker.participate_us.push(micros),
            Ok(_) => {}
        }
    }
    worker.probe.set_on(false);
}

fn fetch_phase(worker: &mut Worker, phase: Phase<'_>) {
    for i in 0..worker.clients.len() {
        let step = phase.steps[worker.base + i];
        if !step.fetches {
            continue;
        }
        worker.probe.set_on(match phase.record {
            Record::Off => false,
            Record::Metered => i == 0,
            Record::All => true,
        });
        let client = &mut worker.clients[i];
        let started = Instant::now();
        let span = worker.probe.begin("process");
        let events = match phase.protocol {
            RoundKind::AddFriend => client.process_add_friend_mailbox(&mut worker.net),
            RoundKind::Dialing => client.process_dialing_mailbox(&mut worker.net),
        };
        worker.probe.end(span);
        let micros = started.elapsed().as_secs_f64() * 1e6;
        worker.attempted += 1;
        let events = match events {
            Ok(events) => events,
            Err(e) => {
                worker.fail(i, format!("mailbox processing failed: {e}"));
                continue;
            }
        };
        if phase.measured {
            worker.fetch_us.push(micros);
        }
        for event in &events {
            if let ClientEvent::FriendConfirmed { dialing_round, .. } = event {
                worker.keywheel_start = worker.keywheel_start.max(dialing_round.as_u64());
            }
        }
        if !phase.check_events {
            continue;
        }
        let as_scripted = match (step.expect, events.as_slice()) {
            (None, []) => true,
            (
                Some((peer, _)),
                [ClientEvent::FriendRequestReceived {
                    from,
                    auto_accepted: false,
                    ..
                }],
            ) => phase.protocol == RoundKind::AddFriend && *from == phase.identities[peer as usize],
            (
                Some((peer, intent)),
                [ClientEvent::IncomingCall {
                    from,
                    intent: got,
                    round,
                    ..
                }],
            ) => {
                *from == phase.identities[peer as usize]
                    && *got == intent
                    && *round == Round(phase.round)
            }
            _ => false,
        };
        if !as_scripted {
            worker.fail(
                i,
                format!(
                    "round {}: scripted {:?}, saw {events:?}",
                    phase.round, step.expect
                ),
            );
        }
    }
    worker.probe.set_on(false);
}

/// One fleet with its clients, from set-up to teardown.
struct Instance {
    fleet: Fleet,
    admin: Tap<TcpTransport>,
    admin_probe: Arc<Probe>,
    /// A second coordinator connection, for telemetry polls only.
    telemetry: TcpTransport,
    workers: Vec<Worker>,
    identities: Vec<Identity>,
    protocol: RoundKind,
    /// Protocol round number of script round 0.
    first_round: u64,
}

fn connect(addr: &str) -> Result<TcpTransport, String> {
    TcpTransport::connect_with_timeouts(addr, CONNECT_TIMEOUT, Some(IO_TIMEOUT))
        .map_err(|e| format!("cannot connect to the coordinator at {addr}: {e}"))
}

/// One admin request; anything but the expected reply fails the run.
fn admin_call(net: &mut impl Transport, request: Request) -> Result<Response, String> {
    let what = request.name();
    match net.call(request) {
        Ok(Response::Error(e)) => Err(format!("admin {what}: {e}")),
        Ok(response) => Ok(response),
        Err(e) => Err(format!("admin {what}: {e}")),
    }
}

impl Instance {
    /// Spawns the daemons, creates and registers the clients, and (dialing)
    /// completes the friend handshakes and runs the quiet rounds before the
    /// keywheels start.
    fn set_up(
        cfg: &RunConfig,
        k: usize,
        release_dir: &Path,
        dir: &Path,
        samples: &mut Samples,
    ) -> Result<Instance, String> {
        let workload = cfg.workload;
        let fleet = Fleet::spawn(&FleetSpec {
            release_dir,
            dir,
            // The daemons take a seed byte. Each fleet of a run gets its own,
            // so the run averages over three draws of the mixnet's noise
            // (which sizes the mailboxes); and never 0, the daemons' default.
            seed_byte: ((cfg.seed + 83 * k as u64) % 250) as u8 + 1,
            durable: workload.durable,
        })?;
        let epoch = Instant::now();
        let admin_probe = Probe::new(epoch);
        let mut admin = Tap::new(
            connect(&fleet.coordinator)?,
            Arc::clone(&admin_probe),
            Side::Coordinator,
        );
        let telemetry = connect(&fleet.coordinator)?;
        let Response::PkgKeys(keys) = admin_call(&mut admin, Request::GetPkgKeys)? else {
            return Err("GetPkgKeys: unexpected response".to_string());
        };
        let pkg_keys = keys
            .iter()
            .map(|bytes| VerifyingKey::from_bytes(bytes).map_err(|e| format!("PKG key: {e:?}")))
            .collect::<Result<Vec<_>, _>>()?;

        let identities: Vec<Identity> = (0..workload.clients)
            .map(|i| Identity::new(&format!("u{i}@bench.example")).expect("valid identity"))
            .collect();
        let config = ClientConfig {
            // Add-friend workloads script fresh, never-confirmed requests:
            // an auto-accepting recipient would answer with traffic of its
            // own. The dial handshake wants exactly that answer.
            auto_accept_friends: workload.protocol == RoundKind::Dialing,
            ..ClientConfig::default()
        };
        let mut client_seeds = SplitMix::new(cfg.seed ^ 0x0c11_e475);
        let clients: Vec<Client> = identities
            .iter()
            .map(|identity| {
                Client::new(
                    identity.clone(),
                    pkg_keys.clone(),
                    config.clone(),
                    client_seeds.seed32(),
                )
            })
            .collect();
        let per_worker = workload.clients.div_ceil(DRIVERS);
        let mut clients = clients.into_iter();
        let mut workers = Vec::new();
        for base in (0..workload.clients).step_by(per_worker) {
            let probe = Probe::new(epoch);
            let nodes: Vec<Box<dyn NodeClient>> = fleet
                .cdn_nodes
                .iter()
                .map(|addr| {
                    Box::new(NodeTap::new(TcpNode::new(addr.clone()), Arc::clone(&probe))) as _
                })
                .collect();
            let cdn = Arc::new(ShardedCdn::new(nodes, DATA_SHARDS, PARITY_SHARDS));
            let coordinator = Tap::new(
                connect(&fleet.coordinator)?,
                Arc::clone(&probe),
                Side::Coordinator,
            );
            workers.push(Worker {
                base,
                clients: clients.by_ref().take(per_worker).collect(),
                net: Tap::new(
                    CdnRoutedTransport::new(coordinator, cdn),
                    Arc::clone(&probe),
                    Side::Client,
                ),
                probe,
                participate_us: Vec::new(),
                fetch_us: Vec::new(),
                attempted: 0,
                failures: Vec::new(),
                keywheel_start: 0,
            });
        }
        parallel(&mut workers, |worker| {
            for i in 0..worker.clients.len() {
                worker.attempted += 1;
                if let Err(e) = worker.clients[i].register(&mut worker.net) {
                    worker.fail(i, format!("registration failed: {e}"));
                }
            }
        });

        let mut instance = Instance {
            fleet,
            admin,
            admin_probe,
            telemetry,
            workers,
            identities,
            protocol: workload.protocol,
            first_round: 1,
        };
        if workload.protocol == RoundKind::Dialing {
            instance.dial_set_up(cfg, samples)?;
        }
        instance.drain_workers(samples);
        if samples.failed > 0 {
            return Err(format!("set-up failed: {}", samples.failures.join("; ")));
        }
        if workload.degraded {
            instance.fleet.kill_cdn_node(1);
        }
        Ok(instance)
    }

    /// The pairs befriend each other over two add-friend rounds; then every
    /// client idles through the dialing rounds before the keywheels start.
    fn dial_set_up(&mut self, cfg: &RunConfig, samples: &mut Samples) -> Result<(), String> {
        let script = Script::new(cfg.workload, cfg.seed);
        self.protocol = RoundKind::AddFriend;
        for r in 0..2 {
            let steps = script.handshake_round(r);
            self.round(r as u64 + 1, &steps, false, Record::Off, false, samples)?;
        }
        self.protocol = RoundKind::Dialing;
        let start = self.workers.iter().map(|w| w.keywheel_start).max();
        let start = start.filter(|s| *s > 0).ok_or("no handshake confirmed")?;
        for (a, b) in script.pairs() {
            for (me, peer) in [(a, b), (b, a)] {
                let worker = self.workers.iter().rev().find(|w| w.base <= me as usize);
                let worker = worker.expect("worker 0 starts at client 0");
                let client = &worker.clients[me as usize - worker.base];
                if !client.keywheels().contains(&self.identities[peer as usize]) {
                    return Err(format!("clients {me} and {peer} did not become friends"));
                }
            }
        }
        let quiet: Vec<Step> = (0..cfg.workload.clients)
            .map(|_| Step {
                participates: true,
                fetches: true,
                ..Step::default()
            })
            .collect();
        for round in 1..start {
            self.round(round, &quiet, false, Record::Off, true, samples)?;
        }
        self.first_round = start;
        Ok(())
    }

    /// Moves the workers' tallies into the run's samples.
    fn drain_workers(&mut self, samples: &mut Samples) {
        for worker in &mut self.workers {
            samples.attempted += std::mem::take(&mut worker.attempted);
            for failure in worker.failures.drain(..) {
                samples.fail(failure);
            }
        }
    }

    /// One full round: begin, every scripted client participates, close,
    /// the scripted clients fetch and scan. Checks the round's conservation
    /// identities and the clients' events.
    fn round(
        &mut self,
        round: u64,
        steps: &[Step],
        measured: bool,
        record: Record,
        check_events: bool,
        samples: &mut Samples,
    ) -> Result<RoundTiming, String> {
        let protocol = self.protocol;
        let participants = steps.iter().filter(|s| s.participates).count() as u64;
        let expected_real = steps.iter().filter(|s| s.target.is_some()).count() as u64;
        let (begin, close) = match protocol {
            RoundKind::AddFriend => (
                Request::BeginAddFriendRound {
                    round: Round(round),
                    expected_real,
                },
                Request::CloseAddFriendRound {
                    round: Round(round),
                },
            ),
            RoundKind::Dialing => (
                Request::BeginDialingRound {
                    round: Round(round),
                    expected_real,
                },
                Request::CloseDialingRound {
                    round: Round(round),
                },
            ),
        };
        let phase = Phase {
            protocol,
            round,
            steps,
            identities: &self.identities,
            measured,
            record,
            check_events,
        };
        self.admin_probe.set_on(record == Record::All);
        self.admin_probe.set_round(round);
        for worker in &self.workers {
            worker.probe.set_round(round);
        }
        let mut timing = RoundTiming::default();
        let started = Instant::now();
        let ms_since = |t: Instant| t.elapsed().as_secs_f64() * 1e3;

        samples.attempted += 2;
        admin_call(&mut self.admin, begin)?;
        timing.begin = ms_since(started);

        let t = Instant::now();
        parallel(&mut self.workers, |worker| submit_phase(worker, phase));
        timing.submit = ms_since(t);

        let t = Instant::now();
        let closed = admin_call(&mut self.admin, close)?;
        timing.close = ms_since(t);

        let t = Instant::now();
        parallel(&mut self.workers, |worker| fetch_phase(worker, phase));
        timing.fetch = ms_since(t);
        timing.wall = ms_since(started);
        self.admin_probe.set_on(false);

        let Response::RoundClosed(stats) = closed else {
            return Err(format!("closing round {round}: unexpected response"));
        };
        if stats.client_messages != participants {
            samples.fail(format!(
                "round {round}: {} client messages, {participants} clients participated",
                stats.client_messages
            ));
        }
        // No client sends a malformed onion, so nothing may be dropped.
        if stats.final_messages != stats.client_messages + stats.total_noise {
            samples.fail(format!(
                "round {round}: {} final messages from {} submissions + {} noise",
                stats.final_messages, stats.client_messages, stats.total_noise
            ));
        }
        self.drain_workers(samples);
        Ok(timing)
    }

    fn poll_coordinator(&mut self) -> Result<TelemetryWire, String> {
        match admin_call(&mut self.telemetry, Request::GetTelemetry)? {
            Response::Telemetry(telemetry) => Ok(telemetry),
            _ => Err("GetTelemetry: unexpected response".to_string()),
        }
    }

    /// The metric expositions of every live daemon, summed per daemon kind.
    fn poll_expositions(&mut self) -> Result<[HashMap<String, f64>; 3], String> {
        let mut coordinator = HashMap::new();
        add_exposition(&mut coordinator, &self.poll_coordinator()?.exposition);
        let mut mixd = HashMap::new();
        for addr in &self.fleet.mixers {
            add_exposition(&mut mixd, &poll_mixd(addr)?.exposition);
        }
        let mut cdnd = HashMap::new();
        for (index, addr) in self.fleet.cdn_nodes.iter().enumerate() {
            if !self.fleet.cdn_alive[index] {
                continue;
            }
            match TcpNode::new(addr.clone()).call(&CdnRequest::GetTelemetry) {
                Ok(CdnResponse::Telemetry(t)) => add_exposition(&mut cdnd, &t.exposition),
                other => return Err(format!("cdnd {index} telemetry: {other:?}")),
            }
        }
        Ok([coordinator, mixd, cdnd])
    }
}

fn poll_mixd(addr: &str) -> Result<TelemetryWire, String> {
    let exchange = || -> Result<MixerResponse, Box<dyn std::error::Error>> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        Frame::write_to(&mut stream, &MixerRequest::GetTelemetry.encode())?;
        stream.flush()?;
        Ok(MixerResponse::decode(&Frame::read_from(&mut stream)?)?)
    };
    match exchange() {
        Ok(MixerResponse::Telemetry(telemetry)) => Ok(telemetry),
        Ok(other) => Err(format!("mixd {addr} telemetry: unexpected {other:?}")),
        Err(e) => Err(format!("mixd {addr} telemetry: {e}")),
    }
}

/// Adds every `key value` line of a text exposition into `into`.
fn add_exposition(into: &mut HashMap<String, f64>, exposition: &str) {
    for line in exposition.lines() {
        if let Some((key, value)) = line.rsplit_once(' ') {
            if let Ok(value) = value.parse::<f64>() {
                *into.entry(key.to_string()).or_default() += value;
            }
        }
    }
}

fn add_deltas(
    into: &mut HashMap<String, f64>,
    before: &HashMap<String, f64>,
    after: HashMap<String, f64>,
) {
    for (key, value) in after {
        let delta = value - before.get(&key).copied().unwrap_or(0.0);
        if delta != 0.0 {
            *into.entry(key).or_default() += delta;
        }
    }
}

/// Runs one workload once: `cfg.instances` fleets one after another, each
/// measuring for its share of `cfg.seconds`.
pub fn run(cfg: &RunConfig, release_dir: &Path, watchdog: &Watchdog) -> Result<Samples, String> {
    let mut samples = Samples::default();
    let script = Script::new(cfg.workload, cfg.seed);
    let scratch = release_dir
        .parent()
        .expect("release dir has a parent")
        .join("e2e_bench");
    let window = Duration::from_secs_f64(cfg.seconds / cfg.instances as f64);
    for k in 0..cfg.instances {
        // A traced run keeps its first instance untraced: the baseline the
        // tracing overhead is read against.
        let traced = cfg.trace && k > 0;
        let dir = scratch.join(format!("{}-{}-{k}", cfg.workload.name, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        watchdog.arm("set-up", SETUP_LIMIT);
        let set_up_started = Instant::now();
        let mut instance = Instance::set_up(cfg, k, release_dir, &dir, &mut samples)?;
        samples.setup_s.push(set_up_started.elapsed().as_secs_f64());
        samples.flag_lines.clone_from(&instance.fleet.flag_lines);

        let metered: Vec<usize> = instance.workers.iter().map(|w| w.base).collect();
        let first_round = instance.first_round;
        for r in 0..WARMUP_ROUNDS {
            watchdog.arm("round", ROUND_LIMIT);
            let steps = script.round(r, &metered);
            instance.round(
                first_round + r as u64,
                &steps,
                false,
                Record::Off,
                true,
                &mut samples,
            )?;
        }

        let expositions_before = traced.then(|| instance.poll_expositions()).transpose()?;
        let data_dir_before = instance.fleet.data_dir_bytes();
        let usage_before = instance.fleet.usage();
        let harness_cpu_before = fleet::self_cpu_ms();
        let window_started = Instant::now();
        let mut measured = 0usize;
        loop {
            let record = match (traced, measured < FIXED_ROUNDS) {
                (true, _) => Record::All,
                (false, true) => Record::Metered,
                (false, false) => Record::Off,
            };
            watchdog.arm("round", ROUND_LIMIT);
            let r = WARMUP_ROUNDS + measured;
            let steps = script.round(r, &metered);
            let timing = instance.round(
                first_round + r as u64,
                &steps,
                true,
                record,
                true,
                &mut samples,
            )?;
            measured += 1;
            if traced {
                samples.traced.rounds.push(timing);
                let spans = instance.poll_coordinator()?.spans;
                let correlation = correlation_of(&spans, instance.protocol);
                samples.traced.publish_ms.push(correlation.map(|id| {
                    spans
                        .iter()
                        .filter(|s| s.correlation == id && s.name == "cdn_publish")
                        .map(|s| s.duration_us as f64 / 1e3)
                        .sum()
                }));
            } else {
                samples.rounds.push(timing);
            }
            let done = match cfg.fixed_rounds {
                Some(rounds) => measured >= rounds,
                None => measured >= FIXED_ROUNDS && window_started.elapsed() >= window,
            };
            if measured == FIXED_ROUNDS || (done && measured < FIXED_ROUNDS) {
                let rss = instance.fleet.usage().total_rss_peak_mb();
                samples.server_rss_peak_mb = samples.server_rss_peak_mb.max(rss);
            }
            if done {
                break;
            }
        }
        watchdog.arm("teardown", SETUP_LIMIT);
        let usage = instance.fleet.usage();
        if let Some([c0, m0, d0]) = expositions_before {
            let t = &mut samples.traced;
            let [c1, m1, d1] = instance.poll_expositions()?;
            add_deltas(&mut t.coordinator, &c0, c1);
            add_deltas(&mut t.mixd, &m0, m1);
            add_deltas(&mut t.cdnd, &d0, d1);
            t.usage.absorb(&usage_before, &usage);
            t.harness_cpu_ms += fleet::self_cpu_ms() - harness_cpu_before;
            t.data_dir_bytes += instance.fleet.data_dir_bytes() - data_dir_before;
        } else {
            samples.server_cpu_ms += usage.total_cpu_ms() - usage_before.total_cpu_ms();
        }
        if !instance.fleet.all_alive() {
            samples.fail("a daemon died during the run".to_string());
        }
        collect_probes(
            &mut instance,
            traced,
            measured.min(FIXED_ROUNDS) as u64,
            &mut samples,
        );
        drop(instance);
        if samples.failed == 0 {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    watchdog.disarm();
    Ok(samples)
}

/// The correlation id the coordinator filed the round just closed under,
/// read off its own close span so the id's derivation stays its business.
fn correlation_of(spans: &[alpenhorn_wire::SpanWire], protocol: RoundKind) -> Option<u64> {
    // Spans are listed oldest first, so the last close is this round's.
    let close = match protocol {
        RoundKind::AddFriend => "close_add_friend_round",
        RoundKind::Dialing => "close_dialing_round",
    };
    spans
        .iter()
        .rev()
        .find(|s| s.name == close)
        .map(|s| s.correlation)
}

fn collect_probes(instance: &mut Instance, traced: bool, rounds: u64, samples: &mut Samples) {
    let mut take = |recorded: &mut Recorded, is_client: bool| {
        if traced {
            let t = &mut samples.traced;
            for (name, bytes) in &recorded.bytes {
                let tally = t.bytes.entry(name).or_default();
                tally.calls += bytes.calls;
                tally.up += bytes.up;
                tally.down += bytes.down;
            }
            t.shard_fetches += recorded.shard_fetches;
            t.parity_fetches += recorded.parity_fetches;
            t.origin_fallbacks += recorded.origin_fallbacks;
            t.spans.push(std::mem::take(&mut recorded.spans));
        } else if is_client {
            samples.metered_up += recorded.bytes.values().map(|b| b.up).sum::<u64>();
            samples.metered_down += recorded.bytes.values().map(|b| b.down).sum::<u64>();
            samples.metered_client_rounds += rounds;
        }
    };
    take(&mut instance.admin_probe.recorded(), false);
    for worker in &mut instance.workers {
        take(&mut worker.probe.recorded(), true);
        // Client-call timings count only with the probes off.
        if !traced {
            samples.participate_us.append(&mut worker.participate_us);
            samples.fetch_us.append(&mut worker.fetch_us);
        }
    }
}
