//! `alpenhornd` — the Alpenhorn coordinator daemon.
//!
//! Stands up a complete Alpenhorn deployment (PKGs + mixnet + entry server +
//! CDN) behind the framed RPC protocol and serves concurrent clients over
//! TCP. Rounds are driven either by admin RPCs (the default, which is what
//! the integration tests use) or automatically on a timer with
//! `--round-interval-ms`.
//!
//! ```text
//! alpenhornd [--listen ADDR] [--seed N] [--pkgs N] [--mix-servers N]
//!            [--mixers ADDR,ADDR,...] [--cdn-nodes ADDR,ADDR,...]
//!            [--rate-limit-budget N] [--round-interval-ms MS]
//!            [--data-dir DIR]
//!            [--read-timeout-ms MS] [--write-timeout-ms MS]
//!            [--max-connections N]
//!            [--log-level LEVEL] [--metrics-dump-secs N]
//! ```
//!
//! With `--mixers` the mix chains' in-process mixers are replaced by remote
//! `mixd` daemons, one address per chain position (the count must equal
//! `--mix-servers`; each daemon must run with `--seed`/`--index` matching
//! this deployment). Rounds then produce byte-identical mailboxes to the
//! in-process mixers. With `--cdn-nodes` every closed round's mailboxes are
//! additionally published as 3-data + 1-parity shift-XOR shards across the
//! listed `cdnd` daemons, where clients can fetch them from any 3 live
//! nodes.
//!
//! With `--data-dir DIR` the daemon is durable: registrations, rate-limit
//! budgets, the round counter and the per-protocol open counts are
//! journalled to a write-ahead log — registrations and round opens fsynced
//! before the reply, per-client records made durable by one fsync at each
//! round close — compacted into a snapshot at round boundaries
//! (`alpenhorn-storage`), and the PKG key ratchets are kept apart
//! in `DIR/pkg-ratchets.key`, replaced at every add-friend open. A restarted
//! daemon **recovers that state before it accepts its first connection** —
//! previously registered clients keep working across a crash, auto-driven
//! rounds resume from where the crashed process left off, and the mix chains
//! never re-open an earlier round's onion keys. Restart with the same
//! `--seed`/`--pkgs`/`--mix-servers` so the long-term keys re-derive
//! identically; the data dir restores everything that evolved at runtime,
//! and a daemon whose ratchet file disagrees with its journal refuses to
//! start.
//!
//! With `--round-interval-ms MS` the daemon alternates: open an add-friend
//! and a dialing round, sleep `MS` milliseconds while clients participate,
//! close both, repeat. Without it, an operator (or test harness) opens and
//! closes rounds through `BeginAddFriendRound` / `CloseAddFriendRound` admin
//! requests on the same port.

use std::time::Duration;

use alpenhorn_coordinator::service::{CoordinatorService, RateLimitPolicy, ServiceConfig};
use alpenhorn_coordinator::{Cluster, ClusterConfig, SharedCoordinator};
use alpenhorn_obs::log::Level;
use alpenhorn_obs::{log_error, log_info};
use alpenhorn_storage::StorageConfig;
use alpenhorn_wire::server::{serve, ServerConfig};
use alpenhorn_wire::{Request, Response};

/// The log/metrics target tag for this daemon.
const TARGET: &str = "alpenhornd";

/// The fixed erasure-code geometry of a flag-configured CDN fleet: every
/// mailbox blob becomes 3 data + 1 parity shards, so reads survive one lost
/// node at 33% storage overhead (the deployment shape the docs and the
/// distributed-equivalence test pin down).
const CDN_DATA_SHARDS: usize = 3;
const CDN_PARITY_SHARDS: usize = 1;

struct Options {
    listen: String,
    seed: u8,
    num_pkgs: usize,
    num_mix_servers: usize,
    mixers: Vec<String>,
    cdn_nodes: Vec<String>,
    rate_limit_budget: Option<u32>,
    round_interval: Option<Duration>,
    data_dir: Option<String>,
    read_timeout_ms: Option<u64>,
    write_timeout_ms: Option<u64>,
    max_connections: Option<usize>,
    log_level: Level,
    metrics_dump_secs: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: alpenhornd [--listen ADDR] [--seed N] [--pkgs N] [--mix-servers N]\n\
         \x20                 [--mixers ADDR,ADDR,...] [--cdn-nodes ADDR,ADDR,...]\n\
         \x20                 [--rate-limit-budget N] [--round-interval-ms MS]\n\
         \x20                 [--data-dir DIR]\n\
         \x20                 [--read-timeout-ms MS] [--write-timeout-ms MS]\n\
         \x20                 [--max-connections N]\n\
         \x20                 [--log-level off|error|warn|info|debug]\n\
         \x20                 [--metrics-dump-secs N]\n\
         \x20      --mixers     comma-separated mixd addresses, one per chain\n\
         \x20                   position (count must equal --mix-servers)\n\
         \x20      --cdn-nodes  comma-separated cdnd addresses; mailboxes are\n\
         \x20                   published as 3+1 erasure-coded shards across them"
    );
    std::process::exit(2)
}

fn parse_options() -> Options {
    let mut options = Options {
        listen: "127.0.0.1:7107".to_string(),
        seed: 0,
        num_pkgs: 3,
        num_mix_servers: 3,
        mixers: Vec::new(),
        cdn_nodes: Vec::new(),
        rate_limit_budget: None,
        round_interval: None,
        data_dir: None,
        read_timeout_ms: None,
        write_timeout_ms: None,
        max_connections: None,
        log_level: Level::Info,
        metrics_dump_secs: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("alpenhornd: {name} requires a value");
                usage()
            })
        };
        match flag.as_str() {
            "--listen" => options.listen = value("--listen"),
            "--seed" => options.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--pkgs" => options.num_pkgs = value("--pkgs").parse().unwrap_or_else(|_| usage()),
            "--mix-servers" => {
                options.num_mix_servers = value("--mix-servers").parse().unwrap_or_else(|_| usage())
            }
            "--mixers" => {
                options.mixers = value("--mixers")
                    .split(',')
                    .filter(|a| !a.is_empty())
                    .map(str::to_string)
                    .collect()
            }
            "--cdn-nodes" => {
                options.cdn_nodes = value("--cdn-nodes")
                    .split(',')
                    .filter(|a| !a.is_empty())
                    .map(str::to_string)
                    .collect()
            }
            "--rate-limit-budget" => {
                options.rate_limit_budget = Some(
                    value("--rate-limit-budget")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--round-interval-ms" => {
                options.round_interval = Some(Duration::from_millis(
                    value("--round-interval-ms")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                ))
            }
            "--data-dir" => options.data_dir = Some(value("--data-dir")),
            "--read-timeout-ms" => {
                options.read_timeout_ms = Some(
                    value("--read-timeout-ms")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--write-timeout-ms" => {
                options.write_timeout_ms = Some(
                    value("--write-timeout-ms")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--max-connections" => {
                options.max_connections = Some(
                    value("--max-connections")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--log-level" => {
                options.log_level = Level::parse(&value("--log-level")).unwrap_or_else(|| usage())
            }
            "--metrics-dump-secs" => {
                options.metrics_dump_secs = Some(
                    value("--metrics-dump-secs")
                        .parse()
                        .unwrap_or_else(|_| usage()),
                )
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("alpenhornd: unknown flag {other}");
                usage()
            }
        }
    }
    options
}

/// Issues one admin request on the shared coordinator (the same concurrent
/// dispatch remote admin RPCs take), logging server-side errors
/// (round-lifecycle hiccups must not kill the daemon).
fn admin(shared: &SharedCoordinator, what: &str, request: Request) -> Option<Response> {
    match shared.handle(request) {
        Response::Error(e) => {
            log_error!(TARGET, "{what}: {e}");
            None
        }
        response => Some(response),
    }
}

fn main() {
    let options = parse_options();
    alpenhorn_obs::log::set_level(options.log_level);
    if let Some(secs) = options.metrics_dump_secs {
        alpenhorn_obs::spawn_metrics_dump(TARGET, Duration::from_secs(secs.max(1)));
    }
    let config = ClusterConfig {
        num_pkgs: options.num_pkgs,
        num_mix_servers: options.num_mix_servers,
        seed: [options.seed; 32],
        ..ClusterConfig::default()
    };
    let service_config = ServiceConfig {
        rate_limit: options
            .rate_limit_budget
            .map(|budget_per_day| RateLimitPolicy { budget_per_day }),
    };

    // Recovery happens here, before the listener binds: a durable daemon
    // never accepts a connection until its previous life's state is back.
    let mut cluster = Cluster::new(config);
    if !options.mixers.is_empty() {
        if options.mixers.len() != options.num_mix_servers {
            log_error!(
                TARGET,
                "--mixers lists {} addresses but --mix-servers is {}",
                options.mixers.len(),
                options.num_mix_servers
            );
            std::process::exit(2);
        }
        // One fleet per protocol over the same daemons: each mixd hosts both
        // an add-friend and a dialing server at its chain position.
        let fleet = |addrs: &[String]| -> Vec<Box<dyn alpenhorn_mixd::Mixer>> {
            addrs
                .iter()
                .map(|addr| Box::new(alpenhorn_mixd::RemoteMixer::new(addr.clone())) as _)
                .collect()
        };
        cluster.connect_remote_mixers(fleet(&options.mixers), fleet(&options.mixers));
        log_info!(
            TARGET,
            "mixing via remote mixd fleet: {}",
            options.mixers.join(", ")
        );
    }
    if !options.cdn_nodes.is_empty() {
        let nodes: Vec<Box<dyn alpenhorn_cdn::NodeClient>> = options
            .cdn_nodes
            .iter()
            .map(|addr| Box::new(alpenhorn_cdn::TcpNode::new(addr.clone())) as _)
            .collect();
        cluster.connect_cdn_nodes(nodes, CDN_DATA_SHARDS, CDN_PARITY_SHARDS);
        log_info!(
            TARGET,
            "publishing mailboxes as {CDN_DATA_SHARDS}+{CDN_PARITY_SHARDS} erasure-coded shards \
             across {} cdn nodes: {}",
            options.cdn_nodes.len(),
            options.cdn_nodes.join(", ")
        );
    }
    let service = match &options.data_dir {
        None => CoordinatorService::with_config(cluster, service_config),
        Some(dir) => {
            match CoordinatorService::with_storage(
                cluster,
                service_config,
                dir,
                StorageConfig::default(),
            ) {
                Ok((service, report)) => {
                    if report.recovered {
                        log_info!(
                            TARGET,
                            "recovered state from {dir}: generation {}, snapshot {}, \
                             {} log records replayed, {} torn bytes discarded; \
                             next round {}",
                            report.generation,
                            if report.snapshot_loaded {
                                "loaded"
                            } else {
                                "absent"
                            },
                            report.records_replayed,
                            report.truncated_bytes,
                            service.next_round().as_u64(),
                        );
                    } else {
                        log_info!(TARGET, "initialized empty data dir {dir}");
                    }
                    service
                }
                Err(e) => {
                    log_error!(TARGET, "cannot open data dir {dir}: {e}");
                    std::process::exit(1);
                }
            }
        }
    };
    let rate_limited = service.rate_limited();
    let first_round = service.next_round();

    // Overload policy: flag-tuned timeouts and connection cap over the
    // library defaults (a 0 timeout flag means "no timeout").
    let mut server_config = ServerConfig::default();
    if let Some(ms) = options.read_timeout_ms {
        server_config.read_timeout = (ms > 0).then(|| Duration::from_millis(ms));
    }
    if let Some(ms) = options.write_timeout_ms {
        server_config.write_timeout = (ms > 0).then(|| Duration::from_millis(ms));
    }
    if let Some(cap) = options.max_connections {
        server_config.max_connections = cap;
    }

    let shared = SharedCoordinator::new(service);
    let handle = match serve(options.listen.as_str(), server_config, shared.clone()) {
        Ok(handle) => handle,
        Err(e) => {
            log_error!(TARGET, "cannot listen on {}: {e}", options.listen);
            std::process::exit(1);
        }
    };
    // The listen announcement stays a bare stdout line, emitted regardless
    // of --log-level: deployment harnesses (crash_recovery, chaos, the ci.sh
    // telemetry smoke) parse `alpenhornd listening on ADDR` to learn the
    // ephemeral port.
    println!(
        "alpenhornd listening on {} ({} PKGs, {} mixnet servers, rate limiting {}, durability {})",
        handle.local_addr(),
        options.num_pkgs,
        options.num_mix_servers,
        if rate_limited { "on" } else { "off" },
        if options.data_dir.is_some() {
            "on"
        } else {
            "off"
        },
    );

    match options.round_interval {
        None => {
            log_info!(
                TARGET,
                "rounds are admin-driven; send BeginAddFriendRound/BeginDialingRound RPCs"
            );
            // Serve until killed.
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        Some(interval) => {
            // Runs until the process is killed, like the admin-driven branch.
            // Rounds go through the same `handle` dispatch as remote admin
            // RPCs, so the durable journal sees them and a restarted daemon
            // resumes from the recovered round counter.
            log_info!(
                TARGET,
                "auto-driving rounds every {} ms starting at round {}",
                interval.as_millis(),
                first_round.as_u64()
            );
            let mut round = first_round;
            loop {
                admin(
                    &shared,
                    "opening add-friend round",
                    Request::BeginAddFriendRound {
                        round,
                        expected_real: 128,
                    },
                );
                admin(
                    &shared,
                    "opening dialing round",
                    Request::BeginDialingRound {
                        round,
                        expected_real: 128,
                    },
                );
                std::thread::sleep(interval);
                if let Some(Response::RoundClosed(stats)) = admin(
                    &shared,
                    "closing add-friend round",
                    Request::CloseAddFriendRound { round },
                ) {
                    log_info!(
                        TARGET,
                        "add-friend round {} closed: {} client messages, {} noise",
                        round.as_u64(),
                        stats.client_messages,
                        stats.total_noise
                    );
                }
                if let Some(Response::RoundClosed(stats)) = admin(
                    &shared,
                    "closing dialing round",
                    Request::CloseDialingRound { round },
                ) {
                    log_info!(
                        TARGET,
                        "dialing round {} closed: {} client messages",
                        round.as_u64(),
                        stats.client_messages
                    );
                }
                {
                    let mut svc = shared.write();
                    svc.advance_clock(interval.as_secs().max(1));
                    round = svc.next_round();
                }
            }
        }
    }
}
