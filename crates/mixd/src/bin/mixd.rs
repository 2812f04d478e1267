//! `mixd` — one Alpenhorn mix server as a standalone daemon.
//!
//! Hosts the add-friend and dialing mix servers for a single chain position
//! and answers framed [`MixerRequest`](alpenhorn_wire::MixerRequest)s from
//! the coordinator. Because every per-round byte is derived from
//! (`--seed`, `--index`, round id), a `mixd` fleet given the coordinator's
//! seed and distinct indices joins the chain byte-compatibly with an
//! in-process deployment — kill a daemon, restart it with the same flags,
//! and the coordinator's retried requests get the identical answers.
//!
//! ```text
//! mixd --index N [--listen ADDR] [--seed N] [--data-dir DIR]
//!      [--log-level LEVEL] [--metrics-dump-secs N]
//! ```
//!
//! Round processing uses one worker thread per available core.
//! `--data-dir` is accepted for deployment-script symmetry with the other
//! daemons but unused: `mixd` keeps no durable state, by design.

use std::sync::Mutex;

use alpenhorn_mixd::{server_config, MixdServer};
use alpenhorn_obs::log::Level;
use alpenhorn_obs::{log_error, log_info};
use alpenhorn_wire::server::serve;

/// The log/metrics target tag for this daemon.
const TARGET: &str = "mixd";

struct Options {
    listen: String,
    seed: u8,
    index: Option<usize>,
    log_level: Level,
    metrics_dump_secs: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: mixd --index N [--listen ADDR] [--seed N] [--data-dir DIR]\n\
         \x20           [--log-level off|error|warn|info|debug] [--metrics-dump-secs N]\n\
         \x20      --index N     chain position of this mix server (required)\n\
         \x20      --listen ADDR listen address (default 127.0.0.1:7207; port 0 for ephemeral)\n\
         \x20      --seed N      cluster seed byte, must match the coordinator's (default 0)\n\
         \x20      --data-dir D  accepted and ignored: mixd is stateless by design\n\
         \x20      --log-level L log verbosity (default info)\n\
         \x20      --metrics-dump-secs N  dump the metrics exposition every N seconds"
    );
    std::process::exit(2)
}

fn parse_options() -> Options {
    let mut options = Options {
        listen: "127.0.0.1:7207".to_string(),
        seed: 0,
        index: None,
        log_level: Level::Info,
        metrics_dump_secs: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("mixd: {name} requires a value");
                usage()
            })
        };
        match flag.as_str() {
            "--listen" => options.listen = value("--listen"),
            "--seed" => options.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--index" => options.index = Some(value("--index").parse().unwrap_or_else(|_| usage())),
            "--data-dir" => {
                let _ = value("--data-dir");
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
                eprintln!("mixd: unknown flag {other}");
                usage()
            }
        }
    }
    options
}

fn main() {
    let options = parse_options();
    alpenhorn_obs::log::set_level(options.log_level);
    if let Some(secs) = options.metrics_dump_secs {
        alpenhorn_obs::spawn_metrics_dump(TARGET, std::time::Duration::from_secs(secs.max(1)));
    }
    let Some(index) = options.index else {
        eprintln!("mixd: --index is required (which chain position am I?)");
        usage()
    };
    let server = MixdServer::new([options.seed; 32], index);
    let handle = match serve(options.listen.as_str(), server_config(), Mutex::new(server)) {
        Ok(handle) => handle,
        Err(e) => {
            log_error!(TARGET, "cannot listen on {}: {e}", options.listen);
            std::process::exit(1);
        }
    };
    log_info!(
        TARGET,
        "listening on {} (chain position {}, seed {})",
        handle.local_addr(),
        index,
        options.seed
    );
    // Serve until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
