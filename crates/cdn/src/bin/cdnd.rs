//! `cdnd` — one erasure-coded mailbox CDN node as a standalone daemon.
//!
//! Stores and serves shards of closed rounds' mailbox blobs for the
//! coordinator and clients. With `--data-dir` the node is durable: every
//! acknowledged shard is mirrored to disk and reloaded on restart, before
//! the listener binds. Losing a node entirely is also fine — readers
//! reconstruct from any `k` of the `k + m` shards on the surviving fleet.
//!
//! ```text
//! cdnd [--listen ADDR] [--data-dir DIR] [--log-level LEVEL]
//!      [--metrics-dump-secs N]
//! ```

use std::sync::Mutex;

use alpenhorn_cdn::{server_config, CdnNodeState};
use alpenhorn_obs::log::Level;
use alpenhorn_obs::{log_error, log_info};
use alpenhorn_wire::server::serve;

/// The log/metrics target tag for this daemon.
const TARGET: &str = "cdnd";

struct Options {
    listen: String,
    data_dir: Option<String>,
    log_level: Level,
    metrics_dump_secs: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage: cdnd [--listen ADDR] [--data-dir DIR]\n\
         \x20           [--log-level off|error|warn|info|debug] [--metrics-dump-secs N]\n\
         \x20      --listen ADDR listen address (default 127.0.0.1:7307; port 0 for ephemeral)\n\
         \x20      --data-dir D  persist shards under DIR and reload them on restart\n\
         \x20      --log-level L log verbosity (default info)\n\
         \x20      --metrics-dump-secs N  dump the metrics exposition every N seconds"
    );
    std::process::exit(2)
}

fn parse_options() -> Options {
    let mut options = Options {
        listen: "127.0.0.1:7307".to_string(),
        data_dir: None,
        log_level: Level::Info,
        metrics_dump_secs: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("cdnd: {name} requires a value");
                usage()
            })
        };
        match flag.as_str() {
            "--listen" => options.listen = value("--listen"),
            "--data-dir" => options.data_dir = Some(value("--data-dir")),
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
                eprintln!("cdnd: unknown flag {other}");
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
    // Recovery happens here, before the listener binds: a durable node
    // never serves until its previous life's shards are back.
    let state = match &options.data_dir {
        None => CdnNodeState::new(),
        Some(dir) => match CdnNodeState::with_data_dir(dir) {
            Ok(state) => {
                log_info!(
                    TARGET,
                    "recovered {} shards ({} bytes) from {dir}",
                    state.shards_stored(),
                    state.bytes_stored()
                );
                state
            }
            Err(e) => {
                log_error!(TARGET, "cannot open data dir {dir}: {e}");
                std::process::exit(1);
            }
        },
    };
    let handle = match serve(options.listen.as_str(), server_config(), Mutex::new(state)) {
        Ok(handle) => handle,
        Err(e) => {
            log_error!(TARGET, "cannot listen on {}: {e}", options.listen);
            std::process::exit(1);
        }
    };
    log_info!(
        TARGET,
        "listening on {} (durability {})",
        handle.local_addr(),
        if options.data_dir.is_some() {
            "on"
        } else {
            "off"
        },
    );
    // Serve until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
