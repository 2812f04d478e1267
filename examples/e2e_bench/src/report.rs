//! From raw samples to named metrics: the end-to-end list of a timed run,
//! the per-layer list and budget table of a traced run, the oracle checks
//! on counters, and the environment block.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use alpenhorn_wire::RoundKind;

use crate::driver::{RoundTiming, RunConfig, Samples, DRIVERS};
use crate::fleet;
use crate::json::Json;
use crate::probe::{Span, CDN_FETCH, RPCS, SHARD_GET};

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
struct Metrics(Vec<Metric>);

impl Metrics {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }
}

pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        let fields = [("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
        (m.name.clone(), Json::obj(fields))
    }))
}

/// The `q`-quantile (nearest rank) of `values`; 0 when empty.
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn median_of(rounds: &[RoundTiming], f: impl Fn(&RoundTiming) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

// ---------------------------------------------------------------------------
// End-to-end metrics (timed run)
// ---------------------------------------------------------------------------

pub fn end_to_end(cfg: &RunConfig, s: &Samples) -> Vec<Metric> {
    let rounds = s.rounds.len() as f64;
    let clients = cfg.workload.clients as f64;
    let metered = s.metered_client_rounds as f64;
    let mut out = Metrics::default();
    out.add("setup_s", median(&s.setup_s), "s");
    out.add(
        "round_server_ms",
        median_of(&s.rounds, |r| r.begin + r.close),
        "ms",
    );
    out.add("round_wall_ms", median_of(&s.rounds, |r| r.wall), "ms");
    out.add("participate_us_p50", median(&s.participate_us), "us");
    out.add(
        "intake_clients_per_s",
        ratio(clients * 1e3, median_of(&s.rounds, |r| r.submit)),
        "1/s",
    );
    out.add("fetch_scan_us_p50", median(&s.fetch_us), "us");
    out.add(
        "server_cpu_ms_per_round",
        ratio(s.server_cpu_ms, rounds),
        "ms",
    );
    out.add("server_rss_peak_mb", s.server_rss_peak_mb, "MiB");
    out.add(
        "client_up_bytes_per_round",
        ratio(s.metered_up as f64, metered),
        "bytes",
    );
    out.add(
        "client_down_bytes_per_round",
        ratio(s.metered_down as f64, metered),
        "bytes",
    );
    out.0
}

// ---------------------------------------------------------------------------
// Per-layer metrics (traced run)
// ---------------------------------------------------------------------------

/// Durations and self times (duration minus direct children) by span name.
#[derive(Default)]
struct SpanStats {
    micros: HashMap<&'static str, Vec<f64>>,
    self_micros: HashMap<&'static str, Vec<f64>>,
}

impl SpanStats {
    fn of(lists: &[Vec<Span>]) -> SpanStats {
        let mut stats = SpanStats::default();
        for spans in lists {
            let mut children = vec![0.0; spans.len()];
            for span in spans {
                if let Some(parent) = span.parent {
                    children[parent as usize] += span.micros();
                }
            }
            for (span, child_micros) in spans.iter().zip(children) {
                stats
                    .micros
                    .entry(span.name)
                    .or_default()
                    .push(span.micros());
                stats
                    .self_micros
                    .entry(span.name)
                    .or_default()
                    .push(span.micros() - child_micros);
            }
        }
        stats
    }

    fn p50(&self, name: &str) -> f64 {
        self.micros.get(name).map_or(0.0, |v| median(v))
    }

    fn mean(&self, name: &str) -> f64 {
        self.micros
            .get(name)
            .map_or(0.0, |v| ratio(v.iter().sum(), v.len() as f64))
    }

    fn self_p50(&self, name: &str) -> f64 {
        self.self_micros.get(name).map_or(0.0, |v| median(v))
    }

    fn count(&self, name: &str) -> f64 {
        self.micros.get(name).map_or(0.0, |v| v.len() as f64)
    }
}

/// Sum of the exposition series `name` whose labels include all of `labels`.
fn series(deltas: &HashMap<String, f64>, name: &str, labels: &[(&str, &str)]) -> f64 {
    deltas
        .iter()
        .filter(|(key, _)| {
            let (key_name, key_labels) = key.split_once('{').unwrap_or((key, ""));
            key_name == name
                && labels
                    .iter()
                    .all(|(k, v)| key_labels.contains(&format!("{k}=\"{v}\"")))
        })
        .map(|(_, value)| value)
        // An empty f64 sum is -0.0; print absent series as plain 0.
        .sum::<f64>()
        + 0.0
}

/// The coordinator's name for each protocol-agnostic RPC of `probe::RPCS`.
fn server_rpc_name(rpc: &str, protocol: RoundKind) -> &'static str {
    match (rpc, protocol) {
        ("round_info", RoundKind::AddFriend) => "get_add_friend_round_info",
        ("round_info", RoundKind::Dialing) => "get_dialing_round_info",
        ("extract_keys", _) => "extract_identity_keys",
        ("issue_token", _) => "issue_rate_limit_token",
        ("submit", RoundKind::AddFriend) => "submit_add_friend",
        ("submit", RoundKind::Dialing) => "submit_dialing",
        ("begin_round", RoundKind::AddFriend) => "begin_add_friend_round",
        ("begin_round", RoundKind::Dialing) => "begin_dialing_round",
        ("close_round", RoundKind::AddFriend) => "close_add_friend_round",
        ("close_round", RoundKind::Dialing) => "close_dialing_round",
        _ => unreachable!("not one of probe::RPCS: {rpc}"),
    }
}

pub fn per_layer(cfg: &RunConfig, s: &Samples) -> Vec<Metric> {
    let t = &s.traced;
    let spans = SpanStats::of(&t.spans);
    let rounds = t.rounds.len() as f64;
    let client_rounds = rounds * cfg.workload.clients as f64;
    let protocol = cfg.workload.protocol;
    let label = protocol.label();
    let per_round = |total: f64| ratio(total, rounds);
    let coordinator = |name: &str, labels: &[(&str, &str)]| series(&t.coordinator, name, labels);
    let mut out = Metrics::default();

    out.add(
        "core.participate_self_us",
        spans.self_p50("participate"),
        "us",
    );
    out.add("core.scan_self_us", spans.self_p50("process"), "us");
    // From the untraced baseline fleet, so the probes do not stretch the
    // tail. Too noisy on a shared box to gate on, hence not end-to-end.
    out.add(
        "core.participate_us_p99",
        quantile(&s.participate_us, 0.99),
        "us",
    );
    out.add("core.ops_failed", s.failed as f64, "count");

    for rpc in RPCS {
        let server = [("rpc", server_rpc_name(rpc, protocol))];
        let handled = coordinator("coordinator_rpc_latency_us_count", &server);
        let handle_us = ratio(
            coordinator("coordinator_rpc_latency_us_sum", &server),
            handled,
        );
        let bytes = t.bytes.get(rpc).copied().unwrap_or_default();
        let calls = bytes.calls as f64;
        out.add(
            format!("wire.rpc_overhead_us.{rpc}"),
            // Mean against mean: the histogram only gives the server's mean,
            // and a median minus a mean of a skewed time can go negative.
            if handled > 0.0 {
                spans.mean(rpc) - handle_us
            } else {
                0.0
            },
            "us",
        );
        out.add(
            format!("wire.up_bytes.{rpc}"),
            ratio(bytes.up as f64, calls),
            "bytes",
        );
        out.add(
            format!("wire.down_bytes.{rpc}"),
            ratio(bytes.down as f64, calls),
            "bytes",
        );
        out.add(format!("coordinator.rpc_us.{rpc}"), spans.p50(rpc), "us");
        out.add(format!("coordinator.handle_us.{rpc}"), handle_us, "us");
        out.add(
            format!("coordinator.rpc_count.{rpc}"),
            per_round(handled),
            "count",
        );
    }
    out.add(
        "coordinator.begin_ms",
        median_of(&t.rounds, |r| r.begin),
        "ms",
    );
    out.add(
        "coordinator.close_ms",
        median_of(&t.rounds, |r| r.close),
        "ms",
    );
    out.add(
        "coordinator.cpu_ms_per_round",
        per_round(t.usage.coordinator.cpu_ms),
        "ms",
    );
    out.add(
        "coordinator.rss_peak_mb",
        t.usage.coordinator.rss_peak_mb,
        "MiB",
    );
    out.add(
        "coordinator.connections_shed",
        coordinator("coordinator_connections_shed_total", &[]),
        "count",
    );

    let extract = [("rpc", "extract_identity_keys")];
    let extracts = coordinator("coordinator_rpc_latency_us_count", &extract);
    out.add(
        "pkg.extract_handle_us",
        ratio(
            coordinator("coordinator_rpc_latency_us_sum", &extract),
            extracts,
        ),
        "us",
    );
    out.add("pkg.extracts_per_round", per_round(extracts), "count");

    let appends = coordinator("storage_wal_appends_total", &[]);
    let fsyncs = coordinator("storage_group_fsyncs_total", &[]);
    let fsync_us = coordinator("storage_group_fsync_us_sum", &[]);
    out.add(
        "storage.wal_appends_per_client_round",
        ratio(appends, client_rounds),
        "count",
    );
    out.add(
        "storage.fsyncs_per_client_round",
        ratio(fsyncs, client_rounds),
        "count",
    );
    out.add(
        "storage.fsync_us_mean",
        ratio(fsync_us, coordinator("storage_group_fsync_us_count", &[])),
        "us",
    );
    out.add(
        "storage.append_us_mean",
        ratio(
            coordinator("storage_wal_append_us_sum", &[]),
            coordinator("storage_wal_append_us_count", &[]),
        ),
        "us",
    );
    out.add(
        "storage.fsync_ms_per_round",
        per_round(fsync_us / 1e3),
        "ms",
    );
    out.add(
        "storage.data_dir_bytes_per_round",
        per_round(t.data_dir_bytes as f64),
        "bytes",
    );

    let chain_ms = |phase: &str| {
        let labels = [("protocol", label), ("phase", phase)];
        per_round(coordinator("coordinator_mix_phase_us_sum", &labels) / 1e3)
    };
    let handlers_ms = per_round(
        series(
            &t.mixd,
            "mixd_round_phase_us_sum",
            &[("protocol", label), ("phase", "process")],
        ) / 1e3,
    );
    out.add("mixd.chain_begin_ms", chain_ms("begin"), "ms");
    out.add("mixd.chain_process_ms", chain_ms("process"), "ms");
    out.add("mixd.chain_end_ms", chain_ms("end"), "ms");
    out.add("mixd.handler_process_ms", handlers_ms, "ms");
    out.add("mixd.transfer_ms", chain_ms("process") - handlers_ms, "ms");
    out.add(
        "mixd.pipeline_stall_ms",
        per_round(
            coordinator(
                "coordinator_mix_pipeline_stall_us_sum",
                &[("protocol", label)],
            ) / 1e3,
        ),
        "ms",
    );
    out.add(
        "mixd.cpu_ms_per_round",
        per_round(t.usage.mixd.cpu_ms),
        "ms",
    );
    out.add("mixd.rss_peak_mb", t.usage.mixd.rss_peak_mb, "MiB");
    for (name, counter) in [
        ("mixnet.noise_per_round", "coordinator_round_noise_total"),
        (
            "mixnet.dropped_per_round",
            "coordinator_round_dropped_total",
        ),
        (
            "mixnet.final_messages_per_round",
            "coordinator_round_final_messages_total",
        ),
    ] {
        let total = coordinator(counter, &[("protocol", label)]);
        out.add(name, per_round(total), "count");
    }

    let published: Vec<f64> = t.publish_ms.iter().flatten().copied().collect();
    let downloads = spans.count(CDN_FETCH);
    let shard_bytes = t.bytes.get(SHARD_GET).copied().unwrap_or_default();
    out.add("cdn.publish_ms_per_round", median(&published), "ms");
    out.add(
        "cdn.publishes_per_round",
        per_round(coordinator("cdn_publishes_total", &[])),
        "count",
    );
    out.add(
        "cdn.publish_shard_failures",
        per_round(coordinator("cdn_publish_shard_failures_total", &[])),
        "count",
    );
    out.add("cdn.fetch_us_p50", spans.p50(CDN_FETCH), "us");
    out.add("cdn.shard_get_us_p50", spans.p50(SHARD_GET), "us");
    out.add("erasure.reassemble_us_p50", spans.self_p50(CDN_FETCH), "us");
    out.add(
        "cdn.shard_fetches_per_download",
        ratio(t.shard_fetches as f64, downloads),
        "count",
    );
    out.add(
        "cdn.parity_decodes_per_download",
        ratio(t.parity_fetches as f64, downloads),
        "count",
    );
    out.add("cdn.origin_fallbacks", t.origin_fallbacks as f64, "count");
    out.add(
        "cdn.bytes_per_download",
        ratio(shard_bytes.down as f64, downloads),
        "bytes",
    );
    out.add(
        "cdn.node_cpu_ms_per_round",
        per_round(t.usage.cdnd.cpu_ms),
        "ms",
    );
    out.add("cdn.node_rss_peak_mb", t.usage.cdnd.rss_peak_mb, "MiB");

    let budget = Budget::of(s, &out.0);
    out.add(
        "harness.cpu_ms_per_round",
        per_round(t.harness_cpu_ms),
        "ms",
    );
    out.add(
        "trace.overhead_pct",
        100.0
            * (ratio(
                median_of(&t.rounds, |r| r.wall),
                median_of(&s.rounds, |r| r.wall),
            ) - 1.0),
        "%",
    );
    out.add(
        "obs.round_spans_lost",
        (t.publish_ms.len() - published.len()) as f64,
        "count",
    );
    out.add(
        "budget.round_unattributed_pct",
        budget.round_unattributed_pct(),
        "%",
    );
    out.add(
        "budget.close_unattributed_pct",
        budget.close_unattributed_pct(),
        "%",
    );
    out.0
}

/// Where a round's wall time goes, in mean milliseconds per traced round
/// (means, not medians, so that the parts add up).
pub struct Budget {
    wall: f64,
    begin: f64,
    submit: f64,
    close: f64,
    fetch: f64,
    mix_process: f64,
    mix_handlers: f64,
    mix_end: f64,
    publish: f64,
}

impl Budget {
    fn of(s: &Samples, per_layer: &[Metric]) -> Budget {
        let rounds = &s.traced.rounds;
        let mean = |f: fn(&RoundTiming) -> f64| {
            ratio(rounds.iter().map(f).sum::<f64>(), rounds.len() as f64)
        };
        let layer = |name: &str| {
            per_layer
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value)
        };
        let published: Vec<f64> = s.traced.publish_ms.iter().flatten().copied().collect();
        Budget {
            wall: mean(|r| r.wall),
            begin: mean(|r| r.begin),
            submit: mean(|r| r.submit),
            close: mean(|r| r.close),
            fetch: mean(|r| r.fetch),
            mix_process: layer("mixd.chain_process_ms"),
            mix_handlers: layer("mixd.handler_process_ms"),
            mix_end: layer("mixd.chain_end_ms"),
            publish: ratio(published.iter().sum::<f64>(), published.len() as f64),
        }
    }

    fn round_unattributed_pct(&self) -> f64 {
        let phases = self.begin + self.submit + self.close + self.fetch;
        100.0 * ratio(self.wall - phases, self.wall)
    }

    fn close_unattributed_pct(&self) -> f64 {
        let parts = self.mix_process + self.mix_end + self.publish;
        100.0 * ratio(self.close - parts, self.close)
    }

    pub fn table(s: &Samples, per_layer: &[Metric]) -> String {
        let b = Budget::of(s, per_layer);
        let mut out = String::new();
        let mut row = |indent: usize, what: &str, ms: f64, of: f64| {
            let _ = writeln!(
                out,
                "  {:indent$}{what:<w$} {ms:>10.3} ms {:>6.1} %",
                "",
                100.0 * ratio(ms, of),
                w = 34 - indent,
            );
        };
        row(0, "round wall (mean, traced)", b.wall, b.wall);
        row(2, "begin   (Begin*Round RPC)", b.begin, b.wall);
        row(2, "submit  (all clients participate)", b.submit, b.wall);
        row(2, "close   (Close*Round RPC)", b.close, b.wall);
        row(4, "mix process, chain", b.mix_process, b.close);
        row(6, "mixd handlers (3 daemons)", b.mix_handlers, b.close);
        row(
            6,
            "batch transfer (chain - handlers)",
            b.mix_process - b.mix_handlers,
            b.close,
        );
        row(4, "mix end, chain", b.mix_end, b.close);
        row(4, "cdn publish (erasure + puts)", b.publish, b.close);
        row(
            4,
            "unattributed",
            b.close - b.mix_process - b.mix_end - b.publish,
            b.close,
        );
        row(2, "fetch   (sampled clients scan)", b.fetch, b.wall);
        row(
            2,
            "unattributed (between phases)",
            b.wall - b.begin - b.submit - b.close - b.fetch,
            b.wall,
        );
        out
    }
}

/// Writes every span of the traced instances, one JSON object a line:
/// `probe` is the list it came from (0 = admin connection, then one per
/// driver thread, repeating per instance), `id` its index there, which is
/// what `parent` refers to.
pub fn write_trace(path: &Path, lists: &[Vec<Span>]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (probe, spans) in lists.iter().enumerate() {
        for (id, span) in spans.iter().enumerate() {
            let parent = span.parent.map_or(Json::Null, |p| Json::Num(p as f64));
            let line = Json::obj([
                ("probe", Json::Num(probe as f64)),
                ("id", Json::Num(id as f64)),
                ("name", Json::str(span.name)),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
                ("parent", parent),
                ("round", Json::Num(span.round as f64)),
            ]);
            writeln!(out, "{line}")?;
        }
    }
    out.flush()
}

// ---------------------------------------------------------------------------
// Oracle on counters
// ---------------------------------------------------------------------------

/// Checks the identities that hold on counters rather than on one client's
/// events; each violation counts as a failed operation.
pub fn verify(cfg: &RunConfig, s: &mut Samples) {
    let mut violations = Vec::new();
    let t = &s.traced;
    // The CDN path, over whatever the probes saw: every client of a traced
    // run, the metered clients of a timed one.
    let downloads = t
        .spans
        .iter()
        .flatten()
        .filter(|span| span.name == CDN_FETCH)
        .count() as u64;
    if cfg.trace {
        if t.shard_fetches != fleet::DATA_SHARDS as u64 * downloads {
            violations.push(format!(
                "{} shard fetches for {downloads} downloads, expected {} each",
                t.shard_fetches,
                fleet::DATA_SHARDS
            ));
        }
        let parity = if cfg.workload.degraded { downloads } else { 0 };
        if t.parity_fetches != parity {
            violations.push(format!(
                "{} parity shards fetched for {downloads} downloads, expected {parity}",
                t.parity_fetches
            ));
        }
        if t.origin_fallbacks != 0 {
            violations.push(format!(
                "{} mailbox fetches fell back to the coordinator",
                t.origin_fallbacks
            ));
        }
        let label = cfg.workload.protocol.label();
        let count = |name: &str| series(&t.coordinator, name, &[("protocol", label)]);
        let (submissions, noise, dropped, finals) = (
            count("coordinator_round_submissions_total"),
            count("coordinator_round_noise_total"),
            count("coordinator_round_dropped_total"),
            count("coordinator_round_final_messages_total"),
        );
        if finals != submissions + noise - dropped {
            violations.push(format!(
                "mixnet conservation: {finals} final != {submissions} + {noise} - {dropped}"
            ));
        }
        if !cfg.workload.durable {
            let storage: f64 = t
                .coordinator
                .iter()
                .filter(|(key, _)| key.starts_with("storage_"))
                .map(|(_, delta)| delta.abs())
                .sum();
            if storage != 0.0 {
                violations.push(format!(
                    "storage counters moved by {storage} on a volatile workload"
                ));
            }
        }
    }
    for violation in violations {
        s.failed += 1;
        if s.failures.len() < 8 {
            s.failures.push(violation);
        }
    }
}

// ---------------------------------------------------------------------------
// Environment
// ---------------------------------------------------------------------------

fn first_line_value(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|line| line.starts_with(key))
        .and_then(|line| line.split_once(':'))
        .map(|(_, value)| value.trim().to_string())
}

pub fn environment(cfg: &RunConfig, scratch: &Path, flag_lines: &[String]) -> Json {
    let git = std::process::Command::new("git")
        .current_dir(fleet::repo_root())
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(
            || "unknown (not a git checkout)".to_string(),
            |s| s.trim().to_string(),
        );
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("git_commit", Json::Str(git)),
        ("seed", Json::Num(cfg.seed as f64)),
        ("nproc", Json::Num(nproc as f64)),
        (
            "cpu_model",
            Json::Str(first_line_value("/proc/cpuinfo", "model name").unwrap_or_default()),
        ),
        (
            "kernel",
            Json::Str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .unwrap_or_default()
                    .trim()
                    .to_string(),
            ),
        ),
        (
            "data_dir_filesystem",
            Json::Str(fleet::filesystem_type(scratch)),
        ),
        ("driver_threads", Json::Num(DRIVERS as f64)),
        ("clients", Json::Num(cfg.workload.clients as f64)),
        ("instances_per_run", Json::Num(cfg.instances as f64)),
        (
            "daemon_flags",
            Json::Arr(flag_lines.iter().map(Json::str).collect()),
        ),
        (
            "network",
            Json::str("loopback, not a real link: no wire latency, no bandwidth limit"),
        ),
        (
            "pairing",
            Json::str("the functional mock under vendor/ (ark-* stand-ins), not a real BLS12-381"),
        ),
        ("load_model", Json::str("closed loop")),
    ])
}
