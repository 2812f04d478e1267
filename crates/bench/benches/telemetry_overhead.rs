//! Telemetry overhead snapshot: what PR 10's always-on instrumentation
//! costs on the coordinator's hot RPC dispatch path.
//!
//! * **Primitive costs** — one counter increment, gauge store, histogram
//!   observe, span begin/drop, and correlation-id derivation, each measured
//!   alone. These bound what any single instrumentation point can cost.
//! * **Dispatch overhead** — the full framed-payload dispatch
//!   (the coordinator's `Handler::respond`: decode → in-flight gauge + RPC
//!   timing + span + outcome counter → encode) against a bare
//!   decode → `handle` → encode loop with every telemetry hook skipped.
//!   The delta is exactly the per-RPC instrumentation tax in nanoseconds.
//!   Relative to the bare in-memory dispatch (itself ~100 ns) that tax looks
//!   enormous, so the snapshot also measures a real framed TCP round trip
//!   against a served coordinator and reports the tax as a fraction of what
//!   a client actually observes per RPC — the acceptance target is **< 5%**
//!   of the client-visible RPC.
//!
//! Environment:
//! * `BENCH_JSON_OUT` — where to write the JSON snapshot (`BENCH_pr10.json`).
//! * `BENCH_SAMPLE_MS` — per-metric sampling budget (default 300).
//! * `BENCH_SMOKE=1` — reduce the budget for CI smoke runs.

use std::time::Duration;

use alpenhorn::{TcpTransport, Transport};
use alpenhorn_coordinator::server::serve as coordinator_serve;
use alpenhorn_coordinator::service::CoordinatorService;
use alpenhorn_coordinator::{Cluster, ClusterConfig, SharedCoordinator};
use alpenhorn_sim::Table;
use alpenhorn_wire::server::Handler;
use alpenhorn_wire::{Request, Response, Round, RoundKind};

fn measure_ns(budget: Duration, f: impl FnMut()) -> f64 {
    criterion::measure_mean_ns(budget, f).0
}

fn sample_budget() -> Duration {
    if std::env::var_os("BENCH_SMOKE").is_some() {
        return Duration::from_millis(60);
    }
    let ms = std::env::var("BENCH_SAMPLE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300u64);
    Duration::from_millis(ms)
}

fn open_round(seed: u8) -> SharedCoordinator {
    let shared = SharedCoordinator::new(CoordinatorService::new(Cluster::new(
        ClusterConfig::test(seed),
    )));
    let Response::AddFriendRoundInfo(_) = shared.handle(Request::BeginAddFriendRound {
        round: Round(1),
        expected_real: 64,
    }) else {
        panic!("round opens");
    };
    shared
}

fn main() {
    alpenhorn_bench::print_header(
        "Telemetry overhead snapshot",
        "always-on instrumentation tax on the RPC dispatch hot path (docs/OBSERVABILITY.md; target < 5%)",
    );
    let budget = sample_budget();
    let mut metrics: Vec<(String, f64)> = Vec::new();

    // ---- Primitive instrumentation costs, each alone ----
    let registry = alpenhorn_obs::global();
    let counter = registry.counter("bench_telemetry_counter_total", &[("bench", "overhead")]);
    let gauge = registry.gauge("bench_telemetry_gauge", &[("bench", "overhead")]);
    let histogram = registry.histogram("bench_telemetry_us", &[("bench", "overhead")]);
    metrics.push((
        "counter_inc_ns".to_string(),
        measure_ns(budget, || counter.inc()),
    ));
    let mut tick = 0u64;
    metrics.push((
        "gauge_set_ns".to_string(),
        measure_ns(budget, || {
            tick += 1;
            gauge.set(tick);
        }),
    ));
    metrics.push((
        "histogram_observe_ns".to_string(),
        measure_ns(budget, || {
            tick += 1;
            histogram.observe(tick);
        }),
    ));
    metrics.push((
        "correlation_id_ns".to_string(),
        measure_ns(budget, || {
            tick += 1;
            criterion::black_box(alpenhorn_obs::correlation_id(
                RoundKind::AddFriend.code(),
                tick,
            ));
        }),
    ));
    metrics.push((
        "span_begin_drop_ns".to_string(),
        measure_ns(budget, || {
            drop(alpenhorn_obs::SpanGuard::begin("bench", "overhead", 1));
        }),
    ));

    // ---- Dispatch overhead: instrumented vs. bare, same work otherwise ----
    // The snapshot-served read path is the coordinator's hottest RPC; a
    // round-scoped fetch additionally opens a span per dispatch.
    let shared = open_round(100);

    // The client-visible denominator: one framed RPC over localhost TCP
    // against a served coordinator (instrumentation on — it always is).
    let server = coordinator_serve(
        CoordinatorService::new(Cluster::new(ClusterConfig::test(101))),
        "127.0.0.1:0",
    )
    .expect("coordinator binds");
    let mut net = TcpTransport::connect(server.local_addr()).expect("bench client connects");
    let tcp_rpc = measure_ns(budget, || {
        criterion::black_box(net.call(Request::GetPkgKeys).expect("rpc succeeds"));
    });
    metrics.push(("tcp_rpc_round_trip_ns".to_string(), tcp_rpc));

    let mut overhead = Vec::new();
    for (path, payload) in [
        ("round_info", Request::GetAddFriendRoundInfo.encode()),
        (
            "fetch_mailbox",
            Request::FetchAddFriendMailbox {
                round: Round(1),
                mailbox: alpenhorn_wire::MailboxId(0),
            }
            .encode(),
        ),
    ] {
        let bare = measure_ns(budget, || {
            let request = Request::decode(&payload).expect("payload decodes");
            let response = shared.handle(request);
            criterion::black_box(response.encode());
        });
        let instrumented = measure_ns(budget, || {
            criterion::black_box(shared.respond(&payload));
        });
        let tax = instrumented - bare;
        let pct = tax / tcp_rpc * 100.0;
        metrics.push((format!("dispatch_{path}_bare_ns"), bare));
        metrics.push((format!("dispatch_{path}_instrumented_ns"), instrumented));
        metrics.push((format!("dispatch_{path}_overhead_pct"), pct));
        overhead.push((path, tax, pct));
    }
    server.shutdown();
    // Spans accumulate in the bounded global ring during the sweep; drop
    // them so later same-process consumers see a clean slate.
    alpenhorn_obs::clear_spans();

    let mut table = Table::new("Telemetry overhead", &["metric", "value"]);
    for (name, value) in &metrics {
        let unit = if name.ends_with("_pct") {
            "%"
        } else {
            " ns/op"
        };
        table.push_row(vec![name.clone(), format!("{value:.1}{unit}")]);
    }
    println!("{}", table.render());
    for (path, tax, pct) in &overhead {
        println!(
            "dispatch_{path}: {tax:+.1} ns instrumentation tax = {pct:+.2}% of a \
             client-visible TCP RPC (target < 5%)"
        );
    }

    let out_path = std::env::var("BENCH_JSON_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr10.json").to_string()
    });
    let mut json = String::from("{\n  \"schema\": \"alpenhorn-bench-snapshot-v1\",\n");
    json.push_str("  \"bench\": \"telemetry_overhead\",\n  \"benches\": {\n");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let comma = if i + 1 < metrics.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {value:.2}{comma}\n"));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, json).expect("write bench snapshot");
    println!("snapshot written to {out_path}");
}
