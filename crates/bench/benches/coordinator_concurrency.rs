//! Coordinator concurrency snapshot: what breaking the single service mutex
//! bought, measured over the three dispatch paths of `SharedCoordinator`.
//!
//! * **Read path** — `GetAddFriendRoundInfo` served from the published
//!   epoch snapshot (`SharedCoordinator::handle`) vs. a lock-taking read:
//!   write-guard acquisition plus `cluster().open_add_friend_info()` (what a
//!   single-lock build pays for every RPC; the guard's drop republishes the
//!   snapshot, as every exclusive RPC does).
//! * **Submission intake** — concurrent distinct-onion offers into a
//!   `SubmissionIntake`, plus the canonical sort-by-digest seal.
//! * **Full submit RPC** — concurrent `SubmitAddFriend` through the shared
//!   dispatch (snapshot validation + intake).
//!
//! Caveat recorded alongside the numbers in `docs/PERFORMANCE.md`: CI
//! containers are often single-core, where concurrent threads interleave
//! rather than overlap — the snapshot path's win shows up as the absence of
//! lock convoying and shorter critical sections, not as an N× speedup.
//!
//! Environment:
//! * `BENCH_JSON_OUT` — where to write the JSON snapshot (`BENCH_pr8.json`).
//! * `BENCH_SAMPLE_MS` — per-metric sampling budget (default 300).
//! * `BENCH_SMOKE=1` — reduce the budget and sweep sizes for CI smoke runs.

use std::time::{Duration, Instant};

use alpenhorn_coordinator::service::CoordinatorService;
use alpenhorn_coordinator::{Cluster, ClusterConfig, SharedCoordinator, SubmissionIntake};
use alpenhorn_sim::Table;
use alpenhorn_wire::{Request, Response, Round};

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

fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some()
}

/// Runs `f(thread, op)` from `threads` threads, `ops` calls each, and
/// returns mean wall-clock nanoseconds per call.
fn measure_concurrent_ns(threads: usize, ops: usize, f: impl Fn(usize, usize) + Sync) -> f64 {
    let start = Instant::now();
    std::thread::scope(|scope| {
        for thread in 0..threads {
            let f = &f;
            scope.spawn(move || {
                for op in 0..ops {
                    f(thread, op);
                }
            });
        }
    });
    start.elapsed().as_nanos() as f64 / (threads * ops) as f64
}

/// A unique fixed-size onion per (thread, op) pair.
fn distinct_onion(len: usize, thread: usize, op: usize) -> Vec<u8> {
    let mut onion = vec![0u8; len];
    onion[..8].copy_from_slice(&((thread as u64) << 32 | op as u64).to_be_bytes());
    onion
}

fn open_round(seed: u8) -> (SharedCoordinator, usize) {
    let shared = SharedCoordinator::new(CoordinatorService::new(Cluster::new(
        ClusterConfig::test(seed),
    )));
    let Response::AddFriendRoundInfo(info) = shared.handle(Request::BeginAddFriendRound {
        round: Round(1),
        expected_real: 64,
    }) else {
        panic!("round opens");
    };
    (shared, info.onion_len as usize)
}

fn main() {
    alpenhorn_bench::print_header(
        "Coordinator concurrency snapshot",
        "epoch-snapshot read path and submission intake vs. lock-taking reads (docs/CONCURRENCY.md)",
    );
    let budget = sample_budget();
    let mut metrics: Vec<(String, f64)> = Vec::new();

    // ---- Read path: snapshot vs. exclusive lock, 1 and 4 clients ----
    let (shared, _onion_len) = open_round(80);
    let exclusive_round_info = || {
        let service = shared.write();
        criterion::black_box(service.cluster().open_add_friend_info());
    };
    metrics.push((
        "snapshot_round_info_ns".to_string(),
        measure_ns(budget, || {
            criterion::black_box(shared.handle(Request::GetAddFriendRoundInfo));
        }),
    ));
    metrics.push((
        "exclusive_round_info_ns".to_string(),
        measure_ns(budget, exclusive_round_info),
    ));
    let read_ops = if smoke() { 200 } else { 5_000 };
    for clients in [2usize, 4] {
        metrics.push((
            format!("snapshot_round_info_{clients}c_ns"),
            measure_concurrent_ns(clients, read_ops, |_, _| {
                criterion::black_box(shared.handle(Request::GetAddFriendRoundInfo));
            }),
        ));
        metrics.push((
            format!("exclusive_round_info_{clients}c_ns"),
            measure_concurrent_ns(clients, read_ops, |_, _| exclusive_round_info()),
        ));
    }

    // ---- Submission intake under 4 concurrent submitters ----
    let submit_ops = if smoke() { 100 } else { 2_000 };
    let intake_onion_len = 256;
    let intake = SubmissionIntake::new();
    metrics.push((
        "intake_offer_4c_ns".to_string(),
        measure_concurrent_ns(4, submit_ops, |thread, op| {
            criterion::black_box(intake.offer(&distinct_onion(intake_onion_len, thread, op)));
        }),
    ));
    let batch = intake.seal();
    assert_eq!(batch.len(), 4 * submit_ops, "every offer was accepted");
    let seal_intake = SubmissionIntake::new();
    for onion in &batch {
        seal_intake.offer(onion);
    }
    let start = Instant::now();
    let sealed = seal_intake.seal();
    metrics.push((
        format!("intake_seal_{}onions_ns", sealed.len()),
        start.elapsed().as_nanos() as f64,
    ));

    // ---- Full submit RPC through the shared dispatch ----
    let (shared, onion_len) = open_round(81);
    metrics.push((
        "submit_rpc_4c_ns".to_string(),
        measure_concurrent_ns(4, submit_ops, |thread, op| {
            let response = shared.handle(Request::SubmitAddFriend {
                round: Round(1),
                onion: distinct_onion(onion_len, thread, op),
                token: None,
            });
            assert!(matches!(criterion::black_box(response), Response::Ack));
        }),
    ));
    let Response::RoundClosed(stats) =
        shared.handle(Request::CloseAddFriendRound { round: Round(1) })
    else {
        panic!("round closes");
    };
    assert_eq!(stats.client_messages as usize, 4 * submit_ops);

    let mut table = Table::new("Coordinator concurrency", &["metric", "value"]);
    for (name, value) in &metrics {
        table.push_row(vec![name.clone(), format!("{value:.1} ns/op")]);
    }
    println!("{}", table.render());

    let out_path = std::env::var("BENCH_JSON_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr8.json").to_string()
    });
    let mut json = String::from("{\n  \"schema\": \"alpenhorn-bench-snapshot-v1\",\n");
    json.push_str("  \"bench\": \"coordinator_concurrency\",\n  \"benches\": {\n");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let comma = if i + 1 < metrics.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {value:.2}{comma}\n"));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, json).expect("write bench snapshot");
    println!("snapshot written to {out_path}");
}
