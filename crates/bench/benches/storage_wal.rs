//! Storage snapshot: costs of the durable-state substrate (`alpenhorn-storage`)
//! on the paths a busy coordinator exercises — record framing, a buffered
//! WAL append (every per-client journal record), the round-close barrier
//! (one fsync over a round's buffered records), recovery replay, and atomic
//! snapshots.
//!
//! Like `hash_hot_path` and `wire_rpc`, this target writes a machine-readable
//! snapshot (`BENCH_pr5.json` by default, override with `BENCH_JSON_OUT`) so
//! the perf trajectory is recorded in-repo and `scripts/bench_compare.sh` can
//! diff two snapshots and flag regressions.
//!
//! Environment:
//! * `BENCH_JSON_OUT` — where to write the JSON snapshot.
//! * `BENCH_SAMPLE_MS` — per-metric sampling budget (default 300).
//! * `BENCH_SMOKE=1` — reduce the budget for CI smoke runs.

use std::time::{Duration, Instant};

use alpenhorn_sim::Table;
use alpenhorn_storage::{record, snapshot, Durability, GroupWal, Wal};

/// Records one barrier makes durable: an `af_prod`-sized round, 400 clients
/// × (issue, extract, submit).
const BARRIER_RECORDS: usize = 1200;

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

fn main() {
    alpenhorn_bench::print_header(
        "Storage WAL snapshot",
        "durable-state substrate costs (docs/ARCHITECTURE.md, Durability & recovery)",
    );
    let budget = sample_budget();
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();

    let dir = std::env::temp_dir().join(format!("alpenhorn-bench-storage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench tmp dir");

    // A coordinator-journal-shaped record: identity + key + timestamp ≈ 150 B.
    let payload = vec![0xa5u8; 150];
    let encoded = record::encode(1, &payload);
    metrics.push((
        "record_encode_ns",
        measure_ns(budget, || {
            criterion::black_box(record::encode(1, &payload));
        }),
    ));
    metrics.push((
        "record_decode_ns",
        measure_ns(budget, || {
            criterion::black_box(record::decode_at(&encoded, 0).unwrap());
        }),
    ));

    // A buffered append through the shared log: what every per-client
    // journal record costs its RPC.
    {
        let group = GroupWal::new(Wal::open(dir.join("buffered.log")).unwrap().0, 0);
        metrics.push((
            "wal_append_buffered_ns",
            measure_ns(budget, || {
                group.append(1, &payload, Durability::Buffered).unwrap();
            }),
        ));
    }

    // The round-close barrier: one fsync over a round's worth of buffered
    // records. Only the sync is timed; the sample budget bounds wall time,
    // appends included, so the log stays small.
    {
        let group = GroupWal::new(Wal::open(dir.join("barrier.log")).unwrap().0, 0);
        let started = Instant::now();
        let (mut synced, mut barriers) = (Duration::ZERO, 0u32);
        while barriers < 3 || started.elapsed() < budget {
            for _ in 0..BARRIER_RECORDS {
                group.append(1, &payload, Durability::Buffered).unwrap();
            }
            let sync_started = Instant::now();
            group.sync().unwrap();
            synced += sync_started.elapsed();
            barriers += 1;
        }
        metrics.push((
            "wal_barrier_sync_1200_ns",
            synced.as_nanos() as f64 / f64::from(barriers),
        ));
    }

    // Recovery replay throughput over a 10k-record log (the acceptance
    // workload), reported per record.
    {
        let replay_path = dir.join("replay.log");
        let (mut wal, _) = Wal::open(&replay_path).unwrap();
        for i in 0..10_000u32 {
            wal.append((i % 7) as u8, &payload).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let per_open = measure_ns(budget, || {
            let (_, recovery) = Wal::open(&replay_path).unwrap();
            assert_eq!(recovery.records.len(), 10_000);
            criterion::black_box(recovery.records.len());
        });
        metrics.push(("wal_replay_per_record_ns", per_open / 10_000.0));
    }

    // Atomic snapshot write + validated read of a 64 KiB state (a small
    // deployment's registrations).
    {
        let state = vec![0x5au8; 64 << 10];
        let snap_path = dir.join("state.snap");
        metrics.push((
            "snapshot_write_64k_ns",
            measure_ns(budget, || {
                snapshot::write_atomic(&snap_path, &state).unwrap();
            }),
        ));
        metrics.push((
            "snapshot_read_64k_ns",
            measure_ns(budget, || {
                criterion::black_box(snapshot::read(&snap_path).unwrap().unwrap());
            }),
        ));
    }

    let mut table = Table::new("Storage WAL", &["metric", "value"]);
    for (name, value) in &metrics {
        table.push_row(vec![(*name).to_string(), format!("{value:.1} ns/op")]);
    }
    println!("{}", table.render());
    println!(
        "(record: {} B payload, {} B on disk; barrier: {BARRIER_RECORDS} records; \
         replay log: 10k records)",
        payload.len(),
        encoded.len()
    );

    let _ = std::fs::remove_dir_all(&dir);

    let out_path = std::env::var("BENCH_JSON_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr5.json").to_string()
    });
    let mut json = String::from("{\n  \"schema\": \"alpenhorn-bench-snapshot-v1\",\n");
    json.push_str("  \"bench\": \"storage_wal\",\n  \"benches\": {\n");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let comma = if i + 1 < metrics.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {value:.2}{comma}\n"));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, json).expect("write bench snapshot");
    println!("snapshot written to {out_path}");
}
