//! The one microbenchmark: per-operation costs of the primitives, in ns.
//!
//! * The first eight rows are [`MeasuredCosts::measure`], the calibration
//!   the cost model (`alpenhorn-sim`, Figs 6–10) is built from, so the
//!   numbers recorded here are the numbers the model runs on.
//! * The last three are primitives the end-to-end benchmark
//!   (`examples/e2e_bench`) cannot see on their own: one SHA-256 compression
//!   and the shift-XOR erasure code of a 24 KB mailbox at the deployed 3+1
//!   shape, encoded and decoded with one data shard lost.
//!
//! The rows are written as JSON with stable keys (`<row>_ns`).
//!
//! Environment:
//! * `BENCH_JSON_OUT` — where to write the JSON. The default is
//!   `target/BENCH_micro.json`; the committed `BENCH_micro.json` at the
//!   repository root is rewritten only when this points at it.
//! * `BENCH_SAMPLE_MS` — sampling budget of each of the last three rows
//!   (default 300).
//! * `BENCH_SMOKE` — 8 calibration iterations and a 60 ms budget.

use std::time::Duration;

use alpenhorn_crypto::sha256;
use alpenhorn_erasure::{encode, reconstruct, CodeParams};
use alpenhorn_sim::costmodel::MeasuredCosts;
use alpenhorn_sim::Table;

fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some()
}

fn sample_budget() -> Duration {
    if smoke() {
        return Duration::from_millis(60);
    }
    let ms = std::env::var("BENCH_SAMPLE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(300u64);
    Duration::from_millis(ms)
}

fn measure_ns(budget: Duration, f: impl FnMut()) -> f64 {
    criterion::measure_mean_ns(budget, f).0
}

fn main() {
    alpenhorn_bench::print_header(
        "Primitive costs",
        "§8.2-§8.3 per-operation costs, which Figs 6-10 are modelled from",
    );
    let iterations = if smoke() { 8 } else { 64 };
    let c = MeasuredCosts::measure(iterations);
    let mut rows: Vec<(&str, f64)> = [
        ("ibe_encrypt", c.ibe_encrypt),
        ("ibe_decrypt", c.ibe_decrypt),
        ("onion_peel", c.onion_peel),
        ("onion_wrap", c.onion_wrap),
        ("pkg_extract", c.pkg_extract),
        ("keywheel_hash", c.keywheel_hash),
        ("dial_set_probe", c.dial_set_probe),
        ("dial_set_insert", c.dial_set_insert),
    ]
    .into_iter()
    .map(|(name, secs)| (name, secs * 1e9))
    .collect();

    let budget = sample_budget();
    // 16 KiB is 256 message blocks plus one padding block, folded in.
    let data: Vec<u8> = (0u8..=255).cycle().take(16 * 1024).collect();
    let digest_16k = measure_ns(budget, || {
        criterion::black_box(sha256::digest(&data));
    });
    rows.push(("sha256_block", digest_16k / 256.0));

    let params = CodeParams::new(3, 1);
    let blob: Vec<u8> = (0..24_000u32).map(|i| (i * 31 % 251) as u8).collect();
    rows.push((
        "erasure_encode_24kb_3p1",
        measure_ns(budget, || {
            criterion::black_box(encode(&params, &blob));
        }),
    ));
    let shards = encode(&params, &blob);
    rows.push((
        "erasure_decode_24kb_one_lost",
        measure_ns(budget, || {
            let mut slots: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
            slots[1] = None; // a data shard: forces the XOR recovery path
            criterion::black_box(reconstruct(&params, blob.len(), &slots).expect("recovers"));
        }),
    ));

    let mut table = Table::new("Primitive costs", &["row", "ns/op"]);
    let mut json = format!(
        "{{\n  \"schema\": \"alpenhorn-bench-micro-v1\",\n  \"smoke\": {},\n  \"benches\": {{\n",
        smoke()
    );
    for (i, (name, ns)) in rows.iter().enumerate() {
        table.push_row(vec![format!("{name}_ns"), format!("{ns:.1}")]);
        let comma = if i + 1 < rows.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}_ns\": {ns:.2}{comma}\n"));
    }
    json.push_str("  }\n}\n");
    println!("{}", table.render());

    let out_path = std::env::var("BENCH_JSON_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/BENCH_micro.json").to_string()
    });
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        std::fs::create_dir_all(dir).expect("create the output directory");
    }
    std::fs::write(&out_path, json).expect("write BENCH_micro.json");
    println!("written to {out_path}");
}
