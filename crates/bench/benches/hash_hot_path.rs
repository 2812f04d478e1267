//! Hash hot-path snapshot: SHA-256 / HMAC / layer-key micro-costs plus the two
//! system-level operations they dominate (single onion peel, PKG extraction).
//!
//! Unlike the criterion-driven benches, this target also writes a
//! machine-readable snapshot (`BENCH_pr3.json` by default, override with
//! `BENCH_JSON_OUT`) so the perf trajectory is recorded in-repo and
//! `scripts/bench_compare.sh` can diff two snapshots and flag regressions.
//!
//! Environment:
//! * `BENCH_JSON_OUT` — where to write the JSON snapshot.
//! * `BENCH_SAMPLE_MS` — per-metric sampling budget (default 300).
//! * `BENCH_SMOKE=1` — reduce the budget for CI smoke runs (the numbers are
//!   still real measurements, just noisier).

use std::time::Duration;

use alpenhorn_crypto::hmac::{hmac, HmacKey};
use alpenhorn_crypto::{sha256, ChaChaRng};
use alpenhorn_ibe::dh::DhSecret;
use alpenhorn_ibe::sig::SigningKey;
use alpenhorn_mixnet::onion::{layer_salt, peel_layer_in_place, wrap_onion};
use alpenhorn_pkg::server::extraction_request_message;
use alpenhorn_pkg::{PkgServer, SimulatedMail};
use alpenhorn_sim::Table;
use alpenhorn_wire::{Identity, Round, ADD_FRIEND_REQUEST_LEN};

/// Mean ns/op of `f` under the workspace's shared timing model (the vendored
/// criterion stand-in's `measure_mean_ns`), so snapshot numbers stay
/// comparable with the criterion-driven benches.
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
        "Hash hot path snapshot",
        "single-peel latency is HMAC/AEAD-bound; see docs/PERFORMANCE.md",
    );
    let budget = sample_budget();
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();

    // SHA-256: unrolled fast path vs the loop-based oracle on 16 KiB.
    let data: Vec<u8> = (0u8..=255).cycle().take(16 * 1024).collect();
    let fast_16k = measure_ns(budget, || {
        criterion::black_box(sha256::digest(&data));
    });
    let oracle_16k = measure_ns(budget, || {
        criterion::black_box(sha256::digest_reference(&data));
    });
    metrics.push(("sha256_16kib_fast_ns", fast_16k));
    metrics.push(("sha256_16kib_oracle_ns", oracle_16k));
    metrics.push(("sha256_speedup_vs_oracle", oracle_16k / fast_16k));
    // Per-compression cost: 16 KiB = 256 message blocks (plus one padding
    // block, which we fold in — the bench tracks a trajectory, not cpb).
    metrics.push(("sha256_block_ns", fast_16k / 256.0));

    // HMAC over a short message: fresh keying vs precomputed ipad/opad.
    let key_bytes = [7u8; 32];
    let msg = [42u8; 64];
    let fresh = measure_ns(budget, || {
        criterion::black_box(hmac(&key_bytes, &msg));
    });
    let cached_key = HmacKey::new(&key_bytes);
    let cached = measure_ns(budget, || {
        criterion::black_box(cached_key.mac(&msg));
    });
    metrics.push(("hmac_64b_fresh_key_ns", fresh));
    metrics.push(("hmac_64b_cached_key_ns", cached));

    // The onion layer key: one HMAC over a 48-byte encoded DH point under the
    // per-hop salt. "cold" builds the salt key per call (the path of hops
    // past the cached table), "cached" reads it from the table. The metric
    // names predate the single-HMAC derivation and are kept so snapshots
    // stay comparable.
    let point = [9u8; 48];
    let layer_cold = measure_ns(budget, || {
        criterion::black_box(layer_salt(criterion::black_box(1 << 20)).mac(&point));
    });
    let layer_cached = measure_ns(budget, || {
        criterion::black_box(layer_salt(criterion::black_box(2)).mac(&point));
    });
    metrics.push(("hkdf_layer_key_cold_ns", layer_cold));
    metrics.push(("hkdf_layer_key_cached_ns", layer_cached));

    // Single peel: one server peels one onion layer in place (DH + layer
    // key + AEAD open + compaction) — the mixnet round pipeline's unit of
    // work.
    let mut rng = ChaChaRng::from_seed_bytes([1u8; 32]);
    let secret = DhSecret::generate(&mut rng);
    let publics = [secret.public()];
    let payload = vec![0u8; ADD_FRIEND_REQUEST_LEN];
    let wrapped = wrap_onion(&payload, &publics, &mut rng);
    let mut buf = Vec::with_capacity(wrapped.len());
    let peel = measure_ns(budget, || {
        buf.clear();
        buf.extend_from_slice(&wrapped);
        peel_layer_in_place(&mut buf, &secret, 0).unwrap();
    });
    metrics.push(("single_peel_ns", peel));

    // PKG extraction: the authenticated server path (§8.3).
    let mut pkg = PkgServer::new("pkg-0", [2u8; 32]);
    let mail = SimulatedMail::new();
    let mut rng = ChaChaRng::from_seed_bytes([3u8; 32]);
    let alice = Identity::new("alice@example.com").unwrap();
    let key = SigningKey::generate(&mut rng);
    pkg.begin_registration(&alice, key.verifying_key(), 0, &mail)
        .unwrap();
    let token = mail.latest_token(&alice, "pkg-0").unwrap();
    pkg.complete_registration(&alice, token, 0).unwrap();
    let round = Round(1);
    pkg.begin_round(round);
    pkg.reveal_round_key(round).unwrap();
    let auth = key.sign(&extraction_request_message(&alice, round));
    let extract = measure_ns(budget, || {
        criterion::black_box(pkg.extract(&alice, round, &auth, 0).unwrap());
    });
    metrics.push(("pkg_extract_ns", extract));

    // Human-readable table.
    let mut table = Table::new("Hash hot path", &["metric", "value"]);
    for (name, value) in &metrics {
        let rendered = if name.ends_with("_ns") {
            format!("{value:.1} ns/op")
        } else {
            format!("{value:.2}x")
        };
        table.push_row(vec![(*name).to_string(), rendered]);
    }
    println!("{}", table.render());

    // Machine-readable snapshot.
    let out_path = std::env::var("BENCH_JSON_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr3.json").to_string()
    });
    let mut json = String::from("{\n  \"schema\": \"alpenhorn-bench-snapshot-v1\",\n");
    json.push_str("  \"bench\": \"hash_hot_path\",\n  \"benches\": {\n");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let comma = if i + 1 < metrics.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {value:.2}{comma}\n"));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, json).expect("write bench snapshot");
    println!("snapshot written to {out_path}");
}
