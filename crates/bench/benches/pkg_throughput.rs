//! §8.3 PKG throughput: identity-key extractions per second and the implied
//! time to serve one round of extractions for every user.
//!
//! The paper reports 4,310 extractions/second (232 seconds for 1 million
//! users), concluding that even with 10 million users a PKG finishes a round
//! of extractions in well under an hour.

use criterion::{criterion_group, criterion_main, Criterion};

use alpenhorn_bench::print_header;
use alpenhorn_crypto::ChaChaRng;
use alpenhorn_ibe::bf::MasterSecret;
use alpenhorn_ibe::sig::SigningKey;
use alpenhorn_pkg::server::extraction_request_message;
use alpenhorn_pkg::{PkgServer, SimulatedMail};
use alpenhorn_sim::costmodel::MeasuredCosts;
use alpenhorn_sim::Table;
use alpenhorn_wire::{Identity, Round};
use std::time::Instant;

fn bench_pkg_extraction(c: &mut Criterion) {
    let mut pkg = PkgServer::new("pkg-0", [1u8; 32]);
    let mail = SimulatedMail::new();
    let mut rng = ChaChaRng::from_seed_bytes([2u8; 32]);
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

    let mut group = c.benchmark_group("pkg");
    group.sample_size(20);
    group.bench_function("extract_with_authentication_and_attestation", |b| {
        b.iter(|| pkg.extract(&alice, round, &auth, 0).unwrap())
    });
    group.finish();
}

fn print_throughput_table(_c: &mut Criterion) {
    print_header(
        "PKG throughput",
        "Section 8.3: 4310 extractions/s; 232 s for 1M users; <1 h for 10M users",
    );
    // Measure the raw extraction rate (hash-to-curve + scalar multiplication),
    // which is what bounds how often add-friend rounds can run.
    let costs = MeasuredCosts::measure(64);
    // Also measure the full authenticated server path for a tighter bound.
    let mut pkg = PkgServer::new("pkg-0", [3u8; 32]);
    let mail = SimulatedMail::new();
    let mut rng = ChaChaRng::from_seed_bytes([4u8; 32]);
    let alice = Identity::new("alice@example.com").unwrap();
    let key = SigningKey::generate(&mut rng);
    pkg.begin_registration(&alice, key.verifying_key(), 0, &mail)
        .unwrap();
    let token = mail.latest_token(&alice, "pkg-0").unwrap();
    pkg.complete_registration(&alice, token, 0).unwrap();
    pkg.begin_round(Round(1));
    pkg.reveal_round_key(Round(1)).unwrap();
    let auth = key.sign(&extraction_request_message(&alice, Round(1)));
    let iterations = 50;
    let start = Instant::now();
    for _ in 0..iterations {
        pkg.extract(&alice, Round(1), &auth, 0).unwrap();
    }
    let full_path = start.elapsed().as_secs_f64() / iterations as f64;

    let mut table = Table::new(
        "Section 8.3: PKG key extraction throughput",
        &["metric", "measured", "paper"],
    );
    table.push_row(vec![
        "raw extractions / sec / core".into(),
        format!("{:.0}", 1.0 / costs.pkg_extract),
        "4310".into(),
    ]);
    table.push_row(vec![
        "authenticated extractions / sec / core (incl. signature checks)".into(),
        format!("{:.0}", 1.0 / full_path),
        "-".into(),
    ]);
    table.push_row(vec![
        "time to extract for 1M users (s, one core)".into(),
        format!("{:.0}", 1_000_000.0 * costs.pkg_extract),
        "232".into(),
    ]);
    table.push_row(vec![
        "time to extract for 10M users (min, 36 cores)".into(),
        format!("{:.1}", 10_000_000.0 * costs.pkg_extract / 36.0 / 60.0),
        "< 60".into(),
    ]);
    println!("{}", table.render());
}

/// Batch-size × core-count sweep over raw identity-key extraction.
///
/// Extraction (`MasterSecret::extract`) is read-only in the master secret,
/// so a PKG can shard a round's extractions across cores exactly like the
/// mixnet shards its peel loop; this table records how the rate scales.
fn extraction_core_sweep(_c: &mut Criterion) {
    print_header(
        "PKG extraction core sweep",
        "Section 8.3: extractions shard perfectly across cores (232 s for 1M users on one core)",
    );
    let mut rng = ChaChaRng::from_seed_bytes([5u8; 32]);
    let msk = MasterSecret::generate(&mut rng);

    let worker_counts = alpenhorn_bench::worker_sweep_counts();
    let smoke = std::env::var_os("BENCH_SMOKE").is_some();
    let batch_sizes: &[usize] = if smoke { &[64] } else { &[256, 2048] };

    let mut table = Table::new(
        "Identity-key extractions per second",
        &[
            "batch size",
            "workers",
            "extractions/sec",
            "speedup vs 1 worker",
        ],
    );
    for &batch_size in batch_sizes {
        let identities: Vec<String> = (0..batch_size)
            .map(|i| format!("user-{i}@example.com"))
            .collect();
        let mut base = 0.0f64;
        for &workers in &worker_counts {
            let iters = if smoke { 1 } else { (4096 / batch_size).max(2) };
            let start = Instant::now();
            for _ in 0..iters {
                let chunk = batch_size.div_ceil(workers).max(1);
                std::thread::scope(|s| {
                    let handles: Vec<_> = identities
                        .chunks(chunk)
                        .map(|ids| {
                            let msk = &msk;
                            s.spawn(move || {
                                for id in ids {
                                    criterion::black_box(msk.extract(id.as_bytes()));
                                }
                            })
                        })
                        .collect();
                    for h in handles {
                        h.join().expect("extraction worker");
                    }
                });
            }
            let elapsed = start.elapsed().as_secs_f64();
            let rate = (batch_size * iters) as f64 / elapsed;
            if workers == 1 {
                base = rate;
            }
            table.push_row(vec![
                format!("{batch_size}"),
                format!("{workers}"),
                format!("{rate:.0}"),
                format!("{:.2}x", rate / base),
            ]);
        }
    }
    println!("{}", table.render());
}

criterion_group!(
    benches,
    bench_pkg_extraction,
    print_throughput_table,
    extraction_core_sweep
);
criterion_main!(benches);
