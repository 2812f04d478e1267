//! Mixnet micro-benchmarks: onion wrapping/peeling, noise sampling, shuffling
//! and dial-set construction and decoding — plus the round-processing throughput
//! sweep (batch size × worker count) that tracks the parallel,
//! allocation-lean round pipeline. These are the per-operation costs that the
//! cost model (Figures 8-9) is calibrated from.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::time::Instant;

use alpenhorn_bench::print_header;
use alpenhorn_bloom::DialSet;
use alpenhorn_crypto::{ChaCha20, ChaChaRng};
use alpenhorn_ibe::dh::DhSecret;
use alpenhorn_mixnet::onion::{peel_layer, peel_layer_in_place, wrap_onion};
use alpenhorn_mixnet::{MixServer, NoiseConfig};
use alpenhorn_sim::Table;
use alpenhorn_wire::{RoundKind, ADD_FRIEND_REQUEST_LEN};
use rand::RngCore;

fn bench_onion(c: &mut Criterion) {
    let mut rng = ChaChaRng::from_seed_bytes([1u8; 32]);
    let secrets: Vec<DhSecret> = (0..3).map(|_| DhSecret::generate(&mut rng)).collect();
    let publics: Vec<_> = secrets.iter().map(|s| s.public()).collect();
    let payload = vec![0u8; ADD_FRIEND_REQUEST_LEN];

    let mut group = c.benchmark_group("onion");
    group.sample_size(20);
    group.bench_function("wrap_3_hops", |b| {
        b.iter(|| wrap_onion(&payload, &publics, &mut rng))
    });
    let wrapped = wrap_onion(&payload, &publics, &mut rng);
    // "Before": the API-compatible peel that clones the layer into a fresh
    // buffer. "After": the in-place peel the round pipeline uses.
    group.bench_function("peel_one_layer_alloc", |b| {
        b.iter(|| peel_layer(&wrapped, &secrets[0], 0).unwrap())
    });
    group.bench_function("peel_one_layer_in_place", |b| {
        b.iter_batched(
            || wrapped.clone(),
            |mut buf| {
                peel_layer_in_place(&mut buf, &secrets[0], 0).unwrap();
                buf
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

fn bench_chacha_paths(c: &mut Criterion) {
    // The word-wise multi-block keystream against the byte-wise reference it
    // replaced; every AEAD seal/open and every CSPRNG byte sits on this.
    let key = [7u8; 32];
    let nonce = [9u8; 12];
    let mut buf = vec![0xA5u8; 16 * 1024];
    let mut group = c.benchmark_group("chacha20_16KiB");
    group.sample_size(50);
    group.bench_function("wordwise_wide", |b| {
        b.iter(|| ChaCha20::new(&key, &nonce, 0).apply_keystream(&mut buf))
    });
    group.bench_function("bytewise_reference", |b| {
        b.iter(|| ChaCha20::new(&key, &nonce, 0).apply_keystream_reference(&mut buf))
    });
    group.finish();
}

fn bench_noise_and_shuffle(c: &mut Criterion) {
    let mut group = c.benchmark_group("mixing");
    group.sample_size(20);

    let noise = NoiseConfig::paper_add_friend();
    let mut rng = ChaChaRng::from_seed_bytes([2u8; 32]);
    group.bench_function("laplace_noise_sample", |b| {
        b.iter(|| noise.sample_count(&mut rng))
    });

    group.bench_function("shuffle_10k_messages", |b| {
        b.iter_batched(
            || {
                (0..10_000u32)
                    .map(|i| i.to_be_bytes().to_vec())
                    .collect::<Vec<_>>()
            },
            |mut batch| {
                let mut rng = ChaChaRng::from_seed_bytes([3u8; 32]);
                rng.shuffle(&mut batch);
                batch
            },
            BatchSize::SmallInput,
        )
    });

    let mut rng = ChaChaRng::from_seed_bytes([4u8; 32]);
    let tokens: Vec<[u8; 32]> = (0..10_000)
        .map(|_| {
            let mut token = [0u8; 32];
            rng.fill_bytes(&mut token);
            token
        })
        .collect();
    // The last server's mailbox build, and the two client-side reads of the
    // encoding: the CDN wrapper's allocation-free check and the scan's
    // decode.
    group.bench_function("dial_set_build_10k_tokens", |b| {
        b.iter(|| DialSet::new(&tokens).to_bytes())
    });
    let encoded = DialSet::new(&tokens).to_bytes();
    group.bench_function("dial_set_validate_10k_tokens", |b| {
        b.iter(|| DialSet::validate(&encoded))
    });
    group.bench_function("dial_set_decode_10k_tokens", |b| {
        b.iter(|| DialSet::from_bytes(&encoded))
    });
    group.finish();
}

/// Wraps `batch_size` cover onions for a one-server chain.
fn build_batch(server_pk: &alpenhorn_ibe::dh::DhPublic, batch_size: usize) -> Vec<Vec<u8>> {
    let mut rng = ChaChaRng::from_seed_bytes([5u8; 32]);
    let payload = vec![0u8; ADD_FRIEND_REQUEST_LEN];
    (0..batch_size)
        .map(|_| wrap_onion(&payload, std::slice::from_ref(server_pk), &mut rng))
        .collect()
}

/// Measures `MixServer::process` throughput for one (batch size, workers)
/// point and returns onions/second.
fn measure_round_throughput(batch_size: usize, workers: usize) -> f64 {
    let mut server = MixServer::new(0, [6u8; 32]);
    server.set_workers(workers);
    let pk = server.begin_round(0);
    let batch = build_batch(&pk, batch_size);

    let smoke = std::env::var_os("BENCH_SMOKE").is_some();
    let iters = if smoke {
        1
    } else {
        (20_000 / batch_size).clamp(2, 40)
    };
    // Clone the per-iteration batches up front: the serial copies must not
    // run inside the timed window, or they deflate throughput and cap the
    // apparent worker scaling (an Amdahl term the bench would introduce).
    let mut batches: Vec<Vec<Vec<u8>>> = (0..iters).map(|_| batch.clone()).collect();
    // Warmup.
    let _ = server.process(
        0,
        batch,
        &[],
        RoundKind::AddFriend,
        &NoiseConfig::deterministic(0.0),
        8,
    );
    let start = Instant::now();
    for input in batches.drain(..) {
        let out = server
            .process(
                0,
                input,
                &[],
                RoundKind::AddFriend,
                &NoiseConfig::deterministic(0.0),
                8,
            )
            .expect("round 0 is open");
        assert_eq!(out.batch.len(), batch_size);
    }
    let elapsed = start.elapsed().as_secs_f64();
    (batch_size * iters) as f64 / elapsed
}

/// The batch-size × worker-count sweep for the round pipeline, reported as
/// onions/second (the number the paper's 5.5 s/round for 1M users hinges on).
fn round_process_sweep(_c: &mut Criterion) {
    print_header(
        "Mixnet round-processing throughput",
        "Section 8.2/8.4: servers peel + noise + shuffle each round; see docs/PERFORMANCE.md",
    );
    let worker_counts = alpenhorn_bench::worker_sweep_counts();

    let smoke = std::env::var_os("BENCH_SMOKE").is_some();
    let batch_sizes: &[usize] = if smoke { &[512] } else { &[256, 1024, 4096] };

    let mut table = Table::new(
        "Round processing sweep (peel in place + per-mailbox noise + shuffle)",
        &["batch size", "workers", "onions/sec", "speedup vs 1 worker"],
    );
    for &batch_size in batch_sizes {
        let mut base = 0.0f64;
        for &workers in &worker_counts {
            let rate = measure_round_throughput(batch_size, workers);
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
    bench_onion,
    bench_chacha_paths,
    bench_noise_and_shuffle,
    round_process_sweep
);
criterion_main!(benches);
