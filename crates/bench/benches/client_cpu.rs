//! §8.2 client CPU costs: IBE decryption throughput, mailbox scan time,
//! keywheel hashing rate, and dial-set scan time.

use criterion::{criterion_group, criterion_main, Criterion};

use alpenhorn_bench::{calibrated_model, print_header};
use alpenhorn_crypto::ChaChaRng;
use alpenhorn_ibe::anytrust::{aggregate_identity_keys, aggregate_master_publics};
use alpenhorn_ibe::bf::{decrypt, encrypt, MasterSecret};
use alpenhorn_keywheel::Keywheel;
use alpenhorn_sim::experiments::client_cpu_table;
use alpenhorn_wire::Round;

fn bench_client_cpu(c: &mut Criterion) {
    let mut rng = ChaChaRng::from_seed_bytes([1u8; 32]);
    let msks: Vec<MasterSecret> = (0..3).map(|_| MasterSecret::generate(&mut rng)).collect();
    let mpk = aggregate_master_publics(&msks.iter().map(|m| m.public()).collect::<Vec<_>>());
    let idk = aggregate_identity_keys(
        &msks
            .iter()
            .map(|m| m.extract(b"bob@gmail.com"))
            .collect::<Vec<_>>(),
    );
    let body = vec![0u8; 328];
    let ciphertext = encrypt(&mpk, b"bob@gmail.com", &body, &mut rng);

    let mut group = c.benchmark_group("client_cpu");
    group.sample_size(20);
    group.bench_function("ibe_encrypt_friend_request", |b| {
        b.iter(|| encrypt(&mpk, b"bob@gmail.com", &body, &mut rng))
    });
    group.bench_function("ibe_trial_decrypt", |b| {
        b.iter(|| decrypt(&idk, &ciphertext))
    });

    let wheel = Keywheel::new([7u8; 32], Round(1));
    group.bench_function("keywheel_dial_token", |b| {
        b.iter(|| wheel.dial_token(Round(1), 3))
    });
    group.finish();
}

fn print_tables(_c: &mut Criterion) {
    print_header(
        "Client CPU costs",
        "Section 8.2: 800 IBE decryptions/sec/core; 8 s to scan a 24k-request mailbox; \
         1M keywheel hashes/sec; dialing scan of 1000 friends x 10 intents < 1 s",
    );
    let model = calibrated_model();
    println!("{}", client_cpu_table(&model.costs).render());
}

criterion_group!(benches, bench_client_cpu, print_tables);
criterion_main!(benches);
