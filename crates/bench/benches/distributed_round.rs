//! Distributed-round snapshot: what the PR 9 distribution layer costs.
//!
//! * **Mix round, in-process vs loopback** — one add-friend round through a
//!   [`MixChain`] of directly called daemons vs the same batch through
//!   loopback mixers (full wire codec both ways — the bytes a TCP
//!   deployment exchanges, minus the socket).
//! * **Erasure + fleet** — shift-XOR encode of a mailbox blob at the
//!   deployed 3+1 shape, publish to a 4-node loopback fleet, fetch with all
//!   nodes up (straight data-shard concatenation) and with one data node
//!   lost (XOR-only parity decode).
//!
//! Environment:
//! * `BENCH_JSON_OUT` — where to write the JSON snapshot (`BENCH_pr9.json`).
//! * `BENCH_SAMPLE_MS` — per-metric sampling budget (default 300).
//! * `BENCH_SMOKE=1` — reduce the budget and batch sizes for CI smoke runs.

use std::time::Duration;

use alpenhorn_cdn::{LoopbackNode, NodeClient, ShardedCdn};
use alpenhorn_crypto::ChaChaRng;
use alpenhorn_erasure::{encode, reconstruct, CodeParams};
use alpenhorn_ibe::dh::DhPublic;
use alpenhorn_mixd::MixChain;
use alpenhorn_mixnet::onion::wrap_onion;
use alpenhorn_mixnet::NoiseConfig;
use alpenhorn_sim::Table;
use alpenhorn_wire::{AddFriendEnvelope, MailboxId, Round, RoundKind};

const MIXERS: usize = 3;
const NUM_MAILBOXES: u32 = 8;
const CLUSTER_SEED: [u8; 32] = [90; 32];

fn measure_ns(budget: Duration, f: impl FnMut()) -> f64 {
    criterion::measure_mean_ns(budget, f).0
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

fn smoke() -> bool {
    std::env::var_os("BENCH_SMOKE").is_some()
}

/// A deterministic round batch of wrapped add-friend onions.
fn batch_for(round: u64, publics: &[DhPublic], batch_size: usize) -> Vec<Vec<u8>> {
    let mut rng_seed = CLUSTER_SEED;
    rng_seed[0] ^= round as u8;
    let mut rng = ChaChaRng::from_seed_bytes(rng_seed);
    (0..batch_size)
        .map(|i| {
            let payload = AddFriendEnvelope {
                mailbox: MailboxId(i as u32 % NUM_MAILBOXES),
                ciphertext: {
                    let mut c = vec![0u8; AddFriendEnvelope::CIPHERTEXT_LEN];
                    c[..8].copy_from_slice(&(round << 16 | i as u64).to_be_bytes());
                    c
                },
            }
            .encode();
            wrap_onion(&payload, publics, &mut rng)
        })
        .collect()
}

/// Mean time of one begin, mix and end of an add-friend round on `chain`.
fn round_ns(budget: Duration, mut chain: MixChain, batch_size: usize) -> f64 {
    measure_ns(budget, || {
        let publics = chain.begin_round().expect("round opens");
        let batch = batch_for(1, &publics, batch_size);
        criterion::black_box(
            chain
                .run_add_friend_round(batch, NUM_MAILBOXES, &publics)
                .expect("round runs"),
        );
        chain.end_round();
    })
}

fn main() {
    alpenhorn_bench::print_header(
        "Distributed round snapshot",
        "loopback mix chain vs in-process, and erasure-coded CDN fleet (docs/DISTRIBUTION.md)",
    );
    let budget = sample_budget();
    let batch_size = if smoke() { 16 } else { 96 };
    let mut metrics: Vec<(String, f64)> = Vec::new();

    // ---- One add-friend round: directly called daemons, then loopback ----
    let noise = NoiseConfig::deterministic(2.0);
    let kind = RoundKind::AddFriend;
    metrics.push((
        format!("in_process_round_{batch_size}b_ns"),
        round_ns(
            budget,
            MixChain::in_process(kind, MIXERS, noise, CLUSTER_SEED),
            batch_size,
        ),
    ));
    metrics.push((
        format!("remote_loopback_round_{batch_size}b_ns"),
        round_ns(
            budget,
            MixChain::loopback(kind, MIXERS, noise, CLUSTER_SEED),
            batch_size,
        ),
    ));

    // ---- Erasure code + CDN fleet at the deployed 3+1 shape ----
    let params = CodeParams::new(3, 1);
    let blob: Vec<u8> = (0..24_000u32).map(|i| (i * 31 % 251) as u8).collect();
    metrics.push((
        "erasure_encode_24kb_3p1_ns".to_string(),
        measure_ns(budget, || {
            criterion::black_box(encode(&params, &blob));
        }),
    ));
    let shards = encode(&params, &blob);
    metrics.push((
        "erasure_decode_24kb_one_lost_ns".to_string(),
        measure_ns(budget, || {
            let mut slots: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
            slots[1] = None; // a data shard: forces the XOR recovery path
            criterion::black_box(reconstruct(&params, blob.len(), &slots).expect("recovers"));
        }),
    ));

    let handles: Vec<LoopbackNode> = (0..4).map(|_| LoopbackNode::new()).collect();
    let fleet = ShardedCdn::new(
        handles
            .iter()
            .map(|h| Box::new(h.clone_handle()) as Box<dyn NodeClient>)
            .collect(),
        3,
        1,
    );
    let mut publish_round = 0u64;
    metrics.push((
        "fleet_publish_24kb_ns".to_string(),
        measure_ns(budget, || {
            publish_round += 1;
            criterion::black_box(
                fleet
                    .publish(
                        RoundKind::AddFriend,
                        Round(publish_round),
                        MailboxId(0),
                        &blob,
                    )
                    .expect("publish lands"),
            );
        }),
    ));
    metrics.push((
        "fleet_fetch_24kb_all_up_ns".to_string(),
        measure_ns(budget, || {
            let outcome = fleet
                .fetch(RoundKind::AddFriend, Round(1), MailboxId(0))
                .expect("fetch succeeds");
            assert!(criterion::black_box(outcome).parity_bytes == 0);
        }),
    ));
    handles[1].set_alive(false); // shard 1 is data: every fetch now decodes
    metrics.push((
        "fleet_fetch_24kb_one_lost_ns".to_string(),
        measure_ns(budget, || {
            let outcome = fleet
                .fetch(RoundKind::AddFriend, Round(1), MailboxId(0))
                .expect("fetch survives one lost node");
            assert!(criterion::black_box(outcome).parity_bytes > 0);
        }),
    ));

    let mut table = Table::new("Distributed round", &["metric", "value"]);
    for (name, value) in &metrics {
        table.push_row(vec![name.clone(), format!("{value:.1} ns/op")]);
    }
    println!("{}", table.render());

    let out_path = std::env::var("BENCH_JSON_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pr9.json").to_string()
    });
    let mut json = String::from("{\n  \"schema\": \"alpenhorn-bench-snapshot-v1\",\n");
    json.push_str("  \"bench\": \"distributed_round\",\n  \"benches\": {\n");
    for (i, (name, value)) in metrics.iter().enumerate() {
        let comma = if i + 1 < metrics.len() { "," } else { "" };
        json.push_str(&format!("    \"{name}\": {value:.2}{comma}\n"));
    }
    json.push_str("  }\n}\n");
    std::fs::write(&out_path, json).expect("write bench snapshot");
    println!("snapshot written to {out_path}");
}
