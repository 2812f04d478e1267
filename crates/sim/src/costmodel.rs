//! Cost model: predicting round latency and client bandwidth at paper scale.
//!
//! The paper's headline numbers (Figures 6-9) are for 100 thousand to 10
//! million users, which cannot be run as real in-process clients on one
//! machine. Instead the model combines:
//!
//! * **measured per-operation costs** ([`MeasuredCosts::measure`]) — IBE
//!   encryption/decryption, onion layer processing, noise generation,
//!   dial-set build and lookup, keywheel hashing and PKG extraction, all timed on the
//!   machine running the benchmark with the real implementations from this
//!   workspace; and
//! * **the paper's deployment constants** ([`NetworkModel`]) — 36-core
//!   servers in three regions with ~80 ms inter-region RTT and 10 Gb/s links.
//!
//! The resulting latency and bandwidth formulas follow the protocol
//! structure: every mixnet server unwraps one onion layer per message and
//! adds noise per mailbox; the last server builds mailboxes; clients download
//! their mailbox and scan it (IBE trial decryption for add-friend, dial-set
//! lookups for dialing). Absolute numbers depend on the hardware running the
//! calibration; the *shape* (linear in users, more servers cost more, dialing
//! far cheaper than add-friend) is what the reproduction checks.

use std::time::Instant;

use alpenhorn_bloom::DialSet;
use alpenhorn_crypto::ChaChaRng;
use alpenhorn_ibe::anytrust::{aggregate_identity_keys, aggregate_master_publics};
use alpenhorn_ibe::bf::{decrypt, encrypt, MasterSecret};
use alpenhorn_ibe::dh::DhSecret;
use alpenhorn_keywheel::Keywheel;
use alpenhorn_mixnet::onion::{peel_layer, wrap_onion};
use alpenhorn_mixnet::MailboxPolicy;
use alpenhorn_wire::{Round, ADD_FRIEND_REQUEST_LEN, DIAL_REQUEST_LEN};

use crate::workload::Workload;

/// Per-operation costs in seconds, measured on this machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredCosts {
    /// One IBE encryption of a friend request (client, per real request).
    pub ibe_encrypt: f64,
    /// One IBE trial decryption (client mailbox scanning).
    pub ibe_decrypt: f64,
    /// One onion layer peel (server, per message per hop).
    pub onion_peel: f64,
    /// One onion layer wrap (client or server noise generation, per hop).
    pub onion_wrap: f64,
    /// One PKG identity-key extraction (server side).
    pub pkg_extract: f64,
    /// One keywheel dial-token derivation (HMAC).
    pub keywheel_hash: f64,
    /// One dial-set membership lookup (client, per friend per intent).
    pub dial_set_probe: f64,
    /// Building a mailbox's dial set, per token: hash, sort and encode (last
    /// mixnet server).
    pub dial_set_insert: f64,
}

impl MeasuredCosts {
    /// Times every operation with the real implementations. `iterations`
    /// trades accuracy for calibration time (the benches and the evaluation
    /// sweep use 64).
    pub fn measure(iterations: usize) -> Self {
        let iterations = iterations.max(8);
        let mut rng = ChaChaRng::from_seed_bytes([0xC0u8; 32]);

        // IBE setup shared by the encrypt/decrypt measurements.
        let msks: Vec<MasterSecret> = (0..3).map(|_| MasterSecret::generate(&mut rng)).collect();
        let mpk = aggregate_master_publics(&msks.iter().map(|m| m.public()).collect::<Vec<_>>());
        let idk = aggregate_identity_keys(
            &msks
                .iter()
                .map(|m| m.extract(b"bob@gmail.com"))
                .collect::<Vec<_>>(),
        );
        let body = vec![0u8; 320];

        let ibe_encrypt = time_per_iter(iterations, || {
            let _ = encrypt(&mpk, b"bob@gmail.com", &body, &mut rng);
        });
        let ct = encrypt(&mpk, b"bob@gmail.com", &body, &mut rng);
        let ibe_decrypt = time_per_iter(iterations, || {
            let _ = decrypt(&idk, &ct);
        });

        // Onion costs.
        let server_secret = DhSecret::generate(&mut rng);
        let server_public = server_secret.public();
        let payload = vec![0u8; ADD_FRIEND_REQUEST_LEN];
        let onion_wrap = time_per_iter(iterations, || {
            let _ = wrap_onion(&payload, &[server_public], &mut rng);
        });
        let wrapped = wrap_onion(&payload, &[server_public], &mut rng);
        let onion_peel = time_per_iter(iterations, || {
            let _ = peel_layer(&wrapped, &server_secret, 0);
        });

        // PKG extraction.
        let msk = MasterSecret::generate(&mut rng);
        let pkg_extract = time_per_iter(iterations, || {
            let _ = msk.extract(b"user@example.com");
        });

        // Keywheel hashing.
        let wheel = Keywheel::new([7u8; 32], Round(1));
        let keywheel_hash = time_per_iter(iterations * 64, || {
            let _ = wheel.dial_token(Round(1), 3);
        });

        // Dial-set operations, on a 1,000-token mailbox.
        let tokens: Vec<[u8; 32]> = (0..1_000u32)
            .map(|i| {
                let mut token = [0u8; 32];
                token[..4].copy_from_slice(&i.to_be_bytes());
                token
            })
            .collect();
        let dial_set_insert = time_per_iter(iterations, || {
            let _ = DialSet::new(&tokens).to_bytes();
        }) / tokens.len() as f64;
        let set = DialSet::new(&tokens);
        let dial_set_probe = time_per_iter(iterations * 16, || {
            let _ = set.contains(b"some other token value..........");
        });

        MeasuredCosts {
            ibe_encrypt,
            ibe_decrypt,
            onion_peel,
            onion_wrap,
            pkg_extract,
            keywheel_hash,
            dial_set_probe,
            dial_set_insert,
        }
    }

    /// Fixed reference costs corresponding to the paper's reported prototype
    /// performance (BN-256 with assembly, Go, §8.2-§8.3): 800 IBE decryptions
    /// per second per core, 1 million keywheel hashes per second, 4310 PKG
    /// extractions per second. Used to print paper-expected columns next to
    /// measured ones.
    pub fn paper_reference() -> Self {
        MeasuredCosts {
            ibe_encrypt: 1.0 / 500.0,
            ibe_decrypt: 1.0 / 800.0,
            onion_peel: 130e-6,
            onion_wrap: 140e-6,
            pkg_extract: 1.0 / 4310.0,
            keywheel_hash: 1e-6,
            dial_set_probe: 0.2e-6,
            dial_set_insert: 0.2e-6,
        }
    }
}

/// Times `f` and returns seconds per iteration.
fn time_per_iter(iterations: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iterations {
        f();
    }
    start.elapsed().as_secs_f64() / iterations as f64
}

/// Deployment constants mirroring the paper's experimental setup (§8.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetworkModel {
    /// CPU cores per server (c4.8xlarge has 36).
    pub server_cores: usize,
    /// CPU cores on a client device.
    pub client_cores: usize,
    /// Round-trip time between consecutive mixnet servers, in seconds
    /// (Virginia → Ireland → Frankfurt hops).
    pub inter_server_rtt: f64,
    /// Server NIC bandwidth in bytes per second (10 Gb/s).
    pub server_bandwidth: f64,
    /// Client downlink bandwidth in bytes per second (assumed 50 Mb/s).
    pub client_bandwidth: f64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel {
            server_cores: 36,
            client_cores: 4,
            inter_server_rtt: 0.08,
            server_bandwidth: 10e9 / 8.0,
            client_bandwidth: 50e6 / 8.0,
        }
    }
}

/// Noise configuration used by the model (per-mailbox, per-server means).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelNoise {
    /// Mean add-friend noise per mailbox per server (paper: 4000).
    pub add_friend_mu: f64,
    /// Mean dialing noise per mailbox per server (paper: 25000).
    pub dialing_mu: f64,
}

impl Default for ModelNoise {
    fn default() -> Self {
        ModelNoise {
            add_friend_mu: 4_000.0,
            dialing_mu: 25_000.0,
        }
    }
}

/// The complete cost model.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Per-operation costs.
    pub costs: MeasuredCosts,
    /// Deployment constants.
    pub network: NetworkModel,
    /// Noise means.
    pub noise: ModelNoise,
    /// Mailbox sizing policy (same defaults as the coordinator).
    pub mailboxes: MailboxPolicy,
}

/// Latency prediction broken into its components (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyBreakdown {
    /// Total end-to-end latency.
    pub total: f64,
    /// Time spent by the mixnet servers (crypto + transfer + propagation).
    pub servers: f64,
    /// Time for the client to download its mailbox.
    pub download: f64,
    /// Time for the client to scan the mailbox.
    pub client_scan: f64,
}

impl CostModel {
    /// Builds a model from measured costs and default deployment constants.
    pub fn new(costs: MeasuredCosts) -> Self {
        CostModel {
            costs,
            network: NetworkModel::default(),
            noise: ModelNoise::default(),
            mailboxes: MailboxPolicy::default(),
        }
    }

    /// Model using the paper's reported per-operation costs (for side-by-side
    /// comparison columns).
    pub fn paper_reference() -> Self {
        Self::new(MeasuredCosts::paper_reference())
    }

    /// Number of add-friend mailboxes for a workload.
    pub fn add_friend_mailboxes(&self, workload: &Workload) -> u32 {
        self.mailboxes
            .add_friend_mailboxes(workload.real_requests())
    }

    /// Number of dialing mailboxes for a workload.
    pub fn dialing_mailboxes(&self, workload: &Workload) -> u32 {
        self.mailboxes.dialing_mailboxes(workload.real_requests())
    }

    /// Total messages leaving the last server in an add-friend round (client
    /// messages plus all servers' noise).
    fn add_friend_total_messages(&self, workload: &Workload, servers: usize) -> f64 {
        let mailboxes = self.add_friend_mailboxes(workload) as f64 + 1.0;
        workload.num_users as f64 + servers as f64 * self.noise.add_friend_mu * mailboxes
    }

    fn dialing_total_messages(&self, workload: &Workload, servers: usize) -> f64 {
        let mailboxes = self.dialing_mailboxes(workload) as f64 + 1.0;
        workload.num_users as f64 + servers as f64 * self.noise.dialing_mu * mailboxes
    }

    /// Expected number of requests in one add-friend mailbox (real + noise).
    pub fn add_friend_mailbox_requests(&self, workload: &Workload, servers: usize) -> f64 {
        let mailboxes = self.add_friend_mailboxes(workload) as f64;
        workload.real_requests() as f64 / mailboxes + servers as f64 * self.noise.add_friend_mu
    }

    /// Expected number of tokens in one dialing mailbox (real + noise).
    pub fn dialing_mailbox_tokens(&self, workload: &Workload, servers: usize) -> f64 {
        let mailboxes = self.dialing_mailboxes(workload) as f64;
        workload.real_requests() as f64 / mailboxes + servers as f64 * self.noise.dialing_mu
    }

    /// Size in bytes of one add-friend mailbox.
    pub fn add_friend_mailbox_bytes(&self, workload: &Workload, servers: usize) -> f64 {
        self.add_friend_mailbox_requests(workload, servers) * ADD_FRIEND_REQUEST_LEN as f64
    }

    /// Size in bytes of one dialing mailbox.
    pub fn dialing_mailbox_bytes(&self, workload: &Workload, servers: usize) -> f64 {
        dial_set_bytes(self.dialing_mailbox_tokens(workload, servers))
    }

    /// Mixnet processing time for one round with `messages` total messages
    /// across `servers` servers: each server peels every message it sees and
    /// generates its share of noise onions, parallelized across its cores,
    /// plus store-and-forward transfer and propagation between hops.
    fn server_time(&self, messages: f64, servers: usize, request_len: usize) -> f64 {
        let cores = self.network.server_cores as f64;
        let per_server_crypto = messages * self.costs.onion_peel / cores;
        let noise_messages =
            messages.min(servers as f64 * self.noise.add_friend_mu.max(self.noise.dialing_mu));
        let noise_crypto =
            noise_messages / servers as f64 * self.costs.onion_wrap * servers as f64 / cores;
        let transfer = messages * request_len as f64 / self.network.server_bandwidth;
        servers as f64 * (per_server_crypto + transfer)
            + noise_crypto
            + (servers as f64) * self.network.inter_server_rtt / 2.0
    }

    /// Predicted add-friend round latency (Figure 8's y-axis).
    pub fn add_friend_latency(&self, workload: &Workload, servers: usize) -> LatencyBreakdown {
        let messages = self.add_friend_total_messages(workload, servers);
        let server_time = self.server_time(messages, servers, ADD_FRIEND_REQUEST_LEN);
        let mailbox_bytes = self.add_friend_mailbox_bytes(workload, servers);
        let download = mailbox_bytes / self.network.client_bandwidth;
        let per_mailbox_requests = self.add_friend_mailbox_requests(workload, servers);
        let client_scan =
            per_mailbox_requests * self.costs.ibe_decrypt / self.network.client_cores as f64;
        LatencyBreakdown {
            total: server_time + download + client_scan,
            servers: server_time,
            download,
            client_scan,
        }
    }

    /// Predicted dialing round latency (Figure 9's y-axis).
    pub fn dialing_latency(
        &self,
        workload: &Workload,
        servers: usize,
        friends: usize,
        intents: u32,
    ) -> LatencyBreakdown {
        let messages = self.dialing_total_messages(workload, servers);
        let mut server_time = self.server_time(messages, servers, DIAL_REQUEST_LEN);
        // The last server additionally builds the mailboxes' dial sets.
        server_time += messages * self.costs.dial_set_insert / self.network.server_cores as f64;
        let mailbox_bytes = self.dialing_mailbox_bytes(workload, servers);
        let download = mailbox_bytes / self.network.client_bandwidth;
        let client_scan = friends as f64
            * intents as f64
            * (self.costs.keywheel_hash + self.costs.dial_set_probe);
        LatencyBreakdown {
            total: server_time + download + client_scan,
            servers: server_time,
            download,
            client_scan,
        }
    }

    /// Client bandwidth for the add-friend protocol in bytes per second,
    /// given the round duration (Figure 6): mailbox download plus the fixed
    /// upload, averaged over the round.
    pub fn add_friend_client_bandwidth(
        &self,
        workload: &Workload,
        servers: usize,
        round_duration_secs: f64,
    ) -> f64 {
        let download = self.add_friend_mailbox_bytes(workload, servers);
        let upload = ADD_FRIEND_REQUEST_LEN as f64
            + servers as f64 * alpenhorn_wire::ONION_LAYER_OVERHEAD as f64;
        (download + upload) / round_duration_secs
    }

    /// Client bandwidth for the dialing protocol in bytes per second,
    /// given the round duration (Figure 7).
    pub fn dialing_client_bandwidth(
        &self,
        workload: &Workload,
        servers: usize,
        round_duration_secs: f64,
    ) -> f64 {
        let download = self.dialing_mailbox_bytes(workload, servers);
        let upload =
            DIAL_REQUEST_LEN as f64 + servers as f64 * alpenhorn_wire::ONION_LAYER_OVERHEAD as f64;
        (download + upload) / round_duration_secs
    }
}

/// Size in bytes of a dialing mailbox holding `tokens` tokens: its dial set at
/// [`alpenhorn_bloom::expected_bits_per_token`] (≈ 35.05) bits per token.
pub fn dial_set_bytes(tokens: f64) -> f64 {
    tokens * alpenhorn_bloom::expected_bits_per_token() / 8.0
}

/// Converts bytes/second to kilobytes/second.
pub fn bytes_per_sec_to_kb(b: f64) -> f64 {
    b / 1000.0
}

/// Converts bytes/second to gigabytes/month.
pub fn bytes_per_sec_to_gb_month(b: f64) -> f64 {
    b * 30.0 * 86_400.0 / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CostModel {
        CostModel::paper_reference()
    }

    #[test]
    fn mailbox_sizes_match_paper_section_8_2() {
        let m = model();
        // 1M users: one add-friend mailbox holds ~12k real + 12k noise ≈ 24k
        // requests; the paper quotes 7.4 MB at 308 B/request. Ours are
        // `ADD_FRIEND_REQUEST_LEN` = 380 B (23 % more), so the byte size is
        // proportionally larger.
        let w = Workload::paper(1_000_000);
        let requests = m.add_friend_mailbox_requests(&w, 3);
        assert!((20_000.0..28_000.0).contains(&requests), "{requests}");

        // 1M users dialing: a single mailbox of ~125k tokens. The paper's
        // 48-bit Bloom filter is 0.75 MB; the coded set is ≈ 0.55 MB.
        let tokens = m.dialing_mailbox_tokens(&w, 3);
        assert!((120_000.0..130_000.0).contains(&tokens), "{tokens}");
        let mb = m.dialing_mailbox_bytes(&w, 3) / 1e6;
        assert!((0.52..0.57).contains(&mb), "{mb}");

        // 10M users dialing: 7 mailboxes of ~150k tokens, ≈ 0.66 MB each
        // (the paper's 0.9 MB at 48 bits per token).
        let w10 = Workload::paper(10_000_000);
        assert_eq!(m.dialing_mailboxes(&w10), 7);
        let mb = m.dialing_mailbox_bytes(&w10, 3) / 1e6;
        assert!((0.6..0.8).contains(&mb), "{mb}");
    }

    #[test]
    fn dialing_bandwidth_close_to_paper() {
        // §8.2: 10M users, 5-minute dialing rounds → ~3 KB/s.
        let m = model();
        let w = Workload::paper(10_000_000);
        let kb = bytes_per_sec_to_kb(m.dialing_client_bandwidth(&w, 3, 300.0));
        assert!((2.0..5.0).contains(&kb), "{kb} KB/s");
    }

    #[test]
    fn add_friend_latency_shape_matches_figure_8() {
        let m = model();
        // Latency grows with users.
        let small = m.add_friend_latency(&Workload::paper(100_000), 3).total;
        let large = m.add_friend_latency(&Workload::paper(10_000_000), 3).total;
        assert!(large > small * 5.0);
        // More servers cost more.
        let s3 = m.add_friend_latency(&Workload::paper(1_000_000), 3).total;
        let s10 = m.add_friend_latency(&Workload::paper(1_000_000), 10).total;
        assert!(s10 > s3);
        // With the paper's own per-op costs, 10M users on 3 servers lands in
        // the same ballpark as the paper's 152 s (within a factor of ~2).
        assert!((60.0..350.0).contains(&large), "{large} s");
    }

    #[test]
    fn dialing_cheaper_than_add_friend() {
        let m = model();
        let w = Workload::paper(1_000_000);
        let add = m.add_friend_latency(&w, 3);
        let dial = m.dialing_latency(&w, 3, 1000, 10);
        assert!(dial.client_scan < add.client_scan);
        // Client scanning a dialing mailbox with 1000 friends and 10 intents
        // takes well under a second (§8.2).
        assert!(dial.client_scan < 1.0);
    }

    #[test]
    fn measured_costs_are_positive_and_ordered() {
        let costs = MeasuredCosts::measure(8);
        assert!(costs.ibe_decrypt > 0.0);
        assert!(costs.ibe_encrypt > 0.0);
        assert!(costs.onion_peel > 0.0);
        assert!(costs.keywheel_hash > 0.0);
        // An IBE trial decryption (point parse + pairing + AEAD open over the
        // full request body) costs strictly more than one keywheel HMAC. With
        // the real curve the gap is orders of magnitude; under the offline
        // pairing stand-in (vendor/README.md) the pairing itself is cheap, so
        // only the strict ordering is asserted.
        assert!(costs.ibe_decrypt > costs.keywheel_hash);
    }

    #[test]
    fn client_bandwidth_involves_no_per_operation_cost() {
        // The evaluation sweep prints Figures 6 and 7 once for both models.
        let paper = model();
        let mut slow = paper;
        slow.costs.ibe_decrypt *= 10.0;
        slow.costs.onion_peel *= 10.0;
        slow.costs.dial_set_insert *= 10.0;
        let w = Workload::paper(1_000_000);
        assert_eq!(
            paper.add_friend_client_bandwidth(&w, 3, 3600.0),
            slow.add_friend_client_bandwidth(&w, 3, 3600.0)
        );
        assert_eq!(
            paper.dialing_client_bandwidth(&w, 3, 300.0),
            slow.dialing_client_bandwidth(&w, 3, 300.0)
        );
    }

    #[test]
    fn unit_conversions() {
        assert!((bytes_per_sec_to_kb(3_000.0) - 3.0).abs() < 1e-9);
        let gb = bytes_per_sec_to_gb_month(1000.0);
        assert!((gb - 2.592).abs() < 0.001);
    }
}
