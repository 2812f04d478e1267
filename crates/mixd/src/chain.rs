//! The mix chain: one driver for every deployment shape.
//!
//! [`MixChain`] passes each round's batch through a row of [`Mixer`]s in
//! chain order, as the paper's entry server drives its mix servers (§7). A
//! mixer may be a [`MixdServer`] in the same process
//! ([`MixChain::in_process`]), a daemon behind the full wire codec
//! ([`MixChain::loopback`]) or a TCP connection to a `mixd` process
//! ([`RemoteMixer`](crate::RemoteMixer)). Because every mix server derives
//! its round bytes from (seed, round id), a round's output is byte-identical
//! whichever mixers carry it and however often their calls are retried.
//!
//! A round's batch passes the mixers one after another: a round's batch
//! exists only once the round closes, so two rounds of one protocol are
//! never in flight together and there is nothing to overlap.

use std::sync::Arc;
use std::time::Instant;

use alpenhorn_ibe::dh::DhPublic;
use alpenhorn_mixnet::{
    AddFriendMailboxes, DialingMailboxes, MixAdversary, NoiseConfig, RoundStats,
};
use alpenhorn_obs::{Counter, SpanGuard};
use alpenhorn_wire::{Round, RoundKind};

use crate::daemon::MixdServer;
use crate::error::MixdError;
use crate::mixer::{LoopbackMixer, Mixer};

/// Chain-driving phase timing, recorded from the coordinator's side of the
/// mixer boundary (the daemons time their own side under `mixd_*`).
fn phase_histogram(protocol: RoundKind, phase: &'static str) -> Arc<alpenhorn_obs::Histogram> {
    alpenhorn_obs::global().histogram(
        "coordinator_mix_phase_us",
        &[("protocol", protocol.label()), ("phase", phase)],
    )
}

/// A chain of mix servers driven through [`Mixer`] handles.
///
/// One instance drives one protocol's chain (add-friend or dialing); the
/// coordinator holds one per protocol. Rounds are numbered from 0 in begin
/// order (or from where [`MixChain::resume_at`] puts them), so every
/// deployment of one cluster seed opens identical (protocol, round) pairs
/// and therefore produces identical bytes.
pub struct MixChain {
    protocol: RoundKind,
    mixers: Vec<Box<dyn Mixer>>,
    noise: NoiseConfig,
    next_auto_round: u64,
    current_round: Option<u64>,
    /// Scripted compromise of one mixer (tests and chaos scenarios only).
    adversary: Option<MixAdversary>,
    /// Rounds mixed since the adversary was installed, keying its per-round
    /// tampering stream.
    tamper_rounds: u64,
    end_failures: Arc<Counter>,
}

impl MixChain {
    /// Creates a chain over the given mixer handles, in chain order.
    /// Panics if `mixers` is empty.
    pub fn new(protocol: RoundKind, mixers: Vec<Box<dyn Mixer>>, noise: NoiseConfig) -> Self {
        assert!(
            !mixers.is_empty(),
            "a mixnet chain needs at least one server"
        );
        MixChain {
            protocol,
            mixers,
            noise,
            next_auto_round: 0,
            current_round: None,
            adversary: None,
            tamper_rounds: 0,
            end_failures: alpenhorn_obs::global().counter(
                "coordinator_mix_end_failures_total",
                &[("protocol", protocol.label())],
            ),
        }
    }

    /// Creates an `n`-mixer chain of daemons in this process, each called
    /// directly: no codec, no sockets.
    pub fn in_process(
        protocol: RoundKind,
        n: usize,
        noise: NoiseConfig,
        cluster_seed: [u8; 32],
    ) -> Self {
        let mixers = (0..n)
            .map(|i| Box::new(MixdServer::new(cluster_seed, i)) as Box<dyn Mixer>)
            .collect();
        Self::new(protocol, mixers, noise)
    }

    /// Creates an `n`-mixer loopback chain: in-process daemons, full wire
    /// codec, no sockets. Byte-equivalent to
    /// [`MixChain::in_process`] with the same arguments.
    pub fn loopback(
        protocol: RoundKind,
        n: usize,
        noise: NoiseConfig,
        cluster_seed: [u8; 32],
    ) -> Self {
        let mixers = (0..n)
            .map(|i| Box::new(LoopbackMixer::for_position(cluster_seed, i)) as Box<dyn Mixer>)
            .collect();
        Self::new(protocol, mixers, noise)
    }

    /// Installs (or with `None` removes) a scripted adversary compromising
    /// one mixer in the chain. Panics if the mixer index is out of range.
    /// This is the hook the scenario engine's malicious-mixer events drive;
    /// honest operation is byte-identical to a chain that never had the
    /// hook, because tampering happens strictly after the compromised
    /// mixer's honest output and only when an adversary is installed.
    pub fn set_adversary(&mut self, adversary: Option<MixAdversary>) {
        if let Some(a) = &adversary {
            assert!(
                a.server < self.mixers.len(),
                "adversary server index {} out of range ({} servers)",
                a.server,
                self.mixers.len()
            );
        }
        self.adversary = adversary;
        self.tamper_rounds = 0;
    }

    /// Severs mixer `index`'s transport (the scenario engine's mixer-crash
    /// lever). The next call to that mixer reconnects and, because rounds
    /// replay byte-identically, recovery is invisible in the output.
    pub fn disconnect_mixer(&mut self, index: usize) {
        self.mixers[index].disconnect();
    }

    /// Opens the next round on every mixer and returns the onion public keys
    /// in chain order. A failed begin serves no key, so it uses up no round
    /// id: the next begin retries the same one (idempotently), and
    /// [`end_round`](Self::end_round) still erases what the mixers that
    /// succeeded derived.
    pub fn begin_round(&mut self) -> Result<Vec<DhPublic>, MixdError> {
        let round = Round(self.next_auto_round);
        self.current_round = Some(round.0);
        let protocol = self.protocol;
        let _span = self.span("mix_begin", round);
        let started = Instant::now();
        // Idempotent on every mixer: a re-begin returns the identical keys.
        let keys = self
            .mixers
            .iter_mut()
            .map(|m| m.begin_round(protocol, round))
            .collect::<Result<Vec<_>, _>>();
        phase_histogram(protocol, "begin").observe_since(started);
        let keys = keys?;
        self.next_auto_round += 1;
        Ok(keys)
    }

    /// Makes the next [`begin_round`](Self::begin_round) open round id
    /// `next_round`. A restarted deployment resumes the numbering here:
    /// starting again from 0 would re-derive onion keys that earlier rounds
    /// already served.
    pub fn resume_at(&mut self, next_round: u64) {
        self.next_auto_round = next_round;
    }

    /// Ends the current round on every mixer, erasing its onion secrets
    /// (idempotent). Ending is cleanup, so a mixer that fails to end the
    /// round does not fail the call: it is counted in
    /// `coordinator_mix_end_failures_total`, keeps that round's onion secret
    /// until it restarts, and the mixers after it are still ended.
    pub fn end_round(&mut self) {
        let Some(round) = self.current_round.take().map(Round) else {
            return;
        };
        let protocol = self.protocol;
        let _span = self.span("mix_end", round);
        let started = Instant::now();
        for mixer in &mut self.mixers {
            if mixer.end_round(protocol, round).is_err() {
                self.end_failures.inc();
            }
        }
        phase_histogram(protocol, "end").observe_since(started);
    }

    /// A coordinator span for one chain phase of `round`, under the round's
    /// correlation id.
    fn span(&self, name: &'static str, round: Round) -> SpanGuard {
        SpanGuard::begin(
            "coordinator",
            name,
            alpenhorn_obs::correlation_id(self.protocol.code(), round.0),
        )
    }

    /// Runs a complete add-friend round against the current round's keys and
    /// builds the add-friend mailboxes.
    pub fn run_add_friend_round(
        &mut self,
        batch: Vec<Vec<u8>>,
        num_mailboxes: u32,
        publics: &[DhPublic],
    ) -> Result<(AddFriendMailboxes, RoundStats), MixdError> {
        let (finals, stats) = self.mix_current(batch, num_mailboxes, publics)?;
        Ok((
            AddFriendMailboxes::from_batch(&finals, num_mailboxes),
            stats,
        ))
    }

    /// Runs a complete dialing round against the current round's keys and
    /// builds the dial-set mailboxes.
    pub fn run_dialing_round(
        &mut self,
        batch: Vec<Vec<u8>>,
        num_mailboxes: u32,
        publics: &[DhPublic],
    ) -> Result<(DialingMailboxes, RoundStats), MixdError> {
        let (finals, stats) = self.mix_current(batch, num_mailboxes, publics)?;
        Ok((DialingMailboxes::from_batch(&finals, num_mailboxes), stats))
    }

    /// Passes `batch` through every mixer in chain order for the current
    /// round and collects its [`RoundStats`]. On a terminal mixer failure the
    /// call fails; because rounds replay byte-identically, the caller may
    /// simply call again.
    fn mix_current(
        &mut self,
        batch: Vec<Vec<u8>>,
        num_mailboxes: u32,
        publics: &[DhPublic],
    ) -> Result<(Vec<Vec<u8>>, RoundStats), MixdError> {
        let round = Round(
            self.current_round
                .expect("process called without begin_round"),
        );
        let protocol = self.protocol;
        let _span = self.span("mix_process", round);
        let started = Instant::now();
        let mut stats = RoundStats {
            client_messages: batch.len(),
            ..RoundStats::default()
        };
        let tamper_round = self.tamper_rounds;
        if self.adversary.is_some() {
            self.tamper_rounds += 1;
        }
        let mut current = batch;
        for (k, mixer) in self.mixers.iter_mut().enumerate() {
            // Tolerate short key lists (e.g. a round that was never opened):
            // the daemon answers with its own typed error.
            let downstream = publics.get(k + 1..).unwrap_or(&[]);
            let processed = mixer.process(
                protocol,
                round,
                num_mailboxes,
                &self.noise,
                downstream,
                current,
            )?;
            stats.noise += processed.noise_added;
            stats.dropped += processed.dropped;
            current = processed.batch;
            // A compromised mixer tampers after its honest processing, so
            // the stats record what the mixer *claims* and `final_messages`
            // records what actually came out — the discrepancy is exactly
            // what the conservation invariant checks.
            if let Some(adversary) = self.adversary.filter(|a| a.server == k) {
                current = adversary.tamper(current, tamper_round);
            }
        }
        stats.final_messages = current.len();
        phase_histogram(protocol, "process").observe_since(started);
        Ok((current, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpenhorn_crypto::ChaChaRng;
    use alpenhorn_mixnet::onion::wrap_onion;
    use alpenhorn_mixnet::MixMisbehavior;
    use alpenhorn_wire::{
        AddFriendEnvelope, DialRequest, DialToken, MailboxId, MixerRequest, MixerResponse,
    };

    const SEED: [u8; 32] = [42u8; 32];

    fn rng(seed: u8) -> ChaChaRng {
        ChaChaRng::from_seed_bytes([seed; 32])
    }

    fn chain(protocol: RoundKind, n: usize, mu: f64, seed: u8) -> MixChain {
        MixChain::in_process(protocol, n, NoiseConfig::deterministic(mu), [seed; 32])
    }

    #[test]
    fn add_friend_round_delivers_requests() {
        let mut rng = rng(1);
        let mut chain = chain(RoundKind::AddFriend, 3, 2.0, 7);
        let publics = chain.begin_round().unwrap();

        // Two real requests to mailbox 0 and one cover message.
        let mut batch = Vec::new();
        for fill in [0x11u8, 0x22] {
            let env = AddFriendEnvelope {
                mailbox: MailboxId(0),
                ciphertext: vec![fill; AddFriendEnvelope::CIPHERTEXT_LEN],
            };
            batch.push(wrap_onion(&env.encode(), &publics, &mut rng));
        }
        batch.push(wrap_onion(
            &AddFriendEnvelope::cover().encode(),
            &publics,
            &mut rng,
        ));

        let (mailboxes, stats) = chain.run_add_friend_round(batch, 1, &publics).unwrap();
        chain.end_round();

        assert_eq!(stats.client_messages, 3);
        assert_eq!(stats.dropped, 0);
        // 2 noise per mailbox (1 real + cover) per server = 4 per server.
        assert_eq!(stats.noise, 12);
        // The real ciphertexts are present in mailbox 0.
        let delivered = mailboxes.mailbox(MailboxId(0));
        assert!(delivered
            .iter()
            .any(|c| c == &vec![0x11u8; AddFriendEnvelope::CIPHERTEXT_LEN]));
        assert!(delivered
            .iter()
            .any(|c| c == &vec![0x22u8; AddFriendEnvelope::CIPHERTEXT_LEN]));
        // Mailbox 0 also holds the add-friend noise addressed to it (2 per server).
        assert_eq!(delivered.len(), 2 + 6);
    }

    #[test]
    fn dialing_round_encodes_tokens_in_bloom_filter() {
        let mut rng = rng(2);
        let mut chain = chain(RoundKind::Dialing, 3, 5.0, 8);
        let publics = chain.begin_round().unwrap();

        let request = DialRequest {
            mailbox: MailboxId(0),
            token: DialToken([0x5au8; 32]),
        };
        let batch = vec![wrap_onion(&request.encode(), &publics, &mut rng)];
        // The token leaves the last mixer, and the mailbox is the dial set
        // of exactly the final batch (mixnet's `mailbox` tests check that
        // a dial set contains its tokens).
        let (finals, _) = chain.mix_current(batch.clone(), 1, &publics).unwrap();
        assert!(finals.contains(&request.encode()));
        let (mailboxes, stats) = chain.run_dialing_round(batch, 1, &publics).unwrap();
        chain.end_round();

        assert_eq!(stats.client_messages, 1);
        assert_eq!(
            mailboxes.mailboxes,
            DialingMailboxes::from_batch(&finals, 1).mailboxes
        );
        // 1 real token + 5 noise per server per mailbox (mailbox 0 only; cover dropped).
        assert_eq!(mailboxes.total_tokens(), 1 + 3 * 5);
    }

    fn marker_batch(rng: &mut ChaChaRng, publics: &[DhPublic], count: u32) -> Vec<Vec<u8>> {
        (0..count)
            .map(|i| {
                let env = AddFriendEnvelope {
                    mailbox: MailboxId(0),
                    ciphertext: {
                        let mut c = vec![0u8; AddFriendEnvelope::CIPHERTEXT_LEN];
                        c[..4].copy_from_slice(&i.to_be_bytes());
                        c
                    },
                };
                wrap_onion(&env.encode(), publics, rng)
            })
            .collect()
    }

    #[test]
    fn messages_shuffled_between_input_and_output() {
        // With deterministic payload markers and zero noise, the output order
        // should (overwhelmingly likely) differ from the input order.
        let mut rng = rng(3);
        let mut chain = chain(RoundKind::AddFriend, 1, 0.0, 9);
        let publics = chain.begin_round().unwrap();

        let count = 64u32;
        let batch = marker_batch(&mut rng, &publics, count);
        let (mailboxes, _) = chain.run_add_friend_round(batch, 1, &publics).unwrap();
        let order: Vec<u32> = mailboxes
            .mailbox(MailboxId(0))
            .iter()
            .map(|c| u32::from_be_bytes(c[..4].try_into().unwrap()))
            .collect();
        assert_eq!(order.len(), count as usize);
        assert_ne!(order, (0..count).collect::<Vec<_>>(), "batch not shuffled");
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..count).collect::<Vec<_>>());
    }

    #[test]
    fn more_servers_add_more_noise() {
        let noise_of = |n| {
            let mut chain = chain(RoundKind::AddFriend, n, 4.0, 1);
            let publics = chain.begin_round().unwrap();
            let (_, stats) = chain.run_add_friend_round(vec![], 2, &publics).unwrap();
            stats.noise
        };
        // servers x mu x (mailboxes + cover)
        assert_eq!(noise_of(3), 3 * 4 * 3);
        assert_eq!(noise_of(5), 5 * 4 * 3);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_chain_rejected() {
        MixChain::in_process(RoundKind::AddFriend, 0, NoiseConfig::light(), SEED);
    }

    #[test]
    fn dropping_adversary_breaks_conservation() {
        let mut rng = rng(4);
        let mut chain = chain(RoundKind::AddFriend, 3, 0.0, 10);
        chain.set_adversary(Some(MixAdversary {
            server: 1,
            misbehavior: MixMisbehavior::DropOnions { percent: 50 },
            seed: 77,
        }));
        let publics = chain.begin_round().unwrap();
        let batch = marker_batch(&mut rng, &publics, 64);
        let (_, stats) = chain.run_add_friend_round(batch, 1, &publics).unwrap();
        assert_eq!(stats.client_messages, 64);
        assert_eq!(stats.noise, 0);
        assert!(
            stats.final_messages < 64,
            "a dropping mixer must lose messages: {stats:?}"
        );
    }

    #[test]
    fn replaying_adversary_inflates_final_batch_deterministically() {
        let run = || {
            let mut rng = rng(5);
            let mut chain = chain(RoundKind::AddFriend, 3, 0.0, 11);
            chain.set_adversary(Some(MixAdversary {
                server: 0,
                misbehavior: MixMisbehavior::ReplayOnions { percent: 40 },
                seed: 78,
            }));
            let publics = chain.begin_round().unwrap();
            let batch = marker_batch(&mut rng, &publics, 64);
            chain.run_add_friend_round(batch, 1, &publics).unwrap().1
        };
        let stats = run();
        assert!(
            stats.final_messages > 64,
            "a replaying mixer must add messages: {stats:?}"
        );
        // Seeded adversary: the replayed run tampers identically.
        assert_eq!(stats, run());
    }

    #[test]
    fn honest_chain_is_unchanged_by_the_hook() {
        let run = |with_hook: bool| {
            let mut rng = rng(6);
            let mut chain = chain(RoundKind::AddFriend, 3, 2.0, 12);
            if with_hook {
                chain.set_adversary(Some(MixAdversary {
                    server: 2,
                    misbehavior: MixMisbehavior::DropOnions { percent: 100 },
                    seed: 1,
                }));
                chain.set_adversary(None);
            }
            let publics = chain.begin_round().unwrap();
            let batch = marker_batch(&mut rng, &publics, 16);
            let (mailboxes, stats) = chain.run_add_friend_round(batch, 1, &publics).unwrap();
            (mailboxes.mailbox(MailboxId(0)).to_vec(), stats)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn adversary_index_must_be_in_range() {
        chain(RoundKind::AddFriend, 2, 0.0, 0).set_adversary(Some(MixAdversary {
            server: 2,
            misbehavior: MixMisbehavior::ReorderOnions,
            seed: 0,
        }));
    }

    #[test]
    fn loopback_single_round_matches_in_process_chain() {
        let noise = NoiseConfig::deterministic(2.0);
        let mut local = MixChain::in_process(RoundKind::AddFriend, 3, noise, SEED);
        let mut remote = MixChain::loopback(RoundKind::AddFriend, 3, noise, SEED);

        let local_publics = local.begin_round().unwrap();
        let remote_publics = remote.begin_round().unwrap();
        assert_eq!(local_publics, remote_publics);

        let (local_boxes, local_stats) = local
            .run_add_friend_round(vec![], 2, &local_publics)
            .unwrap();
        let (remote_boxes, remote_stats) = remote
            .run_add_friend_round(vec![], 2, &remote_publics)
            .unwrap();
        assert_eq!(local_stats, remote_stats);
        assert_eq!(local_boxes.mailboxes, remote_boxes.mailboxes);
        local.end_round();
        remote.end_round();
    }

    #[test]
    fn mixing_a_closed_round_is_a_mixer_error() {
        let noise = NoiseConfig::deterministic(0.0);
        let mut chain = MixChain::loopback(RoundKind::AddFriend, 2, noise, SEED);
        // Round 7 was never opened on the mixers.
        chain.current_round = Some(7);
        let err = chain.run_add_friend_round(vec![], 1, &[]);
        assert!(
            matches!(&err, Err(MixdError::Mixer(d)) if d.contains("not open")),
            "{err:?}"
        );
    }

    #[test]
    fn auto_numbering_matches_the_in_process_chain() {
        let noise = NoiseConfig::deterministic(1.0);
        let mut local = MixChain::in_process(RoundKind::Dialing, 2, noise, SEED);
        let mut remote = MixChain::loopback(RoundKind::Dialing, 2, noise, SEED);
        // Three begin/run/end cycles: implicit numbering must stay aligned.
        for _ in 0..3 {
            let lp = local.begin_round().unwrap();
            let rp = remote.begin_round().unwrap();
            assert_eq!(lp, rp);
            let (lb, ls) = local.run_dialing_round(vec![], 2, &lp).unwrap();
            let (rb, rs) = remote.run_dialing_round(vec![], 2, &rp).unwrap();
            assert_eq!(ls, rs);
            assert_eq!(lb.mailboxes, rb.mailboxes);
            local.end_round();
            remote.end_round();
        }
    }

    /// A mixer whose every `EndRound` fails.
    struct CannotEnd(MixdServer);

    impl Mixer for CannotEnd {
        fn call(&mut self, request: MixerRequest) -> Result<MixerResponse, MixdError> {
            match request {
                MixerRequest::EndRound { .. } => Err(MixdError::UnexpectedResponse),
                other => Ok(self.0.handle(other)),
            }
        }
    }

    #[test]
    fn a_failed_end_is_counted_and_the_other_mixers_still_end() {
        let noise = NoiseConfig::deterministic(0.0);
        let mixers: Vec<Box<dyn Mixer>> = vec![
            Box::new(CannotEnd(MixdServer::new(SEED, 0))),
            Box::new(MixdServer::new(SEED, 1)),
        ];
        let mut chain = MixChain::new(RoundKind::AddFriend, mixers, noise);
        let failures = alpenhorn_obs::global().counter(
            "coordinator_mix_end_failures_total",
            &[("protocol", RoundKind::AddFriend.label())],
        );
        let before = failures.get();
        chain.begin_round().unwrap();
        chain.end_round();
        assert_eq!(failures.get() - before, 1);
        // The first mixer still holds round 0's secret; the second erased it.
        let open: Vec<bool> = chain
            .mixers
            .iter_mut()
            .map(|m| {
                m.process(RoundKind::AddFriend, Round(0), 1, &noise, &[], vec![])
                    .is_ok()
            })
            .collect();
        assert_eq!(open, [true, false]);
    }
}
