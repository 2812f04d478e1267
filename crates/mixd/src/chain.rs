//! A mix chain driven over [`Mixer`] handles, with cross-round pipelining.
//!
//! [`RemoteMixChain`] mirrors the in-process
//! [`MixChain`](alpenhorn_mixnet::MixChain) API — begin, run, end — over a
//! row of [`Mixer`]s, each of which may be a loopback daemon or a TCP
//! connection to a `mixd` process. Because every mix server derives its
//! round bytes from (seed, round id), the remote chain's output for a given
//! round is byte-identical to the in-process chain's, regardless of
//! transport, retries, or pipelining depth.
//!
//! The pipelining is the point of distribution: with N machines, mixer k
//! can peel round r while mixer k+1 is still noising round r−1. [`mix_rounds`]
//! runs one stage thread per mixer connected by bounded channels, so up to
//! `pipeline_depth` rounds are in flight between adjacent stages and the
//! chain's throughput approaches one round per slowest-stage interval
//! instead of one round per whole-chain traversal.
//!
//! [`mix_rounds`]: RemoteMixChain::mix_rounds

use std::sync::mpsc;
use std::time::Instant;

use alpenhorn_ibe::dh::DhPublic;
use alpenhorn_mixnet::{AddFriendMailboxes, DialingMailboxes, NoiseConfig, RoundStats};
use alpenhorn_obs::SpanGuard;
use alpenhorn_wire::{Round, RoundKind};

use crate::error::MixdError;
use crate::mixer::{LoopbackMixer, Mixer};

/// Chain-driving phase timing, recorded from the coordinator's side of the
/// mixer boundary (the daemons time their own side under `mixd_*`).
fn phase_histogram(
    protocol: RoundKind,
    phase: &'static str,
) -> std::sync::Arc<alpenhorn_obs::Histogram> {
    alpenhorn_obs::global().histogram(
        "coordinator_mix_phase_us",
        &[("protocol", protocol.label()), ("phase", phase)],
    )
}

/// One round's result from [`RemoteMixChain::mix_rounds`]: the fully mixed
/// batch plus the same [`RoundStats`] the in-process chain would report.
pub type MixRoundOutput = (Vec<Vec<u8>>, RoundStats);

/// One round's worth of work for [`RemoteMixChain::mix_rounds`].
pub struct MixRoundInput {
    /// The round id (must already be open on every mixer).
    pub round: Round,
    /// The client onion batch.
    pub batch: Vec<Vec<u8>>,
    /// Mailbox count for noise generation.
    pub num_mailboxes: u32,
    /// The chain's onion keys for this round, in chain order — what
    /// [`RemoteMixChain::begin_round`] returned.
    pub publics: Vec<DhPublic>,
}

/// A chain of mix servers driven through [`Mixer`] handles.
///
/// One instance drives one protocol's chain (add-friend or dialing); the
/// coordinator holds one per protocol, exactly as it holds two in-process
/// `MixChain`s. Rounds are auto-numbered from 0 in begin order, matching
/// the in-process chain's implicit numbering, so the two deployments open
/// identical (protocol, round) pairs and therefore produce identical bytes.
pub struct RemoteMixChain {
    protocol: RoundKind,
    mixers: Vec<Box<dyn Mixer>>,
    noise: NoiseConfig,
    next_auto_round: u64,
    current_round: Option<u64>,
    pipeline_depth: usize,
}

impl RemoteMixChain {
    /// Default bound on rounds in flight between adjacent pipeline stages.
    pub const DEFAULT_PIPELINE_DEPTH: usize = 2;

    /// Creates a chain over the given mixer handles, in chain order.
    /// Panics if `mixers` is empty, matching the in-process chain.
    pub fn new(protocol: RoundKind, mixers: Vec<Box<dyn Mixer>>, noise: NoiseConfig) -> Self {
        assert!(
            !mixers.is_empty(),
            "a mixnet chain needs at least one server"
        );
        RemoteMixChain {
            protocol,
            mixers,
            noise,
            next_auto_round: 0,
            current_round: None,
            pipeline_depth: Self::DEFAULT_PIPELINE_DEPTH,
        }
    }

    /// Creates an `n`-mixer loopback chain: in-process daemons, full wire
    /// codec, no sockets. Byte-equivalent to
    /// `MixChain::new(n, noise, chain_seed(cluster_seed, protocol))`.
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

    /// The protocol this chain mixes.
    pub fn protocol(&self) -> RoundKind {
        self.protocol
    }

    /// Number of mixers in the chain.
    pub fn len(&self) -> usize {
        self.mixers.len()
    }

    /// Whether the chain is empty (never true; chains have at least one mixer).
    pub fn is_empty(&self) -> bool {
        self.mixers.is_empty()
    }

    /// The noise configuration in use.
    pub fn noise(&self) -> &NoiseConfig {
        &self.noise
    }

    /// Bounds how many rounds may be in flight between adjacent pipeline
    /// stages in [`mix_rounds`](Self::mix_rounds). Clamped to at least 1.
    /// Depth changes scheduling only, never bytes.
    pub fn set_pipeline_depth(&mut self, depth: usize) {
        self.pipeline_depth = depth.max(1);
    }

    /// Severs mixer `index`'s transport (the scenario engine's mixer-crash
    /// lever). The next call to that mixer reconnects and, because rounds
    /// replay byte-identically, recovery is invisible in the output.
    pub fn disconnect_mixer(&mut self, index: usize) {
        self.mixers[index].disconnect();
    }

    /// Opens the next auto-numbered round on every mixer and returns the
    /// onion public keys in chain order. A failed begin serves no key, so
    /// it uses up no round id: the next begin retries the same one
    /// (idempotently), and [`end_round`](Self::end_round) still erases what
    /// the mixers that succeeded derived.
    pub fn begin_round(&mut self) -> Result<Vec<DhPublic>, MixdError> {
        let round = self.next_auto_round;
        self.current_round = Some(round);
        let keys = self.begin_round_for(Round(round))?;
        self.next_auto_round += 1;
        Ok(keys)
    }

    /// Makes the next [`begin_round`](Self::begin_round) open round id
    /// `next_round`, as [`MixChain::resume_at`](alpenhorn_mixnet::MixChain::resume_at)
    /// does in-process.
    pub fn resume_at(&mut self, next_round: u64) {
        self.next_auto_round = next_round;
    }

    /// Opens an explicit round id on every mixer. Idempotent: re-begin after
    /// a failure returns the identical keys.
    pub fn begin_round_for(&mut self, round: Round) -> Result<Vec<DhPublic>, MixdError> {
        let protocol = self.protocol;
        let _span = SpanGuard::begin(
            "coordinator",
            "mix_begin",
            alpenhorn_obs::correlation_id(protocol.code(), round.0),
        );
        let started = Instant::now();
        let keys = self
            .mixers
            .iter_mut()
            .map(|m| m.begin_round(protocol, round))
            .collect();
        phase_histogram(protocol, "begin").observe_since(started);
        keys
    }

    /// Ends the current auto-numbered round on every mixer.
    pub fn end_round(&mut self) -> Result<(), MixdError> {
        match self.current_round.take() {
            Some(round) => self.end_round_for(Round(round)),
            None => Ok(()),
        }
    }

    /// Ends an explicit round id on every mixer (idempotent).
    pub fn end_round_for(&mut self, round: Round) -> Result<(), MixdError> {
        let protocol = self.protocol;
        let _span = SpanGuard::begin(
            "coordinator",
            "mix_end",
            alpenhorn_obs::correlation_id(protocol.code(), round.0),
        );
        let started = Instant::now();
        for mixer in &mut self.mixers {
            mixer.end_round(protocol, round)?;
        }
        phase_histogram(protocol, "end").observe_since(started);
        Ok(())
    }

    /// Runs a complete add-friend round against the current round's keys and
    /// builds the add-friend mailboxes, mirroring
    /// [`MixChain::run_add_friend_round`](alpenhorn_mixnet::MixChain::run_add_friend_round).
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
    /// builds the Bloom-filter mailboxes.
    pub fn run_dialing_round(
        &mut self,
        batch: Vec<Vec<u8>>,
        num_mailboxes: u32,
        publics: &[DhPublic],
    ) -> Result<(DialingMailboxes, RoundStats), MixdError> {
        let (finals, stats) = self.mix_current(batch, num_mailboxes, publics)?;
        Ok((DialingMailboxes::from_batch(&finals, num_mailboxes), stats))
    }

    fn mix_current(
        &mut self,
        batch: Vec<Vec<u8>>,
        num_mailboxes: u32,
        publics: &[DhPublic],
    ) -> Result<(Vec<Vec<u8>>, RoundStats), MixdError> {
        let round = self
            .current_round
            .expect("process called without begin_round");
        let mut out = self.mix_rounds(vec![MixRoundInput {
            round: Round(round),
            batch,
            num_mailboxes,
            publics: publics.to_vec(),
        }])?;
        Ok(out.pop().expect("one input yields one output"))
    }

    /// Pushes several rounds' batches through the chain concurrently: one
    /// stage thread per mixer, bounded channels between stages, so mixer k
    /// works on round r while mixer k+1 works on round r−1. Every round must
    /// already be open ([`begin_round_for`](Self::begin_round_for)) on every
    /// mixer. Results come back in input order, each with the same
    /// [`RoundStats`] the in-process chain would report.
    ///
    /// On any terminal mixer failure the whole call fails; because rounds
    /// replay byte-identically, the caller may simply call again with the
    /// same inputs.
    pub fn mix_rounds(
        &mut self,
        inputs: Vec<MixRoundInput>,
    ) -> Result<Vec<MixRoundOutput>, MixdError> {
        let rounds = inputs.len();
        if rounds == 0 {
            return Ok(Vec::new());
        }
        let protocol = self.protocol;
        let noise = self.noise;
        let depth = self.pipeline_depth.max(1);
        let stages = self.mixers.len();

        // One coordinator-side span per round in the call, all covering the
        // pipelined traversal (per-daemon timing lives in the mixd spans).
        let _round_spans: Vec<SpanGuard> = inputs
            .iter()
            .map(|input| {
                SpanGuard::begin(
                    "coordinator",
                    "mix_process",
                    alpenhorn_obs::correlation_id(protocol.code(), input.round.0),
                )
            })
            .collect();
        let process_started = Instant::now();
        let stall_histogram = alpenhorn_obs::global().histogram(
            "coordinator_mix_pipeline_stall_us",
            &[("protocol", protocol.label())],
        );

        let client_counts: Vec<usize> = inputs.iter().map(|i| i.batch.len()).collect();
        let mut meta = Vec::with_capacity(rounds);
        let mut batches = Vec::with_capacity(rounds);
        for (idx, input) in inputs.into_iter().enumerate() {
            meta.push((input.round, input.num_mailboxes, input.publics));
            batches.push((idx, input.batch));
        }
        let meta = &meta;

        type Item = (usize, Vec<Vec<u8>>);
        // Per-stage outcome: (round input index, noise added, dropped).
        type StageStats = Vec<(usize, u64, u64)>;

        let (finals, stage_results) = std::thread::scope(|scope| {
            let (first_tx, mut prev_rx) = mpsc::sync_channel::<Item>(depth);
            let mut handles = Vec::with_capacity(stages);
            for (k, mixer) in self.mixers.iter_mut().enumerate() {
                let (tx, rx) = mpsc::sync_channel::<Item>(depth);
                let rx_in = prev_rx;
                prev_rx = rx;
                let stage_stall = std::sync::Arc::clone(&stall_histogram);
                handles.push(scope.spawn(move || -> Result<StageStats, MixdError> {
                    let mut stats = StageStats::new();
                    // Time this stage spends starved for upstream input or
                    // blocked on downstream backpressure — the pipeline's
                    // wasted wall-clock, one observation per stage per call.
                    let mut stall_us = 0u64;
                    loop {
                        let waiting = Instant::now();
                        let Ok((idx, batch)) = rx_in.recv() else {
                            break;
                        };
                        stall_us += waiting.elapsed().as_micros() as u64;
                        let (round, num_mailboxes, publics) = &meta[idx];
                        // Tolerate short key lists (e.g. a round that was
                        // never opened): the daemon answers with its own
                        // typed error instead of this thread panicking.
                        let downstream = publics.get(k + 1..).unwrap_or(&[]);
                        let processed = mixer.process(
                            protocol,
                            *round,
                            *num_mailboxes,
                            &noise,
                            downstream,
                            batch,
                        )?;
                        stats.push((idx, processed.noise_added, processed.dropped));
                        let blocked = Instant::now();
                        if tx.send((idx, processed.batch)).is_err() {
                            // The downstream stage died; its error is the
                            // interesting one, reported at join time.
                            break;
                        }
                        stall_us += blocked.elapsed().as_micros() as u64;
                    }
                    stage_stall.observe(stall_us);
                    Ok(stats)
                }));
            }
            // Feed from a dedicated thread so the main thread can drain the
            // sink concurrently — with bounded channels everywhere, feeding
            // and draining from one thread would deadlock past `depth`.
            scope.spawn(move || {
                for item in batches {
                    if first_tx.send(item).is_err() {
                        return;
                    }
                }
            });
            let mut finals: Vec<Option<Vec<Vec<u8>>>> = vec![None; rounds];
            for (idx, batch) in prev_rx.iter() {
                finals[idx] = Some(batch);
            }
            let stage_results: Vec<Result<StageStats, MixdError>> = handles
                .into_iter()
                .map(|h| h.join().expect("mix pipeline stage panicked"))
                .collect();
            (finals, stage_results)
        });

        let mut per_stage = Vec::with_capacity(stages);
        for result in stage_results {
            per_stage.push(result?);
        }
        let mut out = Vec::with_capacity(rounds);
        for (idx, finals) in finals.into_iter().enumerate() {
            let finals = finals
                .ok_or_else(|| MixdError::Mixer("mix pipeline dropped a round".to_string()))?;
            let mut stats = RoundStats {
                client_messages: client_counts[idx],
                final_messages: finals.len(),
                ..RoundStats::default()
            };
            for stage in &per_stage {
                let &(i, noise_added, dropped) = stage
                    .iter()
                    .find(|(i, _, _)| *i == idx)
                    .ok_or_else(|| MixdError::Mixer("mix pipeline dropped a round".to_string()))?;
                debug_assert_eq!(i, idx);
                stats.noise_per_server.push(noise_added);
                stats.dropped_per_server.push(dropped);
            }
            out.push((finals, stats));
        }
        phase_histogram(protocol, "process").observe_since(process_started);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeds::chain_seed;
    use alpenhorn_mixnet::MixChain;

    const SEED: [u8; 32] = [42u8; 32];

    #[test]
    fn loopback_single_round_matches_in_process_chain() {
        let noise = NoiseConfig::deterministic(2.0);
        let mut local = MixChain::new(3, noise, chain_seed(SEED, RoundKind::AddFriend));
        let mut remote = RemoteMixChain::loopback(RoundKind::AddFriend, 3, noise, SEED);

        let local_publics = local.begin_round();
        let remote_publics = remote.begin_round().unwrap();
        assert_eq!(
            local_publics
                .iter()
                .map(|p| p.to_bytes())
                .collect::<Vec<_>>(),
            remote_publics
                .iter()
                .map(|p| p.to_bytes())
                .collect::<Vec<_>>()
        );

        let (local_boxes, local_stats) = local.run_add_friend_round(vec![], 2, &local_publics);
        let (remote_boxes, remote_stats) = remote
            .run_add_friend_round(vec![], 2, &remote_publics)
            .unwrap();
        assert_eq!(local_stats, remote_stats);
        assert_eq!(local_boxes.mailboxes, remote_boxes.mailboxes);
        local.end_round();
        remote.end_round().unwrap();
    }

    #[test]
    fn pipelined_rounds_match_sequential_rounds() {
        let noise = NoiseConfig::deterministic(1.0);
        let mut sequential = RemoteMixChain::loopback(RoundKind::Dialing, 4, noise, SEED);
        let mut pipelined = RemoteMixChain::loopback(RoundKind::Dialing, 4, noise, SEED);
        pipelined.set_pipeline_depth(3);

        // Open rounds 0..5 on both chains.
        let mut publics = Vec::new();
        for r in 0..5u64 {
            let p = sequential.begin_round_for(Round(r)).unwrap();
            assert_eq!(
                p.iter().map(|k| k.to_bytes()).collect::<Vec<_>>(),
                pipelined
                    .begin_round_for(Round(r))
                    .unwrap()
                    .iter()
                    .map(|k| k.to_bytes())
                    .collect::<Vec<_>>()
            );
            publics.push(p);
        }
        let input = |r: u64, publics: &[Vec<DhPublic>]| MixRoundInput {
            round: Round(r),
            batch: vec![],
            num_mailboxes: 3,
            publics: publics[r as usize].clone(),
        };
        // One call per round vs one pipelined call for all five.
        let mut one_by_one = Vec::new();
        for r in 0..5u64 {
            one_by_one.extend(sequential.mix_rounds(vec![input(r, &publics)]).unwrap());
        }
        let all_at_once = pipelined
            .mix_rounds((0..5u64).map(|r| input(r, &publics)).collect())
            .unwrap();
        assert_eq!(one_by_one, all_at_once);
    }

    #[test]
    fn mix_rounds_reports_closed_rounds_as_mixer_errors() {
        let noise = NoiseConfig::deterministic(0.0);
        let mut chain = RemoteMixChain::loopback(RoundKind::AddFriend, 2, noise, SEED);
        let err = chain.mix_rounds(vec![MixRoundInput {
            round: Round(7),
            batch: vec![],
            num_mailboxes: 1,
            publics: vec![],
        }]);
        assert!(
            matches!(&err, Err(MixdError::Mixer(d)) if d.contains("not open")),
            "{err:?}"
        );
    }

    #[test]
    fn auto_numbering_matches_the_in_process_chain() {
        let noise = NoiseConfig::deterministic(1.0);
        let mut local = MixChain::new(2, noise, chain_seed(SEED, RoundKind::Dialing));
        let mut remote = RemoteMixChain::loopback(RoundKind::Dialing, 2, noise, SEED);
        // Three begin/run/end cycles: implicit numbering must stay aligned.
        for _ in 0..3 {
            let lp = local.begin_round();
            let rp = remote.begin_round().unwrap();
            let (lb, ls) = local.run_dialing_round(vec![], 2, &lp);
            let (rb, rs) = remote.run_dialing_round(vec![], 2, &rp).unwrap();
            assert_eq!(ls, rs);
            assert_eq!(lb.mailboxes, rb.mailboxes);
            local.end_round();
            remote.end_round().unwrap();
        }
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let mut chain =
            RemoteMixChain::loopback(RoundKind::AddFriend, 1, NoiseConfig::light(), SEED);
        assert!(chain.mix_rounds(vec![]).unwrap().is_empty());
    }
}
