//! A mix chain driven over [`Mixer`] handles.
//!
//! [`RemoteMixChain`] mirrors the in-process
//! [`MixChain`](alpenhorn_mixnet::MixChain) API — begin, run, end — over a
//! row of [`Mixer`]s, each of which may be a loopback daemon or a TCP
//! connection to a `mixd` process. Because every mix server derives its
//! round bytes from (seed, round id), the remote chain's output for a given
//! round is byte-identical to the in-process chain's, regardless of
//! transport or retries.
//!
//! A round's batch passes the mixers one after another, exactly as in
//! `MixChain`: a round's batch exists only once the round closes, so two
//! rounds of one protocol are never in flight together and there is nothing
//! to overlap.

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
}

impl RemoteMixChain {
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
    /// `next_round`, as [`MixChain::resume_at`](alpenhorn_mixnet::MixChain::resume_at)
    /// does in-process.
    pub fn resume_at(&mut self, next_round: u64) {
        self.next_auto_round = next_round;
    }

    /// Ends the current auto-numbered round on every mixer (idempotent).
    pub fn end_round(&mut self) -> Result<(), MixdError> {
        let Some(round) = self.current_round.take().map(Round) else {
            return Ok(());
        };
        let protocol = self.protocol;
        let _span = self.span("mix_end", round);
        let started = Instant::now();
        for mixer in &mut self.mixers {
            mixer.end_round(protocol, round)?;
        }
        phase_histogram(protocol, "end").observe_since(started);
        Ok(())
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
    /// round, collecting the same [`RoundStats`] the in-process chain
    /// reports. On a terminal mixer failure the call fails; because rounds
    /// replay byte-identically, the caller may simply call again.
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
        }
        stats.final_messages = current.len();
        phase_histogram(protocol, "process").observe_since(started);
        Ok((current, stats))
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
    fn mixing_a_closed_round_is_a_mixer_error() {
        let noise = NoiseConfig::deterministic(0.0);
        let mut chain = RemoteMixChain::loopback(RoundKind::AddFriend, 2, noise, SEED);
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
}
