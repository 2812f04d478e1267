//! A complete in-process Alpenhorn deployment.
//!
//! [`Cluster`] wires together the PKG servers, the mixnet chain(s), the entry
//! server's batching role, the simulated mail system, and the CDN. Clients
//! (the `alpenhorn` crate) interact with a cluster exactly as they would with
//! a remote deployment:
//!
//! 1. register an identity with every PKG (confirmation emails),
//! 2. at the start of an add-friend round, extract identity keys and learn
//!    the round's aggregated master public key and onion keys,
//! 3. submit exactly one fixed-size onion per round (real or cover),
//! 4. after the round closes, download their mailbox from the CDN and scan it.

use alpenhorn_cdn::{NodeClient, ShardedCdn};
use alpenhorn_ibe::anytrust::aggregate_master_publics;
use alpenhorn_ibe::bf::MasterPublic;
use alpenhorn_ibe::dh::DhPublic;
use alpenhorn_ibe::sig::{Signature, VerifyingKey};
use alpenhorn_mixd::{chain_seed, Mixer, RemoteMixChain};
use alpenhorn_mixnet::{
    AddFriendMailboxes, DialingMailboxes, MailboxPolicy, MixChain, NoiseConfig, RoundStats,
};
use alpenhorn_pkg::{ExtractResponse, PkgServer, SimulatedMail};
use alpenhorn_wire::cdn::{encode_add_friend_blob, encode_dialing_blob};
use alpenhorn_wire::rpc::DialingRoundWire;
use alpenhorn_wire::{
    AddFriendEnvelope, Identity, MailboxId, Round, RoundKind, DIAL_REQUEST_LEN,
    ONION_LAYER_OVERHEAD,
};

use std::sync::Arc;

use crate::cdn::Cdn;
use crate::error::CoordinatorError;
use crate::rounds::RoundTiming;
use crate::shard::{Offer, SubmissionIntake};

/// Configuration for building a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of PKG servers (the paper co-locates one PKG per mixnet server).
    pub num_pkgs: usize,
    /// Number of mixnet servers in the chain.
    pub num_mix_servers: usize,
    /// Noise configuration for add-friend rounds.
    pub add_friend_noise: NoiseConfig,
    /// Noise configuration for dialing rounds.
    pub dialing_noise: NoiseConfig,
    /// Mailbox sizing policy.
    pub mailbox_policy: MailboxPolicy,
    /// Round durations (used for latency/bandwidth reporting, not enforced
    /// in-process).
    pub timing: RoundTiming,
    /// Master seed for all server randomness (reproducible experiments).
    pub seed: [u8; 32],
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            num_pkgs: 3,
            num_mix_servers: 3,
            add_friend_noise: NoiseConfig::light(),
            dialing_noise: NoiseConfig::light(),
            mailbox_policy: MailboxPolicy::default(),
            timing: RoundTiming::default(),
            seed: [0u8; 32],
        }
    }
}

impl ClusterConfig {
    /// The paper's deployment parameters (3 servers, §8.1 noise), scaled-down
    /// noise is NOT applied — use this for cost-model calibration, not for
    /// in-process end-to-end runs with many simulated clients.
    pub fn paper() -> Self {
        ClusterConfig {
            num_pkgs: 3,
            num_mix_servers: 3,
            add_friend_noise: NoiseConfig::paper_add_friend(),
            dialing_noise: NoiseConfig::paper_dialing(),
            ..ClusterConfig::default()
        }
    }

    /// A small, fast configuration for tests and examples.
    pub fn test(seed: u8) -> Self {
        ClusterConfig {
            num_pkgs: 3,
            num_mix_servers: 3,
            add_friend_noise: NoiseConfig::deterministic(2.0),
            dialing_noise: NoiseConfig::deterministic(3.0),
            mailbox_policy: MailboxPolicy {
                add_friend_target: 100,
                dialing_target: 100,
            },
            timing: RoundTiming::default(),
            seed: [seed; 32],
        }
    }
}

/// Everything a client needs to participate in an open add-friend round.
#[derive(Debug, Clone)]
pub struct AddFriendRoundInfo {
    /// The round number.
    pub round: Round,
    /// Onion public keys of the mixnet servers, in chain order.
    pub onion_keys: Vec<DhPublic>,
    /// Each PKG's revealed master public key for the round.
    pub pkg_publics: Vec<MasterPublic>,
    /// The aggregated (Anytrust-IBE) master public key clients encrypt to.
    pub master_public: MasterPublic,
    /// Number of add-friend mailboxes this round.
    pub num_mailboxes: u32,
    /// The fixed size of a client submission (onion) this round.
    pub onion_len: usize,
}

/// Everything a client needs to participate in an open dialing round.
#[derive(Debug, Clone)]
pub struct DialingRoundInfo {
    /// The round number.
    pub round: Round,
    /// Onion public keys of the mixnet servers, in chain order.
    pub onion_keys: Vec<DhPublic>,
    /// Number of dialing mailboxes this round.
    pub num_mailboxes: u32,
    /// The fixed size of a client submission (onion) this round.
    pub onion_len: usize,
}

struct OpenRound<Info> {
    info: Info,
    /// Content-addressed intake for this round's onions. A byte-identical
    /// resend (a client retrying after a lost response, or a duplicated
    /// frame) is recognized and accepted without entering the batch twice,
    /// which is what makes the submit RPCs retry-idempotent end to end;
    /// distinct submissions never collide, because every onion is freshly
    /// encrypted. Held in an `Arc` so read-path snapshots can accept
    /// submissions concurrently with the exclusive-path RPCs (see
    /// [`crate::shared`]); sealing at round close makes the handoff exact.
    intake: Arc<SubmissionIntake>,
}

impl<Info> OpenRound<Info> {
    fn new(info: Info) -> Self {
        OpenRound {
            info,
            intake: Arc::new(SubmissionIntake::new()),
        }
    }
}

/// The mix chain behind one protocol: the in-process [`MixChain`] or a
/// [`RemoteMixChain`] of `mixd` daemons. Both derive per-server seeds through
/// [`chain_seed`]/`server_seed` and number rounds identically from zero (or
/// from where recovery resumes them), so the two deployments produce
/// byte-identical mailboxes for the same inputs.
enum MixBackend {
    InProcess(MixChain),
    Remote(RemoteMixChain),
}

fn mix_error(e: alpenhorn_mixd::MixdError) -> CoordinatorError {
    CoordinatorError::Mixnet(e.to_string())
}

impl MixBackend {
    fn begin_round(&mut self) -> Result<Vec<DhPublic>, CoordinatorError> {
        match self {
            MixBackend::InProcess(chain) => Ok(chain.begin_round()),
            MixBackend::Remote(chain) => chain.begin_round().map_err(mix_error),
        }
    }

    fn resume_at(&mut self, next_round: u64) {
        match self {
            MixBackend::InProcess(chain) => chain.resume_at(next_round),
            MixBackend::Remote(chain) => chain.resume_at(next_round),
        }
    }

    /// Ends the current round. Remote failures are swallowed: ending is
    /// cleanup, and a daemon that missed it re-derives nothing — stale open
    /// rounds only cost it a map entry until its next restart.
    fn end_round(&mut self) {
        match self {
            MixBackend::InProcess(chain) => chain.end_round(),
            MixBackend::Remote(chain) => {
                let _ = chain.end_round();
            }
        }
    }

    fn run_add_friend_round(
        &mut self,
        batch: Vec<Vec<u8>>,
        num_mailboxes: u32,
        publics: &[DhPublic],
    ) -> Result<(AddFriendMailboxes, RoundStats), CoordinatorError> {
        match self {
            MixBackend::InProcess(chain) => {
                Ok(chain.run_add_friend_round(batch, num_mailboxes, publics))
            }
            MixBackend::Remote(chain) => chain
                .run_add_friend_round(batch, num_mailboxes, publics)
                .map_err(mix_error),
        }
    }

    fn run_dialing_round(
        &mut self,
        batch: Vec<Vec<u8>>,
        num_mailboxes: u32,
        publics: &[DhPublic],
    ) -> Result<(DialingMailboxes, RoundStats), CoordinatorError> {
        match self {
            MixBackend::InProcess(chain) => {
                Ok(chain.run_dialing_round(batch, num_mailboxes, publics))
            }
            MixBackend::Remote(chain) => chain
                .run_dialing_round(batch, num_mailboxes, publics)
                .map_err(mix_error),
        }
    }

    fn disconnect_mixer(&mut self, index: usize) {
        match self {
            // In-process servers have no transport to sever.
            MixBackend::InProcess(_) => {}
            MixBackend::Remote(chain) => chain.disconnect_mixer(index),
        }
    }

    fn set_adversary(&mut self, adversary: Option<alpenhorn_mixnet::MixAdversary>) {
        match self {
            MixBackend::InProcess(chain) => chain.set_adversary(adversary),
            // Scripted adversaries reach into server internals; a daemon a
            // network hop away has no such surface (by design — that is the
            // threat model). Scenarios that need one run in-process.
            MixBackend::Remote(_) => {
                panic!("scripted mix adversaries require the in-process chain")
            }
        }
    }
}

/// An in-process Alpenhorn deployment.
pub struct Cluster {
    config: ClusterConfig,
    pkgs: Vec<PkgServer>,
    mail: SimulatedMail,
    add_friend_chain: MixBackend,
    dialing_chain: MixBackend,
    cdn: Cdn,
    /// The erasure-coded CDN fleet, when one is connected. Closed rounds'
    /// mailboxes are published here *in addition to* the origin [`Cdn`], so
    /// a degraded fleet never loses data — only offload.
    sharded_cdn: Option<ShardedCdn>,
    open_add_friend: Option<OpenRound<AddFriendRoundInfo>>,
    open_dialing: Option<OpenRound<DialingRoundInfo>>,
    /// The dialing round the last close announced: its chain round is
    /// already begun, and the next [`Cluster::begin_dialing_round`] for it
    /// reuses the keys.
    announced_dialing: Option<DialingRoundInfo>,
    now: u64,
}

impl Cluster {
    /// Builds a cluster from the configuration.
    pub fn new(config: ClusterConfig) -> Self {
        let pkgs = (0..config.num_pkgs)
            .map(|i| {
                let mut seed = config.seed;
                seed[31] ^= i as u8;
                seed[30] ^= 0xa5;
                PkgServer::new(&format!("pkg-{i}"), seed)
            })
            .collect();
        // `chain_seed` is the shared derivation: a `mixd` daemon at chain
        // position i with the same cluster seed produces byte-identical
        // rounds to the in-process server built here.
        Cluster {
            pkgs,
            mail: SimulatedMail::new(),
            add_friend_chain: MixBackend::InProcess(MixChain::new(
                config.num_mix_servers,
                config.add_friend_noise,
                chain_seed(config.seed, RoundKind::AddFriend),
            )),
            dialing_chain: MixBackend::InProcess(MixChain::new(
                config.num_mix_servers,
                config.dialing_noise,
                chain_seed(config.seed, RoundKind::Dialing),
            )),
            cdn: Cdn::new(),
            sharded_cdn: None,
            open_add_friend: None,
            open_dialing: None,
            announced_dialing: None,
            now: 0,
            config,
        }
    }

    /// Replaces both in-process mix chains with remote `mixd` fleets, one
    /// [`Mixer`] handle per chain position. Call at startup, before any round
    /// opens, so chain-level round auto-numbering starts at zero in both
    /// deployment shapes (that is what makes a distributed run byte-identical
    /// to the in-process one).
    ///
    /// # Panics
    ///
    /// If either fleet's size differs from `config.num_mix_servers`, or a
    /// round is currently open.
    pub fn connect_remote_mixers(
        &mut self,
        add_friend: Vec<Box<dyn Mixer>>,
        dialing: Vec<Box<dyn Mixer>>,
    ) {
        assert_eq!(
            add_friend.len(),
            self.config.num_mix_servers,
            "add-friend mixer fleet must match the configured chain length"
        );
        assert_eq!(
            dialing.len(),
            self.config.num_mix_servers,
            "dialing mixer fleet must match the configured chain length"
        );
        assert!(
            self.open_add_friend.is_none() && self.open_dialing.is_none(),
            "connect remote mixers before opening any round"
        );
        self.add_friend_chain = MixBackend::Remote(RemoteMixChain::new(
            RoundKind::AddFriend,
            add_friend,
            self.config.add_friend_noise,
        ));
        self.dialing_chain = MixBackend::Remote(RemoteMixChain::new(
            RoundKind::Dialing,
            dialing,
            self.config.dialing_noise,
        ));
    }

    /// Connects an erasure-coded CDN fleet: every closed round's mailboxes
    /// are additionally published as `data_shards + parity_shards` shift-XOR
    /// shards across `nodes` (shard `i` on node `i mod n`), where clients can
    /// fetch them from any `data_shards` live nodes.
    pub fn connect_cdn_nodes(
        &mut self,
        nodes: Vec<Box<dyn NodeClient>>,
        data_shards: usize,
        parity_shards: usize,
    ) {
        self.sharded_cdn = Some(ShardedCdn::new(nodes, data_shards, parity_shards));
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// The simulated wall-clock time in seconds.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Advances the simulated clock.
    pub fn advance_time(&mut self, seconds: u64) {
        self.now += seconds;
    }

    /// The simulated email system (clients read confirmation tokens here).
    pub fn mail(&self) -> &SimulatedMail {
        &self.mail
    }

    /// The CDN serving mailbox downloads.
    pub fn cdn(&mut self) -> &mut Cdn {
        &mut self.cdn
    }

    /// Read-only CDN access for snapshot capture ([`crate::shared`]).
    pub(crate) fn cdn_ref(&self) -> &Cdn {
        &self.cdn
    }

    /// Expires mailboxes from rounds before `keep_from`, on the origin CDN
    /// and (best effort) on every connected fleet node.
    pub fn expire_mailboxes_before(&mut self, keep_from: Round) {
        self.cdn.expire_before(keep_from);
        if let Some(fleet) = &self.sharded_cdn {
            fleet.expire_before(keep_from);
        }
    }

    /// Installs (or with `None` removes) a scripted
    /// [`MixAdversary`](alpenhorn_mixnet::MixAdversary) on the chain serving
    /// `protocol` — the coordinator-level control surface for
    /// malicious-mixer scenarios. Honest operation is unchanged while no
    /// adversary is installed.
    pub fn set_mix_adversary(
        &mut self,
        protocol: alpenhorn_mixnet::Protocol,
        adversary: Option<alpenhorn_mixnet::MixAdversary>,
    ) {
        match protocol {
            alpenhorn_mixnet::Protocol::AddFriend => self.add_friend_chain.set_adversary(adversary),
            alpenhorn_mixnet::Protocol::Dialing => self.dialing_chain.set_adversary(adversary),
        }
    }

    /// Severs the transport to mix server `index` on both chains — the
    /// scenario engine's mixer-crash lever. On remote chains the next call
    /// reconnects and retries under the mixer's retry policy; because rounds
    /// are derived statelessly from (seed, round id), recovery is invisible
    /// in the round's output. In-process chains have no transport, so this
    /// is a no-op there.
    pub fn disconnect_mixer(&mut self, index: usize) {
        self.add_friend_chain.disconnect_mixer(index);
        self.dialing_chain.disconnect_mixer(index);
    }

    /// The long-term verification keys of the PKGs, in order (these ship with
    /// the client software).
    pub fn pkg_verifying_keys(&self) -> Vec<VerifyingKey> {
        self.pkgs.iter().map(|p| p.verifying_key()).collect()
    }

    /// Number of PKGs.
    pub fn num_pkgs(&self) -> usize {
        self.pkgs.len()
    }

    /// The signing key registered for `identity`, if any (all PKGs share the
    /// account database contents in this in-process deployment, so PKG 0 is
    /// authoritative). Used by the service layer to authenticate requests
    /// that are not addressed to a specific PKG, e.g. rate-limit token
    /// issuance.
    pub fn registered_signing_key(&self, identity: &Identity) -> Option<VerifyingKey> {
        self.pkgs
            .first()
            .and_then(|pkg| pkg.registry().signing_key(identity).copied())
    }

    /// Parameters of the currently open add-friend round, if one is open.
    pub fn open_add_friend_info(&self) -> Option<&AddFriendRoundInfo> {
        self.open_add_friend.as_ref().map(|open| &open.info)
    }

    /// Parameters of the currently open dialing round, if one is open.
    pub fn open_dialing_info(&self) -> Option<&DialingRoundInfo> {
        self.open_dialing.as_ref().map(|open| &open.info)
    }

    /// The dialing round the last close announced and no begin has opened
    /// yet, if any.
    pub fn announced_dialing_info(&self) -> Option<&DialingRoundInfo> {
        self.announced_dialing.as_ref()
    }

    /// The open add-friend round's parameters together with its submission
    /// intake, which read-path snapshots share for concurrent offers.
    pub fn open_add_friend_round(&self) -> Option<(&AddFriendRoundInfo, &Arc<SubmissionIntake>)> {
        self.open_add_friend
            .as_ref()
            .map(|open| (&open.info, &open.intake))
    }

    /// The open dialing round's parameters together with its submission
    /// intake, which read-path snapshots share for concurrent offers.
    pub fn open_dialing_round(&self) -> Option<(&DialingRoundInfo, &Arc<SubmissionIntake>)> {
        self.open_dialing
            .as_ref()
            .map(|open| (&open.info, &open.intake))
    }

    // ------------------------------------------------------------------
    // Durability hooks (`alpenhorn-storage`)
    //
    // These restore logged *effects* during crash recovery: accounts are
    // installed directly (the email confirmation already ran before the
    // effect was logged), lockouts and extraction timestamps are replayed,
    // and PKG ratchets are advanced or restored without ever re-deriving a
    // closed round's master secret. The journalling itself lives in
    // `crate::persist`; see `docs/ARCHITECTURE.md` § "Durability & recovery".
    // ------------------------------------------------------------------

    /// Sets the simulated clock during crash recovery.
    pub fn set_now(&mut self, now: u64) {
        self.now = now;
    }

    /// Re-installs a completed registration at every PKG.
    pub fn restore_registration(
        &mut self,
        identity: &Identity,
        signing_key: VerifyingKey,
        last_seen: u64,
    ) {
        for pkg in &mut self.pkgs {
            pkg.registry_mut()
                .restore_account(identity.clone(), signing_key, last_seen);
        }
    }

    /// Re-installs a deregistration lockout at every PKG.
    pub fn restore_deregistration(&mut self, identity: &Identity, deregistered_at: u64) {
        for pkg in &mut self.pkgs {
            pkg.registry_mut()
                .restore_lockout(identity.clone(), deregistered_at);
        }
    }

    /// Replays a legitimate key extraction's inactivity-window refresh.
    pub fn restore_touch(&mut self, identity: &Identity, now: u64) {
        for pkg in &mut self.pkgs {
            pkg.registry_mut().touch(identity, now);
        }
    }

    /// Advances every PKG's round-key ratchet by one round without deriving
    /// the round's (lost) master key — the replay form of
    /// [`Cluster::begin_add_friend_round`]'s ratchet side effect.
    pub fn skip_add_friend_round(&mut self) {
        for pkg in &mut self.pkgs {
            pkg.round_keys_mut().skip_round();
        }
    }

    /// Every PKG's current ratchet state, in PKG order (the ratchet file's
    /// contents).
    pub fn pkg_ratchets(&self) -> Vec<[u8; 32]> {
        self.pkgs
            .iter()
            .map(|pkg| pkg.round_keys().ratchet_state())
            .collect()
    }

    /// Restores every PKG's ratchet state from the ratchet file. The count
    /// must match the deployment's PKG count.
    pub fn restore_pkg_ratchets(&mut self, ratchets: &[[u8; 32]]) {
        assert_eq!(
            ratchets.len(),
            self.pkgs.len(),
            "ratchet file PKG count must match the deployment"
        );
        for (pkg, ratchet) in self.pkgs.iter_mut().zip(ratchets) {
            pkg.round_keys_mut().restore_ratchet(*ratchet);
        }
    }

    /// Resumes both mix chains' auto-numbering after `add_friend` and
    /// `dialing` rounds, so a restarted coordinator does not re-open round
    /// ids — and with them onion keys — that earlier processes already
    /// served. Call during recovery, before any round opens.
    pub fn resume_mix_chains(&mut self, add_friend: u64, dialing: u64) {
        self.add_friend_chain.resume_at(add_friend);
        self.dialing_chain.resume_at(dialing);
    }

    /// Abandons the open add-friend round without running the mixnet:
    /// queued submissions are dropped and every PKG's round master secret is
    /// destroyed. Used when the journal could not be made durable — at the
    /// round open (a round that cannot be recovered must not be served) or
    /// at the close barrier (a batch whose spends are not durable must not
    /// be mixed).
    pub fn abandon_open_add_friend_round(&mut self) {
        self.open_add_friend = None;
        self.add_friend_chain.end_round();
        for pkg in &mut self.pkgs {
            pkg.end_round();
        }
    }

    /// Abandons the open dialing round without running the mixnet.
    pub fn abandon_open_dialing_round(&mut self) {
        self.open_dialing = None;
        self.dialing_chain.end_round();
    }

    /// The authoritative (PKG 0) account registry, for snapshot capture. All
    /// PKGs share registration state in this deployment shape.
    pub fn account_registry(&self) -> &alpenhorn_pkg::AccountRegistry {
        self.pkgs
            .first()
            .expect("a cluster always has at least one PKG")
            .registry()
    }

    // ------------------------------------------------------------------
    // Registration
    // ------------------------------------------------------------------

    /// Starts registration of `identity` under `signing_key` at every PKG
    /// (each sends a confirmation email to the simulated inbox).
    pub fn begin_registration(
        &mut self,
        identity: &Identity,
        signing_key: VerifyingKey,
    ) -> Result<(), CoordinatorError> {
        let now = self.now;
        for pkg in &mut self.pkgs {
            pkg.begin_registration(identity, signing_key, now, &self.mail)?;
        }
        Ok(())
    }

    /// Completes registration at every PKG by reading the confirmation tokens
    /// from the identity's (simulated) inbox — this plays the role of the
    /// user clicking the links in the confirmation emails.
    pub fn complete_registration_from_inbox(
        &mut self,
        identity: &Identity,
    ) -> Result<(), CoordinatorError> {
        let now = self.now;
        for pkg in &mut self.pkgs {
            let token =
                self.mail
                    .latest_token(identity, pkg.name())
                    .ok_or(CoordinatorError::Pkg(
                        alpenhorn_pkg::PkgError::NoPendingRegistration,
                    ))?;
            pkg.complete_registration(identity, token, now)?;
        }
        Ok(())
    }

    /// Deregisters `identity` at every PKG (signature checked by each PKG).
    pub fn deregister(
        &mut self,
        identity: &Identity,
        signature: &Signature,
    ) -> Result<(), CoordinatorError> {
        let now = self.now;
        for pkg in &mut self.pkgs {
            pkg.deregister(identity, signature, now)?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Add-friend rounds
    // ------------------------------------------------------------------

    /// Opens add-friend `round`, sized for `expected_real_requests`.
    ///
    /// Runs the PKG commit-then-reveal exchange, verifies every opening
    /// against its commitment, starts the mixnet round, and returns the
    /// information clients need to participate.
    pub fn begin_add_friend_round(
        &mut self,
        round: Round,
        expected_real_requests: usize,
    ) -> Result<AddFriendRoundInfo, CoordinatorError> {
        if self.open_add_friend.is_some() {
            return Err(CoordinatorError::RoundAlreadyOpen);
        }
        // Commit phase: collect all commitments before any reveal.
        let commitments: Vec<_> = self.pkgs.iter_mut().map(|p| p.begin_round(round)).collect();
        // Reveal phase: collect and verify openings.
        let mut pkg_publics = Vec::with_capacity(self.pkgs.len());
        for (i, pkg) in self.pkgs.iter_mut().enumerate() {
            let (public, nonce) = pkg.reveal_round_key(round)?;
            if !commitments[i].verify(&public.to_bytes(), &nonce) {
                return Err(CoordinatorError::CommitmentMismatch { pkg_index: i });
            }
            pkg_publics.push(public);
        }
        let master_public = aggregate_master_publics(&pkg_publics);
        let onion_keys = self.add_friend_chain.begin_round()?;
        let num_mailboxes = self
            .config
            .mailbox_policy
            .add_friend_mailboxes(expected_real_requests);
        let onion_len =
            AddFriendEnvelope::ENCODED_LEN + self.config.num_mix_servers * ONION_LAYER_OVERHEAD;
        let info = AddFriendRoundInfo {
            round,
            onion_keys,
            pkg_publics,
            master_public,
            num_mailboxes,
            onion_len,
        };
        self.open_add_friend = Some(OpenRound::new(info.clone()));
        Ok(info)
    }

    /// Extracts `identity`'s round key share from every PKG. The signature
    /// must cover [`alpenhorn_pkg::server::extraction_request_message`] for
    /// this identity and round. Takes `&self`: extractions run concurrently
    /// with each other, and only closing the round (`&mut self`) erases the
    /// secrets they read.
    pub fn extract_identity_keys(
        &self,
        identity: &Identity,
        round: Round,
        auth_signature: &Signature,
    ) -> Result<Vec<ExtractResponse>, CoordinatorError> {
        self.pkgs
            .iter()
            .map(|pkg| Ok(pkg.extract(identity, round, auth_signature, self.now)?))
            .collect()
    }

    /// Submits one client onion for the open add-friend round. The entry
    /// server enforces the fixed request size (cover traffic must be
    /// indistinguishable).
    pub fn submit_add_friend(
        &mut self,
        round: Round,
        onion: Vec<u8>,
    ) -> Result<(), CoordinatorError> {
        let open = self
            .open_add_friend
            .as_mut()
            .ok_or(CoordinatorError::RoundNotOpen { requested: round })?;
        if open.info.round != round {
            return Err(CoordinatorError::RoundNotOpen { requested: round });
        }
        if onion.len() != open.info.onion_len {
            return Err(CoordinatorError::WrongRequestSize {
                expected: open.info.onion_len,
                actual: onion.len(),
            });
        }
        match open.intake.offer(&onion) {
            Offer::Accepted | Offer::Duplicate => Ok(()),
            // Unreachable through `&mut self` (sealing happens at close,
            // which also clears the slot), but a stale snapshot's intake
            // answers the same way, so keep the mapping total.
            Offer::Sealed => Err(CoordinatorError::RoundNotOpen { requested: round }),
        }
    }

    /// Closes the open add-friend round: runs the mixnet, publishes the
    /// mailboxes to the CDN, and returns the round statistics. PKG round keys
    /// are destroyed afterwards (clients already extracted their shares while
    /// the round was open).
    pub fn close_add_friend_round(&mut self, round: Round) -> Result<RoundStats, CoordinatorError> {
        self.close_add_friend_round_after(round, || Ok(()))
    }

    /// [`Cluster::close_add_friend_round`] with a `barrier` that runs after
    /// the intake is sealed and before the batch reaches the first mixer. A
    /// failed barrier abandons the round
    /// ([`Cluster::abandon_open_add_friend_round`]: submissions dropped,
    /// round keys destroyed) and returns its error.
    pub fn close_add_friend_round_after<E: From<CoordinatorError>>(
        &mut self,
        round: Round,
        barrier: impl FnOnce() -> Result<(), E>,
    ) -> Result<RoundStats, E> {
        let open = self
            .open_add_friend
            .take()
            .ok_or(CoordinatorError::RoundNotOpen { requested: round })?;
        if open.info.round != round {
            self.open_add_friend = Some(open);
            return Err(CoordinatorError::RoundNotOpen { requested: round }.into());
        }
        let batch = open.intake.seal();
        if let Err(e) = barrier() {
            self.abandon_open_add_friend_round();
            return Err(e);
        }
        let run = self.add_friend_chain.run_add_friend_round(
            batch,
            open.info.num_mailboxes,
            &open.info.onion_keys,
        );
        // Round-key destruction must happen whether or not the mix ran: a
        // remote fleet failing past its retry budget loses the round (the
        // submissions are dropped, clients resubmit next round), but never
        // weakens forward secrecy.
        self.add_friend_chain.end_round();
        for pkg in &mut self.pkgs {
            pkg.end_round();
        }
        let (mailboxes, stats) = run?;
        self.publish_add_friend_shards(round, &mailboxes);
        self.cdn.publish_add_friend(round, mailboxes);
        Ok(stats)
    }

    /// Publishes one closed add-friend round's mailboxes to the CDN fleet,
    /// best effort: the origin [`Cdn`] keeps the authoritative copy, so a
    /// degraded publish costs offload, never availability.
    fn publish_add_friend_shards(&self, round: Round, mailboxes: &AddFriendMailboxes) {
        let Some(fleet) = &self.sharded_cdn else {
            return;
        };
        for (mailbox, contents) in &mailboxes.mailboxes {
            let blob = encode_add_friend_blob(contents);
            let _ = fleet.publish(RoundKind::AddFriend, round, MailboxId(*mailbox), &blob);
        }
    }

    /// Publishes one closed dialing round's Bloom filters to the CDN fleet,
    /// each with the announced next round, best effort (see
    /// [`Cluster::publish_add_friend_shards`]).
    fn publish_dialing_shards(
        &self,
        round: Round,
        mailboxes: &DialingMailboxes,
        next_round: Option<&DialingRoundWire>,
    ) {
        let Some(fleet) = &self.sharded_cdn else {
            return;
        };
        for (mailbox, filter) in &mailboxes.mailboxes {
            let blob = encode_dialing_blob(&filter.to_bytes(), next_round);
            let _ = fleet.publish(RoundKind::Dialing, round, MailboxId(*mailbox), &blob);
        }
    }

    // ------------------------------------------------------------------
    // Dialing rounds
    // ------------------------------------------------------------------

    /// Opens dialing `round`, sized for `expected_real_tokens`.
    ///
    /// When the last close announced `round`, its chain round is already
    /// begun and its keys are reused. The size is this call's: if it differs
    /// from the announced one, submissions built from the announcement are
    /// rejected as stale and their clients fetch this round's info. An
    /// announced round that is skipped (a different `round` opens) is ended
    /// on the chain first, so its mix secrets are erased.
    pub fn begin_dialing_round(
        &mut self,
        round: Round,
        expected_real_tokens: usize,
    ) -> Result<DialingRoundInfo, CoordinatorError> {
        if self.open_dialing.is_some() {
            return Err(CoordinatorError::RoundAlreadyOpen);
        }
        let onion_keys = match self.announced_dialing.take() {
            Some(announced) if announced.round == round => announced.onion_keys,
            skipped => {
                if skipped.is_some() {
                    self.dialing_chain.end_round();
                }
                self.dialing_chain.begin_round()?
            }
        };
        let info = DialingRoundInfo {
            round,
            onion_keys,
            num_mailboxes: self
                .config
                .mailbox_policy
                .dialing_mailboxes(expected_real_tokens),
            onion_len: self.dialing_onion_len(),
        };
        self.open_dialing = Some(OpenRound::new(info.clone()));
        Ok(info)
    }

    fn dialing_onion_len(&self) -> usize {
        DIAL_REQUEST_LEN + self.config.num_mix_servers * ONION_LAYER_OVERHEAD
    }

    /// Begins the chain round of dialing `round` ahead of its open and
    /// returns its parameters, sized like the round just closed, for the
    /// closed round's mailboxes to carry. A chain that cannot begin the
    /// round announces nothing and uses up no chain round: the round's
    /// begin then begins that chain round itself.
    fn announce_dialing_round(
        &mut self,
        round: Round,
        num_mailboxes: u32,
        rate_limited: bool,
    ) -> Option<DialingRoundWire> {
        let onion_keys = match self.dialing_chain.begin_round() {
            Ok(keys) => keys,
            Err(_) => {
                self.dialing_chain.end_round();
                return None;
            }
        };
        let info = DialingRoundInfo {
            round,
            onion_keys,
            num_mailboxes,
            onion_len: self.dialing_onion_len(),
        };
        let wire = crate::service::dialing_wire(&info, rate_limited);
        self.announced_dialing = Some(info);
        Some(wire)
    }

    /// Submits one client onion for the open dialing round.
    pub fn submit_dialing(&mut self, round: Round, onion: Vec<u8>) -> Result<(), CoordinatorError> {
        let open = self
            .open_dialing
            .as_mut()
            .ok_or(CoordinatorError::RoundNotOpen { requested: round })?;
        if open.info.round != round {
            return Err(CoordinatorError::RoundNotOpen { requested: round });
        }
        if onion.len() != open.info.onion_len {
            return Err(CoordinatorError::WrongRequestSize {
                expected: open.info.onion_len,
                actual: onion.len(),
            });
        }
        match open.intake.offer(&onion) {
            Offer::Accepted | Offer::Duplicate => Ok(()),
            // Unreachable through `&mut self` (sealing happens at close,
            // which also clears the slot), but a stale snapshot's intake
            // answers the same way, so keep the mapping total.
            Offer::Sealed => Err(CoordinatorError::RoundNotOpen { requested: round }),
        }
    }

    /// Closes the open dialing round: runs the mixnet, begins the next
    /// round's chain round, publishes the Bloom filter mailboxes to the CDN
    /// with the next round's parameters in each, and returns the round
    /// statistics.
    /// A bare cluster takes no rate-limit tokens, and its announcements say
    /// so.
    pub fn close_dialing_round(&mut self, round: Round) -> Result<RoundStats, CoordinatorError> {
        self.close_dialing_round_after(round, false, || Ok(()))
    }

    /// [`Cluster::close_dialing_round`] with a `barrier` between the seal
    /// and the mix (see [`Cluster::close_add_friend_round_after`]), for a
    /// deployment whose submissions carry rate-limit tokens when
    /// `rate_limited`, which the announcement tells clients.
    pub fn close_dialing_round_after<E: From<CoordinatorError>>(
        &mut self,
        round: Round,
        rate_limited: bool,
        barrier: impl FnOnce() -> Result<(), E>,
    ) -> Result<RoundStats, E> {
        let open = self
            .open_dialing
            .take()
            .ok_or(CoordinatorError::RoundNotOpen { requested: round })?;
        if open.info.round != round {
            self.open_dialing = Some(open);
            return Err(CoordinatorError::RoundNotOpen { requested: round }.into());
        }
        let batch = open.intake.seal();
        if let Err(e) = barrier() {
            self.abandon_open_dialing_round();
            return Err(e);
        }
        let run = self.dialing_chain.run_dialing_round(
            batch,
            open.info.num_mailboxes,
            &open.info.onion_keys,
        );
        self.dialing_chain.end_round();
        let (mailboxes, stats) = run?;
        let next_round =
            self.announce_dialing_round(round.next(), open.info.num_mailboxes, rate_limited);
        self.publish_dialing_shards(round, &mailboxes, next_round.as_ref());
        self.cdn.publish_dialing(round, mailboxes, next_round);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpenhorn_crypto::ChaChaRng;
    use alpenhorn_ibe::anytrust::aggregate_identity_keys;
    use alpenhorn_ibe::bf::{decrypt, encrypt};
    use alpenhorn_ibe::sig::SigningKey;
    use alpenhorn_mixnet::onion::wrap_onion;
    use alpenhorn_pkg::server::extraction_request_message;
    use alpenhorn_wire::{DialRequest, DialToken, MailboxId};

    fn id(s: &str) -> Identity {
        Identity::new(s).unwrap()
    }

    fn register(cluster: &mut Cluster, who: &Identity, rng: &mut ChaChaRng) -> SigningKey {
        let key = SigningKey::generate(rng);
        cluster
            .begin_registration(who, key.verifying_key())
            .unwrap();
        cluster.complete_registration_from_inbox(who).unwrap();
        key
    }

    #[test]
    fn end_to_end_add_friend_round() {
        let mut cluster = Cluster::new(ClusterConfig::test(1));
        let mut rng = ChaChaRng::from_seed_bytes([99u8; 32]);
        let alice = id("alice@example.com");
        let bob = id("bob@gmail.com");
        let _alice_key = register(&mut cluster, &alice, &mut rng);
        let bob_key = register(&mut cluster, &bob, &mut rng);

        let round = Round(1);
        let info = cluster.begin_add_friend_round(round, 10).unwrap();
        assert_eq!(info.pkg_publics.len(), 3);
        assert_eq!(info.onion_keys.len(), 3);

        // Alice encrypts a message to Bob under the aggregated key and
        // submits it through the mixnet to Bob's mailbox.
        let payload = b"alice's friend request body".to_vec();
        let ciphertext = encrypt(&info.master_public, bob.as_bytes(), &payload, &mut rng);
        // Pad to the fixed envelope ciphertext size (the client crate builds
        // real fixed-size requests; this test only checks transport).
        let mut fixed = vec![0u8; AddFriendEnvelope::CIPHERTEXT_LEN];
        fixed[..ciphertext.len()].copy_from_slice(&ciphertext);
        let envelope = AddFriendEnvelope {
            mailbox: MailboxId::for_recipient(&bob, info.num_mailboxes),
            ciphertext: fixed,
        };
        let onion = wrap_onion(&envelope.encode(), &info.onion_keys, &mut rng);
        cluster.submit_add_friend(round, onion).unwrap();

        // Bob extracts his identity keys while the round is open.
        let auth = bob_key.sign(&extraction_request_message(&bob, round));
        let responses = cluster.extract_identity_keys(&bob, round, &auth).unwrap();
        let bob_idk =
            aggregate_identity_keys(&responses.iter().map(|r| r.identity_key).collect::<Vec<_>>());

        let stats = cluster.close_add_friend_round(round).unwrap();
        assert_eq!(stats.client_messages, 1);
        assert!(stats.noise > 0);

        // Bob downloads his mailbox and trial-decrypts.
        let mailbox = MailboxId::for_recipient(&bob, info.num_mailboxes);
        let contents = cluster
            .cdn()
            .fetch_add_friend_mailbox(round, mailbox)
            .unwrap();
        let mut found = false;
        for ct in &contents {
            if let Ok(m) = decrypt(&bob_idk, &ct[..ciphertext.len()]) {
                assert_eq!(m, payload);
                found = true;
            }
        }
        assert!(found, "Bob must find Alice's request among the noise");
    }

    #[test]
    fn end_to_end_dialing_round() {
        let mut cluster = Cluster::new(ClusterConfig::test(2));
        let mut rng = ChaChaRng::from_seed_bytes([5u8; 32]);
        let round = Round(4);
        let info = cluster.begin_dialing_round(round, 10).unwrap();

        let token = DialToken([0xabu8; 32]);
        let req = DialRequest {
            mailbox: MailboxId(0),
            token,
        };
        let onion = wrap_onion(&req.encode(), &info.onion_keys, &mut rng);
        cluster.submit_dialing(round, onion).unwrap();
        let stats = cluster.close_dialing_round(round).unwrap();
        assert_eq!(stats.client_messages, 1);

        let filter = cluster
            .cdn()
            .fetch_dialing_mailbox(round, MailboxId(0))
            .unwrap();
        assert!(filter.contains(&token.0));
    }

    #[test]
    fn entry_server_rejects_wrong_size_requests() {
        let mut cluster = Cluster::new(ClusterConfig::test(3));
        let round = Round(1);
        let info = cluster.begin_add_friend_round(round, 10).unwrap();
        assert!(matches!(
            cluster.submit_add_friend(round, vec![0u8; info.onion_len - 1]),
            Err(CoordinatorError::WrongRequestSize { .. })
        ));
        assert!(matches!(
            cluster.submit_dialing(Round(1), vec![0u8; 10]),
            Err(CoordinatorError::RoundNotOpen { .. })
        ));
    }

    #[test]
    fn round_lifecycle_errors() {
        let mut cluster = Cluster::new(ClusterConfig::test(4));
        assert!(matches!(
            cluster.close_add_friend_round(Round(1)),
            Err(CoordinatorError::RoundNotOpen { .. })
        ));
        cluster.begin_add_friend_round(Round(1), 1).unwrap();
        assert!(matches!(
            cluster.begin_add_friend_round(Round(2), 1),
            Err(CoordinatorError::RoundAlreadyOpen)
        ));
        // Closing the wrong round number fails and keeps the round open.
        assert!(matches!(
            cluster.close_add_friend_round(Round(2)),
            Err(CoordinatorError::RoundNotOpen { .. })
        ));
        cluster.close_add_friend_round(Round(1)).unwrap();
    }

    #[test]
    fn forward_secrecy_pkg_keys_destroyed_after_round() {
        let mut cluster = Cluster::new(ClusterConfig::test(5));
        let mut rng = ChaChaRng::from_seed_bytes([7u8; 32]);
        let bob = id("bob@gmail.com");
        let bob_key = register(&mut cluster, &bob, &mut rng);

        let round = Round(1);
        cluster.begin_add_friend_round(round, 1).unwrap();
        cluster.close_add_friend_round(round).unwrap();

        // After the round closes, extraction for it is impossible — even for
        // the legitimate user, let alone an adversary compromising the PKGs.
        let auth = bob_key.sign(&extraction_request_message(&bob, round));
        assert!(cluster.extract_identity_keys(&bob, round, &auth).is_err());
    }

    #[test]
    fn failed_close_barrier_abandons_the_round() {
        let mut cluster = Cluster::new(ClusterConfig::test(8));
        let mut rng = ChaChaRng::from_seed_bytes([8u8; 32]);
        let bob = id("bob@gmail.com");
        let bob_key = register(&mut cluster, &bob, &mut rng);
        let failed = || Err(CoordinatorError::Mixnet("barrier".into()));

        let round = Round(1);
        let info = cluster.begin_add_friend_round(round, 1).unwrap();
        cluster
            .submit_add_friend(round, vec![0u8; info.onion_len])
            .unwrap();
        assert!(cluster.close_add_friend_round_after(round, failed).is_err());
        // Nothing was mixed or published, and the round keys are gone.
        assert!(cluster.open_add_friend_info().is_none());
        assert!(cluster
            .cdn()
            .fetch_add_friend_mailbox(round, MailboxId(0))
            .is_none());
        let auth = bob_key.sign(&extraction_request_message(&bob, round));
        assert!(cluster.extract_identity_keys(&bob, round, &auth).is_err());

        cluster.begin_dialing_round(Round(2), 1).unwrap();
        assert!(cluster
            .close_dialing_round_after(Round(2), false, failed)
            .is_err());
        assert!(cluster.open_dialing_info().is_none());

        // The next rounds open and close normally.
        cluster.begin_add_friend_round(Round(3), 1).unwrap();
        assert_eq!(
            cluster
                .close_add_friend_round(Round(3))
                .unwrap()
                .client_messages,
            0
        );
        cluster.begin_dialing_round(Round(3), 1).unwrap();
        cluster.close_dialing_round(Round(3)).unwrap();
    }

    /// Whether the in-process dialing chain still holds chain round
    /// `round`'s onion secrets.
    fn dialing_chain_round_open(cluster: &Cluster, round: u64) -> bool {
        match &cluster.dialing_chain {
            MixBackend::InProcess(chain) => chain.round_open_for(round),
            MixBackend::Remote(_) => unreachable!("in-process chain"),
        }
    }

    #[test]
    fn close_announces_the_next_dialing_round_and_begin_reuses_its_keys() {
        let mut cluster = Cluster::new(ClusterConfig::test(9));
        let first = cluster.begin_dialing_round(Round(1), 10).unwrap();
        cluster.close_dialing_round(Round(1)).unwrap();
        // Chain round 0 served round 1 and is gone; chain round 1 is begun
        // for the announced round 2, sized like round 1.
        assert!(!dialing_chain_round_open(&cluster, 0));
        assert!(dialing_chain_round_open(&cluster, 1));
        let announced = cluster.announced_dialing_info().unwrap().clone();
        assert_eq!(announced.round, Round(2));
        assert_eq!(announced.num_mailboxes, first.num_mailboxes);
        // Round 1's mailboxes carry it.
        let shared = crate::SharedCoordinator::new(crate::CoordinatorService::new(cluster));
        let fetched = shared.handle(alpenhorn_wire::Request::FetchDialingMailbox {
            round: Round(1),
            mailbox: MailboxId(0),
        });
        let alpenhorn_wire::Response::DialingMailbox { next_round, .. } = fetched else {
            panic!("round 1's mailbox is published");
        };
        assert_eq!(
            next_round,
            Some(crate::service::dialing_wire(&announced, false))
        );

        // The begin reuses the keys, whatever size it opens with.
        let mut service = shared.write();
        let cluster = service.cluster_mut();
        let second = cluster.begin_dialing_round(Round(2), 1000).unwrap();
        assert_eq!(second.onion_keys, announced.onion_keys);
        assert_ne!(second.num_mailboxes, announced.num_mailboxes);
        assert!(cluster.announced_dialing_info().is_none());
        cluster.close_dialing_round(Round(2)).unwrap();
        assert!(!dialing_chain_round_open(cluster, 1));
    }

    #[test]
    fn skipping_an_announced_dialing_round_erases_its_mix_secrets() {
        let mut cluster = Cluster::new(ClusterConfig::test(10));
        cluster.begin_dialing_round(Round(1), 1).unwrap();
        cluster.close_dialing_round(Round(1)).unwrap();
        let announced = cluster.announced_dialing_info().unwrap().clone();
        assert!(dialing_chain_round_open(&cluster, 1));

        // Round 3 opens instead of the announced round 2.
        let third = cluster.begin_dialing_round(Round(3), 1).unwrap();
        assert!(
            !dialing_chain_round_open(&cluster, 1),
            "skipped round erased"
        );
        assert!(dialing_chain_round_open(&cluster, 2));
        assert_ne!(third.onion_keys, announced.onion_keys);
        cluster.close_dialing_round(Round(3)).unwrap();
        assert_eq!(cluster.announced_dialing_info().unwrap().round, Round(4));
    }

    #[test]
    fn skipping_an_announced_dialing_round_ends_it_on_every_mixd() {
        use alpenhorn_mixd::{MixdServer, Mixer, RemoteMixer};
        use alpenhorn_wire::server::serve;

        let config = ClusterConfig::test(11);
        let daemons: Vec<_> = (0..config.num_mix_servers)
            .map(|i| {
                let daemon = std::sync::Mutex::new(MixdServer::new(config.seed, i));
                serve("127.0.0.1:0", alpenhorn_mixd::server_config(), daemon).unwrap()
            })
            .collect();
        let fleet = || -> Vec<Box<dyn Mixer>> {
            daemons
                .iter()
                .map(|h| Box::new(RemoteMixer::new(h.local_addr().to_string())) as Box<dyn Mixer>)
                .collect()
        };
        let mut cluster = Cluster::new(config.clone());
        cluster.connect_remote_mixers(fleet(), fleet());
        cluster.begin_dialing_round(Round(1), 1).unwrap();
        cluster.close_dialing_round(Round(1)).unwrap();
        cluster.begin_dialing_round(Round(3), 1).unwrap();

        // Every daemon refuses to mix the skipped round's chain round 1 (its
        // secret is erased) and still mixes the open chain round 2.
        let noise = config.dialing_noise;
        for mut probe in fleet() {
            let mut process =
                |round| probe.process(RoundKind::Dialing, Round(round), 1, &noise, &[], vec![]);
            assert!(process(1).is_err(), "skipped chain round still open");
            assert!(process(2).is_ok());
        }
        cluster.close_dialing_round(Round(3)).unwrap();
        for daemon in daemons {
            daemon.shutdown();
        }
    }

    /// A mixer whose first `BeginRound` for one dialing chain round fails.
    struct RefusesBegin {
        inner: alpenhorn_mixd::LoopbackMixer,
        refuse: Option<Round>,
    }

    impl Mixer for RefusesBegin {
        fn begin_round(
            &mut self,
            protocol: RoundKind,
            round: Round,
        ) -> Result<DhPublic, alpenhorn_mixd::MixdError> {
            if protocol == RoundKind::Dialing && self.refuse == Some(round) {
                self.refuse = None;
                return Err(alpenhorn_mixd::MixdError::UnexpectedResponse);
            }
            self.inner.begin_round(protocol, round)
        }

        fn process(
            &mut self,
            protocol: RoundKind,
            round: Round,
            num_mailboxes: u32,
            noise: &NoiseConfig,
            downstream: &[DhPublic],
            batch: Vec<Vec<u8>>,
        ) -> Result<alpenhorn_mixd::ProcessedBatch, alpenhorn_mixd::MixdError> {
            self.inner
                .process(protocol, round, num_mailboxes, noise, downstream, batch)
        }

        fn end_round(
            &mut self,
            protocol: RoundKind,
            round: Round,
        ) -> Result<(), alpenhorn_mixd::MixdError> {
            self.inner.end_round(protocol, round)
        }
    }

    #[test]
    fn a_failed_announcement_uses_up_no_chain_round() {
        use alpenhorn_mixd::LoopbackMixer;
        let config = ClusterConfig::test(13);
        let fleet = |refuse: Option<Round>| -> Vec<Box<dyn Mixer>> {
            (0..config.num_mix_servers)
                .map(|i| {
                    let inner = LoopbackMixer::for_position(config.seed, i);
                    let refuse = refuse.filter(|_| i == 1);
                    Box::new(RefusesBegin { inner, refuse }) as Box<dyn Mixer>
                })
                .collect()
        };
        // The second mixer fails to begin chain round 1, which the close of
        // round 1 begins to announce round 2: the mix succeeds, the
        // announcement does not.
        let mut cluster = Cluster::new(config.clone());
        cluster.connect_remote_mixers(fleet(None), fleet(Some(Round(1))));
        let mut twin = Cluster::new(config.clone());
        twin.connect_remote_mixers(fleet(None), fleet(None));
        for deployment in [&mut cluster, &mut twin] {
            deployment.begin_dialing_round(Round(1), 1).unwrap();
            deployment.close_dialing_round(Round(1)).unwrap();
        }
        assert!(cluster.announced_dialing_info().is_none());
        assert!(twin.announced_dialing_info().is_some());

        // Round 2's begin then begins chain round 1 itself, with the keys
        // the twin announced, and the next close announces chain round 2
        // on both: two journalled opens, two chain rounds used.
        let second = cluster.begin_dialing_round(Round(2), 1).unwrap();
        assert_eq!(
            second.onion_keys,
            twin.begin_dialing_round(Round(2), 1).unwrap().onion_keys
        );
        for deployment in [&mut cluster, &mut twin] {
            deployment.close_dialing_round(Round(2)).unwrap();
        }
        assert_eq!(
            cluster.announced_dialing_info().unwrap().onion_keys,
            twin.announced_dialing_info().unwrap().onion_keys
        );

        // Round 1's mailboxes were published without an announcement.
        let shared = crate::SharedCoordinator::new(crate::CoordinatorService::new(cluster));
        let fetched = shared.handle(alpenhorn_wire::Request::FetchDialingMailbox {
            round: Round(1),
            mailbox: MailboxId(0),
        });
        assert!(matches!(
            fetched,
            alpenhorn_wire::Response::DialingMailbox {
                next_round: None,
                ..
            }
        ));
    }

    #[test]
    fn simulated_time_advances() {
        let mut cluster = Cluster::new(ClusterConfig::test(6));
        assert_eq!(cluster.now(), 0);
        cluster.advance_time(86_400);
        assert_eq!(cluster.now(), 86_400);
    }
}
