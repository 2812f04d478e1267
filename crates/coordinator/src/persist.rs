//! Durable coordinator state: the journalled core behind
//! [`crate::service::CoordinatorService`].
//!
//! [`CoordinatorCore`] bundles everything the service mutates — the
//! [`Cluster`] (PKG registries and round-key ratchets included), the
//! rate-limit issuer/verifier, and per protocol the highest round begun and
//! the open count — and implements [`alpenhorn_storage::Persist`] so a
//! [`Durable`](alpenhorn_storage::Durable) can recover it as snapshot + WAL
//! suffix after a crash.
//!
//! The log is an *effect* log: each record describes a mutation that already
//! completed (an account installed, a round opened, a token issued), so
//! replay never re-runs RNG-dependent code paths and never re-derives a
//! closed round's master secret.
//!
//! The PKG ratchet positions are the one secret here, and they are in
//! neither the snapshot nor the WAL. They live in [`RATCHET_FILE`], replaced
//! atomically at every add-friend open ([`write_ratchets`]); the rename
//! unlinks the superseded position. The file records how many add-friend
//! opens its ratchets reflect, so [`recover_ratchets`] can catch up an open
//! that reached the journal but not the file. What is deliberately **not**
//! persisted:
//!
//! * pending registrations (the emailed confirmation token restarts the
//!   idempotent flow),
//! * open rounds and their submission batches (a crash mid-round abandons the
//!   round for good — its id is at or below the journalled highest begun, so
//!   it is never reopened; clients participate in the next one),
//! * spent rate-limit tokens: a token verifies for one round only, so the
//!   round's intake is its whole double-spend ledger, and it dies with the
//!   abandoned round,
//! * published CDN mailboxes (re-fetchable only within a round's lifetime;
//!   a crash between rounds has already delivered them),
//! * any per-round master secret (forward secrecy — only the forward-only
//!   ratchet position touches disk).

use std::path::Path;

use alpenhorn_ibe::sig::VerifyingKey;
use alpenhorn_storage::codec::{get_identity, put_identity};
use alpenhorn_storage::{snapshot, Durability, Persist, StorageError};
use alpenhorn_wire::{Decoder, Encoder, Identity, Round, RoundKind, G1_LEN, SIGNING_PK_LEN};

use crate::cluster::Cluster;
use crate::ratelimit::{TokenIssuer, TokenVerifier};

/// Snapshot and ratchet-file payload version; bump on any change to either
/// layout or to a record kind's payload encoding (no negotiation — see the
/// versioning rules in `docs/ARCHITECTURE.md`).
const SNAPSHOT_VERSION: u8 = 3;

/// The PKG ratchet file inside the data directory: one storage record
/// holding the add-friend open count and every PKG's ratchet position.
pub const RATCHET_FILE: &str = "pkg-ratchets.key";

/// A completed registration was installed at every PKG.
pub const REC_ACCOUNT_REGISTERED: u8 = 0x01;
/// An account was deregistered (lockout installed) at every PKG.
pub const REC_ACCOUNT_DEREGISTERED: u8 = 0x02;
/// A signed key extraction refreshed an account's inactivity window.
pub const REC_ACCOUNT_TOUCHED: u8 = 0x03;
/// A rate-limit token was blind-signed (budget charged).
pub const REC_TOKEN_ISSUED: u8 = 0x04;
// 0x05 is reserved: it journalled spent rate-limit tokens, which now live
// only in their round's intake.
/// An add-friend round opened (every PKG ratchet advanced once; the new
/// positions go to [`RATCHET_FILE`], not here).
pub const REC_ADD_FRIEND_ROUND_BEGUN: u8 = 0x06;
/// A dialing round opened (round counter advanced).
pub const REC_DIALING_ROUND_BEGUN: u8 = 0x07;
/// The deployment clock advanced.
pub const REC_CLOCK_ADVANCED: u8 = 0x08;
/// A dialing open skipped the round the previous close announced, whose
/// chain round had been begun and was ended unopened (payload: the round
/// that opened instead). Replay counts the chain round as used.
pub const REC_DIALING_ROUND_SKIPPED: u8 = 0x09;

/// The durability class of each record kind: whether its acknowledgement
/// promises permanence (fsynced before the reply) or it may wait for the
/// next round-close barrier. The recovery argument for every buffered kind
/// is in `docs/ARCHITECTURE.md` § "Durability & recovery".
pub fn durability(kind: u8) -> Durability {
    match kind {
        // An acknowledged registration or deregistration must survive.
        REC_ACCOUNT_REGISTERED | REC_ACCOUNT_DEREGISTERED => Durability::Synced,
        // Durable before the round info is served or the ratchet file is
        // rewritten, so the file never leads the journal.
        REC_ADD_FRIEND_ROUND_BEGUN | REC_DIALING_ROUND_BEGUN => Durability::Synced,
        // A lost `last_seen` refresh costs nothing.
        REC_ACCOUNT_TOUCHED => Durability::Buffered,
        // Replay-idempotent: a crash refunds at most the budget issued since
        // the last barrier, once per crash.
        REC_TOKEN_ISSUED => Durability::Buffered,
        REC_CLOCK_ADVANCED => Durability::Buffered,
        // Appended right before the synced open record of the same begin,
        // whose fsync makes it durable.
        REC_DIALING_ROUND_SKIPPED => Durability::Buffered,
        _ => Durability::Synced,
    }
}

/// The state a coordinator must not lose across a restart.
pub struct CoordinatorCore {
    /// The deployment: PKGs (registries + ratchets), mixnet, CDN, mail.
    pub cluster: Cluster,
    /// Rate-limit token issuance (per-user daily budgets), when enabled.
    /// Every [`TokenIssuer`] method takes `&self` over identity-striped
    /// budgets, so issuance runs under the service read lock.
    pub issuer: Option<TokenIssuer>,
    /// Rate-limit token verification (the issuer's public key), when
    /// enabled. Read-path snapshots ([`crate::shared`]) copy it; the tokens
    /// themselves are spent into each round's intake.
    pub verifier: Option<TokenVerifier>,
    /// The highest add-friend round ever begun (`Round(0)` before the first).
    pub add_friend_begun: Round,
    /// The highest dialing round ever begun (`Round(0)` before the first).
    pub dialing_begun: Round,
    /// Add-friend rounds whose open reached the journal.
    pub add_friend_opens: u64,
    /// Dialing chain rounds used by opens (and by announced rounds that
    /// were skipped) that reached the journal: where the dialing chain's
    /// round numbering resumes after a restart.
    pub dialing_opens: u64,
}

impl CoordinatorCore {
    /// The highest round of `protocol` ever begun (`Round(0)` before the
    /// first). `Begin*Round` refuses any round at or below it, so each
    /// (protocol, round) gets one intake over the deployment's life.
    pub(crate) fn highest_begun(&self, protocol: RoundKind) -> Round {
        match protocol {
            RoundKind::AddFriend => self.add_friend_begun,
            RoundKind::Dialing => self.dialing_begun,
        }
    }

    /// Records that `round` of `protocol` began.
    pub(crate) fn note_begun(&mut self, protocol: RoundKind, round: Round) {
        let begun = match protocol {
            RoundKind::AddFriend => &mut self.add_friend_begun,
            RoundKind::Dialing => &mut self.dialing_begun,
        };
        *begun = (*begun).max(round);
    }

    /// One past the highest round either protocol has begun: where an
    /// automatic round driver resumes after a restart.
    pub(crate) fn next_round(&self) -> Round {
        Round(self.add_friend_begun.max(self.dialing_begun).as_u64() + 1)
    }
}

// ---------------------------------------------------------------------------
// Effect-record payload builders (the service calls these right after the
// matching mutation succeeds) and their replay in `apply_record`.
// ---------------------------------------------------------------------------

/// Payload for [`REC_ACCOUNT_REGISTERED`].
pub fn account_registered(identity: &Identity, key: &VerifyingKey, now: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    put_identity(&mut e, identity);
    e.put_bytes(&key.to_bytes());
    e.put_u64(now);
    e.finish()
}

/// Payload for [`REC_ACCOUNT_DEREGISTERED`] and [`REC_ACCOUNT_TOUCHED`].
pub fn account_event(identity: &Identity, now: u64) -> Vec<u8> {
    let mut e = Encoder::new();
    put_identity(&mut e, identity);
    e.put_u64(now);
    e.finish()
}

/// Payload for [`REC_TOKEN_ISSUED`].
pub fn token_issued(identity: &Identity, now: u64, blinded: &[u8; G1_LEN]) -> Vec<u8> {
    let mut e = Encoder::new();
    put_identity(&mut e, identity);
    e.put_u64(now);
    e.put_bytes(blinded);
    e.finish()
}

/// Payload for the round-begun and clock records (one `u64`).
pub fn u64_payload(value: u64) -> Vec<u8> {
    value.to_be_bytes().to_vec()
}

fn get_u64_payload(payload: &[u8], context: &'static str) -> Result<u64, StorageError> {
    let mut d = Decoder::new(payload);
    let value = d.get_u64(context)?;
    d.finish()?;
    Ok(value)
}

/// Atomically replaces `dir`'s [`RATCHET_FILE`] with every PKG's current
/// ratchet position, tagged with the add-friend open count it reflects. The
/// rename unlinks the superseded positions (the erasure half of §4.4 forward
/// secrecy). The caller must have made the matching round-open record
/// durable first: the file may lag the journal, never lead it.
pub fn write_ratchets(dir: &Path, core: &CoordinatorCore) -> Result<(), StorageError> {
    let ratchets = core.cluster.pkg_ratchets();
    let mut e = Encoder::new();
    e.put_u8(SNAPSHOT_VERSION);
    e.put_u64(core.add_friend_opens);
    e.put_u32(ratchets.len() as u32);
    for ratchet in &ratchets {
        e.put_bytes(ratchet);
    }
    snapshot::write_atomic(dir.join(RATCHET_FILE), &e.finish())
}

/// Installs the PKG ratchet positions after snapshot + WAL replay: the file's
/// positions (the seed-derived ones when there is no file yet), advanced once
/// per journalled add-friend open the file does not reflect — at most one
/// after a crash between the round-open append and the file rewrite.
///
/// A file ahead of the journal, for another PKG count, or corrupt is an
/// error, and nothing on disk is touched: starting from the wrong position
/// would serve round keys no uncrashed deployment would have.
pub fn recover_ratchets(dir: &Path, core: &mut CoordinatorCore) -> Result<(), StorageError> {
    let (reflected_opens, ratchets) = match snapshot::read(dir.join(RATCHET_FILE))? {
        None => (0, None),
        Some(payload) => {
            let mut d = Decoder::new(&payload);
            if d.get_u8("ratchet file version")? != SNAPSHOT_VERSION {
                return Err(StorageError::BadPayload {
                    context: "unsupported PKG ratchet file version",
                });
            }
            let opens = d.get_u64("ratchet file open count")?;
            let count = d.get_u32("ratchet file PKG count")? as usize;
            if count != core.cluster.num_pkgs() {
                return Err(StorageError::BadPayload {
                    context: "PKG ratchet file count does not match the deployment",
                });
            }
            let mut ratchets = Vec::with_capacity(count);
            for _ in 0..count {
                ratchets.push(d.get_array::<32>("ratchet file position")?);
            }
            d.finish()?;
            (opens, Some(ratchets))
        }
    };
    let behind =
        core.add_friend_opens
            .checked_sub(reflected_opens)
            .ok_or(StorageError::BadPayload {
                context: "PKG ratchet file is ahead of the journal",
            })?;
    if let Some(ratchets) = ratchets {
        core.cluster.restore_pkg_ratchets(&ratchets);
    }
    for _ in 0..behind {
        core.cluster.skip_add_friend_round();
    }
    Ok(())
}

impl Persist for CoordinatorCore {
    fn encode_snapshot(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u8(SNAPSHOT_VERSION);
        e.put_u64(self.cluster.now());
        e.put_u64(self.add_friend_begun.as_u64());
        e.put_u64(self.dialing_begun.as_u64());
        e.put_u64(self.add_friend_opens);
        e.put_u64(self.dialing_opens);

        let registry = self.cluster.account_registry();
        let accounts: Vec<_> = registry.accounts().collect();
        e.put_u32(accounts.len() as u32);
        for (identity, key, last_seen) in accounts {
            put_identity(&mut e, identity);
            e.put_bytes(&key.to_bytes());
            e.put_u64(last_seen);
        }
        let lockouts: Vec<_> = registry.lockouts().collect();
        e.put_u32(lockouts.len() as u32);
        for (identity, at) in lockouts {
            put_identity(&mut e, identity);
            e.put_u64(at);
        }

        match &self.issuer {
            None => {
                e.put_u8(0);
            }
            Some(issuer) => {
                e.put_u8(1);
                let issued: Vec<_> = issuer.issued_entries().collect();
                e.put_u32(issued.len() as u32);
                for (identity, day, blinded) in issued {
                    put_identity(&mut e, &identity);
                    e.put_u64(day);
                    e.put_bytes(&blinded);
                }
            }
        }
        e.finish()
    }

    fn restore_snapshot(&mut self, payload: &[u8]) -> Result<(), StorageError> {
        let mut d = Decoder::new(payload);
        let version = d.get_u8("snapshot version")?;
        if version != SNAPSHOT_VERSION {
            return Err(StorageError::BadPayload {
                context: "unsupported coordinator snapshot version",
            });
        }
        let now = d.get_u64("snapshot clock")?;
        let add_friend_begun = d.get_u64("snapshot highest add-friend round")?;
        let dialing_begun = d.get_u64("snapshot highest dialing round")?;
        let add_friend_opens = d.get_u64("snapshot add-friend opens")?;
        let dialing_opens = d.get_u64("snapshot dialing opens")?;

        // Counts come from disk: never reserve on their say-so (a tampered
        // or corrupt count must fail on decode, not abort on allocation).
        let account_count = d.get_u32("snapshot account count")? as usize;
        let mut accounts = Vec::new();
        for _ in 0..account_count {
            let identity = get_identity(&mut d, "snapshot account identity")?;
            let key_bytes = d.get_array::<SIGNING_PK_LEN>("snapshot account key")?;
            let key =
                VerifyingKey::from_bytes(&key_bytes).map_err(|_| StorageError::BadPayload {
                    context: "snapshot account signing key",
                })?;
            let last_seen = d.get_u64("snapshot account last_seen")?;
            accounts.push((identity, key, last_seen));
        }
        let lockout_count = d.get_u32("snapshot lockout count")? as usize;
        let mut lockouts = Vec::new();
        for _ in 0..lockout_count {
            let identity = get_identity(&mut d, "snapshot lockout identity")?;
            let at = d.get_u64("snapshot lockout time")?;
            lockouts.push((identity, at));
        }

        let mut issued = Vec::new();
        if d.get_u8("snapshot issuer flag")? == 1 {
            let count = d.get_u32("snapshot issued count")? as usize;
            for _ in 0..count {
                let identity = get_identity(&mut d, "snapshot issued identity")?;
                let day = d.get_u64("snapshot issued day")?;
                let blinded = d.get_array::<G1_LEN>("snapshot issued blinded")?;
                issued.push((identity, day, blinded));
            }
        }
        d.finish()?;

        // All fields decoded; now install them.
        self.cluster.set_now(now);
        self.add_friend_begun = Round(add_friend_begun);
        self.dialing_begun = Round(dialing_begun);
        self.add_friend_opens = add_friend_opens;
        self.dialing_opens = dialing_opens;
        for (identity, key, last_seen) in accounts {
            self.cluster.restore_registration(&identity, key, last_seen);
        }
        for (identity, at) in lockouts {
            self.cluster.restore_deregistration(&identity, at);
        }
        if let Some(issuer) = &self.issuer {
            for (identity, day, blinded) in issued {
                issuer.restore_issuance(identity, day, blinded);
            }
        }
        Ok(())
    }

    fn apply_record(&mut self, kind: u8, payload: &[u8]) -> Result<(), StorageError> {
        match kind {
            REC_ACCOUNT_REGISTERED => {
                let mut d = Decoder::new(payload);
                let identity = get_identity(&mut d, "registered identity")?;
                let key_bytes = d.get_array::<SIGNING_PK_LEN>("registered key")?;
                let key =
                    VerifyingKey::from_bytes(&key_bytes).map_err(|_| StorageError::BadPayload {
                        context: "registered signing key",
                    })?;
                let now = d.get_u64("registered at")?;
                d.finish()?;
                self.cluster.restore_registration(&identity, key, now);
            }
            REC_ACCOUNT_DEREGISTERED => {
                let mut d = Decoder::new(payload);
                let identity = get_identity(&mut d, "deregistered identity")?;
                let now = d.get_u64("deregistered at")?;
                d.finish()?;
                self.cluster.restore_deregistration(&identity, now);
            }
            REC_ACCOUNT_TOUCHED => {
                let mut d = Decoder::new(payload);
                let identity = get_identity(&mut d, "touched identity")?;
                let now = d.get_u64("touched at")?;
                d.finish()?;
                self.cluster.restore_touch(&identity, now);
            }
            REC_TOKEN_ISSUED => {
                let mut d = Decoder::new(payload);
                let identity = get_identity(&mut d, "issued identity")?;
                let now = d.get_u64("issued at")?;
                let blinded = d.get_array::<G1_LEN>("issued blinded")?;
                d.finish()?;
                if let Some(issuer) = &self.issuer {
                    let day = now / crate::ratelimit::ISSUANCE_WINDOW_SECONDS;
                    issuer.restore_issuance(identity, day, blinded);
                }
            }
            REC_ADD_FRIEND_ROUND_BEGUN => {
                let round = get_u64_payload(payload, "add-friend round")?;
                self.add_friend_opens += 1;
                self.note_begun(RoundKind::AddFriend, Round(round));
            }
            REC_DIALING_ROUND_BEGUN => {
                let round = get_u64_payload(payload, "dialing round")?;
                self.dialing_opens += 1;
                self.note_begun(RoundKind::Dialing, Round(round));
            }
            REC_DIALING_ROUND_SKIPPED => {
                get_u64_payload(payload, "skipping dialing round")?;
                self.dialing_opens += 1;
            }
            REC_CLOCK_ADVANCED => {
                let seconds = get_u64_payload(payload, "clock advance")?;
                let now = self.cluster.now() + seconds;
                self.cluster.set_now(now);
            }
            other => return Err(StorageError::UnknownRecordKind { kind: other }),
        }
        Ok(())
    }
}
