//! Rate limiting of real submissions with blind-signature tokens (§9).
//!
//! The paper's discussion section proposes defending against denial-of-service
//! by malicious clients (who could send real, mailbox-filling requests every
//! round instead of cover traffic) as follows: the servers issue each
//! registered user a limited number of *blinded* signatures per day, and the
//! entry server rejects real submissions that do not carry a valid unblinded
//! token. Because issuance uses blind signatures, spending a token does not
//! reveal which user it was issued to, so the defence does not undercut
//! metadata privacy.
//!
//! This module provides both halves:
//!
//! * [`TokenIssuer`] — the server side: per-user daily budgets and blind
//!   signing;
//! * [`TokenVerifier`] — the entry-server side: checking a spent token's
//!   signature over its round's [`spend_message`].
//!
//! A token is spent into its round's
//! [`SubmissionIntake`](crate::shard::SubmissionIntake), which refuses a
//! second onion paying with it; no ledger outlives the round.
//!
//! The defence is off by default, matching the paper's prototype, which
//! left it at the discussion level. A deployment turns it on with
//! [`ServiceConfig::rate_limit`](crate::service::ServiceConfig::rate_limit)
//! (`alpenhornd --rate-limit-budget`); the core round flow in
//! [`crate::cluster`] does not require tokens.

use std::collections::{HashMap, HashSet};
use std::sync::{Mutex, MutexGuard};

use alpenhorn_crypto::sha256;
use alpenhorn_ibe::blind::{sign_blinded, verify_token, BlindedMessage, BlindedSignature};
use alpenhorn_ibe::sig::{Signature, SigningKey, VerifyingKey};
use alpenhorn_wire::rpc::RATE_LIMIT_SERIAL_LEN;
use alpenhorn_wire::{Encoder, Identity, Round, RoundKind, G1_LEN, IDENTITY_FIELD_LEN};

/// Number of seconds in the issuance window (one day, per the paper).
pub const ISSUANCE_WINDOW_SECONDS: u64 = 24 * 60 * 60;

/// The message a spendable token signs: domain tag, protocol, round, and the
/// client-chosen serial. Binding the protocol and round means a token
/// verifies in one round only: it cannot be hoarded and replayed into a
/// later round, so that round's intake is the only double-spend ledger it
/// needs.
pub fn spend_message(
    kind: RoundKind,
    round: Round,
    serial: &[u8; RATE_LIMIT_SERIAL_LEN],
) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_bytes(b"alpenhorn-ratelimit-spend-v1");
    e.put_bytes(kind.label().as_bytes());
    e.put_u64(round.0);
    e.put_bytes(serial);
    e.finish()
}

/// The message a client signs (with its registered long-term key) to request
/// issuance of one blind-signed token. Issuance is authenticated the same way
/// PKG key extraction is; only spending is unlinkable.
pub fn issue_message(identity: &Identity, blinded: &[u8; G1_LEN]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_bytes(b"alpenhorn-ratelimit-issue-v1");
    e.put_padded(identity.as_bytes(), IDENTITY_FIELD_LEN);
    e.put_bytes(blinded);
    e.finish()
}

/// Errors from the rate-limiting subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateLimitError {
    /// The user has exhausted today's token budget.
    BudgetExhausted,
    /// The spent token's signature does not verify.
    InvalidToken,
}

impl core::fmt::Display for RateLimitError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RateLimitError::BudgetExhausted => write!(f, "daily token budget exhausted"),
            RateLimitError::InvalidToken => write!(f, "rate-limit token is invalid"),
        }
    }
}

impl std::error::Error for RateLimitError {}

/// Number of independently locked stripes behind [`TokenIssuer`]'s budgets.
const STRIPES: usize = 16;

/// [`STRIPES`] independently locked `T`s. A key always lands in the same
/// stripe, so a check-and-update made under that stripe's lock is atomic for
/// the key while other keys proceed in parallel. The stripe is picked by the
/// key's SHA-256 digest rather than its raw bytes, which keeps the spread
/// uniform even when keys share structure, as the vendored mock pairing's
/// signatures do.
struct Stripes<T> {
    locks: Vec<Mutex<T>>,
}

impl<T: Default> Stripes<T> {
    fn new() -> Self {
        Stripes {
            locks: (0..STRIPES).map(|_| Mutex::default()).collect(),
        }
    }

    fn get(&self, key: &[u8]) -> MutexGuard<'_, T> {
        let digest = sha256::digest(key);
        let mut prefix = [0u8; 8];
        prefix.copy_from_slice(&digest[..8]);
        lock(&self.locks[(u64::from_be_bytes(prefix) % STRIPES as u64) as usize])
    }

    fn all(&self) -> impl Iterator<Item = MutexGuard<'_, T>> {
        self.locks.iter().map(lock)
    }
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|p| p.into_inner())
}

/// Blinded messages signed per (identity, day index). A day's budget use is
/// its set's size.
type SignedPerDay = HashMap<(Identity, u64), HashSet<[u8; 48]>>;

/// Server side: issues blind-signed tokens against per-user daily budgets.
///
/// Every method takes `&self`: the budgets are striped by identity, so
/// concurrent issuances for different users never wait for each other, and
/// one user's check-and-charge is atomic under its stripe's lock.
pub struct TokenIssuer {
    signing_key: SigningKey,
    budget_per_day: u32,
    /// The blinded messages already signed, per (identity, day): the
    /// budget charge, and what answers a replayed issuance request (an
    /// on-path attacker re-sending a captured frame, or a client retrying
    /// after a lost response) idempotently instead of charging again.
    signed: Stripes<SignedPerDay>,
}

impl TokenIssuer {
    /// Creates an issuer with the given daily per-user budget.
    pub fn new(signing_key: SigningKey, budget_per_day: u32) -> Self {
        TokenIssuer {
            signing_key,
            budget_per_day,
            signed: Stripes::new(),
        }
    }

    /// The public key submissions are verified against.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.signing_key.verifying_key()
    }

    /// Remaining budget for `user` at time `now`.
    pub fn remaining(&self, user: &Identity, now: u64) -> u32 {
        let day = now / ISSUANCE_WINDOW_SECONDS;
        let used = self
            .signed
            .get(user.as_bytes())
            .get(&(user.clone(), day))
            .map_or(0, HashSet::len);
        self.budget_per_day
            .saturating_sub(u32::try_from(used).unwrap_or(u32::MAX))
    }

    /// Blind-signs one token for `user`, consuming one unit of today's
    /// budget. Re-signing a blinded message already signed today is free:
    /// BLS blind signing is deterministic, so the caller gets the identical
    /// signature and a replay cannot drain the budget.
    ///
    /// The issuer authenticates the user the same way the PKG authenticates
    /// key extraction (registered signing key); that check lives with the
    /// caller, which already holds the account database.
    pub fn issue(
        &self,
        user: &Identity,
        blinded: &BlindedMessage,
        now: u64,
    ) -> Result<BlindedSignature, RateLimitError> {
        let day = now / ISSUANCE_WINDOW_SECONDS;
        let message = blinded.to_bytes();
        {
            let mut stripe = self.signed.get(user.as_bytes());
            let signed = stripe.entry((user.clone(), day)).or_default();
            if !signed.contains(&message) {
                if signed.len() >= self.budget_per_day as usize {
                    return Err(RateLimitError::BudgetExhausted);
                }
                signed.insert(message);
            }
        }
        Ok(sign_blinded(&self.signing_key, blinded))
    }

    // ------------------------------------------------------------------
    // Durability hooks (`alpenhorn-storage`)
    // ------------------------------------------------------------------

    /// Every blinded message signed so far, as `(identity, day, blinded)`,
    /// in one canonical order whatever the stripes and the order of
    /// issuance. The budget counts are implied: one unit per entry, so a
    /// snapshot needs only this list.
    pub fn issued_entries(&self) -> impl Iterator<Item = (Identity, u64, [u8; 48])> {
        let mut entries: Vec<_> = self
            .signed
            .all()
            .flat_map(|stripe| {
                stripe
                    .iter()
                    .flat_map(|((identity, day), messages)| {
                        messages
                            .iter()
                            .map(move |blinded| (identity.clone(), *day, *blinded))
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        entries.sort();
        entries.into_iter()
    }

    /// Re-records one issuance during crash recovery: charges the budget and
    /// marks the blinded message seen, exactly as [`TokenIssuer::issue`] did
    /// when the record was logged (idempotent for an already-seen message, so
    /// a record replayed over a snapshot that includes it is harmless).
    pub fn restore_issuance(&self, user: Identity, day: u64, blinded: [u8; 48]) {
        self.signed
            .get(user.as_bytes())
            .entry((user, day))
            .or_default()
            .insert(blinded);
    }
}

/// Entry-server side: checks a spent token's signature.
///
/// The verifier holds only the issuer's public key. Double spends are the
/// round's business: a token signs [`spend_message`] for one (protocol,
/// round), so the round's [`SubmissionIntake`](crate::shard::SubmissionIntake)
/// is the only place it can be spent twice, and the intake refuses a token
/// it has already recorded (see `docs/ARCHITECTURE.md` § "Rate-limit tokens").
#[derive(Clone, Copy)]
pub struct TokenVerifier {
    issuer_key: VerifyingKey,
}

impl TokenVerifier {
    /// Creates a verifier for tokens issued under `issuer_key`.
    pub fn new(issuer_key: VerifyingKey) -> Self {
        TokenVerifier { issuer_key }
    }

    /// Checks that `token` is the issuer's signature over `message` (the
    /// [`spend_message`] of the round it is spent in).
    pub fn verify(&self, message: &[u8], token: &Signature) -> Result<(), RateLimitError> {
        if verify_token(&self.issuer_key, message, token) {
            Ok(())
        } else {
            Err(RateLimitError::InvalidToken)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{Offer, SubmissionIntake};
    use alpenhorn_crypto::ChaChaRng;
    use alpenhorn_ibe::blind::{blind, unblind};

    fn id(s: &str) -> Identity {
        Identity::new(s).unwrap()
    }

    fn setup(budget: u32) -> (TokenIssuer, TokenVerifier, ChaChaRng) {
        let mut rng = ChaChaRng::from_seed_bytes([9u8; 32]);
        let issuer = TokenIssuer::new(SigningKey::generate(&mut rng), budget);
        let verifier = TokenVerifier::new(issuer.verifying_key());
        (issuer, verifier, rng)
    }

    #[test]
    fn issue_spend_happy_path() {
        let (issuer, verifier, mut rng) = setup(3);
        let alice = id("alice@example.com");
        let message = b"round 7, serial 0xabcdef";
        let (blinded, factor) = blind(message, &mut rng);
        let blind_sig = issuer.issue(&alice, &blinded, 0).unwrap();
        let token = unblind(&blind_sig, &factor);
        verifier.verify(message, &token).unwrap();
        assert_eq!(issuer.remaining(&alice, 0), 2);
    }

    #[test]
    fn budget_is_enforced_per_day() {
        let (issuer, _, mut rng) = setup(2);
        let alice = id("alice@example.com");
        for i in 0..2 {
            let (blinded, _) = blind(format!("serial {i}").as_bytes(), &mut rng);
            issuer.issue(&alice, &blinded, 100).unwrap();
        }
        let (blinded, _) = blind(b"serial 2", &mut rng);
        assert_eq!(
            issuer.issue(&alice, &blinded, 100),
            Err(RateLimitError::BudgetExhausted)
        );
        // The next day the budget resets.
        assert_eq!(issuer.remaining(&alice, ISSUANCE_WINDOW_SECONDS + 1), 2);
        assert!(issuer
            .issue(&alice, &blinded, ISSUANCE_WINDOW_SECONDS + 1)
            .is_ok());
    }

    #[test]
    fn replayed_issuance_is_idempotent_and_free() {
        // A captured issuance request replayed by an on-path attacker (or a
        // client retry after a lost response) must not drain the budget; the
        // deterministic blind signature is simply returned again.
        let (issuer, _, mut rng) = setup(1);
        let alice = id("alice@example.com");
        let (blinded, _) = blind(b"m", &mut rng);
        let first = issuer.issue(&alice, &blinded, 0).unwrap();
        let replay = issuer.issue(&alice, &blinded, 0).unwrap();
        assert_eq!(first.to_bytes(), replay.to_bytes());
        assert_eq!(issuer.remaining(&alice, 0), 0);
        // A fresh blinded message is a genuine charge and hits the
        // exhausted budget.
        let (fresh, _) = blind(b"m2", &mut rng);
        assert_eq!(
            issuer.issue(&alice, &fresh, 0),
            Err(RateLimitError::BudgetExhausted)
        );
    }

    #[test]
    fn budgets_are_per_user() {
        let (issuer, _, mut rng) = setup(1);
        let (blinded, _) = blind(b"m", &mut rng);
        issuer.issue(&id("a@x.com"), &blinded, 0).unwrap();
        assert_eq!(issuer.remaining(&id("a@x.com"), 0), 0);
        assert_eq!(issuer.remaining(&id("b@x.com"), 0), 1);
        assert!(issuer.issue(&id("b@x.com"), &blinded, 0).is_ok());
    }

    /// A token for `(kind, round, serial)`, issued to one user and
    /// unblinded, as a client holds it when it submits.
    fn spendable(
        issuer: &TokenIssuer,
        rng: &mut ChaChaRng,
        kind: RoundKind,
        round: Round,
        serial: u8,
    ) -> Signature {
        let message = spend_message(kind, round, &[serial; RATE_LIMIT_SERIAL_LEN]);
        let (blinded, factor) = blind(&message, rng);
        unblind(&issuer.issue(&id("a@x.com"), &blinded, 0).unwrap(), &factor)
    }

    #[test]
    fn double_spend_rejected() {
        // The round's intake refuses a token on a second onion, and the
        // token verifies in no other round or protocol.
        let (issuer, verifier, mut rng) = setup(5);
        let token = spendable(&issuer, &mut rng, RoundKind::AddFriend, Round(9), 1);
        let serial = [1u8; RATE_LIMIT_SERIAL_LEN];
        let message = spend_message(RoundKind::AddFriend, Round(9), &serial);
        verifier.verify(&message, &token).unwrap();
        let intake = SubmissionIntake::new();
        let paid = Some(token.to_bytes());
        assert_eq!(intake.offer(&[1u8; 32], paid.as_ref()), Offer::Accepted);
        assert_eq!(intake.offer(&[2u8; 32], paid.as_ref()), Offer::DoubleSpend);
        for elsewhere in [
            spend_message(RoundKind::AddFriend, Round(10), &serial),
            spend_message(RoundKind::Dialing, Round(9), &serial),
        ] {
            assert_eq!(
                verifier.verify(&elsewhere, &token),
                Err(RateLimitError::InvalidToken)
            );
        }
    }

    #[test]
    fn forged_tokens_rejected() {
        let (_, verifier, mut rng) = setup(5);
        // A token signed by someone other than the issuer.
        let rogue = SigningKey::generate(&mut rng);
        let message = b"round 1, serial 7";
        let (blinded, factor) = blind(message, &mut rng);
        let forged = unblind(&sign_blinded(&rogue, &blinded), &factor);
        assert_eq!(
            verifier.verify(message, &forged),
            Err(RateLimitError::InvalidToken)
        );
    }

    #[test]
    fn concurrent_spends_produce_the_sequential_ledger() {
        // Racing submitters spend into one round's intake. Copies of one
        // submission racing each other are retries: one is accepted, the
        // rest are acked as duplicates, never refused as double spends, and
        // the sealed batch is the sequential one. Distinct onions racing for
        // one token: exactly one of them is paid for.
        let (issuer, _, mut rng) = setup(32);
        let tokens: Vec<[u8; G1_LEN]> = (0..16)
            .map(|i| spendable(&issuer, &mut rng, RoundKind::Dialing, Round(4), i).to_bytes())
            .collect();
        let onion = |thread: u8, i: usize| [thread, i as u8];
        let sequential = SubmissionIntake::new();
        for (i, token) in tokens.iter().enumerate() {
            assert_eq!(sequential.offer(&onion(0, i), Some(token)), Offer::Accepted);
        }
        let offer_from_four_threads = |intake: &SubmissionIntake, retries: bool| {
            let outcomes = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for thread in 0..4u8 {
                    let (tokens, outcomes) = (&tokens, &outcomes);
                    scope.spawn(move || {
                        for (i, token) in tokens.iter().enumerate() {
                            let onion = onion(if retries { 0 } else { thread }, i);
                            let offered = intake.offer(&onion, Some(token));
                            lock(outcomes).push(offered);
                        }
                    });
                }
            });
            let outcomes = outcomes.into_inner().unwrap();
            let count = |offer| outcomes.iter().filter(|&&o| o == offer).count();
            (
                count(Offer::Accepted),
                count(Offer::Duplicate),
                count(Offer::DoubleSpend),
            )
        };
        let retried = SubmissionIntake::new();
        assert_eq!(offer_from_four_threads(&retried, true), (16, 48, 0));
        assert_eq!(retried.seal(), sequential.seal());
        let contested = SubmissionIntake::new();
        assert_eq!(offer_from_four_threads(&contested, false), (16, 0, 48));
    }

    #[test]
    fn concurrent_issuance_charges_each_budget_unit_once() {
        // Issuance runs on the coordinator's shared path: racing requests for
        // one user must never overdraw the budget, replays racing their
        // original must charge once, and the ledger must read the same as a
        // sequential issuer's.
        let (issuer, _, mut rng) = setup(5);
        let sequential = TokenIssuer::new(SigningKey::generate(&mut rng), 5);
        let alice = id("alice@example.com");
        let blinded: Vec<BlindedMessage> = (0..8)
            .map(|i| blind(format!("serial {i}").as_bytes(), &mut rng).0)
            .collect();
        let granted = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for message in &blinded {
                        if issuer.issue(&alice, message, 0).is_ok() {
                            granted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(issuer.remaining(&alice, 0), 0);
        // Each thread asks in the same order, so the first five messages are
        // the charged ones: every thread got those (one charge, the rest
        // free replays) and nobody got the other three.
        assert_eq!(granted.into_inner(), 4 * 5);
        for message in &blinded[..5] {
            sequential.issue(&alice, message, 0).unwrap();
        }
        assert_eq!(
            issuer.issued_entries().collect::<Vec<_>>(),
            sequential.issued_entries().collect::<Vec<_>>()
        );
    }

    #[test]
    fn issuer_cannot_link_token_to_issuance() {
        // Structural unlinkability check: the blinded message the issuer sees
        // shares no bytes with the token that is later spent.
        let (issuer, verifier, mut rng) = setup(5);
        let message = b"round 3, serial 99";
        let (blinded, factor) = blind(message, &mut rng);
        let blind_sig = issuer.issue(&id("a@x.com"), &blinded, 0).unwrap();
        let token = unblind(&blind_sig, &factor);
        assert_ne!(blinded.to_bytes(), token.to_bytes());
        assert_ne!(blind_sig.to_bytes(), token.to_bytes());
        verifier.verify(message, &token).unwrap();
    }
}
