//! The PKG's account database: registration, lockout, and deregistration.
//!
//! §4.6 and §9 of the paper:
//!
//! * Registering an email address requires echoing back a secret token the
//!   PKG mails to that address; after registration the address is locked to
//!   the registered long-term signing key.
//! * There is no quick reset. If 30 days pass without a legitimate (signed)
//!   key extraction, the PKG allows re-registration with a new key via email
//!   verification again.
//! * A user whose client was compromised can sign a deregistration request
//!   with the old key; the account then enters a 30-day lockout window before
//!   anyone (including an adversary controlling the email account) can
//!   re-register it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use alpenhorn_ibe::sig::VerifyingKey;
use alpenhorn_wire::Identity;

use crate::error::PkgError;
use crate::mail::MailDelivery;

/// The lockout window: 30 days, in seconds.
pub const LOCKOUT_SECONDS: u64 = 30 * 24 * 60 * 60;

/// Public status of an account, as reported by [`AccountRegistry::status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccountStatus {
    /// Never registered (or registration never confirmed).
    Unregistered,
    /// Registration started; waiting for the emailed token.
    Pending,
    /// Registered and active.
    Registered,
    /// Deregistered and within the lockout window.
    LockedOut,
}

/// One registered account.
#[derive(Debug)]
struct Account {
    signing_key: VerifyingKey,
    /// Time of the last legitimate signed key extraction (or registration).
    /// Atomic so concurrent extractions can refresh it through `&self`; it
    /// only ever moves forward (`fetch_max`), so the order in which
    /// concurrent refreshes land does not matter.
    last_seen: AtomicU64,
}

impl Account {
    fn new(signing_key: VerifyingKey, last_seen: u64) -> Self {
        Account {
            signing_key,
            last_seen: AtomicU64::new(last_seen),
        }
    }

    fn last_seen(&self) -> u64 {
        self.last_seen.load(Ordering::Relaxed)
    }
}

/// A pending registration awaiting email confirmation.
#[derive(Debug, Clone)]
struct Pending {
    signing_key: VerifyingKey,
    token: [u8; 32],
}

/// The account database of one PKG.
pub struct AccountRegistry {
    server_name: String,
    accounts: HashMap<Identity, Account>,
    pending: HashMap<Identity, Pending>,
    /// Deregistered accounts: identity → time of deregistration.
    lockouts: HashMap<Identity, u64>,
}

impl AccountRegistry {
    /// Creates an empty registry for the PKG named `server_name`.
    pub fn new(server_name: &str) -> Self {
        AccountRegistry {
            server_name: server_name.to_string(),
            accounts: HashMap::new(),
            pending: HashMap::new(),
            lockouts: HashMap::new(),
        }
    }

    /// The status of `identity` at time `now`.
    pub fn status(&self, identity: &Identity, now: u64) -> AccountStatus {
        if let Some(deregistered_at) = self.lockouts.get(identity) {
            if now < deregistered_at + LOCKOUT_SECONDS {
                return AccountStatus::LockedOut;
            }
        }
        if self.accounts.contains_key(identity) {
            AccountStatus::Registered
        } else if self.pending.contains_key(identity) {
            AccountStatus::Pending
        } else {
            AccountStatus::Unregistered
        }
    }

    /// Number of registered accounts.
    pub fn registered_count(&self) -> usize {
        self.accounts.len()
    }

    /// The registered signing key for `identity`, if any.
    pub fn signing_key(&self, identity: &Identity) -> Option<&VerifyingKey> {
        self.accounts.get(identity).map(|a| &a.signing_key)
    }

    /// Begins registration: mails a confirmation token to the address.
    ///
    /// Re-registration of an existing account is only allowed once the
    /// account has been inactive for [`LOCKOUT_SECONDS`] (the 30-day policy),
    /// or after a deregistration lockout has expired.
    pub fn begin_registration(
        &mut self,
        identity: &Identity,
        signing_key: VerifyingKey,
        now: u64,
        mail: &dyn MailDelivery,
        rng: &mut alpenhorn_crypto::ChaChaRng,
    ) -> Result<(), PkgError> {
        if let Some(deregistered_at) = self.lockouts.get(identity) {
            let unlocked_at = deregistered_at + LOCKOUT_SECONDS;
            if now < unlocked_at {
                return Err(PkgError::LockedOut {
                    remaining_seconds: unlocked_at - now,
                });
            }
        }
        if let Some(existing) = self.accounts.get(identity) {
            // Same key re-registering is a no-op for safety; a different key
            // must wait out the inactivity lockout.
            if existing.signing_key == signing_key {
                return Ok(());
            }
            if now < existing.last_seen() + LOCKOUT_SECONDS {
                return Err(PkgError::AlreadyRegistered);
            }
        }
        let mut token = [0u8; 32];
        use rand::RngCore;
        rng.fill_bytes(&mut token);
        mail.send_confirmation(identity, &self.server_name, token);
        self.pending
            .insert(identity.clone(), Pending { signing_key, token });
        Ok(())
    }

    /// Completes registration by presenting the emailed token.
    pub fn complete_registration(
        &mut self,
        identity: &Identity,
        token: [u8; 32],
        now: u64,
    ) -> Result<(), PkgError> {
        let pending = self
            .pending
            .get(identity)
            .ok_or(PkgError::NoPendingRegistration)?;
        if !alpenhorn_crypto::ct_eq(&pending.token, &token) {
            return Err(PkgError::BadConfirmationToken);
        }
        let pending = self.pending.remove(identity).expect("checked above");
        self.accounts
            .insert(identity.clone(), Account::new(pending.signing_key, now));
        self.lockouts.remove(identity);
        Ok(())
    }

    /// Records a legitimate signed key extraction, refreshing the inactivity
    /// window. Takes `&self`, so extractions can run concurrently.
    pub fn touch(&self, identity: &Identity, now: u64) {
        if let Some(account) = self.accounts.get(identity) {
            account.last_seen.fetch_max(now, Ordering::Relaxed);
        }
    }

    /// Deregisters `identity`. The caller (the PKG server) must already have
    /// verified a signature by the account's registered key over the
    /// deregistration request (§9: recovery from client compromise).
    pub fn deregister(&mut self, identity: &Identity, now: u64) -> Result<(), PkgError> {
        if self.accounts.remove(identity).is_none() {
            return Err(PkgError::UnknownIdentity);
        }
        self.pending.remove(identity);
        self.lockouts.insert(identity.clone(), now);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Durability hooks (`alpenhorn-storage`)
    //
    // Registered accounts and lockout timestamps are the registry state that
    // must survive a restart; pending registrations deliberately are not
    // persisted (their confirmation tokens live in email, and a client whose
    // registration was interrupted simply restarts the idempotent flow).
    // ------------------------------------------------------------------

    /// Iterates registered accounts as `(identity, signing key, last_seen)`,
    /// in identity order (deterministic snapshots).
    pub fn accounts(&self) -> impl Iterator<Item = (&Identity, &VerifyingKey, u64)> {
        let mut entries: Vec<_> = self.accounts.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries
            .into_iter()
            .map(|(id, account)| (id, &account.signing_key, account.last_seen()))
    }

    /// Iterates deregistration lockouts as `(identity, deregistered_at)`, in
    /// identity order.
    pub fn lockouts(&self) -> impl Iterator<Item = (&Identity, u64)> {
        let mut entries: Vec<_> = self.lockouts.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries.into_iter().map(|(id, at)| (id, *at))
    }

    /// Directly installs a registered account during crash recovery,
    /// bypassing the email confirmation flow (which already ran before the
    /// state was logged). Clears any lockout for the identity, mirroring
    /// [`AccountRegistry::complete_registration`].
    pub fn restore_account(
        &mut self,
        identity: Identity,
        signing_key: VerifyingKey,
        last_seen: u64,
    ) {
        self.lockouts.remove(&identity);
        self.accounts
            .insert(identity, Account::new(signing_key, last_seen));
    }

    /// The time `identity` was deregistered, if it is under a lockout.
    pub fn lockout_time(&self, identity: &Identity) -> Option<u64> {
        self.lockouts.get(identity).copied()
    }

    /// The registered account's `last_seen` timestamp, if it exists. Used by
    /// the coordinator journal so a (possibly duplicated) registration
    /// record always captures the stored timestamp, never the current clock.
    pub fn account_last_seen(&self, identity: &Identity) -> Option<u64> {
        self.accounts.get(identity).map(Account::last_seen)
    }

    /// Directly installs a deregistration lockout during crash recovery,
    /// removing any account for the identity (mirroring
    /// [`AccountRegistry::deregister`]).
    pub fn restore_lockout(&mut self, identity: Identity, deregistered_at: u64) {
        self.accounts.remove(&identity);
        self.pending.remove(&identity);
        self.lockouts.insert(identity, deregistered_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mail::SimulatedMail;
    use alpenhorn_crypto::ChaChaRng;
    use alpenhorn_ibe::sig::SigningKey;

    fn id(s: &str) -> Identity {
        Identity::new(s).unwrap()
    }

    fn rng(seed: u8) -> ChaChaRng {
        ChaChaRng::from_seed_bytes([seed; 32])
    }

    fn key(rng: &mut ChaChaRng) -> VerifyingKey {
        SigningKey::generate(rng).verifying_key()
    }

    struct Setup {
        registry: AccountRegistry,
        mail: SimulatedMail,
        rng: ChaChaRng,
    }

    fn setup() -> Setup {
        Setup {
            registry: AccountRegistry::new("pkg-0"),
            mail: SimulatedMail::new(),
            rng: rng(1),
        }
    }

    fn register(s: &mut Setup, who: &Identity, key: VerifyingKey, now: u64) {
        s.registry
            .begin_registration(who, key, now, &s.mail, &mut s.rng)
            .unwrap();
        let token = s.mail.latest_token(who, "pkg-0").unwrap();
        s.registry.complete_registration(who, token, now).unwrap();
    }

    #[test]
    fn happy_path_registration() {
        let mut s = setup();
        let alice = id("alice@example.com");
        let k = key(&mut s.rng);
        assert_eq!(s.registry.status(&alice, 0), AccountStatus::Unregistered);

        s.registry
            .begin_registration(&alice, k, 0, &s.mail, &mut s.rng)
            .unwrap();
        assert_eq!(s.registry.status(&alice, 0), AccountStatus::Pending);
        assert_eq!(s.mail.message_count(&alice), 1);

        let token = s.mail.latest_token(&alice, "pkg-0").unwrap();
        s.registry.complete_registration(&alice, token, 10).unwrap();
        assert_eq!(s.registry.status(&alice, 10), AccountStatus::Registered);
        assert_eq!(s.registry.signing_key(&alice), Some(&k));
        assert_eq!(s.registry.registered_count(), 1);
    }

    #[test]
    fn wrong_token_rejected() {
        let mut s = setup();
        let alice = id("alice@example.com");
        let k = key(&mut s.rng);
        s.registry
            .begin_registration(&alice, k, 0, &s.mail, &mut s.rng)
            .unwrap();
        assert_eq!(
            s.registry.complete_registration(&alice, [0u8; 32], 0),
            Err(PkgError::BadConfirmationToken)
        );
        assert_eq!(
            s.registry
                .complete_registration(&id("bob@x.com"), [0u8; 32], 0),
            Err(PkgError::NoPendingRegistration)
        );
    }

    #[test]
    fn different_key_cannot_reregister_while_active() {
        // A malicious email provider that controls Alice's inbox must not be
        // able to take over an active account (§4.6).
        let mut s = setup();
        let alice = id("alice@example.com");
        let honest = key(&mut s.rng);
        register(&mut s, &alice, honest, 0);

        let attacker = key(&mut s.rng);
        assert_eq!(
            s.registry
                .begin_registration(&alice, attacker, 1000, &s.mail, &mut s.rng),
            Err(PkgError::AlreadyRegistered)
        );
        // Still locked to the honest key.
        assert_eq!(s.registry.signing_key(&alice), Some(&honest));
    }

    #[test]
    fn inactive_account_can_be_reregistered_after_30_days() {
        let mut s = setup();
        let alice = id("alice@example.com");
        let old = key(&mut s.rng);
        register(&mut s, &alice, old, 0);

        // Alice keeps extracting keys for a while: the window keeps moving.
        s.registry.touch(&alice, 10 * 86_400);
        let attacker = key(&mut s.rng);
        assert!(s
            .registry
            .begin_registration(&alice, attacker, 35 * 86_400, &s.mail, &mut s.rng)
            .is_err());

        // After 30 days of true inactivity a new key may register (disk-loss
        // recovery, §4.6).
        let new = key(&mut s.rng);
        let later = 10 * 86_400 + LOCKOUT_SECONDS + 1;
        register(&mut s, &alice, new, later);
        assert_eq!(s.registry.signing_key(&alice), Some(&new));
    }

    #[test]
    fn same_key_reregistration_is_noop() {
        let mut s = setup();
        let alice = id("alice@example.com");
        let k = key(&mut s.rng);
        register(&mut s, &alice, k, 0);
        s.registry
            .begin_registration(&alice, k, 5, &s.mail, &mut s.rng)
            .unwrap();
        assert_eq!(s.registry.status(&alice, 5), AccountStatus::Registered);
    }

    #[test]
    fn deregistration_enters_lockout() {
        let mut s = setup();
        let alice = id("alice@example.com");
        let k = key(&mut s.rng);
        register(&mut s, &alice, k, 0);

        s.registry.deregister(&alice, 100).unwrap();
        assert_eq!(s.registry.status(&alice, 200), AccountStatus::LockedOut);

        // Nobody (not even the original key) can register during lockout.
        let attacker = key(&mut s.rng);
        match s
            .registry
            .begin_registration(&alice, attacker, 200, &s.mail, &mut s.rng)
        {
            Err(PkgError::LockedOut { remaining_seconds }) => {
                assert!(remaining_seconds <= LOCKOUT_SECONDS);
            }
            other => panic!("expected lockout, got {other:?}"),
        }

        // After the lockout, the legitimate user re-registers via email.
        let new = key(&mut s.rng);
        register(&mut s, &alice, new, 100 + LOCKOUT_SECONDS + 1);
        assert_eq!(
            s.registry.status(&alice, 100 + LOCKOUT_SECONDS + 1),
            AccountStatus::Registered
        );
    }

    #[test]
    fn deregister_unknown_identity_fails() {
        let mut s = setup();
        assert_eq!(
            s.registry.deregister(&id("ghost@x.com"), 0),
            Err(PkgError::UnknownIdentity)
        );
    }

    #[test]
    fn touch_only_moves_forward() {
        let mut s = setup();
        let alice = id("alice@example.com");
        let k = key(&mut s.rng);
        register(&mut s, &alice, k, 1000);
        s.registry.touch(&alice, 500); // out-of-order clock reading
                                       // Re-registration with a new key at 1000 + LOCKOUT must still be
                                       // measured from 1000, not 500.
        let new = key(&mut s.rng);
        assert!(s
            .registry
            .begin_registration(
                &alice,
                new,
                1000 + LOCKOUT_SECONDS - 10,
                &s.mail,
                &mut s.rng
            )
            .is_err());
    }
}
