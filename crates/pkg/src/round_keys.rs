//! Per-round IBE master key management with commit-then-reveal.
//!
//! §4.4 of the paper: every add-friend round, each PKG creates a fresh master
//! key, broadcasts the public key, and destroys the secret at the end of the
//! round (after clients have obtained their identity keys), providing forward
//! secrecy even against a later compromise of the PKG.
//!
//! Appendix A adds a commitment step so that a corrupted PKG cannot choose
//! its round key *after* seeing the honest PKG's key: each PKG first
//! publishes a hash commitment to its round public key, and reveals the key
//! only after collecting everyone else's commitments.

use alpenhorn_crypto::zeroize::Zeroize;
use alpenhorn_crypto::{hmac_sha256, ChaChaRng, Hkdf, HmacKey};
use alpenhorn_ibe::bf::{HashedIdentity, IdentityPrivateKey, MasterPublic, MasterSecret};
use alpenhorn_ibe::commit::{Commitment, NONCE_LEN};
use alpenhorn_wire::Round;

use crate::error::PkgError;

/// Ratchet label: each round's key material hangs off a fresh ratchet state,
/// and the previous state is erased (forward secrecy for round keys).
const RATCHET_LABEL: &[u8] = b"alpenhorn-pkg-round-ratchet";

/// The lifecycle phase of the current round's key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Committed to the round public key but not yet revealed it.
    Committed,
    /// Revealed; extraction is allowed.
    Revealed,
}

/// Manages one PKG's round master keys.
///
/// Round key material is derived through a hash ratchet: `begin_round`
/// advances the ratchet (erasing the old state) and expands one cached-PRK
/// HKDF into everything the round needs — the master-key generation seed and
/// the commitment nonce — so a post-round compromise reveals nothing about
/// earlier rounds, and the per-round derivation keys the HMAC exactly once.
pub struct RoundKeyManager {
    ratchet: [u8; 32],
    /// Precomputed HMAC states of the extract salt (fixed protocol label).
    salt_key: HmacKey,
    current: Option<RoundKeys>,
}

struct RoundKeys {
    round: Round,
    secret: MasterSecret,
    public: MasterPublic,
    nonce: [u8; NONCE_LEN],
    commitment: Commitment,
    phase: Phase,
}

impl RoundKeyManager {
    /// Creates a manager seeded with `seed`.
    pub fn new(seed: [u8; 32]) -> Self {
        RoundKeyManager {
            ratchet: seed,
            salt_key: HmacKey::new(b"alpenhorn-pkg-round-keys"),
            current: None,
        }
    }

    /// Starts `round`: generates a fresh master key and returns the
    /// commitment to broadcast. Any previous round's secret is destroyed.
    pub fn begin_round(&mut self, round: Round) -> Commitment {
        self.end_round();
        // Advance the ratchet, then reuse one round PRK for both the
        // master-key seed and the commitment nonce (two cheap expands of the
        // same cached HMAC states, bound to the round number).
        let next = hmac_sha256(&self.ratchet, RATCHET_LABEL);
        self.ratchet.zeroize();
        self.ratchet = next;
        let round_prk = Hkdf::extract_with_key(&self.salt_key, &self.ratchet);
        let mut seed_info = Vec::with_capacity(19);
        seed_info.extend_from_slice(b"master-seed");
        seed_info.extend_from_slice(&round.0.to_be_bytes());
        let mut rng = ChaChaRng::from_seed_bytes(round_prk.expand_key(&seed_info));
        let secret = MasterSecret::generate(&mut rng);
        let public = secret.public();
        let mut nonce_info = Vec::with_capacity(20);
        nonce_info.extend_from_slice(b"commit-nonce");
        nonce_info.extend_from_slice(&round.0.to_be_bytes());
        let nonce: [u8; NONCE_LEN] = round_prk.expand_key(&nonce_info);
        let commitment = Commitment::commit(&public.to_bytes(), &nonce);
        self.current = Some(RoundKeys {
            round,
            secret,
            public,
            nonce,
            commitment,
            phase: Phase::Committed,
        });
        commitment
    }

    /// Reveals the round public key (and the commitment opening) once all
    /// other PKGs' commitments have been collected.
    pub fn reveal(&mut self, round: Round) -> Result<(MasterPublic, [u8; NONCE_LEN]), PkgError> {
        let keys = self.require_round(round)?;
        keys.phase = Phase::Revealed;
        Ok((keys.public, keys.nonce))
    }

    /// The commitment for `round` (broadcast before the reveal).
    pub fn commitment(&self, round: Round) -> Result<Commitment, PkgError> {
        self.round(round).map(|keys| keys.commitment)
    }

    /// Extracts the identity key for `identity` (hashed by
    /// [`alpenhorn_ibe::bf::hash_identity`]) in `round`. Only allowed after
    /// the reveal (clients must be able to verify the commitment chain
    /// before trusting the aggregate key).
    ///
    /// Takes `&self`: the round secret is fixed from `begin_round` to
    /// `end_round`, so concurrent extractions only read it, and the
    /// `&mut self` of `end_round` is what guarantees none is still reading
    /// when it is erased.
    pub fn extract_hashed(
        &self,
        round: Round,
        identity: &HashedIdentity,
    ) -> Result<IdentityPrivateKey, PkgError> {
        let keys = self.round(round)?;
        if keys.phase != Phase::Revealed {
            return Err(PkgError::WrongPhase);
        }
        Ok(keys.secret.extract_hashed(identity))
    }

    /// Ends the current round, erasing the master secret (forward secrecy).
    pub fn end_round(&mut self) {
        if let Some(mut keys) = self.current.take() {
            keys.secret.erase();
        }
    }

    /// The current round, if one is open.
    pub fn current_round(&self) -> Option<Round> {
        self.current.as_ref().map(|k| k.round)
    }

    // ------------------------------------------------------------------
    // Durability hooks (`alpenhorn-storage`)
    // ------------------------------------------------------------------

    /// The current ratchet state, for durable PKG state. Only the ratchet is
    /// ever persisted — never a round's master secret — so what is on disk
    /// can only derive *future* rounds, preserving forward secrecy for every
    /// round that already closed.
    pub fn ratchet_state(&self) -> [u8; 32] {
        self.ratchet
    }

    /// Replaces the ratchet state during crash recovery. Any open round is
    /// discarded: a crash mid-round loses that round's keys by design
    /// (clients re-extract in the next round).
    pub fn restore_ratchet(&mut self, ratchet: [u8; 32]) {
        self.end_round();
        self.ratchet.zeroize();
        self.ratchet = ratchet;
    }

    /// Advances the ratchet exactly as [`RoundKeyManager::begin_round`] does,
    /// without deriving the round's master key. Used when replaying a logged
    /// round-open during recovery: the round itself is gone (its secret was
    /// never persisted), but the ratchet position must move so the *next*
    /// round's keys match an uncrashed deployment's.
    pub fn skip_round(&mut self) {
        self.end_round();
        let next = hmac_sha256(&self.ratchet, RATCHET_LABEL);
        self.ratchet.zeroize();
        self.ratchet = next;
    }

    fn round(&self, round: Round) -> Result<&RoundKeys, PkgError> {
        match &self.current {
            Some(keys) if keys.round == round => Ok(keys),
            current => Err(PkgError::WrongRound {
                current: current.as_ref().map(|k| k.round),
            }),
        }
    }

    fn require_round(&mut self, round: Round) -> Result<&mut RoundKeys, PkgError> {
        match &mut self.current {
            Some(keys) if keys.round != round => Err(PkgError::WrongRound {
                current: Some(keys.round),
            }),
            Some(keys) => Ok(keys),
            None => Err(PkgError::WrongRound { current: None }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpenhorn_ibe::bf::{decrypt, encrypt, hash_identity};

    #[test]
    fn commit_reveal_extract_cycle() {
        let mut mgr = RoundKeyManager::new([1u8; 32]);
        let round = Round(5);
        let commitment = mgr.begin_round(round);
        assert_eq!(mgr.current_round(), Some(round));
        assert_eq!(mgr.commitment(round).unwrap(), commitment);

        // Extraction before reveal is forbidden.
        assert_eq!(
            mgr.extract_hashed(round, &hash_identity(b"alice@example.com")),
            Err(PkgError::WrongPhase)
        );

        let (public, nonce) = mgr.reveal(round).unwrap();
        assert!(commitment.verify(&public.to_bytes(), &nonce));

        // Extraction now works and produces a key that decrypts.
        let idk = mgr
            .extract_hashed(round, &hash_identity(b"alice@example.com"))
            .unwrap();
        let mut rng = ChaChaRng::from_seed_bytes([2u8; 32]);
        let ct = encrypt(&public, b"alice@example.com", b"hi", &mut rng);
        assert_eq!(decrypt(&idk, &ct).unwrap(), b"hi");
    }

    #[test]
    fn wrong_round_rejected() {
        let mut mgr = RoundKeyManager::new([3u8; 32]);
        mgr.begin_round(Round(1));
        assert!(matches!(
            mgr.reveal(Round(2)),
            Err(PkgError::WrongRound {
                current: Some(Round(1))
            })
        ));
        assert!(matches!(
            mgr.commitment(Round(2)),
            Err(PkgError::WrongRound { .. })
        ));
        mgr.end_round();
        assert!(matches!(
            mgr.reveal(Round(1)),
            Err(PkgError::WrongRound { current: None })
        ));
    }

    #[test]
    fn keys_rotate_every_round() {
        let mut mgr = RoundKeyManager::new([4u8; 32]);
        mgr.begin_round(Round(1));
        let (pk1, _) = mgr.reveal(Round(1)).unwrap();
        mgr.begin_round(Round(2));
        let (pk2, _) = mgr.reveal(Round(2)).unwrap();
        assert_ne!(pk1.to_bytes(), pk2.to_bytes());
    }

    #[test]
    fn forward_secrecy_after_end_round() {
        // A ciphertext from round 1 cannot be decrypted using anything the
        // PKG retains after the round ends.
        let mut mgr = RoundKeyManager::new([5u8; 32]);
        mgr.begin_round(Round(1));
        let (pk1, _) = mgr.reveal(Round(1)).unwrap();
        let mut rng = ChaChaRng::from_seed_bytes([6u8; 32]);
        let ct = encrypt(&pk1, b"bob@gmail.com", b"old secret", &mut rng);

        mgr.end_round();
        mgr.begin_round(Round(2));
        mgr.reveal(Round(2)).unwrap();
        let new_key = mgr
            .extract_hashed(Round(2), &hash_identity(b"bob@gmail.com"))
            .unwrap();
        assert!(decrypt(&new_key, &ct).is_err());
        // And the round-1 key can no longer be extracted at all.
        assert!(mgr
            .extract_hashed(Round(1), &hash_identity(b"bob@gmail.com"))
            .is_err());
    }

    #[test]
    fn skip_round_matches_begin_round_ratchet() {
        // A recovered manager that skip-replays rounds 1..=2 must produce the
        // same round-3 keys as one that actually ran them.
        let mut live = RoundKeyManager::new([9u8; 32]);
        live.begin_round(Round(1));
        live.begin_round(Round(2));
        live.begin_round(Round(3));
        let (live_pk, _) = live.reveal(Round(3)).unwrap();

        let mut recovered = RoundKeyManager::new([9u8; 32]);
        recovered.skip_round();
        recovered.skip_round();
        recovered.begin_round(Round(3));
        let (recovered_pk, _) = recovered.reveal(Round(3)).unwrap();
        assert_eq!(live_pk.to_bytes(), recovered_pk.to_bytes());
    }

    #[test]
    fn restore_ratchet_resumes_the_chain() {
        let mut live = RoundKeyManager::new([10u8; 32]);
        live.begin_round(Round(1));
        let saved = live.ratchet_state();
        live.begin_round(Round(2));
        let (live_pk, _) = live.reveal(Round(2)).unwrap();

        let mut recovered = RoundKeyManager::new([0u8; 32]);
        recovered.restore_ratchet(saved);
        recovered.begin_round(Round(2));
        let (recovered_pk, _) = recovered.reveal(Round(2)).unwrap();
        assert_eq!(live_pk.to_bytes(), recovered_pk.to_bytes());
    }

    #[test]
    fn commitments_bind_the_public_key() {
        let mut a = RoundKeyManager::new([7u8; 32]);
        let mut b = RoundKeyManager::new([8u8; 32]);
        let ca = a.begin_round(Round(1));
        let _cb = b.begin_round(Round(1));
        let (pk_b, nonce_b) = b.reveal(Round(1)).unwrap();
        // A commitment from PKG a does not open to PKG b's key.
        assert!(!ca.verify(&pk_b.to_bytes(), &nonce_b));
    }
}
