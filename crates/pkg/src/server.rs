//! A complete PKG server: accounts + round keys + attestations.
//!
//! Algorithm 1 step 1 of the paper: each round, an authenticated user obtains
//! from every PKG (a) their IBE identity private key for the round and (b) a
//! signature over `(identity, signing key, round)` made with the PKG's
//! long-term signing key. Clients aggregate the identity keys (Anytrust-IBE)
//! and the signatures (a BLS multi-signature carried in friend requests).
//!
//! An extraction is two halves. [`PreparedExtraction`] is the per-request
//! half: it verifies the request signature under the registered key and
//! hashes the identity to G2 and the attestation message to G1, none of
//! which depends on the PKG's secrets. [`PkgServer::extract_prepared`] is
//! the per-PKG half: the round key share and the attestation signature. A
//! deployment that runs several PKGs in one process prepares once for all
//! of them (`alpenhorn_coordinator::Cluster::extract_identity_keys`);
//! [`PkgServer::extract`] is both halves for one PKG.

use alpenhorn_crypto::ChaChaRng;
use alpenhorn_ibe::bf::{hash_identity, HashedIdentity, IdentityPrivateKey, MasterPublic};
use alpenhorn_ibe::commit::{Commitment, NONCE_LEN};
use alpenhorn_ibe::sig::{hash_message, HashedMessage, Signature, SigningKey, VerifyingKey};
use alpenhorn_wire::{FriendRequest, Identity, Round};

use crate::error::PkgError;
use crate::mail::MailDelivery;
use crate::registry::AccountRegistry;
use crate::round_keys::RoundKeyManager;

/// What a PKG returns from a successful key extraction.
#[derive(Debug, Clone)]
pub struct ExtractResponse {
    /// The user's IBE identity private key share for this round.
    pub identity_key: IdentityPrivateKey,
    /// The PKG's signature over `(identity, signing key, round)`.
    pub attestation: Signature,
}

/// An extraction request verified under one registered signing key, with
/// the hashes every PKG holding that key extracts and attests from.
#[derive(Debug, Clone)]
pub struct PreparedExtraction {
    /// The registered key the request signature verified under.
    key: VerifyingKey,
    /// `H2(identity)`, the point the round master secrets multiply.
    identity: HashedIdentity,
    /// `H1` of the attestation message over `(identity, key, round)`.
    attestation: HashedMessage,
}

impl PreparedExtraction {
    /// Verifies `auth_signature` over [`extraction_request_message`] under
    /// `key`, the signing key registered for `identity`, and only then
    /// hashes the identity and the attestation message. A refused request
    /// costs no hash; and since one signature verifies under one key, a
    /// request checked against several distinct keys is hashed at most once.
    pub fn verify(
        identity: &Identity,
        round: Round,
        key: &VerifyingKey,
        auth_signature: &Signature,
    ) -> Result<Self, PkgError> {
        if !key.verify(&extraction_request_message(identity, round), auth_signature) {
            return Err(PkgError::AuthenticationFailed);
        }
        let attestation = FriendRequest::pkg_attestation_message(identity, &key.to_bytes(), round);
        Ok(PreparedExtraction {
            key: *key,
            identity: hash_identity(identity.as_bytes()),
            attestation: hash_message(&attestation),
        })
    }

    /// The registered key the request verified under.
    pub fn key(&self) -> &VerifyingKey {
        &self.key
    }
}

/// One PKG server.
pub struct PkgServer {
    name: String,
    /// The PKG's long-term signing key (its public half ships with clients).
    signing_key: SigningKey,
    registry: AccountRegistry,
    round_keys: RoundKeyManager,
    rng: ChaChaRng,
}

impl PkgServer {
    /// Creates a PKG named `name`, deriving all key material from `seed`.
    pub fn new(name: &str, seed: [u8; 32]) -> Self {
        let mut rng = ChaChaRng::from_seed_bytes(seed);
        let signing_key = SigningKey::generate(&mut rng);
        let round_seed = {
            let mut s = [0u8; 32];
            use rand::RngCore;
            rng.fill_bytes(&mut s);
            s
        };
        PkgServer {
            name: name.to_string(),
            signing_key,
            registry: AccountRegistry::new(name),
            round_keys: RoundKeyManager::new(round_seed),
            rng,
        }
    }

    /// The PKG's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The PKG's long-term verification key (distributed with the client
    /// software, §3.3).
    pub fn verifying_key(&self) -> VerifyingKey {
        self.signing_key.verifying_key()
    }

    /// Access to the account registry (registration flows).
    pub fn registry(&self) -> &AccountRegistry {
        &self.registry
    }

    /// Mutable access to the account registry, for crash recovery
    /// (`restore_account` / `restore_lockout`).
    pub fn registry_mut(&mut self) -> &mut AccountRegistry {
        &mut self.registry
    }

    /// Access to the round-key manager, for durable ratchet state.
    pub fn round_keys(&self) -> &RoundKeyManager {
        &self.round_keys
    }

    /// Mutable access to the round-key manager, for crash recovery
    /// (`restore_ratchet` / `skip_round`).
    pub fn round_keys_mut(&mut self) -> &mut RoundKeyManager {
        &mut self.round_keys
    }

    /// Begins registration of `identity` under `signing_key` (sends the
    /// confirmation email).
    pub fn begin_registration(
        &mut self,
        identity: &Identity,
        signing_key: VerifyingKey,
        now: u64,
        mail: &dyn MailDelivery,
    ) -> Result<(), PkgError> {
        self.registry
            .begin_registration(identity, signing_key, now, mail, &mut self.rng)
    }

    /// Completes registration with the emailed token.
    pub fn complete_registration(
        &mut self,
        identity: &Identity,
        token: [u8; 32],
        now: u64,
    ) -> Result<(), PkgError> {
        self.registry.complete_registration(identity, token, now)
    }

    /// Deregisters `identity`; the request must be signed by the currently
    /// registered key (§9, recovery from client compromise).
    pub fn deregister(
        &mut self,
        identity: &Identity,
        signature: &Signature,
        now: u64,
    ) -> Result<(), PkgError> {
        let key = self.registered_key(identity)?;
        let message = deregistration_message(identity);
        if !key.verify(&message, signature) {
            return Err(PkgError::AuthenticationFailed);
        }
        self.registry.deregister(identity, now)
    }

    /// Starts an add-friend round: creates the round master key and returns
    /// the commitment to broadcast (Appendix A).
    pub fn begin_round(&mut self, round: Round) -> Commitment {
        self.round_keys.begin_round(round)
    }

    /// Reveals the round master public key and the commitment opening.
    pub fn reveal_round_key(
        &mut self,
        round: Round,
    ) -> Result<(MasterPublic, [u8; NONCE_LEN]), PkgError> {
        self.round_keys.reveal(round)
    }

    /// Ends the round, destroying the master secret (§4.4).
    pub fn end_round(&mut self) {
        self.round_keys.end_round();
    }

    /// Extracts `identity`'s round key share after verifying the request
    /// signature made with the account's registered long-term key:
    /// [`PreparedExtraction::verify`] under this PKG's registered key, then
    /// [`PkgServer::extract_prepared`].
    ///
    /// `auth_signature` must be a signature over
    /// [`extraction_request_message`] for this identity and round.
    pub fn extract(
        &self,
        identity: &Identity,
        round: Round,
        auth_signature: &Signature,
        now: u64,
    ) -> Result<ExtractResponse, PkgError> {
        let prepared = PreparedExtraction::verify(
            identity,
            round,
            self.registered_key(identity)?,
            auth_signature,
        )?;
        self.extract_prepared(identity, round, &prepared, now)
    }

    /// Extracts `identity`'s round key share from a request `prepared` under
    /// this PKG's registered key. The PKG re-reads its own registry and
    /// refuses with [`PkgError::AuthenticationFailed`] a preparation
    /// verified under any other key, so the authentication decision stays
    /// this PKG's own.
    ///
    /// Takes `&self` so one PKG can serve many extractions at once: the
    /// round secret and the signing key are only read, and the inactivity
    /// refresh is an atomic, forward-only [`AccountRegistry::touch`].
    pub fn extract_prepared(
        &self,
        identity: &Identity,
        round: Round,
        prepared: &PreparedExtraction,
        now: u64,
    ) -> Result<ExtractResponse, PkgError> {
        if *self.registered_key(identity)? != prepared.key {
            return Err(PkgError::AuthenticationFailed);
        }
        let identity_key = self.round_keys.extract_hashed(round, &prepared.identity)?;
        self.registry.touch(identity, now);
        Ok(ExtractResponse {
            identity_key,
            attestation: self.signing_key.sign_hashed(&prepared.attestation),
        })
    }

    /// The signing key registered for `identity` at this PKG.
    pub fn registered_key(&self, identity: &Identity) -> Result<&VerifyingKey, PkgError> {
        self.registry
            .signing_key(identity)
            .ok_or(PkgError::UnknownIdentity)
    }
}

/// The message a user signs to authenticate a key-extraction request.
pub fn extraction_request_message(identity: &Identity, round: Round) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(b"alpenhorn-extract-request-v1");
    out.extend_from_slice(&round.0.to_be_bytes());
    out.extend_from_slice(identity.as_bytes());
    out
}

/// The message a user signs to deregister their account.
pub fn deregistration_message(identity: &Identity) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    out.extend_from_slice(b"alpenhorn-deregister-v1");
    out.extend_from_slice(identity.as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mail::SimulatedMail;
    use alpenhorn_ibe::anytrust::{aggregate_identity_keys, aggregate_master_publics};
    use alpenhorn_ibe::bf::{decrypt, encrypt};
    use alpenhorn_ibe::sig::{aggregate_signatures, aggregate_verifying_keys};

    fn id(s: &str) -> Identity {
        Identity::new(s).unwrap()
    }

    /// Registers `who` with all PKGs and returns the user's signing key.
    fn register_everywhere(
        pkgs: &mut [PkgServer],
        mail: &SimulatedMail,
        who: &Identity,
        now: u64,
        rng: &mut ChaChaRng,
    ) -> SigningKey {
        let user_key = SigningKey::generate(rng);
        for pkg in pkgs.iter_mut() {
            pkg.begin_registration(who, user_key.verifying_key(), now, mail)
                .unwrap();
            let token = mail.latest_token(who, pkg.name()).unwrap();
            pkg.complete_registration(who, token, now).unwrap();
        }
        user_key
    }

    #[test]
    fn full_extraction_flow_with_three_pkgs() {
        let mut pkgs: Vec<PkgServer> = (0..3)
            .map(|i| PkgServer::new(&format!("pkg-{i}"), [i as u8 + 1; 32]))
            .collect();
        let mail = SimulatedMail::new();
        let mut rng = ChaChaRng::from_seed_bytes([42u8; 32]);
        let alice = id("alice@example.com");
        let alice_key = register_everywhere(&mut pkgs, &mail, &alice, 0, &mut rng);

        // Round 7: commit, reveal, extract from every PKG.
        let round = Round(7);
        let commitments: Vec<Commitment> = pkgs.iter_mut().map(|p| p.begin_round(round)).collect();
        let reveals: Vec<(MasterPublic, [u8; NONCE_LEN])> = pkgs
            .iter_mut()
            .map(|p| p.reveal_round_key(round).unwrap())
            .collect();
        for (c, (pk, nonce)) in commitments.iter().zip(reveals.iter()) {
            assert!(c.verify(&pk.to_bytes(), nonce));
        }

        let auth = alice_key.sign(&extraction_request_message(&alice, round));
        let responses: Vec<ExtractResponse> = pkgs
            .iter_mut()
            .map(|p| p.extract(&alice, round, &auth, 10).unwrap())
            .collect();

        // Anytrust: the aggregated identity key decrypts a message encrypted
        // under the aggregated master public key.
        let mpk = aggregate_master_publics(&reveals.iter().map(|(p, _)| *p).collect::<Vec<_>>());
        let idk =
            aggregate_identity_keys(&responses.iter().map(|r| r.identity_key).collect::<Vec<_>>());
        let ct = encrypt(&mpk, alice.as_bytes(), b"friend request", &mut rng);
        assert_eq!(decrypt(&idk, &ct).unwrap(), b"friend request");

        // The PKG attestations aggregate into a multi-signature that verifies
        // under the aggregated PKG verification keys.
        let multi_sig =
            aggregate_signatures(&responses.iter().map(|r| r.attestation).collect::<Vec<_>>());
        let multi_vk =
            aggregate_verifying_keys(&pkgs.iter().map(|p| p.verifying_key()).collect::<Vec<_>>());
        let msg = FriendRequest::pkg_attestation_message(
            &alice,
            &alice_key.verifying_key().to_bytes(),
            round,
        );
        assert!(multi_vk.verify(&msg, &multi_sig));
    }

    #[test]
    fn prepared_and_unprepared_extractions_are_equal_at_every_pkg() {
        let mut pkgs: Vec<PkgServer> = (0..3)
            .map(|i| PkgServer::new(&format!("pkg-{i}"), [i as u8 + 11; 32]))
            .collect();
        let mail = SimulatedMail::new();
        let mut rng = ChaChaRng::from_seed_bytes([43u8; 32]);
        let alice = id("alice@example.com");
        let alice_key = register_everywhere(&mut pkgs, &mail, &alice, 0, &mut rng);
        let round = Round(3);
        for pkg in pkgs.iter_mut() {
            pkg.begin_round(round);
            pkg.reveal_round_key(round).unwrap();
        }
        let auth = alice_key.sign(&extraction_request_message(&alice, round));
        // One preparation serves every PKG holding the same key.
        let registered = pkgs[0].registered_key(&alice).unwrap();
        let prepared = PreparedExtraction::verify(&alice, round, registered, &auth).unwrap();
        for pkg in &pkgs {
            let plain = pkg.extract(&alice, round, &auth, 5).unwrap();
            let from_prepared = pkg.extract_prepared(&alice, round, &prepared, 5).unwrap();
            assert_eq!(plain.identity_key, from_prepared.identity_key);
            assert_eq!(plain.attestation, from_prepared.attestation);
        }
    }

    #[test]
    fn a_preparation_under_another_pkgs_key_is_refused() {
        let mut pkgs = [
            PkgServer::new("pkg-0", [1u8; 32]),
            PkgServer::new("pkg-1", [2u8; 32]),
        ];
        let mail = SimulatedMail::new();
        let mut rng = ChaChaRng::from_seed_bytes([44u8; 32]);
        let alice = id("alice@example.com");
        // Each PKG holds a different key for alice (say one registration was
        // replaced at PKG 0 only).
        let key_0 = register_everywhere(&mut pkgs[..1], &mail, &alice, 0, &mut rng);
        let key_1 = register_everywhere(&mut pkgs[1..], &mail, &alice, 0, &mut rng);
        let round = Round(4);
        for pkg in pkgs.iter_mut() {
            pkg.begin_round(round);
            pkg.reveal_round_key(round).unwrap();
        }
        let auth_0 = key_0.sign(&extraction_request_message(&alice, round));
        let prepared_0 = PreparedExtraction::verify(
            &alice,
            round,
            pkgs[0].registered_key(&alice).unwrap(),
            &auth_0,
        )
        .unwrap();
        assert!(pkgs[0]
            .extract_prepared(&alice, round, &prepared_0, 9)
            .is_ok());
        // PKG 1 re-reads its own registry: the preparation is not for its key,
        // and its account is not touched.
        assert_eq!(
            pkgs[1]
                .extract_prepared(&alice, round, &prepared_0, 9)
                .err(),
            Some(PkgError::AuthenticationFailed)
        );
        assert_eq!(pkgs[1].registry().account_last_seen(&alice), Some(0));
        // PKG 1 extracts for a request signed with the key it holds.
        let auth_1 = key_1.sign(&extraction_request_message(&alice, round));
        let prepared_1 = PreparedExtraction::verify(
            &alice,
            round,
            pkgs[1].registered_key(&alice).unwrap(),
            &auth_1,
        )
        .unwrap();
        assert_eq!(
            pkgs[1]
                .extract_prepared(&alice, round, &prepared_1, 9)
                .unwrap()
                .identity_key,
            pkgs[1]
                .extract(&alice, round, &auth_1, 9)
                .unwrap()
                .identity_key
        );
    }

    #[test]
    fn unregistered_user_cannot_extract() {
        let mut pkg = PkgServer::new("pkg-0", [1u8; 32]);
        let mut rng = ChaChaRng::from_seed_bytes([2u8; 32]);
        let mallory_key = SigningKey::generate(&mut rng);
        let round = Round(1);
        pkg.begin_round(round);
        pkg.reveal_round_key(round).unwrap();
        let auth = mallory_key.sign(&extraction_request_message(&id("mallory@x.com"), round));
        assert_eq!(
            pkg.extract(&id("mallory@x.com"), round, &auth, 0).err(),
            Some(PkgError::UnknownIdentity)
        );
    }

    #[test]
    fn wrong_signature_cannot_extract() {
        // An adversary cannot obtain Alice's identity key (and therefore read
        // her friend requests) without her long-term signing key.
        let mut pkgs = vec![PkgServer::new("pkg-0", [1u8; 32])];
        let mail = SimulatedMail::new();
        let mut rng = ChaChaRng::from_seed_bytes([3u8; 32]);
        let alice = id("alice@example.com");
        register_everywhere(&mut pkgs, &mail, &alice, 0, &mut rng);

        let round = Round(1);
        pkgs[0].begin_round(round);
        pkgs[0].reveal_round_key(round).unwrap();

        let attacker_key = SigningKey::generate(&mut rng);
        let forged = attacker_key.sign(&extraction_request_message(&alice, round));
        assert_eq!(
            pkgs[0].extract(&alice, round, &forged, 0).err(),
            Some(PkgError::AuthenticationFailed)
        );
    }

    #[test]
    fn signature_for_other_round_rejected() {
        let mut pkgs = vec![PkgServer::new("pkg-0", [1u8; 32])];
        let mail = SimulatedMail::new();
        let mut rng = ChaChaRng::from_seed_bytes([4u8; 32]);
        let alice = id("alice@example.com");
        let key = register_everywhere(&mut pkgs, &mail, &alice, 0, &mut rng);

        pkgs[0].begin_round(Round(2));
        pkgs[0].reveal_round_key(Round(2)).unwrap();
        // A replayed signature from round 1 must not authorize round 2.
        let old_auth = key.sign(&extraction_request_message(&alice, Round(1)));
        assert_eq!(
            pkgs[0].extract(&alice, Round(2), &old_auth, 0).err(),
            Some(PkgError::AuthenticationFailed)
        );
    }

    #[test]
    fn deregistration_requires_valid_signature() {
        let mut pkgs = vec![PkgServer::new("pkg-0", [1u8; 32])];
        let mail = SimulatedMail::new();
        let mut rng = ChaChaRng::from_seed_bytes([5u8; 32]);
        let alice = id("alice@example.com");
        let alice_key = register_everywhere(&mut pkgs, &mail, &alice, 0, &mut rng);

        let attacker = SigningKey::generate(&mut rng);
        let bad = attacker.sign(&deregistration_message(&alice));
        assert_eq!(
            pkgs[0].deregister(&alice, &bad, 10).err(),
            Some(PkgError::AuthenticationFailed)
        );

        let good = alice_key.sign(&deregistration_message(&alice));
        pkgs[0].deregister(&alice, &good, 10).unwrap();
        // Extraction now fails: the account is gone.
        let round = Round(1);
        pkgs[0].begin_round(round);
        pkgs[0].reveal_round_key(round).unwrap();
        let auth = alice_key.sign(&extraction_request_message(&alice, round));
        assert_eq!(
            pkgs[0].extract(&alice, round, &auth, 20).err(),
            Some(PkgError::UnknownIdentity)
        );
    }

    #[test]
    fn attestation_binds_identity_key_and_round() {
        let mut pkgs = vec![PkgServer::new("pkg-0", [1u8; 32])];
        let mail = SimulatedMail::new();
        let mut rng = ChaChaRng::from_seed_bytes([6u8; 32]);
        let alice = id("alice@example.com");
        let alice_key = register_everywhere(&mut pkgs, &mail, &alice, 0, &mut rng);

        let round = Round(9);
        pkgs[0].begin_round(round);
        pkgs[0].reveal_round_key(round).unwrap();
        let auth = alice_key.sign(&extraction_request_message(&alice, round));
        let resp = pkgs[0].extract(&alice, round, &auth, 0).unwrap();

        let vk = pkgs[0].verifying_key();
        let correct = FriendRequest::pkg_attestation_message(
            &alice,
            &alice_key.verifying_key().to_bytes(),
            round,
        );
        assert!(vk.verify(&correct, &resp.attestation));

        // The attestation does not verify for a different identity, key, or round.
        let other_key = SigningKey::generate(&mut rng).verifying_key();
        let wrong_key =
            FriendRequest::pkg_attestation_message(&alice, &other_key.to_bytes(), round);
        assert!(!vk.verify(&wrong_key, &resp.attestation));
        let wrong_round = FriendRequest::pkg_attestation_message(
            &alice,
            &alice_key.verifying_key().to_bytes(),
            Round(10),
        );
        assert!(!vk.verify(&wrong_round, &resp.attestation));
        let wrong_id = FriendRequest::pkg_attestation_message(
            &id("eve@example.com"),
            &alice_key.verifying_key().to_bytes(),
            round,
        );
        assert!(!vk.verify(&wrong_id, &resp.attestation));
    }
}
