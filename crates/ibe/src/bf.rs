//! Boneh-Franklin identity-based encryption, used as a hybrid KEM.
//!
//! §4.1 of the paper: a PKG holds a master secret `s` and publishes the
//! master public key `s·P1`. A user's identity key is `s·H1(id)` in G2. To
//! encrypt to `id`, the sender picks a random `r`, sends `U = r·P1`, and
//! derives a symmetric key from the pairing value `e(mpk, H1(id))^r`; the
//! recipient derives the same key from `e(U, d_id)`. The symmetric key seals
//! the message body with ChaCha20-Poly1305.
//!
//! Two properties matter for Alpenhorn:
//!
//! * **Ciphertext anonymity** (§4.3): the ciphertext is a uniformly random G1
//!   point plus an AEAD body under a key unknown to observers, so it reveals
//!   nothing about the recipient. Boneh-Franklin has this property; many
//!   other IBE schemes do not.
//! * **Forward secrecy** (§4.4): master keys are rotated per round and erased;
//!   this module exposes [`MasterSecret::erase`] so the PKG crate can destroy
//!   the scalar at round end.
//!
//! Every PKG extracts from the same `H1(id)`, and the client checks its key
//! shares against it, so [`hash_identity`] computes it once as a
//! [`HashedIdentity`] for [`MasterSecret::extract_hashed`] and
//! [`MasterPublic::verify_identity_key`].

use ark_bls12_381::{Fr, G1Projective, G2Projective};
use ark_ec::Group;
use ark_ff::Zero;
use ark_serialize::CanonicalSerialize;

use alpenhorn_crypto::{aead, hkdf::Hkdf};

use crate::hash::hash_to_g2;
use crate::ops::pairing;
use crate::points::{g1_from_bytes, g1_to_bytes, G1_LEN};
use crate::{random_scalar, IbeError};

/// Domain tag for hashing identities into G2.
const IDENTITY_DOMAIN: &[u8] = b"alpenhorn-bf-ibe-identity";

/// A PKG's master secret for one add-friend round.
#[derive(Clone)]
pub struct MasterSecret {
    s: Fr,
}

/// A PKG's master public key for one add-friend round (a G1 point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MasterPublic {
    pub(crate) point: G1Projective,
}

/// A user's identity private key for one round (a G2 point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdentityPrivateKey {
    pub(crate) point: G2Projective,
}

/// An identity already hashed to G2: the `H1(id)` that extraction
/// multiplies by the master secret.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashedIdentity {
    point: G2Projective,
}

/// Hashes `identity` to G2 once, for any number of extractions and key
/// checks under it.
pub fn hash_identity(identity: &[u8]) -> HashedIdentity {
    HashedIdentity {
        point: hash_to_g2(IDENTITY_DOMAIN, identity),
    }
}

impl MasterSecret {
    /// Generates a fresh master secret.
    pub fn generate(rng: &mut (impl rand::RngCore + ?Sized)) -> Self {
        MasterSecret {
            s: random_scalar(rng),
        }
    }

    /// The corresponding master public key.
    pub fn public(&self) -> MasterPublic {
        MasterPublic {
            point: G1Projective::generator() * self.s,
        }
    }

    /// Extracts the identity private key for `identity` (the `Extract`
    /// operation of §4.1).
    pub fn extract(&self, identity: &[u8]) -> IdentityPrivateKey {
        self.extract_hashed(&hash_identity(identity))
    }

    /// [`MasterSecret::extract`] for an identity hashed by
    /// [`hash_identity`]; equal to it over the same bytes.
    pub fn extract_hashed(&self, identity: &HashedIdentity) -> IdentityPrivateKey {
        IdentityPrivateKey {
            point: identity.point * self.s,
        }
    }

    /// Destroys the master secret in place (forward secrecy, §4.4).
    ///
    /// After calling this the secret is the zero scalar and can no longer
    /// extract meaningful identity keys.
    pub fn erase(&mut self) {
        self.s = Fr::zero();
    }

    /// Whether the secret has been erased.
    pub fn is_erased(&self) -> bool {
        self.s.is_zero()
    }
}

impl core::fmt::Debug for MasterSecret {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print the scalar.
        write!(
            f,
            "MasterSecret({})",
            if self.is_erased() { "erased" } else { "active" }
        )
    }
}

impl MasterPublic {
    /// Serializes to the 48-byte compressed form.
    pub fn to_bytes(&self) -> [u8; G1_LEN] {
        g1_to_bytes(&self.point)
    }

    /// Parses from the 48-byte compressed form.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IbeError> {
        Ok(MasterPublic {
            point: g1_from_bytes(bytes)?,
        })
    }

    /// Whether `key` is `identity`'s key under this master public key:
    /// e(mpk, H1(id)) = e(P1, d). Both sides are linear, so the check holds
    /// for an anytrust aggregate exactly when it holds for the sum of the
    /// shares. Two pairings.
    pub fn verify_identity_key(&self, identity: &HashedIdentity, key: &IdentityPrivateKey) -> bool {
        pairing(self.point, identity.point) == pairing(G1Projective::generator(), key.point)
    }
}

impl IdentityPrivateKey {
    /// Serializes to the 96-byte compressed form.
    pub fn to_bytes(&self) -> [u8; crate::points::G2_LEN] {
        crate::points::g2_to_bytes(&self.point)
    }

    /// Parses from the 96-byte compressed form.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IbeError> {
        Ok(IdentityPrivateKey {
            point: crate::points::g2_from_bytes(bytes)?,
        })
    }
}

/// The largest serialized target-group element: BLS12-381's compressed
/// Fq12, 12 × 48 bytes.
const GT_MAX_LEN: usize = 576;

/// The HKDF info label; the ephemeral point follows it.
const KEY_INFO_LABEL: &[u8; 15] = b"ibe-session-key";

/// Derives the AEAD key from the pairing value and the ephemeral point. Both
/// HKDF inputs are built on the stack: trial decryption runs this once per
/// mailbox ciphertext, and nearly every one is for someone else.
fn derive_key(pairing_value: &impl CanonicalSerialize, ephemeral: &[u8; G1_LEN]) -> [u8; 32] {
    let mut gt = [0u8; GT_MAX_LEN];
    let gt = gt
        .get_mut(..pairing_value.compressed_size())
        .expect("GT element within GT_MAX_LEN");
    pairing_value
        .serialize_compressed(&mut *gt)
        .expect("GT serialization");
    use alpenhorn_crypto::hmac::HmacKey;
    use std::sync::OnceLock;
    // Fixed KEM salt label: precompute its HMAC states once per process.
    static KEM_SALT: OnceLock<HmacKey> = OnceLock::new();
    let salt = KEM_SALT.get_or_init(|| HmacKey::new(b"alpenhorn-bf-ibe-kem"));
    let hk = Hkdf::extract_with_key(salt, gt);
    let mut info = [0u8; KEY_INFO_LABEL.len() + G1_LEN];
    info[..KEY_INFO_LABEL.len()].copy_from_slice(KEY_INFO_LABEL);
    info[KEY_INFO_LABEL.len()..].copy_from_slice(ephemeral);
    hk.expand_key(&info)
}

/// Encrypts `plaintext` to `identity` under the (possibly aggregated) master
/// public key. The ciphertext layout is `U (48 bytes) || AEAD(plaintext)`.
pub fn encrypt(
    mpk: &MasterPublic,
    identity: &[u8],
    plaintext: &[u8],
    rng: &mut (impl rand::RngCore + ?Sized),
) -> Vec<u8> {
    let r = random_scalar(rng);
    let ephemeral = G1Projective::generator() * r;
    let ephemeral_bytes = g1_to_bytes(&ephemeral);

    // g_id = e(mpk, H1(id))^r computed as e(r·mpk, H1(id)).
    let q_id = hash_to_g2(IDENTITY_DOMAIN, identity);
    let shared = pairing(mpk.point * r, q_id);
    let key = derive_key(&shared, &ephemeral_bytes);

    // Hybrid seal, in place: the ciphertext buffer is allocated once at its
    // final size and the body is encrypted where it lies — the plaintext is
    // never cloned into an intermediate vector.
    let mut out = Vec::with_capacity(G1_LEN + plaintext.len() + aead::TAG_LEN);
    out.extend_from_slice(&ephemeral_bytes);
    out.extend_from_slice(plaintext);
    aead::seal_in_place(
        &key,
        &[0u8; aead::NONCE_LEN],
        &ephemeral_bytes,
        &mut out,
        G1_LEN,
    );
    out
}

/// Attempts to decrypt a ciphertext with the (possibly aggregated) identity
/// private key. Returns [`IbeError::DecryptionFailed`] if the ciphertext was
/// not encrypted to this key — during mailbox scanning this is the normal
/// outcome for requests addressed to other users and for noise.
pub fn decrypt(idk: &IdentityPrivateKey, ciphertext: &[u8]) -> Result<Vec<u8>, IbeError> {
    if ciphertext.len() < G1_LEN + aead::TAG_LEN {
        return Err(IbeError::MalformedCiphertext);
    }
    let (ephemeral_bytes, sealed) = ciphertext.split_at(G1_LEN);
    let ephemeral = g1_from_bytes(ephemeral_bytes)?;
    let ephemeral_arr: [u8; G1_LEN] = ephemeral_bytes.try_into().expect("split at G1_LEN");

    // e(U, d_id) = e(r·P1, s·H1(id)) equals the encryptor's pairing value.
    let shared = pairing(ephemeral, idk.point);
    let key = derive_key(&shared, &ephemeral_arr);

    // The tag is checked on the borrowed ciphertext: a ciphertext for
    // someone else (the common case while scanning) is rejected without a
    // copy, and only a match allocates its plaintext.
    aead::open(&key, &[0u8; aead::NONCE_LEN], &ephemeral_arr, sealed)
        .map_err(|_| IbeError::DecryptionFailed)
}

/// The ciphertext expansion added by [`encrypt`]: the ephemeral G1 point and
/// the AEAD tag. Used by the wire-size constants and the bandwidth model.
pub const CIPHERTEXT_OVERHEAD: usize = G1_LEN + aead::TAG_LEN;

#[cfg(test)]
mod tests {
    use super::*;
    use alpenhorn_crypto::ChaChaRng;

    fn rng(seed: u8) -> ChaChaRng {
        ChaChaRng::from_seed_bytes([seed; 32])
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let mut rng = rng(1);
        let msk = MasterSecret::generate(&mut rng);
        let mpk = msk.public();
        let idk = msk.extract(b"bob@gmail.com");
        let ct = encrypt(&mpk, b"bob@gmail.com", b"hello bob", &mut rng);
        assert_eq!(decrypt(&idk, &ct).unwrap(), b"hello bob");
    }

    #[test]
    fn wrong_identity_key_fails() {
        let mut rng = rng(2);
        let msk = MasterSecret::generate(&mut rng);
        let mpk = msk.public();
        let ct = encrypt(&mpk, b"bob@gmail.com", b"hello bob", &mut rng);
        let wrong = msk.extract(b"eve@gmail.com");
        assert_eq!(decrypt(&wrong, &ct), Err(IbeError::DecryptionFailed));
    }

    #[test]
    fn hashed_identity_extracts_and_checks_like_the_bytes() {
        let mut rng = rng(12);
        let msk = MasterSecret::generate(&mut rng);
        let other = MasterSecret::generate(&mut rng);
        let bob = hash_identity(b"bob@gmail.com");
        let key = msk.extract_hashed(&bob);
        assert_eq!(key, msk.extract(b"bob@gmail.com"));
        assert!(msk.public().verify_identity_key(&bob, &key));
        assert!(!msk
            .public()
            .verify_identity_key(&hash_identity(b"eve@gmail.com"), &key));
        assert!(!other.public().verify_identity_key(&bob, &key));
        // The check is linear: an anytrust aggregate passes against the
        // aggregated master public key.
        let mpk = crate::aggregate_master_publics(&[msk.public(), other.public()]);
        let sum = crate::aggregate_identity_keys(&[key, other.extract_hashed(&bob)]);
        assert!(mpk.verify_identity_key(&bob, &sum));
        assert!(!mpk.verify_identity_key(&bob, &key));
    }

    #[test]
    fn wrong_master_secret_fails() {
        let mut rng = rng(3);
        let msk1 = MasterSecret::generate(&mut rng);
        let msk2 = MasterSecret::generate(&mut rng);
        let ct = encrypt(&msk1.public(), b"bob@gmail.com", b"msg", &mut rng);
        let idk2 = msk2.extract(b"bob@gmail.com");
        assert_eq!(decrypt(&idk2, &ct), Err(IbeError::DecryptionFailed));
    }

    #[test]
    fn ciphertext_overhead_is_constant() {
        let mut rng = rng(4);
        let msk = MasterSecret::generate(&mut rng);
        let mpk = msk.public();
        for len in [0usize, 1, 100, 1000] {
            let ct = encrypt(&mpk, b"x@y.z", &vec![0u8; len], &mut rng);
            assert_eq!(ct.len(), len + CIPHERTEXT_OVERHEAD);
        }
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let mut rng = rng(5);
        let msk = MasterSecret::generate(&mut rng);
        let mpk = msk.public();
        let a = encrypt(&mpk, b"bob@gmail.com", b"same message", &mut rng);
        let b = encrypt(&mpk, b"bob@gmail.com", b"same message", &mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn malformed_ciphertexts_rejected() {
        let mut rng = rng(6);
        let msk = MasterSecret::generate(&mut rng);
        let idk = msk.extract(b"bob@gmail.com");
        assert_eq!(decrypt(&idk, &[]), Err(IbeError::MalformedCiphertext));
        assert_eq!(
            decrypt(&idk, &[0u8; G1_LEN]),
            Err(IbeError::MalformedCiphertext)
        );
        // Corrupted ephemeral point: decryption must fail one way or another
        // (as an invalid encoding or as a key mismatch).
        let mut ct = encrypt(&msk.public(), b"bob@gmail.com", b"m", &mut rng);
        ct[0] ^= 0x01;
        assert!(decrypt(&idk, &ct).is_err());
    }

    #[test]
    fn tampered_body_rejected() {
        let mut rng = rng(7);
        let msk = MasterSecret::generate(&mut rng);
        let idk = msk.extract(b"bob@gmail.com");
        let mut ct = encrypt(&msk.public(), b"bob@gmail.com", b"payload", &mut rng);
        let last = ct.len() - 1;
        ct[last] ^= 1;
        assert_eq!(decrypt(&idk, &ct), Err(IbeError::DecryptionFailed));
    }

    #[test]
    fn master_public_serialization_round_trip() {
        let mut rng = rng(8);
        let msk = MasterSecret::generate(&mut rng);
        let mpk = msk.public();
        assert_eq!(MasterPublic::from_bytes(&mpk.to_bytes()).unwrap(), mpk);
    }

    #[test]
    fn identity_key_serialization_round_trip() {
        let mut rng = rng(9);
        let msk = MasterSecret::generate(&mut rng);
        let idk = msk.extract(b"carol@example.org");
        assert_eq!(
            IdentityPrivateKey::from_bytes(&idk.to_bytes()).unwrap(),
            idk
        );
    }

    #[test]
    fn erased_master_secret_cannot_extract() {
        let mut rng = rng(10);
        let mut msk = MasterSecret::generate(&mut rng);
        let mpk = msk.public();
        let good_key = msk.extract(b"bob@gmail.com");
        let ct = encrypt(&mpk, b"bob@gmail.com", b"secret", &mut rng);

        msk.erase();
        assert!(msk.is_erased());
        assert!(format!("{msk:?}").contains("erased"));
        let post_erase_key = msk.extract(b"bob@gmail.com");
        assert_ne!(post_erase_key, good_key);
        assert!(decrypt(&post_erase_key, &ct).is_err());
        // The legitimately extracted key still works (clients hold it until
        // they finish scanning the round's mailbox).
        assert_eq!(decrypt(&good_key, &ct).unwrap(), b"secret");
    }

    #[test]
    fn ciphertext_anonymity_structural() {
        // The ciphertext must not depend on the recipient identity in any way
        // that is visible without a decryption key: same length for different
        // identities, and the ephemeral prefix parses as a valid G1 point for
        // every recipient (i.e. there is no recipient-dependent structure).
        let mut rng = rng(11);
        let msk = MasterSecret::generate(&mut rng);
        let mpk = msk.public();
        let ct_a = encrypt(&mpk, b"alice@example.com", b"0123456789", &mut rng);
        let ct_b = encrypt(
            &mpk,
            b"bob-with-longer-address@example.com",
            b"0123456789",
            &mut rng,
        );
        assert_eq!(ct_a.len(), ct_b.len());
        assert!(g1_from_bytes(&ct_a[..G1_LEN]).is_ok());
        assert!(g1_from_bytes(&ct_b[..G1_LEN]).is_ok());
    }
}
