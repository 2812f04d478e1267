//! BLS signatures and multi-signatures.
//!
//! Alpenhorn uses signatures in two places (§4.5 of the paper):
//!
//! * users hold a long-term signing key; the `SenderSig` in a friend request
//!   is a signature by that key over the request contents, verifiable by
//!   recipients who learned the key out-of-band (or via trust-on-first-use);
//! * every PKG signs `(identity, signing key, round)` when it hands a user
//!   their round identity key, and the friend request carries the
//!   *multi-signature* — all PKG signatures aggregated into one 48-byte
//!   value — so a recipient can check the binding as long as one PKG is
//!   honest.
//!
//! Signatures are in G1 (48 bytes compressed), public keys in G2 (96 bytes).
//! Aggregation of signatures over the *same message* is a plain point sum,
//! verified against the sum of public keys (the rogue-key caveat does not
//! apply here because PKG keys are fixed, known to all clients, and shipped
//! with the software, per §3.3).
//!
//! Every PKG signs the same attestation message for one extraction, and a
//! client checks all of them against it, so the message's hash to G1 can be
//! computed once: [`hash_message`] returns it as a [`HashedMessage`], which
//! [`SigningKey::sign_hashed`] and [`VerifyingKey::verify_hashed`] take in
//! place of the bytes.

use ark_bls12_381::{Fr, G1Projective, G2Projective};
use ark_ec::Group;

use crate::hash::hash_to_g1;
use crate::ops::pairing;
use crate::points::{g1_from_bytes, g1_to_bytes, g2_from_bytes, g2_to_bytes, G1_LEN, G2_LEN};
use crate::{random_scalar, IbeError};

/// Domain tag for message hashing.
const SIG_DOMAIN: &[u8] = b"alpenhorn-bls-signature";

/// A long-term signing private key.
#[derive(Clone)]
pub struct SigningKey {
    sk: Fr,
}

/// A signing public key (G2, 96 bytes compressed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyingKey {
    point: G2Projective,
}

/// A signature (G1, 48 bytes compressed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    point: G1Projective,
}

/// A message already hashed to G1 under the signature domain: what
/// [`SigningKey::sign`] and [`VerifyingKey::verify`] hash their message to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashedMessage {
    point: G1Projective,
}

/// Hashes `message` to G1 once, for any number of signatures over it
/// ([`SigningKey::sign_hashed`], [`VerifyingKey::verify_hashed`]).
pub fn hash_message(message: &[u8]) -> HashedMessage {
    HashedMessage {
        point: hash_to_g1(SIG_DOMAIN, message),
    }
}

impl SigningKey {
    /// Generates a fresh signing key.
    pub fn generate(rng: &mut (impl rand::RngCore + ?Sized)) -> Self {
        SigningKey {
            sk: random_scalar(rng),
        }
    }

    /// The corresponding public key.
    pub fn verifying_key(&self) -> VerifyingKey {
        VerifyingKey {
            point: G2Projective::generator() * self.sk,
        }
    }

    /// Signs a message.
    pub fn sign(&self, message: &[u8]) -> Signature {
        self.sign_hashed(&hash_message(message))
    }

    /// Signs a message hashed by [`hash_message`]; equal to
    /// [`SigningKey::sign`] over the same bytes.
    pub fn sign_hashed(&self, message: &HashedMessage) -> Signature {
        Signature {
            point: message.point * self.sk,
        }
    }

    /// Signs an already-hashed (possibly blinded) curve point. Used by the
    /// blind-signature rate-limiting extension ([`crate::blind`]); ordinary
    /// callers should use [`SigningKey::sign`].
    pub fn sign_point(&self, point: G1Projective) -> G1Projective {
        point * self.sk
    }

    /// Serializes the secret scalar (32 bytes) for durable client state.
    /// The output is the long-term secret itself; persist it accordingly.
    pub fn to_bytes(&self) -> [u8; crate::points::FR_LEN] {
        crate::points::fr_to_bytes(&self.sk)
    }

    /// Parses a secret scalar serialized by [`SigningKey::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IbeError> {
        Ok(SigningKey {
            sk: crate::points::fr_from_bytes(bytes)?,
        })
    }
}

impl core::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "SigningKey(secret)")
    }
}

impl VerifyingKey {
    /// Verifies a signature over `message`.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> bool {
        self.verify_hashed(&hash_message(message), signature)
    }

    /// Verifies a signature over a message hashed by [`hash_message`]; equal
    /// to [`VerifyingKey::verify`] over the same bytes.
    pub fn verify_hashed(&self, message: &HashedMessage, signature: &Signature) -> bool {
        self.verify_point(message.point, signature)
    }

    /// Verifies a signature over `message` hashed with a caller-chosen domain
    /// tag. Used by the blind-signature tokens ([`crate::blind`]), which must
    /// not be interchangeable with ordinary signatures.
    pub fn verify_with_domain(&self, domain: &[u8], message: &[u8], signature: &Signature) -> bool {
        self.verify_point(hash_to_g1(domain, message), signature)
    }

    /// e(sig, P2) == e(H(m), pk).
    fn verify_point(&self, hashed: G1Projective, signature: &Signature) -> bool {
        pairing(signature.point, G2Projective::generator()) == pairing(hashed, self.point)
    }

    /// Serializes to the 96-byte compressed form.
    pub fn to_bytes(&self) -> [u8; G2_LEN] {
        g2_to_bytes(&self.point)
    }

    /// Parses from the 96-byte compressed form.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IbeError> {
        Ok(VerifyingKey {
            point: g2_from_bytes(bytes)?,
        })
    }
}

impl Signature {
    /// Wraps a raw G1 point as a signature (used by the blind-signature
    /// unblinding step in [`crate::blind`]).
    pub fn from_point(point: G1Projective) -> Self {
        Signature { point }
    }

    /// Serializes to the 48-byte compressed form.
    pub fn to_bytes(&self) -> [u8; G1_LEN] {
        g1_to_bytes(&self.point)
    }

    /// Parses from the 48-byte compressed form.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IbeError> {
        Ok(Signature {
            point: g1_from_bytes(bytes)?,
        })
    }
}

/// Aggregates signatures over the *same message* into one multi-signature.
///
/// # Panics
///
/// Panics if `signatures` is empty.
pub fn aggregate_signatures(signatures: &[Signature]) -> Signature {
    assert!(!signatures.is_empty(), "cannot aggregate zero signatures");
    let mut sum = signatures[0].point;
    for s in &signatures[1..] {
        sum += s.point;
    }
    Signature { point: sum }
}

/// Aggregates verifying keys for checking a multi-signature.
///
/// # Panics
///
/// Panics if `keys` is empty.
pub fn aggregate_verifying_keys(keys: &[VerifyingKey]) -> VerifyingKey {
    assert!(!keys.is_empty(), "cannot aggregate zero verifying keys");
    let mut sum = keys[0].point;
    for k in &keys[1..] {
        sum += k.point;
    }
    VerifyingKey { point: sum }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpenhorn_crypto::ChaChaRng;

    fn rng(seed: u8) -> ChaChaRng {
        ChaChaRng::from_seed_bytes([seed; 32])
    }

    #[test]
    fn sign_verify_round_trip() {
        let mut rng = rng(30);
        let sk = SigningKey::generate(&mut rng);
        let vk = sk.verifying_key();
        let sig = sk.sign(b"friend request from alice");
        assert!(vk.verify(b"friend request from alice", &sig));
    }

    #[test]
    fn wrong_message_rejected() {
        let mut rng = rng(31);
        let sk = SigningKey::generate(&mut rng);
        let sig = sk.sign(b"message a");
        assert!(!sk.verifying_key().verify(b"message b", &sig));
    }

    #[test]
    fn wrong_key_rejected() {
        let mut rng = rng(32);
        let sk1 = SigningKey::generate(&mut rng);
        let sk2 = SigningKey::generate(&mut rng);
        let sig = sk1.sign(b"message");
        assert!(!sk2.verifying_key().verify(b"message", &sig));
    }

    #[test]
    fn serialization_round_trips() {
        let mut rng = rng(33);
        let sk = SigningKey::generate(&mut rng);
        let vk = sk.verifying_key();
        let sig = sk.sign(b"m");
        assert_eq!(VerifyingKey::from_bytes(&vk.to_bytes()).unwrap(), vk);
        assert_eq!(Signature::from_bytes(&sig.to_bytes()).unwrap(), sig);
        assert!(VerifyingKey::from_bytes(&[0u8; 10]).is_err());
        assert!(Signature::from_bytes(&[0u8; 10]).is_err());
    }

    #[test]
    fn multi_signature_verifies_under_aggregated_key() {
        let mut rng = rng(34);
        let message = b"(alice@example.com, pk, round 7)";
        let keys: Vec<SigningKey> = (0..5).map(|_| SigningKey::generate(&mut rng)).collect();
        let sigs: Vec<Signature> = keys.iter().map(|k| k.sign(message)).collect();
        let vks: Vec<VerifyingKey> = keys.iter().map(|k| k.verifying_key()).collect();

        let multi_sig = aggregate_signatures(&sigs);
        let multi_vk = aggregate_verifying_keys(&vks);
        assert!(multi_vk.verify(message, &multi_sig));
    }

    #[test]
    fn multi_signature_missing_one_signer_rejected() {
        let mut rng = rng(35);
        let message = b"attestation";
        let keys: Vec<SigningKey> = (0..3).map(|_| SigningKey::generate(&mut rng)).collect();
        let vks: Vec<VerifyingKey> = keys.iter().map(|k| k.verifying_key()).collect();
        let multi_vk = aggregate_verifying_keys(&vks);

        // Only two of the three PKGs signed: verification under the full
        // aggregated key must fail, so a dishonest majority cannot pretend the
        // honest PKG attested a bogus binding.
        let partial: Vec<Signature> = keys[..2].iter().map(|k| k.sign(message)).collect();
        assert!(!multi_vk.verify(message, &aggregate_signatures(&partial)));
    }

    #[test]
    fn hashed_message_signs_and_verifies_like_the_bytes() {
        let mut rng = rng(38);
        let sk = SigningKey::generate(&mut rng);
        let vk = sk.verifying_key();
        let hashed = hash_message(b"attestation");
        assert_eq!(sk.sign_hashed(&hashed), sk.sign(b"attestation"));
        assert!(vk.verify_hashed(&hashed, &sk.sign(b"attestation")));
        assert!(!vk.verify_hashed(&hash_message(b"other"), &sk.sign(b"attestation")));
    }

    #[test]
    fn aggregate_of_one_matches_plain() {
        let mut rng = rng(36);
        let sk = SigningKey::generate(&mut rng);
        let sig = sk.sign(b"m");
        assert_eq!(aggregate_signatures(&[sig]), sig);
        assert_eq!(
            aggregate_verifying_keys(&[sk.verifying_key()]),
            sk.verifying_key()
        );
    }

    #[test]
    #[should_panic(expected = "zero signatures")]
    fn empty_signature_aggregation_panics() {
        aggregate_signatures(&[]);
    }

    #[test]
    #[should_panic(expected = "zero verifying keys")]
    fn empty_key_aggregation_panics() {
        aggregate_verifying_keys(&[]);
    }

    #[test]
    fn signing_key_debug_hides_secret() {
        let mut rng = rng(37);
        let sk = SigningKey::generate(&mut rng);
        assert_eq!(format!("{sk:?}"), "SigningKey(secret)");
    }
}
