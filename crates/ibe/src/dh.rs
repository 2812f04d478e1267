//! Diffie-Hellman key exchange over BLS12-381 G1.
//!
//! Used in two places:
//!
//! * the ephemeral `DialingKey` inside a friend request (§4.7 of the paper):
//!   both friends contribute an ephemeral key and derive the initial keywheel
//!   secret from the shared value;
//! * mixnet onion layers (Algorithm 1 step 3): the client generates a fresh
//!   keypair per hop and derives an AEAD key shared with that server.
//!
//! The two uses derive their keys differently. The keywheel's initial secret
//! is [`DhSecret::shared_secret`] (HKDF under `alpenhorn-dh-v1`); an onion
//! layer's key is [`DhSecret::derive_key`], one HMAC over the encoded point
//! keyed by the caller's per-hop label (`docs/ARCHITECTURE.md` § "Onion
//! layer keys").
//!
//! The paper's prototype used Curve25519 for these exchanges; any secure DH
//! group gives the same protocol semantics, and reusing the pairing curve's
//! G1 keeps this reproduction's dependency surface small (see
//! `vendor/README.md`).

use ark_bls12_381::{Fr, G1Projective};
use ark_ec::Group;
use ark_ff::Zero;

use alpenhorn_crypto::hkdf::Hkdf;
use alpenhorn_crypto::hmac::HmacKey;

use crate::points::{g1_from_bytes, g1_to_bytes, G1_LEN};
use crate::{random_scalar, IbeError};

/// Length of a serialized DH public key.
pub const PUBLIC_LEN: usize = G1_LEN;
/// Length of the derived shared secret.
pub const SHARED_LEN: usize = 32;

/// A Diffie-Hellman secret key.
#[derive(Clone)]
pub struct DhSecret {
    x: Fr,
}

/// A Diffie-Hellman public key (compressed G1, 48 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DhPublic {
    point: G1Projective,
}

impl DhSecret {
    /// Generates a fresh secret key.
    pub fn generate(rng: &mut (impl rand::RngCore + ?Sized)) -> Self {
        DhSecret {
            x: random_scalar(rng),
        }
    }

    /// The corresponding public key.
    pub fn public(&self) -> DhPublic {
        DhPublic {
            point: G1Projective::generator() * self.x,
        }
    }

    /// Computes the 32-byte shared secret with a peer's public key.
    ///
    /// The raw group element is run through HKDF with a protocol label so the
    /// output is a uniform symmetric key.
    pub fn shared_secret(&self, peer: &DhPublic) -> [u8; SHARED_LEN] {
        use std::sync::OnceLock;
        // The KDF salt is a fixed protocol label; precompute its HMAC states
        // once per process.
        static DH_SALT: OnceLock<HmacKey> = OnceLock::new();
        let salt = DH_SALT.get_or_init(|| HmacKey::new(b"alpenhorn-dh-v1"));
        Hkdf::extract_with_key(salt, &self.shared_point_bytes(peer)).expand_key(b"shared-secret")
    }

    /// Derives a 32-byte key from the DH point with one keyed extract:
    /// `HMAC-SHA256(salt, enc(x·P))`. This is HKDF-Extract with the caller's
    /// label as the salt, so the output is already a uniform key; the raw
    /// point never leaves this crate.
    ///
    /// With a precomputed `salt` this costs two SHA-256 compressions (the
    /// 48-byte point fits one inner block), against six for
    /// [`DhSecret::shared_secret`]'s extract-then-expand.
    pub fn derive_key(&self, peer: &DhPublic, salt: &HmacKey) -> [u8; SHARED_LEN] {
        salt.mac(&self.shared_point_bytes(peer))
    }

    fn shared_point_bytes(&self, peer: &DhPublic) -> [u8; PUBLIC_LEN] {
        g1_to_bytes(&(peer.point * self.x))
    }

    /// Erases the secret scalar (forward secrecy for onion and dialing keys).
    pub fn erase(&mut self) {
        self.x = Fr::zero();
    }

    /// Serializes the secret scalar (32 bytes) for durable client state
    /// (pending add-friend handshakes must survive a client restart). The
    /// output is the ephemeral secret itself; persist it accordingly.
    pub fn to_bytes(&self) -> [u8; crate::points::FR_LEN] {
        crate::points::fr_to_bytes(&self.x)
    }

    /// Parses a secret scalar serialized by [`DhSecret::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IbeError> {
        Ok(DhSecret {
            x: crate::points::fr_from_bytes(bytes)?,
        })
    }
}

impl core::fmt::Debug for DhSecret {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "DhSecret(secret)")
    }
}

impl DhPublic {
    /// Serializes to the 48-byte compressed form.
    pub fn to_bytes(&self) -> [u8; PUBLIC_LEN] {
        g1_to_bytes(&self.point)
    }

    /// Parses from the 48-byte compressed form.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, IbeError> {
        Ok(DhPublic {
            point: g1_from_bytes(bytes)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpenhorn_crypto::ChaChaRng;

    fn rng(seed: u8) -> ChaChaRng {
        ChaChaRng::from_seed_bytes([seed; 32])
    }

    #[test]
    fn both_sides_agree() {
        let mut rng = rng(40);
        let alice = DhSecret::generate(&mut rng);
        let bob = DhSecret::generate(&mut rng);
        assert_eq!(
            alice.shared_secret(&bob.public()),
            bob.shared_secret(&alice.public())
        );
    }

    #[test]
    fn different_peers_different_secrets() {
        let mut rng = rng(41);
        let alice = DhSecret::generate(&mut rng);
        let bob = DhSecret::generate(&mut rng);
        let carol = DhSecret::generate(&mut rng);
        assert_ne!(
            alice.shared_secret(&bob.public()),
            alice.shared_secret(&carol.public())
        );
    }

    #[test]
    fn derived_keys_agree_and_follow_the_salt() {
        let mut rng = rng(45);
        let alice = DhSecret::generate(&mut rng);
        let bob = DhSecret::generate(&mut rng);
        let salt = HmacKey::new(b"salt-a");
        let key = alice.derive_key(&bob.public(), &salt);
        assert_eq!(key, bob.derive_key(&alice.public(), &salt));
        assert_ne!(
            key,
            alice.derive_key(&bob.public(), &HmacKey::new(b"salt-b"))
        );
        assert_ne!(key, alice.shared_secret(&bob.public()));
    }

    #[test]
    fn public_key_round_trip() {
        let mut rng = rng(42);
        let sk = DhSecret::generate(&mut rng);
        let pk = sk.public();
        assert_eq!(DhPublic::from_bytes(&pk.to_bytes()).unwrap(), pk);
        assert!(DhPublic::from_bytes(&[0u8; 5]).is_err());
    }

    #[test]
    fn erased_secret_changes_shared_value() {
        let mut rng = rng(43);
        let mut alice = DhSecret::generate(&mut rng);
        let bob = DhSecret::generate(&mut rng);
        let before = alice.shared_secret(&bob.public());
        alice.erase();
        assert_ne!(alice.shared_secret(&bob.public()), before);
    }

    #[test]
    fn debug_hides_secret() {
        let mut rng = rng(44);
        assert_eq!(
            format!("{:?}", DhSecret::generate(&mut rng)),
            "DhSecret(secret)"
        );
    }
}
