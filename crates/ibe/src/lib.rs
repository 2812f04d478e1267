//! Pairing-based cryptography for Alpenhorn.
//!
//! This crate implements the public-key machinery of the add-friend protocol
//! (§4 of the paper) on top of the BLS12-381 pairing (via arkworks):
//!
//! * [`bf`] — Boneh-Franklin identity-based encryption, used as a KEM with a
//!   ChaCha20-Poly1305 body so that a friend request can be encrypted to an
//!   email address with no directory lookup (§4.1). Ciphertexts are
//!   anonymous: they reveal nothing about the recipient identity (§4.3).
//! * [`anytrust`] — Anytrust-IBE (§4.2, Appendix A): master public keys from
//!   `n` PKGs are summed, identity keys are summed, and the scheme stays
//!   secure as long as one PKG is honest.
//! * [`sig`] — BLS signatures and multi-signatures, used for users' long-term
//!   signing keys and for the PKGs' attestations of `(identity, key, round)`
//!   (§4.5).
//! * [`dh`] — Diffie-Hellman over G1, used for the ephemeral `DialingKey` in
//!   friend requests (§4.7) and for mixnet onion layers.
//! * [`commit`] — hash commitments used by the PKGs' commit-then-reveal of
//!   round master keys (Appendix A).
//! * [`hash`] — hash-to-curve (try-and-increment) and hash-to-scalar helpers.
//! * [`blind`] — blind BLS signatures for the rate-limiting (anti-DoS)
//!   extension the paper sketches in §9.
//! * [`ops`] — process-wide counts of hashes to G1 and G2 and of pairings,
//!   the operations a real curve prices far above the stand-in.
//!
//! The paper's prototype used the BN-256 curve; this reproduction uses
//! BLS12-381, the replacement curve the authors anticipate in §8.6 after the
//! Kim-Barbulescu attacks. `vendor/README.md` explains the dependency choice
//! (and that the vendored curve is a functional mock).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anytrust;
pub mod bf;
pub mod blind;
pub mod commit;
pub mod dh;
pub mod hash;
pub mod ops;
pub mod points;
pub mod sig;

pub use anytrust::{aggregate_identity_keys, aggregate_master_publics};
pub use bf::{
    decrypt, encrypt, hash_identity, HashedIdentity, IdentityPrivateKey, MasterPublic, MasterSecret,
};
pub use commit::Commitment;
pub use dh::{DhPublic, DhSecret};
pub use sig::{
    aggregate_signatures, aggregate_verifying_keys, hash_message, HashedMessage, Signature,
    SigningKey, VerifyingKey,
};

/// Errors produced by the pairing-based primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IbeError {
    /// A serialized group element or scalar could not be parsed.
    InvalidPoint,
    /// A ciphertext was malformed (wrong length or structure).
    MalformedCiphertext,
    /// Decryption failed: the ciphertext was not encrypted to this identity
    /// key. During mailbox scanning this is the common case, not a fault.
    DecryptionFailed,
    /// A signature did not verify.
    InvalidSignature,
}

impl core::fmt::Display for IbeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IbeError::InvalidPoint => write!(f, "invalid group element encoding"),
            IbeError::MalformedCiphertext => write!(f, "malformed IBE ciphertext"),
            IbeError::DecryptionFailed => write!(f, "IBE decryption failed (not for this key)"),
            IbeError::InvalidSignature => write!(f, "signature verification failed"),
        }
    }
}

impl std::error::Error for IbeError {}

/// Samples a uniformly random scalar from an external RNG.
///
/// Sampling 64 bytes and reducing modulo the group order keeps the bias
/// negligible (below 2^-128).
pub(crate) fn random_scalar(rng: &mut (impl rand::RngCore + ?Sized)) -> ark_bls12_381::Fr {
    use ark_ff::PrimeField;
    let mut wide = [0u8; 64];
    rng.fill_bytes(&mut wide);
    ark_bls12_381::Fr::from_le_bytes_mod_order(&wide)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_scalars_differ() {
        let mut rng = alpenhorn_crypto::ChaChaRng::from_seed_bytes([1u8; 32]);
        let a = random_scalar(&mut rng);
        let b = random_scalar(&mut rng);
        assert_ne!(a, b);
    }

    #[test]
    fn error_display() {
        assert!(format!("{}", IbeError::InvalidPoint).contains("invalid"));
        assert!(format!("{}", IbeError::DecryptionFailed).contains("decryption"));
    }
}
