//! Hash-to-curve and hash-to-scalar helpers.
//!
//! Boneh-Franklin IBE needs a hash function mapping identity strings to G2
//! points whose discrete logarithm is unknown (otherwise anyone could derive
//! identity keys from the master public key), and BLS signatures need the
//! same into G1. This module implements the classic try-and-increment
//! method: hash the input together with a counter to a candidate
//! x-coordinate, attempt to decompress a curve point, and clear the cofactor
//! to land in the prime-order subgroup.
//!
//! Try-and-increment is not constant-time in the input, which is acceptable
//! here: the hashed values (identities, public round numbers, signed
//! messages) are not secrets.

use ark_bls12_381::{Fq, Fq2, Fr, G1Affine, G1Projective, G2Affine, G2Projective};
use ark_ec::AffineRepr;
use ark_ff::PrimeField;

use alpenhorn_crypto::sha256::Sha256;

/// Builds a hasher with the static prefix (version tag, domain length,
/// domain) absorbed, so the per-counter/per-block hashes replay it for free.
fn domain_base(domain: &[u8]) -> Sha256 {
    let mut h = Sha256::new();
    h.update(b"alpenhorn-hash-to-curve-v1");
    h.update(&(domain.len() as u32).to_be_bytes());
    h.update(domain);
    h
}

/// Derives `N` pseudorandom bytes from `(base, counter, msg)`, where `base`
/// is a [`domain_base`] hasher. Each 32-byte block clones the prepared base
/// instead of re-hashing the domain prefix.
fn expand<const N: usize>(base: &Sha256, counter: u32, msg: &[u8]) -> [u8; N] {
    let mut out = [0u8; N];
    for (block, chunk) in out.chunks_mut(32).enumerate() {
        let mut h = base.clone();
        h.update(&counter.to_be_bytes());
        h.update(&(block as u32).to_be_bytes());
        h.update(msg);
        let digest = h.finalize();
        chunk.copy_from_slice(&digest[..chunk.len()]);
    }
    out
}

/// Hashes a message to a point in the G1 prime-order subgroup.
pub fn hash_to_g1(domain: &[u8], msg: &[u8]) -> G1Projective {
    crate::ops::count_hash_to_g1();
    let base = domain_base(domain);
    for counter in 0u32.. {
        let bytes: [u8; 49] = expand(&base, counter, msg);
        let x = Fq::from_be_bytes_mod_order(&bytes[..48]);
        let greatest = bytes[48] & 1 == 1;
        if let Some(p) = G1Affine::get_point_from_x_unchecked(x, greatest) {
            let cleared = p.clear_cofactor();
            if !cleared.is_zero() {
                return cleared.into();
            }
        }
    }
    unreachable!("try-and-increment terminates with overwhelming probability")
}

/// Hashes a message to a point in the G2 prime-order subgroup.
pub fn hash_to_g2(domain: &[u8], msg: &[u8]) -> G2Projective {
    crate::ops::count_hash_to_g2();
    let base = domain_base(domain);
    for counter in 0u32.. {
        let bytes: [u8; 97] = expand(&base, counter, msg);
        let c0 = Fq::from_be_bytes_mod_order(&bytes[..48]);
        let c1 = Fq::from_be_bytes_mod_order(&bytes[48..96]);
        let x = Fq2::new(c0, c1);
        let greatest = bytes[96] & 1 == 1;
        if let Some(p) = G2Affine::get_point_from_x_unchecked(x, greatest) {
            let cleared = p.clear_cofactor();
            if !cleared.is_zero() {
                return cleared.into();
            }
        }
    }
    unreachable!("try-and-increment terminates with overwhelming probability")
}

/// Hashes a message to a scalar in Fr.
pub fn hash_to_scalar(domain: &[u8], msg: &[u8]) -> Fr {
    let bytes: [u8; 64] = expand(&domain_base(domain), 0, msg);
    Fr::from_le_bytes_mod_order(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_ec::CurveGroup;

    #[test]
    fn g1_hash_deterministic_and_distinct() {
        let a = hash_to_g1(b"test", b"alice@example.com");
        let b = hash_to_g1(b"test", b"alice@example.com");
        let c = hash_to_g1(b"test", b"bob@example.com");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn g2_hash_deterministic_and_distinct() {
        let a = hash_to_g2(b"ibe", b"alice@example.com");
        let b = hash_to_g2(b"ibe", b"alice@example.com");
        let c = hash_to_g2(b"ibe", b"bob@example.com");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn domain_separation() {
        assert_ne!(hash_to_g1(b"d1", b"msg"), hash_to_g1(b"d2", b"msg"));
        assert_ne!(hash_to_g2(b"d1", b"msg"), hash_to_g2(b"d2", b"msg"));
        assert_ne!(hash_to_scalar(b"d1", b"msg"), hash_to_scalar(b"d2", b"msg"));
    }

    #[test]
    fn points_are_in_subgroup() {
        // Deserializing a compressed encoding checks subgroup membership, so a
        // round trip through the points module proves the hash output is valid.
        for msg in [&b"a"[..], b"b", b"carol@mit.edu", b""] {
            let p1 = hash_to_g1(b"subgroup", msg);
            let bytes = crate::points::g1_to_bytes(&p1);
            assert_eq!(crate::points::g1_from_bytes(&bytes).unwrap(), p1);

            let p2 = hash_to_g2(b"subgroup", msg);
            let bytes = crate::points::g2_to_bytes(&p2);
            assert_eq!(crate::points::g2_from_bytes(&bytes).unwrap(), p2);
        }
    }

    #[test]
    fn hash_points_not_identity() {
        assert!(!hash_to_g1(b"x", b"y").into_affine().is_zero());
        assert!(!hash_to_g2(b"x", b"y").into_affine().is_zero());
    }

    #[test]
    fn scalar_hash_deterministic() {
        assert_eq!(hash_to_scalar(b"s", b"m"), hash_to_scalar(b"s", b"m"));
        assert_ne!(hash_to_scalar(b"s", b"m"), hash_to_scalar(b"s", b"n"));
    }
}
