//! HMAC-SHA256 (RFC 2104), implemented from scratch on top of [`mod@crate::sha256`].
//!
//! The Alpenhorn keywheel (§5 of the paper) is defined in terms of a keyed
//! family of cryptographic hash functions "such as HMAC-SHA256"; this module
//! is that family. It is validated against the RFC 4231 test vectors.
//!
//! Keying an HMAC costs two SHA-256 compressions (the `key ^ ipad` and
//! `key ^ opad` blocks). [`HmacKey`] pays that cost once and captures the two
//! chaining values as [`Midstate`]s, so every subsequent MAC under the same
//! key costs only the message and finalization compressions — two instead of
//! four for short messages, which is what the keywheel ratchet, HKDF-Expand,
//! and the mixnet's per-mailbox noise streams all compute in their hot loops.

use crate::sha256::{Midstate, Sha256};

/// HMAC block size for SHA-256.
const BLOCK_LEN: usize = 64;

/// A reusable HMAC-SHA256 key: the ipad/opad midstates, precomputed.
///
/// # Examples
///
/// ```
/// use alpenhorn_crypto::hmac::{hmac, HmacKey};
///
/// let key = HmacKey::new(b"key");
/// assert_eq!(key.mac(b"message"), hmac(b"key", b"message"));
/// ```
#[derive(Clone, Copy)]
pub struct HmacKey {
    /// State after absorbing `key ^ ipad`.
    inner: Midstate,
    /// State after absorbing `key ^ opad`.
    outer: Midstate,
}

impl HmacKey {
    /// Precomputes the ipad/opad states for `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        let mut block_key = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let digest = crate::sha256(key);
            block_key[..digest.len()].copy_from_slice(&digest);
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0x36u8; BLOCK_LEN];
        let mut opad = [0x5cu8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] ^= block_key[i];
            opad[i] ^= block_key[i];
        }

        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacKey {
            inner: inner.midstate(),
            outer: outer.midstate(),
        }
    }

    /// Starts an incremental MAC under this key (no per-message keying cost).
    pub fn mac_stream(&self) -> HmacSha256 {
        HmacSha256 {
            inner: Sha256::from_midstate(self.inner),
            outer: self.outer,
        }
    }

    /// One-shot MAC of `data` under this key.
    pub fn mac(&self, data: &[u8]) -> [u8; 32] {
        let mut mac = self.mac_stream();
        mac.update(data);
        mac.finalize()
    }

    /// Verifies `tag` against the MAC of `data` in constant time.
    pub fn verify(&self, data: &[u8], tag: &[u8]) -> bool {
        crate::ct::ct_eq(&self.mac(data), tag)
    }
}

impl crate::zeroize::Zeroize for HmacKey {
    fn zeroize(&mut self) {
        self.inner.zeroize();
        self.outer.zeroize();
    }
}

/// Incremental HMAC-SHA256.
///
/// # Examples
///
/// ```
/// use alpenhorn_crypto::hmac::HmacSha256;
///
/// let mut mac = HmacSha256::new(b"key");
/// mac.update(b"message");
/// let tag = mac.finalize();
/// assert_eq!(tag.len(), 32);
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    /// Midstate keyed with `key ^ opad`, expanded at finalization.
    outer: Midstate,
}

impl HmacSha256 {
    /// Creates a new MAC instance keyed with `key` (any length).
    ///
    /// For repeated MACs under one key, build an [`HmacKey`] once and use
    /// [`HmacKey::mac_stream`] instead; it skips the two keying compressions.
    pub fn new(key: &[u8]) -> Self {
        HmacKey::new(key).mac_stream()
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes the MAC computation and returns the 32-byte tag.
    pub fn finalize(self) -> [u8; 32] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::from_midstate(self.outer);
        outer.update(&inner_digest);
        outer.finalize()
    }

    /// Verifies `tag` against the MAC of the absorbed data in constant time.
    pub fn verify(self, tag: &[u8]) -> bool {
        let expected = self.finalize();
        crate::ct::ct_eq(&expected, tag)
    }
}

/// One-shot HMAC-SHA256 of `data` under `key`.
pub fn hmac(key: &[u8], data: &[u8]) -> [u8; 32] {
    let mut mac = HmacSha256::new(key);
    mac.update(data);
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // Test vectors from RFC 4231.
    #[test]
    fn rfc4231_case_1() {
        let key = [0x0bu8; 20];
        let data = b"Hi There";
        assert_eq!(
            hex::encode(&hmac(&key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case_2() {
        let key = b"Jefe";
        let data = b"what do ya want for nothing?";
        assert_eq!(
            hex::encode(&hmac(key, data)),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case_3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex::encode(&hmac(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case_4() {
        let key: Vec<u8> = (1u8..=25).collect();
        let data = [0xcdu8; 50];
        assert_eq!(
            hex::encode(&hmac(&key, &data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        let key = [0xaau8; 131];
        let data = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            hex::encode(&hmac(&key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_and_data() {
        let key = [0xaau8; 131];
        let data: &[u8] = b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.";
        assert_eq!(
            hex::encode(&hmac(&key, data)),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let key = b"alpenhorn keywheel key";
        let data = b"round 25 dial token intent 3";
        let mut mac = HmacSha256::new(key);
        for chunk in data.chunks(3) {
            mac.update(chunk);
        }
        assert_eq!(mac.finalize(), hmac(key, data));
    }

    #[test]
    fn cached_key_matches_fresh_keying() {
        for key_len in [0usize, 1, 32, 63, 64, 65, 131] {
            let key: Vec<u8> = (0..key_len).map(|i| i as u8).collect();
            let cached = HmacKey::new(&key);
            for data_len in [0usize, 1, 31, 64, 200] {
                let data: Vec<u8> = (0..data_len).map(|i| (i * 7) as u8).collect();
                assert_eq!(
                    cached.mac(&data),
                    hmac(&key, &data),
                    "key {key_len} data {data_len}"
                );
            }
        }
    }

    #[test]
    fn cached_key_is_reusable() {
        let key = HmacKey::new(b"reused key");
        let a1 = key.mac(b"message a");
        let b1 = key.mac(b"message b");
        let a2 = key.mac(b"message a");
        assert_eq!(a1, a2);
        assert_ne!(a1, b1);
        assert!(key.verify(b"message a", &a1));
        assert!(!key.verify(b"message a", &b1));
    }

    #[test]
    fn verify_accepts_correct_and_rejects_wrong_tag() {
        let key = b"k";
        let data = b"d";
        let tag = hmac(key, data);
        let mut mac = HmacSha256::new(key);
        mac.update(data);
        assert!(mac.verify(&tag));

        let mut bad = tag;
        bad[0] ^= 1;
        let mut mac = HmacSha256::new(key);
        mac.update(data);
        assert!(!mac.verify(&bad));
    }
}
