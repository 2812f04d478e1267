//! HKDF-SHA256 (RFC 5869), implemented from scratch on top of [`crate::hmac`].
//!
//! Used to derive the keywheel's initial secret from a Diffie-Hellman point
//! and the symmetric key that protects the body of an IBE-encrypted friend
//! request. (Onion layer keys are a single keyed extract, one HMAC, with no
//! expand step.) Validated against the RFC 5869 test vectors.
//!
//! Two caching levers keep the hot paths cheap:
//!
//! * an [`Hkdf`] instance precomputes the PRK's HMAC ipad/opad states, so
//!   every `expand` block costs two compressions instead of four;
//! * protocols whose salt is a fixed label (the DH KDF, the IBE KEM) can
//!   precompute the salt's [`HmacKey`] once — typically in a
//!   `OnceLock` — and extract through [`Hkdf::extract_with_key`], halving the
//!   extract cost too.

use crate::hmac::{hmac, HmacKey};

/// An HKDF instance bound to a pseudorandom key (the output of `extract`).
///
/// Construction precomputes the PRK's HMAC states; `expand` calls reuse them
/// (the raw PRK bytes are not retained).
pub struct Hkdf {
    /// Cached ipad/opad midstates for `HMAC(prk, ·)`.
    prk_key: HmacKey,
}

impl Hkdf {
    /// HKDF-Extract: derives a pseudorandom key from `ikm` and an optional salt.
    pub fn extract(salt: &[u8], ikm: &[u8]) -> Self {
        Self::from_prk(hmac(salt, ikm))
    }

    /// HKDF-Extract with a precomputed salt key (for fixed protocol labels).
    ///
    /// Equivalent to `Hkdf::extract(salt, ikm)` where `salt_key ==
    /// HmacKey::new(salt)`, but skips the two salt-keying compressions.
    pub fn extract_with_key(salt_key: &HmacKey, ikm: &[u8]) -> Self {
        Self::from_prk(salt_key.mac(ikm))
    }

    /// Constructs an HKDF instance directly from a 32-byte pseudorandom key.
    pub fn from_prk(prk: [u8; 32]) -> Self {
        Hkdf {
            prk_key: HmacKey::new(&prk),
        }
    }

    /// HKDF-Expand: fills `okm` with output keying material bound to `info`.
    ///
    /// # Panics
    ///
    /// Panics if `okm.len() > 255 * 32`, which RFC 5869 forbids.
    pub fn expand(&self, info: &[u8], okm: &mut [u8]) {
        assert!(okm.len() <= 255 * 32, "HKDF output too long");
        let mut t = [0u8; 32];
        let mut have_t = false;
        let mut generated = 0usize;
        let mut counter = 1u8;
        while generated < okm.len() {
            let mut mac = self.prk_key.mac_stream();
            if have_t {
                mac.update(&t);
            }
            mac.update(info);
            mac.update(&[counter]);
            t = mac.finalize();
            have_t = true;
            let take = (okm.len() - generated).min(32);
            okm[generated..generated + take].copy_from_slice(&t[..take]);
            generated += take;
            counter = counter.wrapping_add(1);
        }
    }

    /// One-shot expand of a single 32-byte output block (the common case for
    /// symmetric keys): `HMAC(prk, info || 0x01)` using the cached PRK states.
    pub fn expand_key(&self, info: &[u8]) -> [u8; 32] {
        let mut mac = self.prk_key.mac_stream();
        mac.update(info);
        mac.update(&[1u8]);
        mac.finalize()
    }

    /// Convenience: extract-then-expand into a fixed-size array.
    pub fn derive<const N: usize>(salt: &[u8], ikm: &[u8], info: &[u8]) -> [u8; N] {
        let hk = Hkdf::extract(salt, ikm);
        let mut out = [0u8; N];
        hk.expand(info, &mut out);
        out
    }

    /// Convenience: extract-then-expand with a precomputed salt key.
    pub fn derive_with_key<const N: usize>(salt_key: &HmacKey, ikm: &[u8], info: &[u8]) -> [u8; N] {
        let hk = Hkdf::extract_with_key(salt_key, ikm);
        let mut out = [0u8; N];
        hk.expand(info, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 5869 test case 1.
    #[test]
    fn rfc5869_case_1() {
        let ikm = [0x0bu8; 22];
        let salt: Vec<u8> = (0x00u8..=0x0c).collect();
        let info: Vec<u8> = (0xf0u8..=0xf9).collect();
        // The PRK is HMAC(salt, ikm); Hkdf does not retain the raw bytes, so
        // check the extract step through the same primitive it uses.
        assert_eq!(
            hex::encode(&hmac(&salt, &ikm)),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let hk = Hkdf::extract(&salt, &ikm);
        let mut okm = [0u8; 42];
        hk.expand(&info, &mut okm);
        assert_eq!(
            hex::encode(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    // RFC 5869 test case 2 (longer inputs/outputs).
    #[test]
    fn rfc5869_case_2() {
        let ikm: Vec<u8> = (0x00u8..=0x4f).collect();
        let salt: Vec<u8> = (0x60u8..=0xaf).collect();
        let info: Vec<u8> = (0xb0u8..=0xff).collect();
        let hk = Hkdf::extract(&salt, &ikm);
        let mut okm = [0u8; 82];
        hk.expand(&info, &mut okm);
        assert_eq!(
            hex::encode(&okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71cc30c58179ec3e87c14c01d5c1f3434f1d87"
        );
    }

    // RFC 5869 test case 3 (zero-length salt and info).
    #[test]
    fn rfc5869_case_3() {
        let ikm = [0x0bu8; 22];
        let hk = Hkdf::extract(&[], &ikm);
        let mut okm = [0u8; 42];
        hk.expand(&[], &mut okm);
        assert_eq!(
            hex::encode(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn derive_helper_matches_extract_expand() {
        let out: [u8; 32] = Hkdf::derive(b"salt", b"ikm", b"info");
        let hk = Hkdf::extract(b"salt", b"ikm");
        let mut expected = [0u8; 32];
        hk.expand(b"info", &mut expected);
        assert_eq!(out, expected);
    }

    #[test]
    fn cached_salt_key_matches_plain_extract() {
        let salt_key = HmacKey::new(b"alpenhorn-onion-layer");
        let hk_cached = Hkdf::extract_with_key(&salt_key, b"shared secret bytes");
        let hk_plain = Hkdf::extract(b"alpenhorn-onion-layer", b"shared secret bytes");
        assert_eq!(
            hk_cached.expand_key(b"probe"),
            hk_plain.expand_key(b"probe")
        );

        let derived: [u8; 48] = Hkdf::derive_with_key(&salt_key, b"ikm", b"info");
        let expected: [u8; 48] = Hkdf::derive(b"alpenhorn-onion-layer", b"ikm", b"info");
        assert_eq!(derived, expected);
    }

    #[test]
    fn expand_key_matches_expand_first_block() {
        let hk = Hkdf::extract(b"s", b"ikm");
        let mut expected = [0u8; 32];
        hk.expand(b"label", &mut expected);
        assert_eq!(hk.expand_key(b"label"), expected);
    }

    #[test]
    fn different_info_yields_different_keys() {
        let a: [u8; 32] = Hkdf::derive(b"s", b"shared secret", b"onion layer 1");
        let b: [u8; 32] = Hkdf::derive(b"s", b"shared secret", b"onion layer 2");
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "HKDF output too long")]
    fn expand_too_long_panics() {
        let hk = Hkdf::extract(b"", b"ikm");
        let mut okm = vec![0u8; 255 * 32 + 1];
        hk.expand(b"", &mut okm);
    }
}
