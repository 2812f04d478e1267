//! Onion encryption for the mixnet (Algorithm 1 step 3 of the paper).
//!
//! The client wraps its innermost request in one layer per server, from the
//! last server to the first. Each layer is an ephemeral Diffie-Hellman public
//! key plus a ChaCha20-Poly1305 ciphertext (all-zero nonce, the ephemeral key
//! as AAD). Servers peel layers in order; after the last server the plaintext
//! request remains.
//!
//! A layer's AEAD key is one HMAC-SHA256 over the encoded DH point, keyed by
//! a per-hop label: `HMAC("alpenhorn-onion-layer-v2/" ‖ u64_be(hop),
//! enc(x·P))` ([`DhSecret::derive_key`]). Every layer has a fresh ephemeral
//! key, so every layer key is used once, which is what makes the fixed nonce
//! safe. Why one HMAC is enough is argued in `docs/ARCHITECTURE.md`
//! § "Onion layer keys".

use std::sync::OnceLock;

use alpenhorn_crypto::aead;
use alpenhorn_crypto::hmac::HmacKey;
use alpenhorn_ibe::dh::{DhPublic, DhSecret};
use alpenhorn_wire::{DH_PK_LEN, ONION_LAYER_OVERHEAD};

/// Errors from peeling an onion layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnionError {
    /// The envelope was malformed (too short, bad point encoding).
    Malformed,
    /// AEAD authentication failed (wrong server key or tampering).
    AuthenticationFailed,
}

impl core::fmt::Display for OnionError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OnionError::Malformed => write!(f, "malformed onion layer"),
            OnionError::AuthenticationFailed => write!(f, "onion layer failed to authenticate"),
        }
    }
}

impl std::error::Error for OnionError {}

/// The label every layer-key salt starts with; the hop index follows it as a
/// big-endian `u64`.
const LAYER_KEY_LABEL: &[u8] = b"alpenhorn-onion-layer-v2/";

/// Hops whose salt key is built once per process; later hops (longer chains
/// than any deployment runs) build theirs on the fly.
const CACHED_HOPS: usize = 16;

/// The HMAC key of hop `hop`'s layer-key salt,
/// `"alpenhorn-onion-layer-v2/" ‖ u64_be(hop)`. Public so the benches time
/// the derivation the onions use.
pub fn layer_salt(hop: usize) -> HmacKey {
    fn build(hop: usize) -> HmacKey {
        let mut label = [0u8; LAYER_KEY_LABEL.len() + 8];
        label[..LAYER_KEY_LABEL.len()].copy_from_slice(LAYER_KEY_LABEL);
        label[LAYER_KEY_LABEL.len()..].copy_from_slice(&(hop as u64).to_be_bytes());
        HmacKey::new(&label)
    }
    static TABLE: OnceLock<[HmacKey; CACHED_HOPS]> = OnceLock::new();
    match TABLE.get_or_init(|| std::array::from_fn(build)).get(hop) {
        Some(salt) => *salt,
        None => build(hop),
    }
}

/// Derives the AEAD key for one onion hop from the DH exchange between
/// `secret` and `peer`.
///
/// This is the single source of truth for per-hop key derivation: the client
/// wrap path, the server peel path, and the servers' mid-chain noise wrapping
/// all go through it, so the label and hop binding cannot drift apart.
fn layer_key(secret: &DhSecret, peer: &DhPublic, hop: usize) -> [u8; 32] {
    secret.derive_key(peer, &layer_salt(hop))
}

/// Client side: wraps `payload` in one onion layer per server public key.
///
/// `server_publics` is ordered first server to last; encryption is applied in
/// reverse so that the first server peels the outermost layer. The RNG
/// provides the per-hop ephemeral keys.
pub fn wrap_onion(
    payload: &[u8],
    server_publics: &[DhPublic],
    rng: &mut (impl rand::RngCore + ?Sized),
) -> Vec<u8> {
    let mut out = Vec::new();
    wrap_onion_into(payload, server_publics, 0, rng, &mut out);
    out
}

/// Wraps `payload` for `server_publics`, whose absolute hop indices start at
/// `first_hop`, writing the finished onion into `out` (which is cleared
/// first, so callers can reuse one buffer across messages).
///
/// Clients use `first_hop = 0`; a server at chain position `i` wrapping noise
/// for the remaining servers uses `first_hop = i + 1` so the hop indices in
/// the layer keys match what the downstream servers will peel with.
///
/// The onion is built in place with exactly one buffer of the final size:
/// the payload is placed at its final offset and each layer seals the
/// current window in place, writing its ephemeral key just before the window
/// and its tag just after — no per-layer re-encode, no O(layers²) copying.
pub fn wrap_onion_into(
    payload: &[u8],
    server_publics: &[DhPublic],
    first_hop: usize,
    rng: &mut (impl rand::RngCore + ?Sized),
    out: &mut Vec<u8>,
) {
    let hops = server_publics.len();
    let final_len = payload.len() + hops * ONION_LAYER_OVERHEAD;
    out.clear();
    out.resize(final_len, 0);

    // The payload's final position: one ephemeral key per layer precedes it,
    // one tag per layer follows it.
    let mut start = hops * DH_PK_LEN;
    let mut end = start + payload.len();
    out[start..end].copy_from_slice(payload);

    for (offset, server_pk) in server_publics.iter().enumerate().rev() {
        let hop = first_hop + offset;
        let ephemeral = DhSecret::generate(rng);
        let ephemeral_pk = ephemeral.public().to_bytes();
        let key = layer_key(&ephemeral, server_pk, hop);

        start -= DH_PK_LEN;
        out[start..start + DH_PK_LEN].copy_from_slice(&ephemeral_pk);
        let tag = aead::seal_detached(
            &key,
            &[0u8; aead::NONCE_LEN],
            &ephemeral_pk,
            &mut out[start + DH_PK_LEN..end],
        );
        out[end..end + aead::TAG_LEN].copy_from_slice(&tag);
        end += aead::TAG_LEN;
    }
    debug_assert_eq!(start, 0);
    debug_assert_eq!(end, final_len);
}

/// Server side: peels one onion layer with the server's round secret.
///
/// `hop` is the server's position in the chain (0-based), which must match
/// the position used by the client when wrapping.
pub fn peel_layer(
    envelope_bytes: &[u8],
    server_secret: &DhSecret,
    hop: usize,
) -> Result<Vec<u8>, OnionError> {
    let mut buf = envelope_bytes.to_vec();
    peel_layer_in_place(&mut buf, server_secret, hop)?;
    Ok(buf)
}

/// Server side, zero-allocation: peels one onion layer in place.
///
/// On success `buf` holds the inner payload (the ephemeral-key prefix and the
/// tag are stripped); on failure `buf` still holds the sealed layer. This is
/// the mixnet round hot path: no heap allocation is performed per message.
pub fn peel_layer_in_place(
    buf: &mut Vec<u8>,
    server_secret: &DhSecret,
    hop: usize,
) -> Result<(), OnionError> {
    if buf.len() < DH_PK_LEN + aead::TAG_LEN {
        return Err(OnionError::Malformed);
    }
    let inner_len = buf.len() - DH_PK_LEN - aead::TAG_LEN;
    let (aad, rest) = buf.split_at_mut(DH_PK_LEN);
    let client_pk = DhPublic::from_bytes(aad).map_err(|_| OnionError::Malformed)?;
    let key = layer_key(server_secret, &client_pk, hop);

    let (ciphertext, tag) = rest.split_at_mut(inner_len);
    aead::open_detached(&key, &[0u8; aead::NONCE_LEN], aad, ciphertext, tag)
        .map_err(|_| OnionError::AuthenticationFailed)?;

    // Strip the layer: shift the plaintext to the front, drop key and tag.
    buf.copy_within(DH_PK_LEN..DH_PK_LEN + inner_len, 0);
    buf.truncate(inner_len);
    Ok(())
}

/// Size of an onion with `hops` layers around a payload of `payload_len`
/// bytes. Re-exported here so callers do not need to know the layer layout.
pub fn onion_size(payload_len: usize, hops: usize) -> usize {
    payload_len + hops * ONION_LAYER_OVERHEAD
}

#[cfg(test)]
mod tests {
    use super::*;
    use alpenhorn_crypto::{hex, hmac, ChaChaRng};

    fn rng(seed: u8) -> ChaChaRng {
        ChaChaRng::from_seed_bytes([seed; 32])
    }

    fn chain(n: usize, rng: &mut ChaChaRng) -> (Vec<DhSecret>, Vec<DhPublic>) {
        let secrets: Vec<DhSecret> = (0..n).map(|_| DhSecret::generate(rng)).collect();
        let publics = secrets.iter().map(|s| s.public()).collect();
        (secrets, publics)
    }

    #[test]
    fn wrap_and_peel_three_servers() {
        let mut rng = rng(1);
        let (secrets, publics) = chain(3, &mut rng);
        let payload = b"innermost add-friend request".to_vec();
        let mut onion = wrap_onion(&payload, &publics, &mut rng);
        for (hop, secret) in secrets.iter().enumerate() {
            onion = peel_layer(&onion, secret, hop).unwrap();
        }
        assert_eq!(onion, payload);
    }

    #[test]
    fn wrong_order_fails() {
        let mut rng = rng(2);
        let (secrets, publics) = chain(3, &mut rng);
        let onion = wrap_onion(b"payload", &publics, &mut rng);
        // Second server cannot peel the outermost layer.
        assert!(peel_layer(&onion, &secrets[1], 1).is_err());
    }

    #[test]
    fn wrong_hop_index_fails() {
        let mut rng = rng(3);
        let (secrets, publics) = chain(2, &mut rng);
        let onion = wrap_onion(b"payload", &publics, &mut rng);
        // Correct key but wrong hop index: the derived layer key differs.
        assert_eq!(
            peel_layer(&onion, &secrets[0], 1),
            Err(OnionError::AuthenticationFailed)
        );
    }

    #[test]
    fn tampering_detected() {
        let mut rng = rng(4);
        let (secrets, publics) = chain(1, &mut rng);
        let mut onion = wrap_onion(b"payload", &publics, &mut rng);
        let last = onion.len() - 1;
        onion[last] ^= 1;
        assert_eq!(
            peel_layer(&onion, &secrets[0], 0),
            Err(OnionError::AuthenticationFailed)
        );
    }

    #[test]
    fn malformed_envelope_rejected() {
        let mut rng = rng(5);
        let (secrets, _) = chain(1, &mut rng);
        assert_eq!(
            peel_layer(&[0u8; 10], &secrets[0], 0),
            Err(OnionError::Malformed)
        );
    }

    #[test]
    fn onion_size_matches_actual() {
        let mut rng = rng(6);
        for hops in [1usize, 3, 5, 10] {
            let (_, publics) = chain(hops, &mut rng);
            let payload = vec![7u8; 380];
            let onion = wrap_onion(&payload, &publics, &mut rng);
            assert_eq!(onion.len(), onion_size(payload.len(), hops));
        }
    }

    #[test]
    fn zero_hops_is_identity() {
        let mut rng = rng(7);
        assert_eq!(wrap_onion(b"raw", &[], &mut rng), b"raw");
    }

    #[test]
    fn in_place_peel_matches_allocating_peel() {
        let mut rng = rng(9);
        let (secrets, publics) = chain(3, &mut rng);
        let payload = b"fixed-size request payload".to_vec();
        let onion = wrap_onion(&payload, &publics, &mut rng);

        let mut in_place = onion.clone();
        let mut reference = onion;
        for (hop, secret) in secrets.iter().enumerate() {
            peel_layer_in_place(&mut in_place, secret, hop).unwrap();
            reference = peel_layer(&reference, secret, hop).unwrap();
            assert_eq!(in_place, reference, "hop {hop}");
        }
        assert_eq!(in_place, payload);
    }

    #[test]
    fn failed_in_place_peel_leaves_buffer_intact() {
        let mut rng = rng(10);
        let (secrets, publics) = chain(2, &mut rng);
        let onion = wrap_onion(b"payload", &publics, &mut rng);
        let mut buf = onion.clone();
        // Wrong hop: authentication fails and the buffer is untouched, so the
        // caller can still count/inspect the malformed message.
        assert_eq!(
            peel_layer_in_place(&mut buf, &secrets[0], 1),
            Err(OnionError::AuthenticationFailed)
        );
        assert_eq!(buf, onion);
        let mut short = vec![0u8; DH_PK_LEN + aead::TAG_LEN - 1];
        assert_eq!(
            peel_layer_in_place(&mut short, &secrets[0], 0),
            Err(OnionError::Malformed)
        );
    }

    #[test]
    fn wrap_into_reuses_buffer_and_matches_mid_chain_hops() {
        let mut rng = rng(11);
        let (secrets, publics) = chain(4, &mut rng);
        // Wrap only for the servers after `first_hop - 1`, as that server does
        // when injecting noise: the layers peel at their absolute hop indices
        // and at no other.
        let mut out = vec![0xFFu8; 3]; // stale contents must be discarded
        for first_hop in 1..4 {
            wrap_onion_into(
                b"noise payload",
                &publics[first_hop..],
                first_hop,
                &mut rng,
                &mut out,
            );
            assert_eq!(out.len(), onion_size(b"noise payload".len(), 4 - first_hop));
            let mut shifted = out.clone();
            assert_eq!(
                peel_layer_in_place(&mut shifted, &secrets[first_hop], first_hop - 1),
                Err(OnionError::AuthenticationFailed)
            );
            for (i, secret) in secrets.iter().enumerate().skip(first_hop) {
                peel_layer_in_place(&mut out, secret, i).unwrap();
            }
            assert_eq!(out, b"noise payload");
        }
    }

    /// The hop-`hop` layer key over the encoded point `point`, computed with
    /// the one-shot HMAC and the label spelled out, independently of
    /// [`layer_salt`]'s table.
    fn reference_layer_key(hop: u64, point: &[u8]) -> [u8; 32] {
        let label = [&b"alpenhorn-onion-layer-v2/"[..], &hop.to_be_bytes()].concat();
        hmac::hmac(&label, point)
    }

    /// A secret scalar of 1, so the DH point with any peer is the peer's own
    /// public key and its encoding is known without the group arithmetic.
    fn unit_secret() -> DhSecret {
        let mut one = [0u8; 32];
        one[0] = 1;
        DhSecret::from_bytes(&one).unwrap()
    }

    #[test]
    fn layer_keys_match_known_answers() {
        let peer = DhSecret::generate(&mut rng(12)).public();
        let point = peer.to_bytes();
        let secret = unit_secret();
        let pinned = [
            "1312100fc4ba70519fec605802d1a7df3ff0f2b6e2264af52a5914342007246a",
            "5a1ab8399c22294b743a08e406b4871a4b6dee7e3bbfbaca229cfa666dcc6d5a",
            "df44d87f1a217b6d3bfc8e52858c5e63128ee35b3b0a62ad05b31d46a87d1cf8",
        ];
        for (hop, pinned) in pinned.into_iter().enumerate() {
            let key = layer_key(&secret, &peer, hop);
            assert_eq!(key, reference_layer_key(hop as u64, &point), "hop {hop}");
            assert_eq!(hex::encode(&key), pinned, "hop {hop}");
        }
        // Past the cached table the salt is built on the fly, to the same key.
        let far = CACHED_HOPS + 1000;
        assert_eq!(
            layer_key(&secret, &peer, far),
            reference_layer_key(far as u64, &point)
        );
    }

    #[test]
    fn layer_keys_differ_across_hops_and_from_the_keywheel_secret() {
        let mut rng = rng(13);
        let client = DhSecret::generate(&mut rng);
        let server = DhSecret::generate(&mut rng).public();
        let keys: Vec<[u8; 32]> = (0..CACHED_HOPS + 2)
            .map(|hop| layer_key(&client, &server, hop))
            .collect();
        let shared = client.shared_secret(&server);
        for (i, key) in keys.iter().enumerate() {
            assert_ne!(*key, shared, "hop {i}");
            assert!(keys[i + 1..].iter().all(|other| other != key), "hop {i}");
        }
    }

    #[test]
    fn seeded_three_hop_onion_bytes_are_pinned() {
        // Any drift in the layer derivation, the layout or the AEAD shows up
        // here as a changed onion.
        let mut rng = rng(14);
        let (secrets, publics) = chain(3, &mut rng);
        let mut onion = wrap_onion(b"pinned", &publics, &mut rng);
        assert_eq!(
            hex::encode(&onion),
            concat!(
                "1c15fcbc7d3e59ec000000000000000000000000000000000000000000000000",
                "000000000000000000000000000000001707cd18c5e8e86fa50e789e3966c5f2",
                "a4d1ebf9160f85f7262a7cb3bbacb7b4ac974457e1295db7dd25d7a3aca10285",
                "17555f56982f791e0d59e7534b56dcffeae532049ab1a4a968cfb039845e292c",
                "a84136294ce834c3ac20bf1840507ddcdcf11037aa4328844134493a551fda9c",
                "72b1aca5f2531b5c8d02f88f9a3191efacad9524575015c9ef2e2154e8ee368b",
                "245f7295eb98",
            )
        );
        for (hop, secret) in secrets.iter().enumerate() {
            peel_layer_in_place(&mut onion, secret, hop).unwrap();
        }
        assert_eq!(onion, b"pinned");
    }

    #[test]
    fn onions_of_same_payload_are_unlinkable() {
        // Two onions of the same payload share no common bytes pattern (they
        // use fresh ephemeral keys); this is a structural smoke test.
        let mut rng = rng(8);
        let (_, publics) = chain(3, &mut rng);
        let a = wrap_onion(b"same payload", &publics, &mut rng);
        let b = wrap_onion(b"same payload", &publics, &mut rng);
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b);
    }
}
