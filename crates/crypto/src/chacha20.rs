//! The ChaCha20 stream cipher (RFC 8439), implemented from scratch.
//!
//! ChaCha20 is used (together with Poly1305) as the AEAD protecting onion
//! layers in the mixnet and the symmetric part of hybrid IBE encryption, and
//! also as the core of the deterministic CSPRNG in [`crate::rng`]. Validated
//! against the RFC 8439 test vectors.

/// ChaCha20 key length in bytes.
pub const KEY_LEN: usize = 32;
/// ChaCha20 nonce length in bytes (IETF variant, 96-bit nonce).
pub const NONCE_LEN: usize = 12;
/// ChaCha20 block length in bytes.
pub const BLOCK_LEN: usize = 64;

/// Lane count of the wide keystream path: four blocks in lockstep, so four
/// `u32` lanes fill one 128-bit vector register (SSE2/NEON).
const WIDE: usize = 4;

/// One state word across [`WIDE`] parallel blocks.
type Lanes = [u32; WIDE];

/// Lane-wise wrapping addition. (Spelled out element by element — this is
/// the shape LLVM's SLP vectorizer turns into single vector instructions.)
#[inline(always)]
fn ladd(a: Lanes, b: Lanes) -> Lanes {
    [
        a[0].wrapping_add(b[0]),
        a[1].wrapping_add(b[1]),
        a[2].wrapping_add(b[2]),
        a[3].wrapping_add(b[3]),
    ]
}

/// Lane-wise `(a ^ b).rotate_left(N)`.
#[inline(always)]
fn lxor_rot<const N: u32>(a: Lanes, b: Lanes) -> Lanes {
    [
        (a[0] ^ b[0]).rotate_left(N),
        (a[1] ^ b[1]).rotate_left(N),
        (a[2] ^ b[2]).rotate_left(N),
        (a[3] ^ b[3]).rotate_left(N),
    ]
}

/// The ChaCha20 stream cipher keyed with a 256-bit key and 96-bit nonce.
///
/// # Examples
///
/// ```
/// use alpenhorn_crypto::chacha20::ChaCha20;
///
/// let key = [7u8; 32];
/// let nonce = [9u8; 12];
/// let mut buf = *b"attack at dawn";
/// ChaCha20::new(&key, &nonce, 0).apply_keystream(&mut buf);
/// assert_ne!(&buf, b"attack at dawn");
/// ChaCha20::new(&key, &nonce, 0).apply_keystream(&mut buf);
/// assert_eq!(&buf, b"attack at dawn");
/// ```
#[derive(Clone)]
pub struct ChaCha20 {
    /// The 16-word initial state (constants, key, counter, nonce).
    state: [u32; 16],
}

impl ChaCha20 {
    /// Creates a cipher instance with the given key, nonce, and initial block counter.
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> Self {
        let mut state = [0u32; 16];
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646e;
        state[2] = 0x7962_2d32;
        state[3] = 0x6b20_6574;
        for i in 0..8 {
            state[4 + i] =
                u32::from_le_bytes([key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]]);
        }
        state[12] = counter;
        for i in 0..3 {
            state[13 + i] = u32::from_le_bytes([
                nonce[4 * i],
                nonce[4 * i + 1],
                nonce[4 * i + 2],
                nonce[4 * i + 3],
            ]);
        }
        ChaCha20 { state }
    }

    /// The 16-word internal state (constants, key, counter, nonce). Used by
    /// [`crate::rng::ChaChaRng`] to persist generator positions.
    pub fn state_words(&self) -> [u32; 16] {
        self.state
    }

    /// Rebuilds a cipher from exported [`ChaCha20::state_words`].
    pub fn from_state_words(state: [u32; 16]) -> Self {
        ChaCha20 { state }
    }

    /// The ChaCha20 quarter round on four state words.
    #[inline]
    fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(16);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(12);
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(8);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(7);
    }

    /// Runs the 20 ChaCha rounds on a copy of `state` and adds the input
    /// state back in, returning the keystream block as 16 words.
    #[inline]
    fn permute(state: &[u32; 16]) -> [u32; 16] {
        let mut working = *state;
        for _ in 0..10 {
            // Column rounds.
            Self::quarter_round(&mut working, 0, 4, 8, 12);
            Self::quarter_round(&mut working, 1, 5, 9, 13);
            Self::quarter_round(&mut working, 2, 6, 10, 14);
            Self::quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal rounds.
            Self::quarter_round(&mut working, 0, 5, 10, 15);
            Self::quarter_round(&mut working, 1, 6, 11, 12);
            Self::quarter_round(&mut working, 2, 7, 8, 13);
            Self::quarter_round(&mut working, 3, 4, 9, 14);
        }
        for (w, s) in working.iter_mut().zip(state.iter()) {
            *w = w.wrapping_add(*s);
        }
        working
    }

    /// The keystream block for the current counter value, as 16 words.
    #[inline]
    fn block_words(&self) -> [u32; 16] {
        Self::permute(&self.state)
    }

    /// Produces the 64-byte keystream block for the current counter value.
    pub fn block(&self) -> [u8; BLOCK_LEN] {
        let words = self.block_words();
        let mut out = [0u8; BLOCK_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(words.iter()) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Advances the internal block counter by one.
    pub fn advance(&mut self) {
        self.state[12] = self.state[12].wrapping_add(1);
    }

    /// XORs one keystream block into a full 64-byte chunk, eight `u64` words
    /// at a time.
    #[inline]
    fn xor_block_words(chunk: &mut [u8], words: &[u32; 16]) {
        debug_assert_eq!(chunk.len(), BLOCK_LEN);
        for (pair, bytes) in words.chunks_exact(2).zip(chunk.chunks_exact_mut(8)) {
            let ks = pair[0] as u64 | ((pair[1] as u64) << 32);
            let data = u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
            bytes.copy_from_slice(&(data ^ ks).to_le_bytes());
        }
    }

    /// Runs the ChaCha rounds on [`WIDE`] blocks in lockstep.
    ///
    /// Each of the 16 state words is held as a `[u32; WIDE]` vector of
    /// lanes, and every quarter-round step is a whole-vector add/xor/rotate
    /// ([`ladd`]/[`lxor_rot`]) — the shape LLVM auto-vectorizes into 128-bit
    /// SIMD operations on SSE2/NEON. Lane `l` computes the block for counter
    /// `state[12] + l`.
    #[inline]
    fn permute_wide(state: &[u32; 16]) -> [Lanes; 16] {
        let mut w: [Lanes; 16] = core::array::from_fn(|i| [state[i]; WIDE]);
        for (lane, counter) in w[12].iter_mut().enumerate() {
            *counter = counter.wrapping_add(lane as u32);
        }
        let initial = w;

        // The quarter round on four rows of lanes.
        #[inline(always)]
        fn quarter(a: &mut Lanes, b: &mut Lanes, c: &mut Lanes, d: &mut Lanes) {
            *a = ladd(*a, *b);
            *d = lxor_rot::<16>(*d, *a);
            *c = ladd(*c, *d);
            *b = lxor_rot::<12>(*b, *c);
            *a = ladd(*a, *b);
            *d = lxor_rot::<8>(*d, *a);
            *c = ladd(*c, *d);
            *b = lxor_rot::<7>(*b, *c);
        }

        macro_rules! qr {
            ($a:literal, $b:literal, $c:literal, $d:literal) => {{
                // Split borrows: rows are distinct, take them out and put
                // them back so `quarter` sees four independent vectors.
                let (mut a, mut b, mut c, mut d) = (w[$a], w[$b], w[$c], w[$d]);
                quarter(&mut a, &mut b, &mut c, &mut d);
                w[$a] = a;
                w[$b] = b;
                w[$c] = c;
                w[$d] = d;
            }};
        }

        for _ in 0..10 {
            // Column rounds.
            qr!(0, 4, 8, 12);
            qr!(1, 5, 9, 13);
            qr!(2, 6, 10, 14);
            qr!(3, 7, 11, 15);
            // Diagonal rounds.
            qr!(0, 5, 10, 15);
            qr!(1, 6, 11, 12);
            qr!(2, 7, 8, 13);
            qr!(3, 4, 9, 14);
        }

        for (row, init) in w.iter_mut().zip(initial.iter()) {
            *row = ladd(*row, *init);
        }
        w
    }

    /// XORs the keystream into `data` in place, starting at the current counter.
    ///
    /// The hot path computes `WIDE` blocks per loop iteration in
    /// SIMD-friendly lockstep (`ChaCha20::permute_wide`) and applies the
    /// keystream in `u64` words rather than byte by byte. The onion
    /// peel/wrap pipeline, the AEAD, the CSPRNG, and hybrid IBE all sit on
    /// top of this routine.
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        let mut wide_chunks = data.chunks_exact_mut(WIDE * BLOCK_LEN);
        for wide in &mut wide_chunks {
            let w = Self::permute_wide(&self.state);
            for (lane, chunk) in wide.chunks_exact_mut(BLOCK_LEN).enumerate() {
                for (pair, bytes) in (0..16)
                    .step_by(2)
                    .map(|i| (w[i][lane] as u64) | ((w[i + 1][lane] as u64) << 32))
                    .zip(chunk.chunks_exact_mut(8))
                {
                    let data_word = u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
                    bytes.copy_from_slice(&(data_word ^ pair).to_le_bytes());
                }
            }
            self.state[12] = self.state[12].wrapping_add(WIDE as u32);
        }

        let tail = wide_chunks.into_remainder();
        let mut tail_chunks = tail.chunks_exact_mut(BLOCK_LEN);
        for chunk in &mut tail_chunks {
            Self::xor_block_words(chunk, &self.block_words());
            self.advance();
        }

        let last = tail_chunks.into_remainder();
        if !last.is_empty() {
            let ks = self.block();
            for (b, k) in last.iter_mut().zip(ks.iter()) {
                *b ^= *k;
            }
            self.advance();
        }
    }

    /// Straightforward one-block-at-a-time, byte-wise keystream application.
    ///
    /// Kept as the reference the optimized [`ChaCha20::apply_keystream`] is
    /// tested against (the RFC 8439 vectors only cover two blocks, so the
    /// multi-block fast path and its tail handling need an independent
    /// oracle), and as the baseline for the keystream benchmarks.
    #[doc(hidden)]
    pub fn apply_keystream_reference(&mut self, data: &mut [u8]) {
        for chunk in data.chunks_mut(BLOCK_LEN) {
            let ks = self.block();
            for (b, k) in chunk.iter_mut().zip(ks.iter()) {
                *b ^= *k;
            }
            self.advance();
        }
    }
}

/// One-shot encryption/decryption: XORs the ChaCha20 keystream into `data`.
pub fn xor_stream(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32, data: &mut [u8]) {
    ChaCha20::new(key, nonce, counter).apply_keystream(data);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    // RFC 8439 §2.3.2: block function test vector.
    #[test]
    fn rfc8439_block_function() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 9, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let cipher = ChaCha20::new(&key, &nonce, 1);
        let block = cipher.block();
        assert_eq!(
            hex::encode(&block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4ed2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    // RFC 8439 §2.4.2: encryption test vector.
    #[test]
    fn rfc8439_encryption() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let mut buf = plaintext.to_vec();
        xor_stream(&key, &nonce, 1, &mut buf);
        assert_eq!(
            hex::encode(&buf),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0bf91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d807ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab77937365af90bbf74a35be6b40b8eedf2785e42874d"
        );
        // Decrypting restores the plaintext.
        xor_stream(&key, &nonce, 1, &mut buf);
        assert_eq!(&buf, plaintext);
    }

    #[test]
    fn counter_advances_across_blocks() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        // Applying the keystream to 100 bytes at once must equal applying it
        // block by block with manual counter management.
        let mut a = vec![0u8; 100];
        xor_stream(&key, &nonce, 0, &mut a);

        let mut b = vec![0u8; 100];
        let c0 = ChaCha20::new(&key, &nonce, 0).block();
        let c1 = ChaCha20::new(&key, &nonce, 1).block();
        b[..64].copy_from_slice(&c0);
        b[64..].copy_from_slice(&c1[..36]);
        assert_eq!(a, b);
    }

    #[test]
    fn different_nonces_produce_different_streams() {
        let key = [3u8; 32];
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        xor_stream(&key, &[0u8; 12], 0, &mut a);
        xor_stream(&key, &[1u8; 12], 0, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn empty_input_is_noop() {
        let mut empty: [u8; 0] = [];
        xor_stream(&[0u8; 32], &[0u8; 12], 0, &mut empty);
    }

    // RFC 8439-derived long-message test: the keystream over a message that
    // crosses the 4-block wide path's tail boundary must equal the reference
    // one-block-at-a-time stream (which is itself pinned by the §2.4.2 vector
    // above), for every alignment around the wide/tail split.
    #[test]
    fn long_message_crosses_wide_tail_boundary() {
        let key: [u8; 32] = core::array::from_fn(|i| i as u8);
        let nonce: [u8; 12] = [0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0];
        // 4 blocks = 256 bytes is one full wide chunk; probe every length
        // from "one wide chunk minus a block" to "past two wide chunks", so
        // the tail takes every shape: empty, whole blocks, partial block.
        for len in (192..=540).chain([1024, 4096, 100_001]) {
            let mut fast: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let mut reference = fast.clone();
            ChaCha20::new(&key, &nonce, 1).apply_keystream(&mut fast);
            ChaCha20::new(&key, &nonce, 1).apply_keystream_reference(&mut reference);
            assert_eq!(fast, reference, "len = {len}");
        }
    }

    #[test]
    fn wide_path_leaves_counter_identical_to_reference() {
        // After applying an awkward length, both implementations must stand
        // at the same counter so subsequent output agrees.
        let key = [9u8; 32];
        let nonce = [3u8; 12];
        for len in [0usize, 63, 64, 255, 256, 257, 320, 500] {
            let mut a = ChaCha20::new(&key, &nonce, 7);
            let mut b = ChaCha20::new(&key, &nonce, 7);
            let mut buf_a = vec![0u8; len];
            let mut buf_b = vec![0u8; len];
            a.apply_keystream(&mut buf_a);
            b.apply_keystream_reference(&mut buf_b);
            let mut next_a = [0u8; 64];
            let mut next_b = [0u8; 64];
            a.apply_keystream(&mut next_a);
            b.apply_keystream_reference(&mut next_b);
            assert_eq!(next_a, next_b, "len = {len}");
        }
    }

    #[test]
    fn wide_path_handles_counter_wraparound() {
        let key = [5u8; 32];
        let nonce = [6u8; 12];
        let mut fast = vec![0xAAu8; 6 * BLOCK_LEN];
        let mut reference = fast.clone();
        ChaCha20::new(&key, &nonce, u32::MAX - 1).apply_keystream(&mut fast);
        ChaCha20::new(&key, &nonce, u32::MAX - 1).apply_keystream_reference(&mut reference);
        assert_eq!(fast, reference);
    }
}
