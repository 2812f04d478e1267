//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! The implementation is a streaming Merkle–Damgård construction over
//! 64-byte blocks. Two compression functions live here:
//!
//! * `compress_block` — the hot path: fully unrolled message schedule and
//!   round function over a 16-word ring buffer, with the round constants
//!   folded into the schedule words. All operations are plain `u32` word ops,
//!   so the compiler keeps the working set in registers.
//! * the loop-based reference compression inside [`digest_reference`] — the
//!   seed implementation, kept verbatim as the test oracle (the same pattern
//!   as `ChaCha20::apply_keystream_reference`). The property tests check the
//!   two agree on arbitrary inputs and input splits.
//!
//! A [`Midstate`] captures the chaining value at a block boundary, letting
//! callers (HMAC in particular) precompute the cost of a fixed prefix once
//! and replay it for free on every subsequent message.
//!
//! Validated against the FIPS 180-4 and NIST CAVP test vectors in the unit
//! tests below.

/// Initial hash state (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Choice function: bitwise `e ? f : g` (three ops instead of four).
#[inline(always)]
fn ch(e: u32, f: u32, g: u32) -> u32 {
    g ^ (e & (f ^ g))
}

/// Majority function in the `(a & b) | (c & (a | b))` form.
#[inline(always)]
fn maj(a: u32, b: u32, c: u32) -> u32 {
    (a & b) | (c & (a | b))
}

/// Big sigma 0 (FIPS 180-4 §4.1.2, used on the `a` chain).
#[inline(always)]
fn bsig0(x: u32) -> u32 {
    x.rotate_right(2) ^ x.rotate_right(13) ^ x.rotate_right(22)
}

/// Big sigma 1 (used on the `e` chain).
#[inline(always)]
fn bsig1(x: u32) -> u32 {
    x.rotate_right(6) ^ x.rotate_right(11) ^ x.rotate_right(25)
}

/// Small sigma 0 (message schedule).
#[inline(always)]
fn ssig0(x: u32) -> u32 {
    x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3)
}

/// Small sigma 1 (message schedule).
#[inline(always)]
fn ssig1(x: u32) -> u32 {
    x.rotate_right(17) ^ x.rotate_right(19) ^ (x >> 10)
}

/// The unrolled SHA-256 compression function over one 64-byte block.
///
/// The message schedule lives in a 16-word ring expanded in place, each word
/// immediately before the round that consumes it; the 64 rounds are fully
/// unrolled with the working variables rotated through the macro's argument
/// list instead of being shuffled through assignments.
#[inline(always)]
pub(crate) fn compress_block(state: &mut [u32; 8], block: &[u8]) {
    debug_assert_eq!(block.len(), 64);
    let mut w = [0u32; 16];
    for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
        *wi = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    // One round; the caller's argument order encodes the variable rotation.
    macro_rules! rnd {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $kw:expr) => {{
            let t1 = $h
                .wrapping_add(bsig1($e))
                .wrapping_add(ch($e, $f, $g))
                .wrapping_add($kw);
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(bsig0($a)).wrapping_add(maj($a, $b, $c));
        }};
    }

    // Expand one schedule word in place:
    // w[i] += ssig0(w[i+1]) + w[i+9] + ssig1(w[i+14])   (indices mod 16).
    macro_rules! sched {
        ($i:expr) => {{
            w[$i & 15] = w[$i & 15]
                .wrapping_add(ssig0(w[($i + 1) & 15]))
                .wrapping_add(w[($i + 9) & 15])
                .wrapping_add(ssig1(w[($i + 14) & 15]));
        }};
    }

    // Eight rounds (a full rotation of the working variables). For rounds
    // ≥ 16 the schedule word is expanded immediately before its round, so
    // the schedule's short dependency chain overlaps the round function's
    // longer one instead of serializing ahead of it.
    macro_rules! rnd8 {
        ($i:expr) => {{
            if $i >= 16 {
                sched!($i);
            }
            rnd!(a, b, c, d, e, f, g, h, K[$i].wrapping_add(w[$i & 15]));
            if $i >= 16 {
                sched!($i + 1);
            }
            rnd!(
                h,
                a,
                b,
                c,
                d,
                e,
                f,
                g,
                K[$i + 1].wrapping_add(w[($i + 1) & 15])
            );
            if $i >= 16 {
                sched!($i + 2);
            }
            rnd!(
                g,
                h,
                a,
                b,
                c,
                d,
                e,
                f,
                K[$i + 2].wrapping_add(w[($i + 2) & 15])
            );
            if $i >= 16 {
                sched!($i + 3);
            }
            rnd!(
                f,
                g,
                h,
                a,
                b,
                c,
                d,
                e,
                K[$i + 3].wrapping_add(w[($i + 3) & 15])
            );
            if $i >= 16 {
                sched!($i + 4);
            }
            rnd!(
                e,
                f,
                g,
                h,
                a,
                b,
                c,
                d,
                K[$i + 4].wrapping_add(w[($i + 4) & 15])
            );
            if $i >= 16 {
                sched!($i + 5);
            }
            rnd!(
                d,
                e,
                f,
                g,
                h,
                a,
                b,
                c,
                K[$i + 5].wrapping_add(w[($i + 5) & 15])
            );
            if $i >= 16 {
                sched!($i + 6);
            }
            rnd!(
                c,
                d,
                e,
                f,
                g,
                h,
                a,
                b,
                K[$i + 6].wrapping_add(w[($i + 6) & 15])
            );
            if $i >= 16 {
                sched!($i + 7);
            }
            rnd!(
                b,
                c,
                d,
                e,
                f,
                g,
                h,
                a,
                K[$i + 7].wrapping_add(w[($i + 7) & 15])
            );
        }};
    }

    rnd8!(0);
    rnd8!(8);
    rnd8!(16);
    rnd8!(24);
    rnd8!(32);
    rnd8!(40);
    rnd8!(48);
    rnd8!(56);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// A SHA-256 chaining value captured at a 64-byte block boundary.
///
/// Replaying a midstate with [`Sha256::from_midstate`] costs nothing, so a
/// fixed prefix (HMAC's `key ^ ipad` / `key ^ opad` blocks, a hash-to-curve
/// domain tag) can be absorbed once and reused across many messages.
#[derive(Clone, Copy)]
pub struct Midstate {
    state: [u32; 8],
    /// Message bytes absorbed so far; always a multiple of 64.
    len: u64,
}

impl crate::zeroize::Zeroize for Midstate {
    fn zeroize(&mut self) {
        for word in self.state.iter_mut() {
            *word = core::hint::black_box(0);
        }
        self.len = 0;
    }
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use alpenhorn_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// let digest = h.finalize();
/// assert_eq!(digest.len(), 32);
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total number of message bytes processed so far.
    len: u64,
    /// Partially filled block.
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a new hasher with the standard initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Captures the chaining value.
    ///
    /// # Panics
    ///
    /// Panics unless the bytes absorbed so far are a whole number of 64-byte
    /// blocks (a midstate is a compression-function boundary, not an
    /// arbitrary stream position).
    pub fn midstate(&self) -> Midstate {
        assert_eq!(
            self.buf_len, 0,
            "midstate requires a 64-byte block boundary"
        );
        Midstate {
            state: self.state,
            len: self.len,
        }
    }

    /// Resumes hashing from a previously captured midstate.
    pub fn from_midstate(m: Midstate) -> Self {
        Sha256 {
            state: m.state,
            len: m.len,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut data = data;
        // Fill the pending block first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                compress_block(&mut self.state, &block);
                self.buf_len = 0;
            }
        }
        // Process full blocks straight from the input — no staging copy.
        let mut chunks = data.chunks_exact(64);
        for block in &mut chunks {
            compress_block(&mut self.state, block);
        }
        let rest = chunks.remainder();
        // Stash the remainder.
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.len.wrapping_mul(8);
        // Append the 0x80 terminator and zero padding, then the length.
        self.update_padding();
        let mut block = self.buf;
        block[56..64].copy_from_slice(&bit_len.to_be_bytes());
        compress_block(&mut self.state, &block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Pads the pending buffer up to the final 56 bytes (length excluded).
    fn update_padding(&mut self) {
        let mut pad = [0u8; 72];
        pad[0] = 0x80;
        // Number of padding bytes so that buf_len + pad_len ≡ 56 (mod 64).
        let pad_len = if self.buf_len < 56 {
            56 - self.buf_len
        } else {
            120 - self.buf_len
        };
        // Manual absorb that does not touch `self.len`.
        let mut data = &pad[..pad_len];
        while !data.is_empty() {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                compress_block(&mut self.state, &block);
                self.buf_len = 0;
            }
        }
        debug_assert_eq!(self.buf_len, 56);
    }
}

/// One-shot SHA-256 of `data`.
pub fn digest(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 using the seed's loop-based compression function.
///
/// This is the test oracle for the unrolled hot path: the message
/// schedule is fully materialized as 64 words and the round function runs as
/// a plain loop with the working-variable shuffle written out, exactly as the
/// seed implementation did. Keep it boring; its value is being obviously
/// faithful to FIPS 180-4.
pub fn digest_reference(data: &[u8]) -> [u8; 32] {
    fn compress_reference(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }

    let mut state = H0;
    let mut chunks = data.chunks_exact(64);
    for block in &mut chunks {
        compress_reference(&mut state, block.try_into().expect("64-byte block"));
    }
    let rest = chunks.remainder();

    // Final one or two padded blocks.
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut block = [0u8; 64];
    block[..rest.len()].copy_from_slice(rest);
    block[rest.len()] = 0x80;
    if rest.len() >= 56 {
        compress_reference(&mut state, &block);
        block = [0u8; 64];
    }
    block[56..64].copy_from_slice(&bit_len.to_be_bytes());
    compress_reference(&mut state, &block);

    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn hex_digest(data: &[u8]) -> String {
        hex::encode(&digest(data))
    }

    #[test]
    fn empty_string() {
        assert_eq!(
            hex_digest(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex_digest(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex_digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn long_message_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex::encode(&digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn fips_448_bit_message() {
        // 56 bytes: exactly the boundary where padding spills to a second block.
        let data = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn";
        assert_eq!(data.len(), 56);
        assert_eq!(
            hex_digest(data),
            "078c0dfc3278fd7759920f5cca94c6d55db2c694510f6e26a8fe5c5b50a4f417"
        );
    }

    #[test]
    fn one_full_block_of_zeros() {
        assert_eq!(
            hex_digest(&[0u8; 64]),
            "f5a5fd42d16a20302798ef6ed309979b43003d2320d9f0e8ea9831a92759fb4b"
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(10_000).collect();
        for split in [0usize, 1, 63, 64, 65, 127, 128, 5000, 9999, 10000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), digest(&data), "split at {split}");
        }
    }

    #[test]
    fn update_byte_at_a_time() {
        let data = b"The quick brown fox jumps over the lazy dog";
        let mut h = Sha256::new();
        for b in data.iter() {
            h.update(&[*b]);
        }
        assert_eq!(
            hex::encode(&h.finalize()),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592"
        );
    }

    #[test]
    fn unrolled_matches_reference_oracle() {
        // Lengths crossing every padding/block-boundary case, plus large.
        for len in [
            0usize, 1, 3, 31, 32, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129, 1000, 16384,
        ] {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            assert_eq!(digest(&data), digest_reference(&data), "len {len}");
        }
        let data: Vec<u8> = (0u8..=255).cycle().take(16 * 1024).collect();
        assert_eq!(
            hex::encode(&digest(&data)),
            "a1f259d4365ed4320c377ce26f5c8c56dcdc9a89e7b641bfd8eabfbbeac86654"
        );
    }

    #[test]
    fn midstate_round_trips_at_block_boundary() {
        let data: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        let mut h = Sha256::new();
        h.update(&data[..128]);
        let m = h.midstate();
        let mut resumed = Sha256::from_midstate(m);
        resumed.update(&data[128..]);
        assert_eq!(resumed.finalize(), digest(&data));
    }

    #[test]
    #[should_panic(expected = "block boundary")]
    fn midstate_off_boundary_panics() {
        let mut h = Sha256::new();
        h.update(b"short");
        let _ = h.midstate();
    }
}
