//! Golomb–Rice-coded dial-token sets: the encoding of Alpenhorn dialing
//! mailboxes.
//!
//! §5.2 of the paper: the last mixnet server encodes the set of dial tokens
//! destined to one dialing mailbox as an approximate-membership structure,
//! which clients download instead of the raw token list. The paper uses a
//! Bloom filter of 48 bits per token, sized for a false-positive rate of
//! about 1e-10 (a false positive is a phantom call; 1e-10 is about one per
//! user per decade) and *no* false negatives, so calls are never missed.
//!
//! The last server knows a mailbox's whole token set before it publishes,
//! so the set can be static. This crate encodes it as a Golomb–Rice-coded
//! sorted hash sequence (the "compressed sequence" of Putze, Sanders &
//! Singler, *Cache-, Hash- and Space-Efficient Bloom Filters*, WEA 2007; the
//! construction of BIP 158), which costs `log2 M + ≈ 1.9` bits per token at
//! a false-positive rate of `1/M`, for any number of tokens:
//!
//! * h = the first 64 bits (big-endian) of
//!   SHA-256(`"alpenhorn-dial-set-v1"` ‖ token); tokens with equal `h` count
//!   once, and `n` is the number of distinct `h`;
//! * v = ⌊h · n·M / 2⁶⁴⌋ with M = [`RANGE_PER_TOKEN`], so a non-member lands
//!   on one of at most `n` member values out of `n·M` with probability at
//!   most `1/M` = 7.8e-11;
//! * the values are sorted and encoded as a `u32` big-endian `n`, then each
//!   delta from the previous value (the first from 0), Rice-coded with
//!   P = [`RICE_BITS`]: the quotient `delta >> P` in unary (1-bits ended by
//!   a 0), then the low P bits, most significant first; zero-padded to a
//!   byte.
//!
//! At M = 1.497 · 2³³ that is [`expected_bits_per_token`] ≈ 35.05 bits per
//! token, against the paper's 48. The encoding is a pure function of the
//! token set, so every deployment shape publishes the same bytes, and the
//! decoder is canonical: it accepts exactly the encodings the encoder
//! produces (see [`DecodeError`]).
//!
//! Measured: for every mailbox size n ∈ 1..=128, 10⁵ non-member queries see
//! 0 hits (the `false_positive_rate_is_met` test; the expectation is ≈ 1e-3
//! hits over all 12.8 M queries).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use alpenhorn_crypto::sha256::Sha256;

/// M: the hash range per token. A non-member query is a false positive with
/// probability at most `1/M` ≈ 7.78e-11, within the paper's 1e-10. M is
/// ≈ 1.497 · 2^[`RICE_BITS`], the ratio at which a Rice code with that
/// parameter is nearly optimal for the geometric deltas of a sorted uniform
/// sequence.
pub const RANGE_PER_TOKEN: u64 = 12_860_308_905;

/// P: the number of remainder bits in each Rice-coded delta.
pub const RICE_BITS: u32 = 33;

/// The largest number of distinct tokens one set may hold. It keeps every
/// value and delta inside a `u64`; at 35 bits per token such a set is over a
/// gigabyte, far beyond any frame.
pub const MAX_TOKENS: usize = 1 << 28;

/// Domain label of the token hash.
const DOMAIN: &[u8] = b"alpenhorn-dial-set-v1";

/// Length of the big-endian token-count header.
const HEADER_LEN: usize = 4;

/// The fewest bits one Rice-coded delta occupies: a lone unary terminator
/// and the remainder.
const MIN_CODE_BITS: usize = 1 + RICE_BITS as usize;

/// The probability that a non-member query is reported present: `1/M`.
pub const FALSE_POSITIVE_RATE: f64 = 1.0 / RANGE_PER_TOKEN as f64;

/// The expected encoded size per token in bits, excluding the header and the
/// final byte's padding: `P + 1` for the remainder and unary terminator,
/// plus the mean quotient. Deltas between sorted uniform values are
/// geometric with mean M, so the quotient exceeds `j` with probability
/// `exp(-j · 2^P / M)` and its mean is `1 / (exp(2^P / M) - 1)`.
pub fn expected_bits_per_token() -> f64 {
    let a = (1u64 << RICE_BITS) as f64 / RANGE_PER_TOKEN as f64;
    (RICE_BITS + 1) as f64 + 1.0 / a.exp_m1()
}

/// Why a byte string is not a canonical dial-set encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The bytes end inside the header or inside a coded delta.
    Truncated,
    /// The header claims more tokens than [`MAX_TOKENS`] or than the body
    /// could possibly hold.
    TooManyTokens,
    /// A unary quotient runs past the largest one a value in range can have.
    UnaryTooLong,
    /// A decoded value is not below `n·M`.
    ValueOutOfRange,
    /// The bits after the last delta, up to the byte boundary, are not zero.
    NonZeroPadding,
    /// Bytes follow the byte that holds the last delta, including a whole
    /// byte of padding.
    TrailingBytes,
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let what = match self {
            DecodeError::Truncated => "truncated dial set",
            DecodeError::TooManyTokens => "dial set claims more tokens than it can hold",
            DecodeError::UnaryTooLong => "over-long unary quotient in dial set",
            DecodeError::ValueOutOfRange => "dial set value out of range",
            DecodeError::NonZeroPadding => "non-zero padding in dial set",
            DecodeError::TrailingBytes => "trailing bytes after dial set",
        };
        f.write_str(what)
    }
}

impl std::error::Error for DecodeError {}

/// The 64-bit hash of one token.
fn token_hash(item: &[u8]) -> u64 {
    let mut h = Sha256::new();
    h.update(DOMAIN);
    h.update(item);
    let digest = h.finalize();
    u64::from_be_bytes(digest[..8].try_into().expect("8 bytes"))
}

/// Maps a hash onto `[0, range)`, preserving order: ⌊h · range / 2⁶⁴⌋.
fn reduce(hash: u64, range: u64) -> u64 {
    ((u128::from(hash) * u128::from(range)) >> 64) as u64
}

/// A static set of dial tokens, decoded: the sorted values of its members.
///
/// Build it from the tokens with [`DialSet::new`] (the last mixnet server),
/// publish [`DialSet::to_bytes`], and query a downloaded encoding with
/// [`DialSet::from_bytes`] and [`DialSet::contains`] (the client).
///
/// # Examples
///
/// ```
/// use alpenhorn_bloom::DialSet;
///
/// let bytes = DialSet::new([b"dial token"]).to_bytes();
/// let set = DialSet::from_bytes(&bytes).unwrap();
/// assert!(set.contains(b"dial token"));
/// assert!(!set.contains(b"a different token"));
/// assert_eq!(DialSet::validate(&bytes), Ok(1));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DialSet {
    /// `n·M`: the range the values were reduced into.
    range: u64,
    /// The members' values, sorted; equal values are kept, so there are
    /// exactly `n`.
    values: Vec<u64>,
}

impl DialSet {
    /// Builds the set of `tokens`. Repeated tokens count once.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_TOKENS`] distinct tokens.
    pub fn new<T: AsRef<[u8]>>(tokens: impl IntoIterator<Item = T>) -> Self {
        let mut values: Vec<u64> = tokens
            .into_iter()
            .map(|token| token_hash(token.as_ref()))
            .collect();
        values.sort_unstable();
        values.dedup();
        assert!(
            values.len() <= MAX_TOKENS,
            "too many tokens for one dial set"
        );
        let range = values.len() as u64 * RANGE_PER_TOKEN;
        // `reduce` is monotone, so the values stay sorted.
        for value in &mut values {
            *value = reduce(*value, range);
        }
        DialSet { range, values }
    }

    /// The number of distinct tokens the set was built from.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the set holds no tokens.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Tests whether `item` may be in the set: `true` for every member (no
    /// false negatives) and, for a non-member, with probability at most
    /// [`FALSE_POSITIVE_RATE`].
    pub fn contains(&self, item: &[u8]) -> bool {
        self.values
            .binary_search(&reduce(token_hash(item), self.range))
            .is_ok()
    }

    /// The canonical encoding (see the crate documentation).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = BitWriter::with_capacity(HEADER_LEN + self.values.len() * 36 / 8 + 1);
        w.out
            .extend_from_slice(&(self.values.len() as u32).to_be_bytes());
        let mut previous = 0;
        for &value in &self.values {
            let delta = value - previous;
            previous = value;
            w.unary(delta >> RICE_BITS);
            w.push(delta & ((1 << RICE_BITS) - 1), RICE_BITS);
        }
        w.finish()
    }

    /// Decodes a canonical encoding, refusing anything
    /// [`DialSet::to_bytes`] would not produce.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let (n, body) = header(bytes)?;
        let mut values = Vec::with_capacity(n);
        let range = walk(n, body, |value| values.push(value))?;
        Ok(DialSet { range, values })
    }

    /// Checks that `bytes` is a canonical encoding without allocating, in
    /// one pass, and returns its token count. Accepts exactly what
    /// [`DialSet::from_bytes`] accepts.
    pub fn validate(bytes: &[u8]) -> Result<usize, DecodeError> {
        let (n, body) = header(bytes)?;
        walk(n, body, |_| {})?;
        Ok(n)
    }
}

/// Splits an encoding into its token count and body, refusing a count the
/// body cannot hold (so a decoder never allocates on a header's word).
fn header(bytes: &[u8]) -> Result<(usize, &[u8]), DecodeError> {
    if bytes.len() < HEADER_LEN {
        return Err(DecodeError::Truncated);
    }
    let (count, body) = bytes.split_at(HEADER_LEN);
    let n = u32::from_be_bytes(count.try_into().expect("4 bytes")) as usize;
    if n > MAX_TOKENS || n * MIN_CODE_BITS > body.len() * 8 {
        return Err(DecodeError::TooManyTokens);
    }
    Ok((n, body))
}

/// Decodes `n` values from `body`, passing each to `visit`, and checks the
/// padding. Returns the range `n·M`.
fn walk(n: usize, body: &[u8], mut visit: impl FnMut(u64)) -> Result<u64, DecodeError> {
    let range = n as u64 * RANGE_PER_TOKEN;
    let max_quotient = range.saturating_sub(1) >> RICE_BITS;
    let mut r = BitReader {
        bytes: body,
        pos: 0,
    };
    let mut value = 0u64;
    for _ in 0..n {
        let quotient = r.unary(max_quotient)?;
        // No overflow: value < range, and the delta is below range + 2^P,
        // with range ≤ MAX_TOKENS · M < 2^62.
        value += (quotient << RICE_BITS) | r.bits(RICE_BITS)?;
        if value >= range {
            return Err(DecodeError::ValueOutOfRange);
        }
        visit(value);
    }
    r.finish()?;
    Ok(range)
}

/// Reads a big-endian bit stream.
struct BitReader<'a> {
    bytes: &'a [u8],
    /// Bits consumed so far.
    pos: usize,
}

impl BitReader<'_> {
    fn remaining(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }

    /// The next 64 bits, most significant first, zero-filled past the end
    /// and below the byte window (at least 57 of them are real when that
    /// many remain).
    fn window(&self) -> u64 {
        let start = self.pos / 8;
        let word = match self.bytes.get(start..start + 8) {
            Some(eight) => u64::from_be_bytes(eight.try_into().expect("8 bytes")),
            None => {
                let tail = &self.bytes[start..];
                let mut buf = [0u8; 8];
                buf[..tail.len()].copy_from_slice(tail);
                u64::from_be_bytes(buf)
            }
        };
        word << (self.pos % 8)
    }

    /// Reads `count` ≤ 57 bits as an integer.
    fn bits(&mut self, count: u32) -> Result<u64, DecodeError> {
        if self.remaining() < count as usize {
            return Err(DecodeError::Truncated);
        }
        let value = self.window() >> (64 - count);
        self.pos += count as usize;
        Ok(value)
    }

    /// Reads a unary number (1-bits ended by a 0) no larger than `max`.
    fn unary(&mut self, max: u64) -> Result<u64, DecodeError> {
        let mut ones = 0u64;
        loop {
            let real = self.remaining().min(57) as u32;
            if real == 0 {
                return Err(DecodeError::Truncated);
            }
            let run = self.window().leading_ones().min(real);
            ones += u64::from(run);
            self.pos += run as usize;
            if ones > max {
                return Err(DecodeError::UnaryTooLong);
            }
            if run < real {
                // The terminating 0-bit.
                self.pos += 1;
                return Ok(ones);
            }
        }
    }

    /// Checks that only zero padding, less than a byte of it, is left.
    fn finish(self) -> Result<(), DecodeError> {
        if self.pos.div_ceil(8) != self.bytes.len() {
            return Err(DecodeError::TrailingBytes);
        }
        let used = self.pos % 8;
        if used != 0 && self.bytes[self.bytes.len() - 1] & (0xFF >> used) != 0 {
            return Err(DecodeError::NonZeroPadding);
        }
        Ok(())
    }
}

/// Writes a big-endian bit stream.
struct BitWriter {
    out: Vec<u8>,
    /// Pending bits, right-aligned; fewer than 8 between calls.
    acc: u64,
    pending: u32,
}

impl BitWriter {
    fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            out: Vec::with_capacity(bytes),
            acc: 0,
            pending: 0,
        }
    }

    /// Appends the low `count` ≤ 56 bits of `value`.
    fn push(&mut self, value: u64, count: u32) {
        self.acc = (self.acc << count) | value;
        self.pending += count;
        while self.pending >= 8 {
            self.pending -= 8;
            self.out.push((self.acc >> self.pending) as u8);
        }
        self.acc &= (1 << self.pending) - 1;
    }

    /// Appends `ones` 1-bits and a terminating 0-bit.
    fn unary(&mut self, mut ones: u64) {
        while ones >= 32 {
            self.push(u64::from(u32::MAX), 32);
            ones -= 32;
        }
        self.push(((1 << ones) - 1) << 1, ones as u32 + 1);
    }

    /// Zero-pads to a byte and returns the bytes.
    fn finish(mut self) -> Vec<u8> {
        if self.pending > 0 {
            self.out.push((self.acc << (8 - self.pending)) as u8);
        }
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_tokens(rng: &mut impl Rng, n: usize) -> Vec<[u8; 32]> {
        (0..n).map(|_| rng.gen()).collect()
    }

    /// Queries `queries` fresh random tokens against random sets of each
    /// size in `sizes` and returns the total number of hits.
    fn false_positives(sizes: impl IntoIterator<Item = usize>, queries: usize) -> usize {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xD1A1);
        let mut hits = 0;
        for n in sizes {
            let set = DialSet::new(random_tokens(&mut rng, n));
            assert_eq!(set.len(), n);
            hits += (0..queries)
                .filter(|_| set.contains(&rng.gen::<[u8; 32]>()))
                .count();
        }
        hits
    }

    #[test]
    fn params_paper_default() {
        const { assert!(FALSE_POSITIVE_RATE <= 1e-10 && FALSE_POSITIVE_RATE > 7e-11) };
        // M / 2^P sits at the Rice code's sweet spot for geometric deltas.
        let ratio = RANGE_PER_TOKEN as f64 / (1u64 << RICE_BITS) as f64;
        assert!((1.4..1.6).contains(&ratio), "{ratio}");
        let bits = expected_bits_per_token();
        assert!((35.0..35.1).contains(&bits), "{bits}");
    }

    #[test]
    fn no_false_negatives_small() {
        let items: Vec<[u8; 4]> = (0..100u32).map(|i| i.to_be_bytes()).collect();
        let set = DialSet::new(&items);
        assert_eq!(set.len(), 100);
        for item in &items {
            assert!(set.contains(item));
        }
    }

    #[test]
    fn few_false_positives_at_paper_parameters() {
        let set = DialSet::new((0..1000u32).map(|i| format!("member-{i}")));
        let fp = (0..10_000u32)
            .filter(|i| set.contains(format!("non-member-{i}").as_bytes()))
            .count();
        // At 7.8e-11, zero false positives are expected in 10k queries.
        assert_eq!(fp, 0);
    }

    /// The fast variant of [`false_positive_rate_is_met`]: the mailbox sizes
    /// at the edges and at the `dial` benchmark's ≈ 92 tokens.
    #[test]
    fn false_positive_rate_holds_at_gate_sizes() {
        assert_eq!(false_positives([1, 92, 128], 10_000), 0);
    }

    /// 12.8 M non-member queries over every mailbox size 1..=128 must see no
    /// hit: the expectation at 1/M is ≈ 1e-3. Run in release:
    /// `cargo test --release -p alpenhorn-bloom -- --ignored`.
    #[test]
    #[ignore = "12.8 M queries; run in release"]
    fn false_positive_rate_is_met() {
        assert_eq!(false_positives(1..=128, 100_000), 0);
    }

    #[test]
    fn repeated_tokens_count_once() {
        let set = DialSet::new([[1u8; 32], [2; 32], [1; 32]]);
        assert_eq!(set.len(), 2);
        assert_eq!(set, DialSet::new([[2u8; 32], [1; 32]]));
    }

    #[test]
    fn empty_set_is_a_bare_header() {
        let set = DialSet::new(std::iter::empty::<&[u8]>());
        assert!(set.is_empty());
        assert!(!set.contains(b"anything"));
        let bytes = set.to_bytes();
        assert_eq!(bytes, [0, 0, 0, 0]);
        assert_eq!(DialSet::from_bytes(&bytes), Ok(set));
    }

    #[test]
    fn serialization_round_trip() {
        let set = DialSet::new((0..50u32).map(u32::to_le_bytes));
        let bytes = set.to_bytes();
        assert_eq!(DialSet::validate(&bytes), Ok(50));
        let decoded = DialSet::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, set);
        assert_eq!(decoded.to_bytes(), bytes);
        for i in 0..50u32 {
            assert!(decoded.contains(&i.to_le_bytes()));
        }
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        // Deltas 0 and 1: two 34-bit codes, then 4 bits of padding.
        let bytes = DialSet {
            range: 2 * RANGE_PER_TOKEN,
            values: vec![0, 1],
        }
        .to_bytes();
        assert_eq!(bytes.len(), HEADER_LEN + 9);
        let refuse = |b: &[u8], why| {
            assert_eq!(DialSet::from_bytes(b), Err(why), "{b:?}");
            assert_eq!(DialSet::validate(b), Err(why), "{b:?}");
        };
        refuse(&[], DecodeError::Truncated);
        refuse(&[0, 0, 0], DecodeError::Truncated);
        // One byte short, the body cannot hold two codes.
        refuse(&bytes[..bytes.len() - 1], DecodeError::TooManyTokens);
        // Three tokens in 13 bytes, whose first quotient of 4 leaves too
        // few bits for the last remainder.
        let mut short = vec![0, 0, 0, 3, 0b1111_0000];
        short.extend_from_slice(&[0; 12]);
        refuse(&short, DecodeError::Truncated);
        // A whole byte of padding, zero or not.
        refuse(&[&bytes[..], &[0]].concat(), DecodeError::TrailingBytes);
        refuse(&[0, 0, 0, 0, 0], DecodeError::TrailingBytes);
        let mut padded = bytes.clone();
        *padded.last_mut().unwrap() |= 1;
        refuse(&padded, DecodeError::NonZeroPadding);
        // A count the body cannot hold, and one past the limit.
        refuse(
            &[0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 0],
            DecodeError::TooManyTokens,
        );
        refuse(&[0xFF; 4], DecodeError::TooManyTokens);
        // One token: values are below M < 2^34, so a quotient of 2 is
        // over-long, and a quotient of 1 with an all-ones remainder is out of
        // range.
        refuse(
            &[0, 0, 0, 1, 0b1100_0000, 0, 0, 0, 0, 0],
            DecodeError::UnaryTooLong,
        );
        refuse(
            &[0, 0, 0, 1, 0xBF, 0xFF, 0xFF, 0xFF, 0xFF],
            DecodeError::ValueOutOfRange,
        );
    }

    #[test]
    fn long_unary_runs_round_trip() {
        // Two values at the ends of the range force one quotient near the
        // largest, a run that spans several 57-bit windows.
        let range = 2 * RANGE_PER_TOKEN;
        let set = DialSet {
            range,
            values: vec![0, range - 1],
        };
        let bytes = set.to_bytes();
        assert_eq!(DialSet::from_bytes(&bytes), Ok(set));
    }

    #[test]
    fn paper_mailbox_size_matches_section_8_2() {
        // §8.2: 125,000 dial tokens at 48 bits per token is a 0.75 MB
        // Bloom filter; the coded set holds them in ≈ 0.55 MB.
        let mut rng = rand::rngs::StdRng::seed_from_u64(82);
        let len = DialSet::new(random_tokens(&mut rng, 125_000))
            .to_bytes()
            .len();
        let mb = len as f64 / 1e6;
        assert!((0.54..0.555).contains(&mb), "got {mb} MB");
    }

    #[test]
    fn bits_per_token_matches_the_model() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(35);
        let n = 20_000;
        let len = DialSet::new(random_tokens(&mut rng, n)).to_bytes().len();
        let bits = (len - HEADER_LEN) as f64 * 8.0 / n as f64;
        assert!(
            (bits - expected_bits_per_token()).abs() < 0.05,
            "{bits} bits per token"
        );
    }

    #[test]
    fn randomized_no_false_negatives() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let items = random_tokens(&mut rng, 500);
        let set = DialSet::from_bytes(&DialSet::new(&items).to_bytes()).unwrap();
        for item in &items {
            assert!(set.contains(item));
        }
    }
}
