//! Systematic shift-XOR erasure code for CDN mailbox shards.
//!
//! A published mailbox blob is split into `k` equal data shards; `m` parity
//! shards are derived so that **any** `k` of the `k + m` shards recover the
//! blob byte-identically. Both encode and decode use only byte shifts and
//! XOR — no finite-field multiplication tables — following the shift-XOR
//! construction (Vandermonde rows over the polynomial ring `GF(2)[x]`, with
//! the shard bytes as coefficients and a byte shift playing the role of
//! multiplication by `x`):
//!
//! ```text
//! parity_j = XOR_i shift(data_i, i * j bytes)        j = 0..m
//! ```
//!
//! Parity shard `j` is `(k-1) * j` bytes longer than a data shard — the
//! price of avoiding GF(2^8) arithmetic entirely. Decoding solves the
//! shift-XOR linear system with fraction-free Gaussian elimination (row
//! combinations are again only shifts and XORs) and a running-XOR division
//! by the sparse pivot polynomial, so the decode hot path is the same
//! word-wise XOR loop as encode.
//!
//! The code is *systematic*: when no data shard is lost, decode is a plain
//! concatenation. For the parameter ranges the CDN deploys (`k ≤ 8`,
//! `m ≤ 3`), every erasure pattern of at most `m` shards is recoverable —
//! the elimination cannot go singular because the chosen parity rows form a
//! (generalized) Vandermonde system in distinct powers of `x`; the decoder
//! still detects singularity and inconsistency defensively and reports a
//! typed error rather than returning wrong bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Shape of the code: `data` (k) data shards plus `parity` (m) parity
/// shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeParams {
    /// Number of data shards (k). At least 1.
    pub data: usize,
    /// Number of parity shards (m). May be 0 (no redundancy).
    pub parity: usize,
}

impl CodeParams {
    /// Creates code parameters. Panics if `data == 0`.
    pub fn new(data: usize, parity: usize) -> Self {
        assert!(data >= 1, "shift-XOR code needs at least one data shard");
        CodeParams { data, parity }
    }

    /// Total number of shards produced by [`encode`].
    pub fn total(&self) -> usize {
        self.data + self.parity
    }

    /// Length of each data shard for a blob of `blob_len` bytes (the blob is
    /// zero-padded up to `data * shard_len`).
    pub fn shard_len(&self, blob_len: usize) -> usize {
        blob_len.div_ceil(self.data)
    }

    /// Length of parity shard `j` for a blob of `blob_len` bytes.
    pub fn parity_len(&self, blob_len: usize, j: usize) -> usize {
        let shard_len = self.shard_len(blob_len);
        if shard_len == 0 {
            0
        } else {
            shard_len + (self.data - 1) * j
        }
    }
}

/// Why a reconstruction failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErasureError {
    /// The caller passed a shard vector whose length is not `k + m`.
    WrongShardCount {
        /// Shards provided.
        provided: usize,
        /// Shards the code produces.
        expected: usize,
    },
    /// A present shard has the wrong length for this blob.
    ShardLength {
        /// Index of the offending shard.
        index: usize,
        /// Expected byte length.
        expected: usize,
        /// Actual byte length.
        actual: usize,
    },
    /// More data shards are missing than surviving parity shards can repair.
    TooManyErasures {
        /// Missing data shards.
        missing_data: usize,
        /// Surviving parity shards.
        surviving_parity: usize,
    },
    /// The elimination hit a zero pivot (cannot happen for the deployed
    /// parameter ranges; reported instead of returning wrong bytes).
    Singular,
    /// The surviving shards are mutually inconsistent (corruption that
    /// preserved shard lengths).
    Inconsistent,
}

impl core::fmt::Display for ErasureError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ErasureError::WrongShardCount { provided, expected } => {
                write!(f, "expected {expected} shard slots, got {provided}")
            }
            ErasureError::ShardLength {
                index,
                expected,
                actual,
            } => write!(
                f,
                "shard {index} has {actual} bytes, expected {expected}"
            ),
            ErasureError::TooManyErasures {
                missing_data,
                surviving_parity,
            } => write!(
                f,
                "{missing_data} data shards missing but only {surviving_parity} parity shards survive"
            ),
            ErasureError::Singular => write!(f, "erasure pattern yields a singular system"),
            ErasureError::Inconsistent => write!(f, "surviving shards are inconsistent"),
        }
    }
}

impl std::error::Error for ErasureError {}

/// XORs `src` into the front of `dst` (`dst` must be at least as long),
/// eight bytes at a time on the aligned middle.
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    assert!(dst.len() >= src.len(), "xor_into destination too short");
    let dst = &mut dst[..src.len()];
    let mut dst_words = dst.chunks_exact_mut(8);
    let mut src_words = src.chunks_exact(8);
    for (d, s) in dst_words.by_ref().zip(src_words.by_ref()) {
        let word =
            u64::from_ne_bytes(d.try_into().unwrap()) ^ u64::from_ne_bytes(s.try_into().unwrap());
        d.copy_from_slice(&word.to_ne_bytes());
    }
    for (d, s) in dst_words
        .into_remainder()
        .iter_mut()
        .zip(src_words.remainder())
    {
        *d ^= *s;
    }
}

/// Splits `blob` into `k` data shards and derives `m` shift-XOR parity
/// shards. Shard `i < k` is the `i`-th `shard_len` slice of the (zero-
/// padded) blob; shard `k + j` is parity `j`.
pub fn encode(params: &CodeParams, blob: &[u8]) -> Vec<Vec<u8>> {
    let k = params.data;
    let shard_len = params.shard_len(blob.len());
    let mut shards = Vec::with_capacity(params.total());
    for i in 0..k {
        let mut shard = vec![0u8; shard_len];
        let start = (i * shard_len).min(blob.len());
        let end = ((i + 1) * shard_len).min(blob.len());
        shard[..end - start].copy_from_slice(&blob[start..end]);
        shards.push(shard);
    }
    for j in 0..params.parity {
        let mut parity = vec![0u8; params.parity_len(blob.len(), j)];
        if shard_len > 0 {
            for (i, data) in shards[..k].iter().enumerate() {
                xor_into(&mut parity[i * j..], data);
            }
        }
        shards.push(parity);
    }
    shards
}

/// A sparse polynomial over GF(2)[x]: the sorted set of exponents with a
/// nonzero (byte-shift) coefficient. Elimination entries stay tiny for the
/// deployed `k`/`m`, so no dense representation is needed.
type Poly = Vec<usize>;

/// XOR-adds two exponent sets (terms appearing twice cancel).
fn poly_add(a: &Poly, b: &Poly) -> Poly {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            core::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            core::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            core::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Multiplies two sparse polynomials (exponent sums, with cancellation).
fn poly_mul(a: &Poly, b: &Poly) -> Poly {
    let mut out = Poly::new();
    for &ea in a {
        let shifted: Poly = b.iter().map(|&eb| ea + eb).collect();
        out = poly_add(&out, &shifted);
    }
    out
}

/// Applies a sparse polynomial to a byte vector: the XOR of `v` shifted by
/// each exponent.
fn poly_apply(poly: &Poly, v: &[u8]) -> Vec<u8> {
    let Some(&max) = poly.last() else {
        return Vec::new();
    };
    let mut out = vec![0u8; v.len() + max];
    for &e in poly {
        xor_into(&mut out[e..], v);
    }
    out
}

/// XORs two byte vectors of possibly different lengths.
fn vec_add(mut a: Vec<u8>, b: &[u8]) -> Vec<u8> {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    xor_into(&mut a, b);
    a
}

/// Divides `r` by the sparse polynomial `c` (lowest exponent first),
/// producing a quotient of exactly `out_len` bytes, then verifies the
/// product to reject inconsistent inputs.
fn poly_divide(c: &Poly, r: &[u8], out_len: usize) -> Result<Vec<u8>, ErasureError> {
    let Some(&d0) = c.first() else {
        return Err(ErasureError::Singular);
    };
    let offsets: Vec<usize> = c[1..].iter().map(|&d| d - d0).collect();
    let mut y = vec![0u8; out_len];
    for i in 0..out_len {
        let mut acc = r.get(d0 + i).copied().unwrap_or(0);
        for &t in &offsets {
            if i >= t {
                acc ^= y[i - t];
            }
        }
        y[i] = acc;
    }
    // The division is exact iff c * y reproduces r (padded with zeros).
    let product = poly_apply(c, &y);
    let longest = product.len().max(r.len());
    for i in 0..longest {
        if product.get(i).copied().unwrap_or(0) != r.get(i).copied().unwrap_or(0) {
            return Err(ErasureError::Inconsistent);
        }
    }
    Ok(y)
}

/// Recovers the original blob from any `k` surviving shards.
///
/// `shards` must have exactly `k + m` slots, `None` marking erasures; the
/// present shards must have the exact lengths [`encode`] produced for a
/// blob of `blob_len` bytes. Decoding is XOR-only: known-data contributions
/// are XORed out of the surviving parity shards, the residual system is
/// solved by fraction-free elimination (shift + XOR row combinations), and
/// each recovered shard comes out of a running-XOR division.
pub fn reconstruct(
    params: &CodeParams,
    blob_len: usize,
    shards: &[Option<Vec<u8>>],
) -> Result<Vec<u8>, ErasureError> {
    let k = params.data;
    if shards.len() != params.total() {
        return Err(ErasureError::WrongShardCount {
            provided: shards.len(),
            expected: params.total(),
        });
    }
    let shard_len = params.shard_len(blob_len);
    for (index, shard) in shards.iter().enumerate() {
        let Some(shard) = shard else { continue };
        let expected = if index < k {
            shard_len
        } else {
            params.parity_len(blob_len, index - k)
        };
        if shard.len() != expected {
            return Err(ErasureError::ShardLength {
                index,
                expected,
                actual: shard.len(),
            });
        }
    }
    if shard_len == 0 {
        return Ok(Vec::new());
    }

    let missing: Vec<usize> = (0..k).filter(|&i| shards[i].is_none()).collect();
    let mut data: Vec<Vec<u8>> = Vec::with_capacity(k);
    if missing.is_empty() {
        for shard in &shards[..k] {
            data.push(shard.clone().expect("no data shard is missing"));
        }
    } else {
        let chosen: Vec<usize> = (0..params.parity)
            .filter(|&j| shards[k + j].is_some())
            .take(missing.len())
            .collect();
        if chosen.len() < missing.len() {
            return Err(ErasureError::TooManyErasures {
                missing_data: missing.len(),
                surviving_parity: chosen.len(),
            });
        }
        // Residual rows: parity_j minus every surviving data contribution.
        let mut rows: Vec<Vec<u8>> = chosen
            .iter()
            .map(|&j| {
                let mut row = shards[k + j].clone().expect("chosen parities survive");
                for (i, shard) in shards[..k].iter().enumerate() {
                    if let Some(shard) = shard {
                        xor_into(&mut row[i * j..], shard);
                    }
                }
                row
            })
            .collect();
        // Monomial matrix of the unknowns: entry (row j, col s) = x^{e_s * j}.
        let t = missing.len();
        let mut mat: Vec<Vec<Poly>> = chosen
            .iter()
            .map(|&j| missing.iter().map(|&e| vec![e * j]).collect())
            .collect();
        // Fraction-free elimination: only shift-and-XOR row combinations.
        for col in 0..t {
            let pivot = (col..t)
                .find(|&r| !mat[r][col].is_empty())
                .ok_or(ErasureError::Singular)?;
            mat.swap(col, pivot);
            rows.swap(col, pivot);
            for r in col + 1..t {
                if mat[r][col].is_empty() {
                    continue;
                }
                let a = mat[col][col].clone();
                let b = mat[r][col].clone();
                let (head, tail) = mat.split_at_mut(r);
                for (cell, pivot) in tail[0][col..].iter_mut().zip(&head[col][col..]) {
                    *cell = poly_add(&poly_mul(&a, cell), &poly_mul(&b, pivot));
                }
                rows[r] = vec_add(poly_apply(&a, &rows[r]), &poly_apply(&b, &rows[col]));
            }
        }
        // Back-substitution, dividing by the sparse diagonal polynomial.
        let mut solved: Vec<Vec<u8>> = vec![Vec::new(); t];
        for row in (0..t).rev() {
            let mut rhs = core::mem::take(&mut rows[row]);
            for c2 in row + 1..t {
                rhs = vec_add(rhs, &poly_apply(&mat[row][c2], &solved[c2]));
            }
            solved[row] = poly_divide(&mat[row][row], &rhs, shard_len)?;
        }
        let mut recovered = solved.into_iter();
        for (i, shard) in shards[..k].iter().enumerate() {
            data.push(match shard {
                Some(shard) => shard.clone(),
                None => {
                    debug_assert!(missing.contains(&i));
                    recovered.next().expect("one solution per missing shard")
                }
            });
        }
    }

    let mut blob = Vec::with_capacity(k * shard_len);
    for shard in data {
        blob.extend_from_slice(&shard);
    }
    blob.truncate(blob_len);
    Ok(blob)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, RngCore, SeedableRng};

    fn blob(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out = vec![0u8; len];
        rng.fill_bytes(&mut out);
        out
    }

    /// Every subset of `0..n` with at most `max` elements.
    fn erasure_patterns(n: usize, max: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        for mask in 0u32..(1 << n) {
            let pattern: Vec<usize> = (0..n).filter(|i| mask & (1 << i) != 0).collect();
            if pattern.len() <= max {
                out.push(pattern);
            }
        }
        out
    }

    #[test]
    fn encode_shapes() {
        let params = CodeParams::new(3, 2);
        let shards = encode(&params, &blob(100, 1));
        assert_eq!(shards.len(), 5);
        assert_eq!(shards[0].len(), 34); // ceil(100 / 3)
        assert_eq!(shards[3].len(), 34); // parity 0: plain XOR
        assert_eq!(shards[4].len(), 34 + 2); // parity 1: + (k-1) bytes
    }

    #[test]
    fn systematic_fast_path() {
        let params = CodeParams::new(4, 2);
        let original = blob(1000, 2);
        let shards: Vec<Option<Vec<u8>>> =
            encode(&params, &original).into_iter().map(Some).collect();
        assert_eq!(reconstruct(&params, 1000, &shards).unwrap(), original);
    }

    #[test]
    fn every_loss_pattern_up_to_m_recovers_exhaustively() {
        for k in 1..=6usize {
            for m in 0..=3usize {
                let params = CodeParams::new(k, m);
                for blob_len in [0usize, 1, k, 7 * k + 3, 257] {
                    let original = blob(blob_len, (k * 251 + m * 31 + blob_len) as u64);
                    let encoded = encode(&params, &original);
                    for pattern in erasure_patterns(k + m, m) {
                        let mut shards: Vec<Option<Vec<u8>>> =
                            encoded.iter().cloned().map(Some).collect();
                        for &lost in &pattern {
                            shards[lost] = None;
                        }
                        let got = reconstruct(&params, blob_len, &shards).unwrap_or_else(|e| {
                            panic!("k={k} m={m} len={blob_len} pattern={pattern:?}: {e}")
                        });
                        assert_eq!(got, original, "k={k} m={m} pattern={pattern:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn losing_more_than_m_data_shards_is_typed() {
        let params = CodeParams::new(3, 1);
        let encoded = encode(&params, &blob(64, 3));
        let mut shards: Vec<Option<Vec<u8>>> = encoded.into_iter().map(Some).collect();
        shards[0] = None;
        shards[1] = None;
        assert_eq!(
            reconstruct(&params, 64, &shards),
            Err(ErasureError::TooManyErasures {
                missing_data: 2,
                surviving_parity: 1,
            })
        );
    }

    #[test]
    fn wrong_shard_length_is_typed() {
        let params = CodeParams::new(2, 1);
        let mut shards: Vec<Option<Vec<u8>>> = encode(&params, &blob(10, 4))
            .into_iter()
            .map(Some)
            .collect();
        shards[1].as_mut().unwrap().push(0);
        assert!(matches!(
            reconstruct(&params, 10, &shards),
            Err(ErasureError::ShardLength { index: 1, .. })
        ));
        assert!(matches!(
            reconstruct(&params, 10, &shards[..2]),
            Err(ErasureError::WrongShardCount { .. })
        ));
    }

    #[test]
    fn corrupted_parity_is_detected_not_mis_decoded() {
        // Flip a byte in a *surviving parity* shard while a data shard is
        // erased: the division check must flag the inconsistency.
        let params = CodeParams::new(3, 2);
        let original = blob(96, 5);
        let encoded = encode(&params, &original);
        let mut shards: Vec<Option<Vec<u8>>> = encoded.into_iter().map(Some).collect();
        shards[0] = None;
        shards[1] = None; // force use of parity 1 (shifted rows)
        shards[4].as_mut().unwrap()[7] ^= 0x40;
        assert!(matches!(
            reconstruct(&params, 96, &shards),
            Err(ErasureError::Inconsistent) | Err(ErasureError::Singular)
        ));
    }

    #[test]
    fn empty_blob_round_trips() {
        let params = CodeParams::new(3, 2);
        let encoded = encode(&params, &[]);
        assert!(encoded.iter().all(|s| s.is_empty()));
        let mut shards: Vec<Option<Vec<u8>>> = encoded.into_iter().map(Some).collect();
        shards[0] = None;
        assert_eq!(reconstruct(&params, 0, &shards).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn xor_into_matches_reference() {
        let a = blob(37, 6);
        let b = blob(29, 7);
        let mut fast = a.clone();
        xor_into(&mut fast, &b);
        let mut slow = a;
        for (d, s) in slow.iter_mut().zip(&b) {
            *d ^= *s;
        }
        assert_eq!(fast, slow);
    }
}
