//! CRC-32C (Castagnoli), the frame trailer's corruption detector.
//!
//! Reflected polynomial `0x82F63B78`, initial value and final XOR `!0`; the
//! check value for `"123456789"` is `0xE3069283` (RFC 3720 §12.1, B.4). One
//! portable implementation: slicing-by-8 over tables built at compile time.

const POLY: u32 = 0x82F6_3B78;

/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes, which lets eight input bytes be
/// folded with eight independent lookups.
static TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
};

/// Extends `crc` — the CRC-32C of everything before `data`, `0` for nothing —
/// over `data`. `append(append(0, a), b)` equals `append(0, a ‖ b)`.
pub(crate) fn append(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::append;
    use proptest::prelude::*;

    #[test]
    fn check_value() {
        assert_eq!(append(0, b"123456789"), 0xE306_9283);
        assert_eq!(append(0, b""), 0);
    }

    /// RFC 3720 B.4 (the RFC prints the same values in wire order, least
    /// significant byte first: `aa 36 91 8a`, ...).
    #[test]
    fn rfc3720_vectors() {
        let ascending: Vec<u8> = (0u8..32).collect();
        assert_eq!(append(0, &[0x00; 32]), 0x8A91_36AA);
        assert_eq!(append(0, &[0xFF; 32]), 0x62A8_AB43);
        assert_eq!(append(0, &ascending), 0x46DD_794E);
    }

    proptest! {
        #[test]
        fn split_parts_equal_the_concatenation(
            data in proptest::collection::vec(any::<u8>(), 0..300),
            cuts in proptest::collection::vec(any::<usize>(), 0..4),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut crc = 0;
            let mut start = 0;
            for cut in cuts {
                crc = append(crc, &data[start..cut]);
                start = cut;
            }
            prop_assert_eq!(append(crc, &data[start..]), append(0, &data));
        }
    }
}
