//! The one checksum: CRC-32 (IEEE), guarding wire frames and snapshot
//! chunks alike.
//!
//! It is computed eight bytes at a time ("slicing-by-8"): table `k` holds
//! the CRC of a byte followed by `k` zero bytes, so one step folds eight
//! input bytes with eight lookups instead of eight dependent table steps.
//! Every request and reply is checksummed at both ends, and at 145–600 B
//! per frame the byte-at-a-time loop cost about 2.7 ns/B against 0.6 ns/B
//! for this one (EXPERIMENTS.md, "One image per row").

/// CRC-32 (IEEE 802.3 polynomial, reflected) lookup tables, built at
/// compile time: `CRC_TABLES[0]` is the classic byte table, and
/// `CRC_TABLES[k][b]` is the CRC state after byte `b` and `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `data`.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop: the oracle the sliced one must match.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    /// xorshift64: deterministic bytes for the differential tests.
    fn bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    #[test]
    fn crc32_known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn sliced_matches_bytewise_at_every_short_length() {
        let data = bytes(0x5EED, 64 + 8);
        for len in 0..=64 {
            // Every start offset of one word, so no alignment is assumed.
            for start in 0..8 {
                let slice = &data[start..start + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "len {len} at {start}");
            }
        }
        for fill in [0x00, 0xFF] {
            let uniform = [fill; 64];
            for len in 0..=64 {
                assert_eq!(crc32(&uniform[..len]), crc32_bytewise(&uniform[..len]));
            }
        }
    }

    #[test]
    fn sliced_matches_bytewise_on_random_buffers() {
        for seed in 1..=200u64 {
            let len = (seed as usize * 7919) % 5000;
            let data = bytes(seed, len);
            assert_eq!(crc32(&data), crc32_bytewise(&data), "seed {seed} len {len}");
        }
    }
}
