//! CRC32 (IEEE 802.3 reflected polynomial), the one checksum the repo
//! stamps on bytes that leave a process: every wire frame's trailer
//! (`selsync-net`) and every SSV2 checkpoint (`selsync-core`). Local
//! implementation, no external dependency.
//!
//! Slice-by-16: sixteen 256-entry tables, built at compile time, fold
//! sixteen input bytes into the running CRC per step with sixteen
//! independent lookups instead of sixteen dependent ones. Safe Rust
//! only; the checksum is the classic bytewise table loop's, bit for bit.

/// `TABLES[k][b]` is the CRC register contribution of byte `b` followed
/// by `k` zero bytes; `TABLES[0]` is the classic bytewise table.
const TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC32 of `bytes` (IEEE, as used by zip/gzip/ethernet).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = !0u32;
    let (blocks, tail) = bytes.as_chunks::<16>();
    for b in blocks {
        // the register absorbs the first four bytes; each byte's table
        // index counts the block bytes still to come after it
        let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(x & 0xFF) as usize]
            ^ t[14][((x >> 8) & 0xFF) as usize]
            ^ t[13][((x >> 16) & 0xFF) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &b in tail {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::crc32;

    /// Table-free CRC-32: one polynomial step per bit. Slow and obvious,
    /// the oracle the table-driven [`crc32`] is checked against.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    /// `len` bytes from a seeded xorshift64 stream.
    fn seeded(len: usize, seed: u64) -> Vec<u8> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn matches_the_ieee_check_value() {
        // the standard CRC-32 check: crc32("123456789") = 0xCBF43926
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn matches_the_bitwise_oracle_at_every_length_and_alignment() {
        let buf = seeded(256 + 16, 0x5EED_C0DE);
        for start in 0..16 {
            for len in 0..=256 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32(bytes),
                    crc32_bitwise(bytes),
                    "start {start} len {len}"
                );
            }
        }
    }

    #[test]
    fn pinned_value_of_a_seeded_mebibyte() {
        // computed with the bytewise single-table loop this crate shipped
        // before the sliced one: the checksum of existing frames and
        // checkpoints must not move
        let buf = seeded(1 << 20, 0x5EED_C0DE);
        assert_eq!(crc32(&buf), 0x6D00_0D5E);
    }
}
