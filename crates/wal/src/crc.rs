//! CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), the checksum guarding
//! every WAL frame, checkpoint body and wire frame.
//!
//! Hand-rolled (the environment has no crates.io access): slice-by-8 —
//! eight 256-entry tables computed at compile time, eight input bytes
//! folded per step, the under-8-byte tail finished one byte at a time off
//! the first table. Same polynomial and parametrization as the one-table
//! loop it replaced, so every checksum already on disk stays valid; that
//! loop lives on in this module's tests as the oracle.

/// `TABLES[0]` is the classic byte-at-a-time table for the reflected IEEE
/// polynomial; `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, which is what lets eight bytes be folded independently.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
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
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// The CRC-32 of `bytes` (init `0xFFFF_FFFF`, final XOR `0xFFFF_FFFF` — the
/// same parametrization as zlib's `crc32`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let &[b0, b1, b2, b3, b4, b5, b6, b7] = c else {
            continue; // chunks_exact(8) yields 8-byte slices only
        };
        let lo = crc ^ u32::from_le_bytes([b0, b1, b2, b3]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][b4 as usize]
            ^ t[2][b5 as usize]
            ^ t[1][b6 as usize]
            ^ t[0][b7 as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-table, byte-at-a-time loop `crc32` used to be: the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let mut data = b"the quick brown fox".to_vec();
        let clean = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                data[i] ^= 1 << bit;
                assert_ne!(crc32(&data), clean, "flip at byte {i} bit {bit}");
                data[i] ^= 1 << bit;
            }
        }
        assert_eq!(crc32(&data), clean);
    }

    /// The checksums `write_checkpoint` and `log_transaction` put on disk
    /// are the oracle's: a directory written before slice-by-8 opens after
    /// it and the reverse, with no format version bump.
    #[test]
    fn checksums_on_disk_are_the_bytewise_oracles() {
        use crate::{write_checkpoint, Persistence, PersistenceOptions};
        use storage::{row, Catalog, Schema, SqlType, Table};

        let dir = crate::test_dir::TestDir::new("crc_golden");
        let u32_at =
            |bytes: &[u8], at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());

        let mut t = Table::with_period(
            Schema::of(&[
                ("name", SqlType::Str),
                ("ts", SqlType::Int),
                ("te", SqlType::Int),
            ]),
            1,
            2,
        );
        for i in 0..100 {
            t.push(row![format!("emp{i}"), i, i + 7]);
        }
        let mut catalog = Catalog::new();
        catalog.register("works", t);
        let path = write_checkpoint(&dir, 1, 0, &catalog).unwrap();
        // [magic: 8][format version: u32][crc: u32][body_len: u64][body]
        let file = std::fs::read(path).unwrap();
        assert_eq!(u32_at(&file, 12), crc32_bytewise(&file[24..]));

        let (mut p, _) = Persistence::open(&dir, PersistenceOptions::default()).unwrap();
        let unit: Vec<String> = (0..3)
            .map(|i| format!("INSERT INTO works VALUES ('x{i}', {i}, {})", i + 40))
            .collect();
        p.log_transaction(&unit).unwrap();
        drop(p);
        // [magic: 8] then [payload_len: u32][crc: u32][payload] per unit
        let log = std::fs::read(dir.join("wal.log")).unwrap();
        let (mut at, mut frames) = (8, 0);
        while at < log.len() {
            let len = u32_at(&log, at) as usize;
            let payload = &log[at + 8..at + 8 + len];
            assert_eq!(u32_at(&log, at + 4), crc32_bytewise(payload));
            at += 8 + len;
            frames += 1;
        }
        assert_eq!(frames, 1, "the unit is one frame");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every length 0..=64 at every alignment 0..8 of a random buffer:
        /// all head/body/tail splits of the 8-byte stride.
        #[test]
        fn prop_matches_the_bytewise_oracle_at_every_offset_and_short_length(
            buf in proptest::collection::vec(0u8..=255, 72..73),
        ) {
            for start in 0..8 {
                for len in 0..=64 {
                    let s = &buf[start..start + len];
                    prop_assert_eq!(crc32(s), crc32_bytewise(s), "start {} len {}", start, len);
                }
            }
        }

        /// Random lengths up to 1 MiB (the buffer is a cheap keyed sequence;
        /// the checksum sees every byte of it).
        #[test]
        fn prop_matches_the_bytewise_oracle_on_long_inputs(
            len in 0usize..(1 << 20),
            key in 0u64..u64::MAX,
        ) {
            let buf: Vec<u8> = (0..len as u64)
                .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ key).to_le_bytes()[3])
                .collect();
            prop_assert_eq!(crc32(&buf), crc32_bytewise(&buf));
        }
    }
}
