//! Byte-level access to snapshots for the tests that damage them: the
//! section table, re-sealing a section's checksum after an edit (so the
//! decoders, not the checksum, meet the damage), and the index words of
//! each tile in the format-3 `PARTICLES` section.

// Each test binary uses its own subset of these helpers.
#![allow(dead_code)]

use matrix_pic::core::snapshot::section;

const HEADER_LEN: usize = 16;
const TABLE_ENTRY_LEN: usize = 28;

pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn read_u64(bytes: &[u8], at: usize) -> usize {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize
}

/// The section table of a well-formed snapshot: (id, payload offset,
/// payload length) per section.
pub fn section_table(bytes: &[u8]) -> Vec<(u32, usize, usize)> {
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    (0..count)
        .map(|i| {
            let e = HEADER_LEN + i * TABLE_ENTRY_LEN;
            let id = u32::from_le_bytes(bytes[e..e + 4].try_into().unwrap());
            (id, read_u64(bytes, e + 4), read_u64(bytes, e + 12))
        })
        .collect()
}

/// Recomputes the checksum of the section whose payload holds byte
/// `at` (the table must be intact).
pub fn reseal_at(bytes: &mut [u8], at: usize) {
    for (i, (_, off, len)) in section_table(bytes).into_iter().enumerate() {
        if (off..off + len).contains(&at) {
            let sum = fnv1a64(&bytes[off..off + len]);
            let e = HEADER_LEN + i * TABLE_ENTRY_LEN + 20;
            bytes[e..e + 8].copy_from_slice(&sum.to_le_bytes());
        }
    }
}

/// A length-prefixed vector of `u32` index words inside a snapshot.
#[derive(Debug, Clone, Copy)]
pub struct Words {
    /// Offset of the first word.
    pub at: usize,
    pub len: usize,
}

impl Words {
    pub fn get(&self, bytes: &[u8], i: usize) -> u32 {
        assert!(i < self.len);
        let at = self.at + 4 * i;
        u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
    }

    /// Overwrites word `i` and re-seals the section.
    pub fn set(&self, bytes: &mut [u8], i: usize, v: u32) {
        assert!(i < self.len);
        let at = self.at + 4 * i;
        bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
        reseal_at(bytes, at);
    }
}

/// One tile's index words in a format-3 `PARTICLES` section, plus its
/// SoA slot count.
#[derive(Debug, Clone, Copy)]
pub struct TileWords {
    pub slots: usize,
    pub free: Words,
    pub local_index: Words,
    pub bin_offsets: Words,
    pub free_stacks: Words,
}

/// Walks a well-formed format-3 `PARTICLES` section tile by tile.
pub fn particle_tiles(bytes: &[u8]) -> Vec<TileWords> {
    let (_, off, _) = *section_table(bytes)
        .iter()
        .find(|(id, _, _)| *id == section::PARTICLES)
        .expect("a PARTICLES section");
    // Charge, mass and gap ratio, then the tile count.
    let n_tiles = read_u64(bytes, off + 24);
    let mut at = off + 32;
    let mut vec = |width: usize, skip_after: usize| {
        let len = read_u64(bytes, at);
        let words = Words { at: at + 8, len };
        at += 8 + width * len + skip_after;
        words
    };
    (0..n_tiles)
        .map(|_| {
            let slots = vec(8, 0).len;
            for _ in 1..7 {
                let _ = vec(8, 0);
            }
            TileWords {
                slots,
                free: vec(4, 0),
                local_index: vec(4, 0),
                bin_offsets: vec(4, 0),
                // The gap ratio and the rebuild count follow.
                free_stacks: vec(4, 8 + 8),
            }
        })
        .collect()
}
