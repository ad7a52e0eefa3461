//! The deterministic checkpoint container format.
//!
//! A snapshot is a single byte buffer with a fixed header, a section
//! table and one checksummed payload slice per section:
//!
//! ```text
//! magic   [u8; 8] = "MPICSNAP"
//! version u32     = 3
//! count   u32     = number of sections
//! table   count x { id: u32, offset: u64, len: u64, fnv1a64: u64 }
//! payload concatenated section bytes (offsets are absolute)
//! ```
//!
//! All integers are little-endian; `f64` values travel as their IEEE-754
//! bit patterns, so a restored simulation resumes **bit-identically** —
//! no text round-trip, no locale, no rounding. Slot and particle numbers
//! travel as `u32` *index words*, `u32::MAX` standing for "none". The
//! format is hand-rolled and dependency-free on purpose: the
//! simulation's state inventory is small and stable, and an explicit
//! byte layout is auditable in a way a derived serializer is not.
//! Version 2 changed only the `PARTICLES` section, which stores only
//! state that cannot be derived; version 3 dropped the state no step
//! reads from `PARTICLES` and `CACHE` (see `crate::checkpoint`).
//!
//! [`write_snapshot`] writes a buffer in one pass: a counting run of the
//! encoders sizes it exactly, then the writing run encodes each section
//! in place behind the header and table, back-patching the table entry
//! and checksumming the section's slice as it closes. A snapshot
//! therefore costs its own size in memory and nothing more — no
//! per-section staging, no final copy, no growth. [`SnapshotReader`]
//! validates the header, table and every section checksum up front, then
//! hands out bounds-checked [`SectionReader`]s. Corrupt or truncated
//! input of any shape yields a structured [`SnapshotError`] — decoding
//! never panics (see `tests/snapshot.rs` for the per-section corruption
//! matrix and `tests/fuzz_lite.rs` for the restore fuzz target).

use std::fmt;

/// Leading magic bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"MPICSNAP";

/// Current format version.
pub const VERSION: u32 = 3;

/// Well-known section identifiers.
pub mod section {
    /// Configuration fingerprint (geometry, solver, kernel, dt).
    pub const META: u32 = 1;
    /// The nine guarded field arrays.
    pub const FIELDS: u32 = 2;
    /// Per-tile SoA and GPMA state; restore derives the rest.
    pub const PARTICLES: u32 = 3;
    /// RNG stream position.
    pub const RNG: u32 = 4;
    /// Step loop state: sort-policy counters, window, time, step index.
    pub const DRIVER: u32 = 5;
    /// Per-phase performance counters and cache statistics.
    pub const COUNTERS: u32 = 6;
    /// Behavioural cache-hierarchy state (tags, LRU, streams).
    pub const CACHE: u32 = 7;
    /// Virtual address map and allocator mark.
    pub const ADDRS: u32 = 8;
    /// The accumulated timing report.
    pub const REPORT: u32 = 9;
}

/// Why a snapshot failed to decode. Every variant is a *returned* error:
/// corrupt input of any shape must never panic the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer is shorter than the fixed header.
    TooShort,
    /// The magic bytes are wrong — not a snapshot at all.
    BadMagic,
    /// A version this build does not understand.
    BadVersion(u32),
    /// The section table is truncated or points outside the buffer.
    BadSectionTable,
    /// A section's payload does not match its recorded checksum.
    ChecksumMismatch {
        /// The failing section id.
        section: u32,
    },
    /// A required section is absent.
    MissingSection {
        /// The absent section id.
        section: u32,
    },
    /// A section decoded structurally but its contents are invalid.
    Malformed {
        /// The failing section id.
        section: u32,
        /// What was wrong.
        reason: &'static str,
    },
    /// The snapshot is valid but was taken from an incompatible
    /// configuration (different geometry, kernel, solver or timestep).
    Incompatible {
        /// Which fingerprint field disagreed.
        reason: &'static str,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::TooShort => write!(f, "snapshot shorter than header"),
            SnapshotError::BadMagic => write!(f, "bad snapshot magic"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::BadSectionTable => write!(f, "corrupt section table"),
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            SnapshotError::MissingSection { section } => {
                write!(f, "missing section {section}")
            }
            SnapshotError::Malformed { section, reason } => {
                write!(f, "malformed section {section}: {reason}")
            }
            SnapshotError::Incompatible { reason } => {
                write!(f, "incompatible snapshot: {reason}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit over a byte slice — small, dependency-free and plenty
/// for detecting accidental corruption (this is an integrity check, not
/// an authentication code).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const HEADER_LEN: usize = 8 + 4 + 4;
const TABLE_ENTRY_LEN: usize = 4 + 8 + 8 + 8;

/// Writes a snapshot into `out` (cleared first) in one pass, with `out`
/// sized once: `encode` runs twice over the same [`SnapshotWriter`]
/// calls, first counting bytes, then writing them into a buffer reserved
/// to exactly that size — so no byte is ever copied, and the only memory
/// a snapshot costs is the snapshot. A buffer reused across snapshots
/// (the driver's held checkpoint) is not reallocated when it is large
/// enough.
///
/// # Panics
///
/// Panics if `encode` misuses the writer (see
/// [`SnapshotWriter::begin_section`]) or writes differently on its two
/// runs — writer-side programming errors, not input-dependent ones.
pub fn write_snapshot(out: &mut Vec<u8>, encode: impl Fn(&mut SnapshotWriter<'_>)) {
    let mut counter = SnapshotWriter {
        sink: Sink::Count(0),
        ids: Vec::new(),
        open: None,
    };
    encode(&mut counter);
    counter.assert_closed();
    let Sink::Count(payload_len) = counter.sink else {
        unreachable!("the counting pass counts")
    };
    let sections = counter.ids.len();
    let total = HEADER_LEN + sections * TABLE_ENTRY_LEN + payload_len;
    out.clear();
    if out.capacity() < total {
        // Free the old buffer before taking the new one: growing in place
        // would copy it, and holding both would double the footprint.
        *out = Vec::new();
    }
    out.reserve_exact(total);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(sections as u32).to_le_bytes());
    // The table is back-patched as each section closes.
    out.resize(HEADER_LEN + sections * TABLE_ENTRY_LEN, 0);
    let mut writer = SnapshotWriter {
        sink: Sink::Write(out),
        ids: Vec::with_capacity(sections),
        open: None,
    };
    encode(&mut writer);
    writer.assert_closed();
    assert_eq!(writer.ids, counter.ids, "encoder wrote different sections");
    assert_eq!(out.len(), total, "encoder wrote different bytes");
}

/// Where a [`SnapshotWriter`]'s bytes go.
enum Sink<'a> {
    /// The counting pass: bytes are tallied, not stored.
    Count(usize),
    /// The writing pass, into the buffer being built.
    Write(&'a mut Vec<u8>),
}

/// Encodes sections for [`write_snapshot`], which drives it twice: once
/// counting, once writing.
pub struct SnapshotWriter<'a> {
    sink: Sink<'a>,
    /// Ids of the sections opened so far, in order.
    ids: Vec<u32>,
    /// Payload start of the open section.
    open: Option<usize>,
}

impl SnapshotWriter<'_> {
    /// Bytes counted or written so far.
    fn pos(&self) -> usize {
        match &self.sink {
            Sink::Count(n) => *n,
            Sink::Write(out) => out.len(),
        }
    }

    /// Opens a new section; subsequent `put_*` calls append to it.
    ///
    /// # Panics
    ///
    /// Panics if a section is already open or `id` repeats — both are
    /// writer-side programming errors, not input-dependent conditions.
    pub fn begin_section(&mut self, id: u32) {
        assert!(self.open.is_none(), "previous section not closed");
        assert!(!self.ids.contains(&id), "duplicate section id {id}");
        self.ids.push(id);
        self.open = Some(self.pos());
    }

    /// Closes the current section, filling in its table entry.
    pub fn end_section(&mut self) {
        let start = self.open.take().expect("no open section");
        if let Sink::Write(out) = &mut self.sink {
            let entry = HEADER_LEN + (self.ids.len() - 1) * TABLE_ENTRY_LEN;
            let body = &out[start..];
            let fields = [
                (start as u64).to_le_bytes(),
                (body.len() as u64).to_le_bytes(),
                fnv1a64(body).to_le_bytes(),
            ];
            let id = *self.ids.last().expect("an open section has an id");
            out[entry..entry + 4].copy_from_slice(&id.to_le_bytes());
            for (k, f) in fields.iter().enumerate() {
                out[entry + 4 + 8 * k..entry + 12 + 8 * k].copy_from_slice(f);
            }
        }
    }

    fn assert_closed(&self) {
        assert!(self.open.is_none(), "section left open at finish");
    }

    fn put_bytes(&mut self, bytes: &[u8]) {
        assert!(self.open.is_some(), "write outside a section");
        match &mut self.sink {
            Sink::Count(n) => *n += bytes.len(),
            Sink::Write(out) => out.extend_from_slice(bytes),
        }
    }

    /// Appends a length prefix and `v` as `N`-byte words: counted in
    /// O(1), written element by element.
    fn put_words<T: Copy, const N: usize>(&mut self, v: &[T], word: impl Fn(T) -> [u8; N]) {
        self.put_usize(v.len());
        match &mut self.sink {
            Sink::Count(n) => *n += N * v.len(),
            Sink::Write(out) => {
                for &x in v {
                    out.extend_from_slice(&word(x));
                }
            }
        }
    }

    /// Appends a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.put_bytes(&v.to_le_bytes());
    }

    /// Appends a `usize` widened to `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_bytes(&[u8::from(v)]);
    }

    /// Appends a length-prefixed `u64` vector.
    pub fn put_vec_u64(&mut self, v: &[u64]) {
        self.put_words(v, u64::to_le_bytes);
    }

    /// Appends a length-prefixed `f64` vector (bit patterns).
    pub fn put_vec_f64(&mut self, v: &[f64]) {
        self.put_words(v, |x| x.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.put_bytes(s.as_bytes());
    }

    /// Appends `len` index words, length-prefixed. The counting pass
    /// does not iterate `words`.
    ///
    /// # Panics
    ///
    /// Panics if `words` does not yield exactly `len` items.
    pub fn put_index_words(&mut self, len: usize, words: impl IntoIterator<Item = usize>) {
        self.put_usize(len);
        match &mut self.sink {
            Sink::Count(n) => *n += 4 * len,
            Sink::Write(out) => {
                let start = out.len();
                for v in words {
                    out.extend_from_slice(&index_word(v));
                }
                assert_eq!(out.len() - start, 4 * len, "index word count");
            }
        }
    }
}

/// An index word: a slot or particle number as a little-endian `u32`,
/// with the "none" marker `usize::MAX` (`INVALID_PARTICLE_ID`, an absent
/// bin) stored as `u32::MAX`.
///
/// # Panics
///
/// Panics on any other value that does not fit below `u32::MAX` — a
/// tile of four billion slots, a writer-side limit.
fn index_word(v: usize) -> [u8; 4] {
    let w = if v == usize::MAX {
        u32::MAX
    } else {
        u32::try_from(v)
            .ok()
            .filter(|&w| w != u32::MAX)
            .expect("index word exceeds u32")
    };
    w.to_le_bytes()
}

/// Parses and validates a snapshot buffer, handing out per-section
/// readers. Construction verifies the header, the table bounds and every
/// section checksum, so a reader that exists is structurally sound.
pub struct SnapshotReader<'a> {
    data: &'a [u8],
    /// `(id, offset, len)` per section, bounds- and checksum-verified.
    table: Vec<(u32, usize, usize)>,
}

impl<'a> SnapshotReader<'a> {
    /// Validates the container and builds the section index.
    pub fn new(data: &'a [u8]) -> Result<Self, SnapshotError> {
        if data.len() < HEADER_LEN {
            return Err(SnapshotError::TooShort);
        }
        if data[..8] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
        if version != VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        let count = u32::from_le_bytes(data[12..16].try_into().expect("4 bytes")) as usize;
        let table_end = HEADER_LEN
            .checked_add(
                count
                    .checked_mul(TABLE_ENTRY_LEN)
                    .ok_or(SnapshotError::BadSectionTable)?,
            )
            .ok_or(SnapshotError::BadSectionTable)?;
        if table_end > data.len() {
            return Err(SnapshotError::BadSectionTable);
        }
        let mut table = Vec::with_capacity(count);
        for i in 0..count {
            let e = HEADER_LEN + i * TABLE_ENTRY_LEN;
            let id = u32::from_le_bytes(data[e..e + 4].try_into().expect("4 bytes"));
            let offset = u64::from_le_bytes(data[e + 4..e + 12].try_into().expect("8 bytes"));
            let len = u64::from_le_bytes(data[e + 12..e + 20].try_into().expect("8 bytes"));
            let sum = u64::from_le_bytes(data[e + 20..e + 28].try_into().expect("8 bytes"));
            let (offset, len) = (
                usize::try_from(offset).map_err(|_| SnapshotError::BadSectionTable)?,
                usize::try_from(len).map_err(|_| SnapshotError::BadSectionTable)?,
            );
            let end = offset
                .checked_add(len)
                .ok_or(SnapshotError::BadSectionTable)?;
            if offset < table_end || end > data.len() {
                return Err(SnapshotError::BadSectionTable);
            }
            if fnv1a64(&data[offset..end]) != sum {
                return Err(SnapshotError::ChecksumMismatch { section: id });
            }
            table.push((id, offset, len));
        }
        Ok(Self { data, table })
    }

    /// A bounds-checked reader over one section's payload.
    pub fn section(&self, id: u32) -> Result<SectionReader<'a>, SnapshotError> {
        let &(_, offset, len) = self
            .table
            .iter()
            .find(|(sid, _, _)| *sid == id)
            .ok_or(SnapshotError::MissingSection { section: id })?;
        Ok(SectionReader {
            id,
            data: &self.data[offset..offset + len],
            pos: 0,
        })
    }
}

/// Sequential bounds-checked decoder over one section's bytes. Every
/// read that would pass the end returns [`SnapshotError::Malformed`].
pub struct SectionReader<'a> {
    id: u32,
    data: &'a [u8],
    pos: usize,
}

impl SectionReader<'_> {
    fn malformed(&self, reason: &'static str) -> SnapshotError {
        SnapshotError::Malformed {
            section: self.id,
            reason,
        }
    }

    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| self.malformed("field runs past the section end"))?;
        let s = &self.data[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `u64` and narrows it to `usize`.
    pub fn get_usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.get_u64()?).map_err(|_| self.malformed("count exceeds usize"))
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `bool`; bytes other than 0/1 are malformed.
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.malformed("boolean byte is neither 0 nor 1")),
        }
    }

    /// Reads a length prefix for `elem_bytes`-wide elements, refusing
    /// lengths the remaining bytes cannot possibly hold (so corrupt
    /// counts cannot trigger huge allocations).
    fn get_len(&mut self, elem_bytes: usize) -> Result<usize, SnapshotError> {
        let len = self.get_usize()?;
        if len
            .checked_mul(elem_bytes)
            .is_none_or(|bytes| bytes > self.remaining())
        {
            return Err(self.malformed("vector length exceeds the section"));
        }
        Ok(len)
    }

    /// Reads a length-prefixed `u64` vector.
    pub fn get_vec_u64(&mut self) -> Result<Vec<u64>, SnapshotError> {
        let len = self.get_len(8)?;
        (0..len).map(|_| self.get_u64()).collect()
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn get_vec_f64(&mut self) -> Result<Vec<f64>, SnapshotError> {
        let len = self.get_len(8)?;
        (0..len).map(|_| self.get_f64()).collect()
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_string(&mut self) -> Result<String, SnapshotError> {
        let len = self.get_len(1)?;
        let bytes = self.take(len)?.to_vec();
        String::from_utf8(bytes).map_err(|_| self.malformed("string is not UTF-8"))
    }

    /// Reads one index word; `u32::MAX` reads as `usize::MAX`.
    fn get_index(&mut self) -> Result<usize, SnapshotError> {
        Ok(match self.get_u32()? {
            u32::MAX => usize::MAX,
            w => w as usize,
        })
    }

    /// Reads a length-prefixed vector of index words.
    pub fn get_vec_index(&mut self) -> Result<Vec<usize>, SnapshotError> {
        let len = self.get_len(4)?;
        (0..len).map(|_| self.get_index()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_sample(w: &mut SnapshotWriter<'_>) {
        w.begin_section(section::META);
        w.put_u64(42);
        w.put_f64(1.5);
        w.put_str("hello");
        w.end_section();
        w.begin_section(section::RNG);
        w.put_vec_u64(&[1, 2, 3]);
        w.put_bool(true);
        w.end_section();
    }

    fn sample() -> Vec<u8> {
        let mut buf = Vec::new();
        write_snapshot(&mut buf, encode_sample);
        buf
    }

    #[test]
    fn layout_is_header_table_then_payload() {
        let buf = sample();
        let meta_len = 8 + 8 + (8 + 5);
        let rng_len = (8 + 3 * 8) + 1;
        let payload = HEADER_LEN + 2 * TABLE_ENTRY_LEN;
        assert_eq!(buf.len(), payload + meta_len + rng_len);
        assert_eq!(buf.capacity(), buf.len(), "sized once, exactly");
        let entry = |i: usize, k: usize| {
            let at = HEADER_LEN + i * TABLE_ENTRY_LEN + 4 + 8 * k;
            u64::from_le_bytes(buf[at..at + 8].try_into().unwrap()) as usize
        };
        assert_eq!((entry(0, 0), entry(0, 1)), (payload, meta_len));
        assert_eq!((entry(1, 0), entry(1, 1)), (payload + meta_len, rng_len));
        let rng = &buf[payload + meta_len..];
        assert_eq!(entry(1, 2) as u64, fnv1a64(rng));
    }

    #[test]
    fn a_large_enough_buffer_is_reused_in_place() {
        let mut buf = Vec::with_capacity(4096);
        let at = buf.as_ptr();
        write_snapshot(&mut buf, encode_sample);
        assert_eq!(buf.as_ptr(), at, "reallocated a buffer that fit");
        assert_eq!(buf, sample());
        let mut small = vec![7u8; 3];
        write_snapshot(&mut small, encode_sample);
        assert_eq!(small, sample());
    }

    #[test]
    fn round_trip_reads_back_every_field() {
        let buf = sample();
        let r = SnapshotReader::new(&buf).expect("valid snapshot");
        let mut meta = r.section(section::META).expect("meta present");
        assert_eq!(meta.get_u64().unwrap(), 42);
        assert_eq!(meta.get_f64().unwrap().to_bits(), 1.5f64.to_bits());
        assert_eq!(meta.get_string().unwrap(), "hello");
        assert_eq!(meta.remaining(), 0);
        let mut rng = r.section(section::RNG).expect("rng present");
        assert_eq!(rng.get_vec_u64().unwrap(), vec![1, 2, 3]);
        assert!(rng.get_bool().unwrap());
    }

    #[test]
    fn header_corruption_is_structured() {
        let buf = sample();
        assert_eq!(
            SnapshotReader::new(&buf[..4]).err(),
            Some(SnapshotError::TooShort)
        );
        let mut bad_magic = buf.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(
            SnapshotReader::new(&bad_magic).err(),
            Some(SnapshotError::BadMagic)
        );
        let mut bad_version = buf.clone();
        bad_version[8] = 99;
        assert_eq!(
            SnapshotReader::new(&bad_version).err(),
            Some(SnapshotError::BadVersion(99))
        );
        // Truncating into the payload breaks the table bounds.
        assert!(matches!(
            SnapshotReader::new(&buf[..buf.len() - 3]).err(),
            Some(SnapshotError::BadSectionTable | SnapshotError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn payload_flip_fails_the_right_sections_checksum() {
        let buf = sample();
        // Flip the last payload byte: that's the RNG section's tail.
        let mut bad = buf.clone();
        *bad.last_mut().unwrap() ^= 0x01;
        assert_eq!(
            SnapshotReader::new(&bad).err(),
            Some(SnapshotError::ChecksumMismatch {
                section: section::RNG
            })
        );
    }

    #[test]
    fn missing_section_and_overreads_are_errors() {
        let buf = sample();
        let r = SnapshotReader::new(&buf).expect("valid snapshot");
        assert_eq!(
            r.section(section::FIELDS).err(),
            Some(SnapshotError::MissingSection {
                section: section::FIELDS
            })
        );
        let mut rng = r.section(section::RNG).unwrap();
        let _ = rng.get_vec_u64().unwrap();
        let _ = rng.get_bool().unwrap();
        assert!(matches!(
            rng.get_u64().err(),
            Some(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn hostile_vector_length_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        write_snapshot(&mut buf, |w| {
            w.begin_section(section::FIELDS);
            w.put_u64(u64::MAX); // Claimed element count.
            w.end_section();
        });
        let r = SnapshotReader::new(&buf).unwrap();
        let mut s = r.section(section::FIELDS).unwrap();
        assert!(matches!(
            s.get_vec_f64().err(),
            Some(SnapshotError::Malformed { .. })
        ));
    }

    #[test]
    fn fnv_vector_is_stable() {
        // Pin the checksum function: a silent change would invalidate
        // every snapshot in the wild while still "round-tripping" in
        // fresh tests.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
