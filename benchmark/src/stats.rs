//! Order statistics and the state checksum.

/// Percentile `q` in `[0, 1]` of `values` by linear interpolation
/// between the two nearest ranks (the "inclusive" method: `q = 0` is the
/// minimum, `q = 1` the maximum).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least one sample.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// `(max - min) / median`: the run-to-run spread the orchestrated modes
/// print beside every metric (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if m == 0.0 {
        return 0.0;
    }
    (percentile(values, 1.0) - percentile(values, 0.0)) / m.abs()
}

/// FNV-1a over 64-bit little-endian words (a trailing partial word is
/// zero-padded). Checksums a whole snapshot — fields, particles, GPMA,
/// counters and cache state — so one number pins the simulation state.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(PRIME);
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        h ^= u64::from_le_bytes(last);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// xorshift64: the benchmark's own generator for probe and calibration
/// inputs (never for simulation inputs, which come from `--seed` through
/// the workload builders). The calibration kernel's data depend on this
/// exact sequence.
pub struct XorShift64(pub u64);

impl XorShift64 {
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert_eq!(spread(&[9.0, 10.0, 11.0]), 0.2);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn fnv_distinguishes_content_and_length() {
        assert_ne!(fnv1a64(b"abcdefgh"), fnv1a64(b"abcdefgi"));
        assert_ne!(fnv1a64(b"abc"), fnv1a64(b"abcd"));
        assert_eq!(fnv1a64(b"abcdefghij"), fnv1a64(b"abcdefghij"));
    }
}
