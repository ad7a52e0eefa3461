//! Two-level set-associative cache simulation.
//!
//! The deposition kernel is memory-bound (the paper reports 40-70% of PIC
//! runtime spent there, driven by "poor data locality stemming from the
//! unordered nature of particles"). To reproduce that behaviour the
//! emulator routes every memory operation through this cache model:
//! unsorted particle streams touch grid/rhocell lines in a scattered
//! pattern and miss, while the GPMA-sorted order reuses the same lines and
//! hits. This is what makes the incremental sorter's benefit *measured*
//! rather than assumed.
//!
//! The model is a classic inclusive two-level write-allocate hierarchy with
//! true-LRU replacement per set. Only tags are tracked; data lives in the
//! host arrays.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy)]
pub struct CacheLevelConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: usize,
}

impl CacheLevelConfig {
    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.ways * self.line_bytes)
    }
}

/// Hit/miss statistics for one level.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[must_use]
pub struct CacheStats {
    /// Number of accesses that hit this level.
    pub hits: u64,
    /// Number of accesses that missed this level.
    pub misses: u64,
}

impl CacheStats {
    /// Adds another statistics snapshot into this one (worker merge).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Index of the first element satisfying `pred` — what a front-to-back
/// `position()` scan returns — without a data-dependent branch per
/// element: each chunk of eight is tested into a byte mask (one byte per
/// element) and `trailing_zeros` picks the first set byte. With the
/// length known at compile time (fixed-size arrays, see
/// [`CacheLevel::probe`]) the inner loop has a constant trip count and
/// compiles to a few vector compares.
#[inline(always)]
fn first_where(vals: &[u64], pred: impl Fn(u64) -> bool) -> Option<usize> {
    for (c, chunk) in vals.chunks(8).enumerate() {
        let mut hits = [0u8; 8];
        for (h, &v) in hits.iter_mut().zip(chunk) {
            *h = u8::from(pred(v));
        }
        let hits = u64::from_le_bytes(hits);
        if hits != 0 {
            return Some(c * 8 + (hits.trailing_zeros() / 8) as usize);
        }
    }
    None
}

/// Probes one set for `line` and leaves it resident and most recently
/// used: on a hit the matching way's stamp is refreshed, on a miss the
/// line is filled into the first empty way, else over the LRU way (the
/// first way holding the smallest stamp). Returns `(way, hit)`.
///
/// The only set-probe body of the model: the array form and the slice
/// fallback of [`CacheLevel::access`] both inline this function.
#[inline(always)]
fn probe_set(tags: &mut [u64], stamps: &mut [u64], line: u64, clock: u64) -> (usize, bool) {
    debug_assert_eq!(tags.len(), stamps.len());
    let hit = first_where(tags, |t| t == line);
    let way = hit
        .or_else(|| first_where(tags, |t| t == u64::MAX))
        .unwrap_or_else(|| {
            // A set has at least one way, so the minimum is always found.
            let oldest = stamps.iter().fold(u64::MAX, |m, &s| m.min(s));
            first_where(stamps, |s| s == oldest).unwrap_or(0)
        });
    tags[way] = line;
    stamps[way] = clock;
    (way, hit.is_some())
}

/// One set-associative level, tag-only with true LRU.
#[derive(Debug, Clone)]
struct CacheLevel {
    ways: usize,
    set_mask: u64,
    /// `tags[set * ways + way]`; `u64::MAX` marks an empty way.
    tags: Vec<u64>,
    /// LRU timestamps parallel to `tags`.
    stamps: Vec<u64>,
    clock: u64,
    stats: CacheStats,
    /// Way hint (host-only): `hint[line & hint_mask]` is the tag slot
    /// where a line with those low bits was last found or placed. A line
    /// a reachable state holds sits in its own set at exactly one way
    /// (what [`CacheLevel::accepts`] checks of imports), so when the
    /// hinted slot's tag is `line` the set scan would have found that
    /// same way, and the access is that hit without the scan. A stale or
    /// colliding hint fails the tag compare and the scan runs as
    /// before; the hint is never exported, flushed or compared.
    hint: Vec<u32>,
    hint_mask: u64,
    #[cfg(test)]
    fault: HintFault,
}

impl CacheLevel {
    /// An empty level of geometry `cfg` with a way hint of `hints`
    /// entries (a power of two).
    fn new(cfg: CacheLevelConfig, hints: usize) -> Self {
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be 2^k");
        let sets = cfg.num_sets();
        assert!(sets.is_power_of_two(), "set count must be 2^k");
        assert!(sets > 0 && cfg.ways > 0);
        assert!(hints.is_power_of_two());
        let slots = sets * cfg.ways;
        assert!(u32::try_from(slots).is_ok(), "tag slots must fit a hint");
        Self {
            ways: cfg.ways,
            set_mask: (sets - 1) as u64,
            tags: vec![u64::MAX; slots],
            stamps: vec![0; slots],
            clock: 0,
            stats: CacheStats::default(),
            hint: vec![0; hints],
            hint_mask: (hints - 1) as u64,
            #[cfg(test)]
            fault: HintFault::None,
        }
    }

    /// [`probe_set`] on the `WAYS`-wide set starting at tag slot `base`,
    /// handed over as fixed-size arrays so the body is compiled for that
    /// associativity.
    #[inline(always)]
    fn probe<const WAYS: usize>(&mut self, base: usize, line: u64) -> (usize, bool) {
        let tags: &mut [u64; WAYS] = (&mut self.tags[base..base + WAYS])
            .try_into()
            .expect("slice is WAYS long");
        let stamps: &mut [u64; WAYS] = (&mut self.stamps[base..base + WAYS])
            .try_into()
            .expect("slice is WAYS long");
        probe_set(tags, stamps, line, self.clock)
    }

    /// Looks up (and on miss, fills) cache line `line` (a line id:
    /// byte address `>> line_shift`). Returns `true` on hit.
    #[inline(always)]
    fn access(&mut self, line: u64) -> bool {
        debug_assert_ne!(line, u64::MAX, "the empty-way tag is no line id");
        self.clock += 1;
        let h = (line & self.hint_mask) as usize;
        let hinted = self.hint[h] as usize;
        let trusted = self.tags[hinted] == line;
        #[cfg(test)]
        let trusted = trusted || self.fault == HintFault::Unchecked;
        if trusted {
            // The hit the scan would find, with its effects: clock tick,
            // stamp refresh, hit count.
            self.stamps[hinted] = self.clock;
            self.stats.hits += 1;
            return true;
        }
        let base = (line & self.set_mask) as usize * self.ways;
        // The lx2 geometries (8-way L1, 16-way L2) get the array form;
        // anything else runs the same body over a slice.
        let (way, hit) = match self.ways {
            8 => self.probe::<8>(base, line),
            16 => self.probe::<16>(base, line),
            ways => probe_set(
                &mut self.tags[base..base + ways],
                &mut self.stamps[base..base + ways],
                line,
                self.clock,
            ),
        };
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        let slot = base + way;
        #[cfg(test)]
        let slot_hinted = self.fault != HintFault::NotRefreshed;
        #[cfg(not(test))]
        let slot_hinted = true;
        if slot_hinted {
            self.hint[h] = slot as u32;
        }
        hit
    }

    /// Empties every way. The hint stays: an empty way matches no line.
    fn flush(&mut self) {
        self.tags.fill(u64::MAX);
        self.stamps.fill(0);
    }

    fn export_state(&self) -> CacheLevelState {
        CacheLevelState {
            tags: self.tags.clone(),
            stamps: self.stamps.clone(),
            clock: self.clock,
        }
    }

    /// Whether `s` is a state a walk of this level's geometry can reach:
    /// tag and stamp arrays of this length, and every non-empty tag in
    /// its own set, at most once per set — the property the way hint's
    /// tag compare relies on.
    fn accepts(&self, s: &CacheLevelState) -> bool {
        s.tags.len() == self.tags.len()
            && s.stamps.len() == self.stamps.len()
            && s.tags.chunks(self.ways).enumerate().all(|(set, ways)| {
                ways.iter().enumerate().all(|(w, &tag)| {
                    tag == u64::MAX
                        || (tag & self.set_mask == set as u64 && !ways[..w].contains(&tag))
                })
            })
    }

    /// Imports a state [`CacheLevel::accepts`]. The hint is left as it
    /// is: a slot it names that now holds another line fails the tag
    /// compare.
    fn import_state(&mut self, s: &CacheLevelState) {
        self.tags.copy_from_slice(&s.tags);
        self.stamps.copy_from_slice(&s.stamps);
        self.clock = s.clock;
    }
}

/// Plain-integer image of one level's behavioural state: tags, LRU
/// stamps and clock — everything that influences the latency of
/// *future* accesses. Statistics are deliberately excluded: they are
/// accounting, owned by the counter drain/absorb protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheLevelState {
    /// Resident line tags, `tags[set * ways + way]` (`u64::MAX` empty).
    pub tags: Vec<u64>,
    /// LRU timestamps parallel to `tags`.
    pub stamps: Vec<u64>,
    /// LRU clock.
    pub clock: u64,
}

/// Complete behavioural state of a [`CacheSim`]: both levels plus the
/// stream-prefetcher slots and decay tick. Exporting this and importing
/// it into a hierarchy of identical geometry makes every future access
/// cost bit-identical to the original — the property checkpoint/restore
/// builds on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheSimState {
    /// L1 behavioural state.
    pub l1: CacheLevelState,
    /// L2 behavioural state.
    pub l2: CacheLevelState,
    /// Stream-prefetcher slots as `(last_line, confidence)`; always
    /// `STREAM_SLOTS` (32) entries.
    pub streams: Vec<(u64, u32)>,
    /// Random-miss insertion counter driving periodic confidence decay.
    pub decay_tick: u32,
}

/// Number of hardware stream-prefetcher slots modelled.
const STREAM_SLOTS: usize = 32;

/// The two-level hierarchy with configurable latencies and a simple
/// next-line stream prefetcher: a DRAM miss whose line is adjacent to a
/// recently missed line is treated as prefetched and charged the
/// (bandwidth-limited) streaming cost instead of full latency. Without
/// this, sequential SoA sweeps would pay random-access latency and the
/// sorted-vs-unsorted contrast central to the paper would be understated.
#[derive(Debug, Clone)]
pub struct CacheSim {
    l1: CacheLevel,
    l2: CacheLevel,
    /// `log2` of the line size both levels share.
    line_shift: u32,
    /// Accessed or imported since the last flush; a clean hierarchy
    /// already equals its flushed state, so [`CacheSim::flush`] skips it.
    dirty: bool,
    l1_hit_cy: f64,
    l2_hit_cy: f64,
    dram_cy: f64,
    stream_cy: f64,
    /// Tracked miss streams as `(last_line, confidence)`; confidence
    /// counts stream hits so one-off random misses cannot evict an
    /// established stream.
    streams: [(u64, u32); STREAM_SLOTS],
    /// Counts random-miss insertions; drives periodic confidence decay.
    decay_tick: u32,
    /// DRAM misses served at streaming (prefetched) cost.
    pub streamed_misses: u64,
    /// DRAM misses served at full random latency.
    pub random_misses: u64,
}

impl CacheSim {
    /// Builds the hierarchy from geometries and latency parameters.
    pub fn new(
        l1: CacheLevelConfig,
        l2: CacheLevelConfig,
        l1_hit_cy: f64,
        l2_hit_cy: f64,
        dram_cy: f64,
    ) -> Self {
        assert_eq!(
            l1.line_bytes, l2.line_bytes,
            "both levels share one line size"
        );
        // Both hints get an entry per line the larger level holds (4096
        // on lx2). The L1 turns its lines over far faster than it has
        // slots, so its hint needs many entries per slot, or new
        // placements overwrite the entries of lines still resident: on
        // lx2 a 256- or 1024-entry L1 hint kept little of the walk's
        // gain on `uniform_ref`, and a longer L2 hint added nothing.
        let slots = |c: CacheLevelConfig| c.num_sets() * c.ways;
        let hints = slots(l1).max(slots(l2)).next_power_of_two();
        Self {
            l1: CacheLevel::new(l1, hints),
            l2: CacheLevel::new(l2, hints),
            line_shift: l1.line_bytes.trailing_zeros(),
            dirty: false,
            l1_hit_cy,
            l2_hit_cy,
            dram_cy,
            // Streaming (prefetched) miss cost: bandwidth-limited rather
            // than latency-limited; a fixed fraction of the random cost.
            stream_cy: dram_cy * 0.15,
            streams: [(u64::MAX, 0); STREAM_SLOTS],
            decay_tick: 0,
            streamed_misses: 0,
            random_misses: 0,
        }
    }

    /// Touches every cache line covered by `[addr, addr + bytes)` and
    /// returns the total charged latency in cycles.
    pub fn access(&mut self, addr: u64, bytes: u64) -> f64 {
        if bytes == 0 {
            return 0.0;
        }
        let first = addr >> self.line_shift;
        let last = (addr + bytes - 1) >> self.line_shift;
        let mut cycles = 0.0;
        for line in first..=last {
            cycles += self.access_line_id(line);
        }
        cycles
    }

    /// Touches the single cache line with id `line` (byte address
    /// `>> line_shift()`) and returns its latency. Callers that already
    /// hold line ids — the gather/scatter walks — enter here instead of
    /// converting line -> address -> line through [`CacheSim::access`].
    #[inline]
    pub fn access_line_id(&mut self, line: u64) -> f64 {
        self.dirty = true;
        if self.l1.access(line) {
            self.l1_hit_cy
        } else if self.l2.access(line) {
            self.l2_hit_cy
        } else {
            self.dram_access(line)
        }
    }

    /// Prices a miss of both levels and updates the stream prefetcher.
    fn dram_access(&mut self, line: u64) -> f64 {
        // Stream detection: adjacent (within 2 lines ahead) of a
        // tracked miss stream => prefetched.
        for (last, conf) in &mut self.streams {
            if *last != u64::MAX && line > *last && line - *last <= 2 {
                *last = line;
                *conf = (*conf + 1).min(64);
                self.streamed_misses += 1;
                return self.stream_cy;
            }
        }
        // New potential stream: evict the least-confident slot so an
        // established stream survives scattered one-off misses.
        let victim = self
            .streams
            .iter()
            .enumerate()
            .min_by_key(|(_, (_, conf))| *conf)
            .map(|(i, _)| i)
            .unwrap_or(0);
        self.streams[victim] = (line, 1);
        // Periodic decay so stale streams eventually lose their slot
        // (per-insertion decay would let concurrently-establishing
        // streams evict each other before their second access).
        self.decay_tick += 1;
        if self.decay_tick >= 256 {
            self.decay_tick = 0;
            for (_, conf) in &mut self.streams {
                *conf = conf.saturating_sub(1);
            }
        }
        self.random_misses += 1;
        self.dram_cy
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> CacheStats {
        self.l1.stats
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats
    }

    /// Invalidates all cached lines (statistics are preserved).
    ///
    /// Resets every piece of *behavioural* state — tags, stream slots and
    /// the decay tick — so that the cost of an access sequence after a
    /// flush depends only on that sequence. This is what makes per-tile
    /// charging deterministic regardless of which worker ran the tile.
    ///
    /// Host-side shortcut: a hierarchy that was neither accessed nor
    /// imported into since its last flush already is in the flushed
    /// state (`flush` never touches LRU clocks or statistics), so the
    /// per-tile flushes of phases that never walk the cache return
    /// without refilling the tag arrays.
    pub fn flush(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        self.l1.flush();
        self.l2.flush();
        self.streams = [(u64::MAX, 0); STREAM_SLOTS];
        self.decay_tick = 0;
    }

    /// Takes (and zeroes) the accumulated statistics:
    /// `(l1, l2, streamed_misses, random_misses)`.
    pub fn take_stats(&mut self) -> (CacheStats, CacheStats, u64, u64) {
        (
            std::mem::take(&mut self.l1.stats),
            std::mem::take(&mut self.l2.stats),
            std::mem::take(&mut self.streamed_misses),
            std::mem::take(&mut self.random_misses),
        )
    }

    /// Adds externally accumulated statistics (a worker's) into this
    /// hierarchy's totals without touching behavioural state.
    pub fn absorb_stats(&mut self, l1: &CacheStats, l2: &CacheStats, streamed: u64, random: u64) {
        self.l1.stats.merge(l1);
        self.l2.stats.merge(l2);
        self.streamed_misses += streamed;
        self.random_misses += random;
    }

    /// Line size in bytes (identical across levels).
    pub fn line_bytes(&self) -> u64 {
        1 << self.line_shift
    }

    /// `log2(line_bytes)` — the line size is asserted to be a power of
    /// two at construction, so `addr >> line_shift()` is exactly
    /// `addr / line_bytes()` (hot paths use the shift to avoid a
    /// hardware divide per address).
    pub fn line_shift(&self) -> u32 {
        self.line_shift
    }

    /// Exports the complete behavioural state (see [`CacheSimState`]).
    /// Non-destructive: the hierarchy is unchanged.
    pub fn export_state(&self) -> CacheSimState {
        CacheSimState {
            l1: self.l1.export_state(),
            l2: self.l2.export_state(),
            streams: self.streams.to_vec(),
            decay_tick: self.decay_tick,
        }
    }

    /// Imports behavioural state captured by [`CacheSim::export_state`]
    /// from a hierarchy of identical geometry. Returns `false` (leaving
    /// this hierarchy untouched) if the state is not one a walk of this
    /// geometry can produce — wrong tag-array lengths, a tag outside its
    /// own set or twice in one set, or a wrong stream slot count — so
    /// corrupt snapshots surface as errors, not panics or silently
    /// different prices.
    pub fn import_state(&mut self, s: &CacheSimState) -> bool {
        // Validate both levels before mutating either: import is
        // all-or-nothing.
        if s.streams.len() != STREAM_SLOTS || !self.l1.accepts(&s.l1) || !self.l2.accepts(&s.l2) {
            return false;
        }
        self.l1.import_state(&s.l1);
        self.l2.import_state(&s.l2);
        self.dirty = true;
        for (dst, src) in self.streams.iter_mut().zip(&s.streams) {
            *dst = *src;
        }
        self.decay_tick = s.decay_tick;
        true
    }
}

/// A deliberate fault in the way hint, which the differential tests must
/// catch; every walk outside them runs [`HintFault::None`].
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HintFault {
    /// The hint as specified.
    None,
    /// The remembered slot is trusted without comparing its tag.
    Unchecked,
    /// A slow-path probe leaves the hint as it was.
    NotRefreshed,
}

/// The walk as it was before the fast path: a front-to-back `position()`
/// over a runtime-length set, line ids by division, every call through
/// the byte-address entry, and no host-side shortcut (way hint,
/// clean-flush skip). Kept as the oracle the differential tests replay
/// [`CacheSim`] against.
#[cfg(test)]
mod reference {
    use super::{CacheLevelConfig, CacheLevelState, CacheSimState, CacheStats, STREAM_SLOTS};

    struct Level {
        cfg: CacheLevelConfig,
        tags: Vec<u64>,
        stamps: Vec<u64>,
        clock: u64,
        stats: CacheStats,
    }

    impl Level {
        fn new(cfg: CacheLevelConfig) -> Self {
            let slots = cfg.num_sets() * cfg.ways;
            Self {
                cfg,
                tags: vec![u64::MAX; slots],
                stamps: vec![0; slots],
                clock: 0,
                stats: CacheStats::default(),
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.clock += 1;
            let line = addr / self.cfg.line_bytes as u64;
            let set = (line % self.cfg.num_sets() as u64) as usize;
            let base = set * self.cfg.ways;
            let ways = &mut self.tags[base..base + self.cfg.ways];
            if let Some(w) = ways.iter().position(|&t| t == line) {
                self.stamps[base + w] = self.clock;
                self.stats.hits += 1;
                return true;
            }
            self.stats.misses += 1;
            // Fill: choose an empty way, else the LRU way.
            let victim = match ways.iter().position(|&t| t == u64::MAX) {
                Some(w) => w,
                None => {
                    let mut lru = 0usize;
                    let mut lru_stamp = u64::MAX;
                    for w in 0..self.cfg.ways {
                        if self.stamps[base + w] < lru_stamp {
                            lru_stamp = self.stamps[base + w];
                            lru = w;
                        }
                    }
                    lru
                }
            };
            self.tags[base + victim] = line;
            self.stamps[base + victim] = self.clock;
            false
        }

        fn flush(&mut self) {
            self.tags.fill(u64::MAX);
            self.stamps.fill(0);
        }

        fn export_state(&self) -> CacheLevelState {
            CacheLevelState {
                tags: self.tags.clone(),
                stamps: self.stamps.clone(),
                clock: self.clock,
            }
        }
    }

    pub struct RefSim {
        l1: Level,
        l2: Level,
        latency: [f64; 3],
        stream_cy: f64,
        streams: [(u64, u32); STREAM_SLOTS],
        decay_tick: u32,
        pub streamed_misses: u64,
        pub random_misses: u64,
    }

    impl RefSim {
        pub fn new(l1: CacheLevelConfig, l2: CacheLevelConfig, latency: [f64; 3]) -> Self {
            Self {
                l1: Level::new(l1),
                l2: Level::new(l2),
                latency,
                stream_cy: latency[2] * 0.15,
                streams: [(u64::MAX, 0); STREAM_SLOTS],
                decay_tick: 0,
                streamed_misses: 0,
                random_misses: 0,
            }
        }

        pub fn access(&mut self, addr: u64, bytes: u64) -> f64 {
            if bytes == 0 {
                return 0.0;
            }
            let line = self.l1.cfg.line_bytes as u64;
            let first = addr / line;
            let last = (addr + bytes - 1) / line;
            let mut cycles = 0.0;
            for l in first..=last {
                cycles += self.access_line(l * line);
            }
            cycles
        }

        fn access_line(&mut self, line_addr: u64) -> f64 {
            if self.l1.access(line_addr) {
                self.latency[0]
            } else if self.l2.access(line_addr) {
                self.latency[1]
            } else {
                let line = line_addr / self.l1.cfg.line_bytes as u64;
                for (last, conf) in &mut self.streams {
                    if *last != u64::MAX && line > *last && line - *last <= 2 {
                        *last = line;
                        *conf = (*conf + 1).min(64);
                        self.streamed_misses += 1;
                        return self.stream_cy;
                    }
                }
                let victim = self
                    .streams
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (_, conf))| *conf)
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                self.streams[victim] = (line, 1);
                self.decay_tick += 1;
                if self.decay_tick >= 256 {
                    self.decay_tick = 0;
                    for (_, conf) in &mut self.streams {
                        *conf = conf.saturating_sub(1);
                    }
                }
                self.random_misses += 1;
                self.latency[2]
            }
        }

        pub fn flush(&mut self) {
            self.l1.flush();
            self.l2.flush();
            self.streams = [(u64::MAX, 0); STREAM_SLOTS];
            self.decay_tick = 0;
        }

        pub fn take_stats(&mut self) -> (CacheStats, CacheStats, u64, u64) {
            (
                std::mem::take(&mut self.l1.stats),
                std::mem::take(&mut self.l2.stats),
                std::mem::take(&mut self.streamed_misses),
                std::mem::take(&mut self.random_misses),
            )
        }

        pub fn stats(&self) -> (CacheStats, CacheStats) {
            (self.l1.stats, self.l2.stats)
        }

        pub fn export_state(&self) -> CacheSimState {
            CacheSimState {
                l1: self.l1.export_state(),
                l2: self.l2.export_state(),
                streams: self.streams.to_vec(),
                decay_tick: self.decay_tick,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::RefSim;
    use super::*;

    /// 4 sets x 2 ways x 64B = 512B L1; 8 sets x 4 ways = 2KiB L2.
    fn small_levels() -> (CacheLevelConfig, CacheLevelConfig) {
        let level = |size_bytes, ways| CacheLevelConfig {
            size_bytes,
            ways,
            line_bytes: 64,
        };
        (level(512, 2), level(2048, 4))
    }

    fn small_sim() -> CacheSim {
        let (l1, l2) = small_levels();
        CacheSim::new(l1, l2, 1.0, 10.0, 100.0)
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = small_sim();
        assert_eq!(c.access(0, 8), 100.0);
        assert_eq!(c.access(0, 8), 1.0);
        assert_eq!(c.access(32, 8), 1.0, "same line as addr 0");
    }

    #[test]
    fn straddling_access_touches_two_lines() {
        let mut c = small_sim();
        let cy = c.access(60, 8); // Crosses the 64-byte boundary.
                                  // First line: random miss (100); second: stream-prefetched (15).
        assert_eq!(cy, 115.0);
    }

    #[test]
    fn sequential_sweep_is_prefetched() {
        let mut c = small_sim();
        let first = c.access(0, 8);
        assert_eq!(first, 100.0);
        // Subsequent sequential lines ride the detected stream.
        let mut total = 0.0;
        for l in 1..10u64 {
            total += c.access(l * 64, 8);
        }
        assert_eq!(total, 9.0 * 15.0, "streamed misses at bandwidth cost");
    }

    #[test]
    fn random_misses_pay_full_latency() {
        let mut c = small_sim();
        let mut total = 0.0;
        for l in [0u64, 100, 37, 999, 555, 777, 222, 444, 888, 333] {
            total += c.access(l * 64, 8);
        }
        assert_eq!(total, 10.0 * 100.0);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = small_sim();
        // Set 0 holds lines whose (line % 4 == 0): addrs 0, 256, 512 map there.
        c.access(0, 1);
        c.access(256, 1);
        c.access(0, 1); // Refresh line 0 so line at 256 is LRU.
        c.access(512, 1); // Evicts 256 from L1.
        assert_eq!(c.access(0, 1), 1.0, "line 0 still in L1");
        let cy = c.access(256, 1);
        assert_eq!(cy, 10.0, "evicted to L2, hits L2");
    }

    #[test]
    fn l2_backstops_l1() {
        let mut c = small_sim();
        // Touch 16 distinct lines: all fit in L2 (32 lines) but not L1 (8).
        for i in 0..16u64 {
            c.access(i * 64, 1);
        }
        let mut l2_hits = 0;
        for i in 0..16u64 {
            let cy = c.access(i * 64, 1);
            assert!(cy <= 10.0, "must be served by L1 or L2");
            if cy == 10.0 {
                l2_hits += 1;
            }
        }
        assert!(l2_hits > 0, "some lines must have been evicted to L2");
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut c = small_sim();
        c.access(0, 1);
        c.access(0, 1);
        let s = c.l1_stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn flush_forces_misses_again() {
        let mut c = small_sim();
        c.access(0, 1);
        c.flush();
        assert_eq!(c.access(0, 1), 100.0);
    }

    #[test]
    fn zero_byte_access_is_free() {
        let mut c = small_sim();
        assert_eq!(c.access(0, 0), 0.0);
    }

    impl CacheLevel {
        /// The hint's invariant after an access: the line accessed last
        /// — the one in the slot stamped with the clock — is found
        /// through its hint. It is what lets the walk skip a last-line
        /// memo check; a stale hint cannot move a number, so this is
        /// where a missing refresh shows.
        fn hint_names_last_line(&self) -> bool {
            let last = (self.clock > 0)
                .then(|| self.stamps.iter().position(|&s| s == self.clock))
                .flatten();
            last.is_none_or(|slot| {
                self.hint[(self.tags[slot] & self.hint_mask) as usize] as usize == slot
            })
        }

        /// Accesses so far (hits and misses).
        fn accesses(&self) -> u64 {
            self.stats.hits + self.stats.misses
        }
    }

    /// Replays one randomised op stream through [`CacheSim`], its way
    /// hints carrying `fault`, and the pre-fast-path [`RefSim`], and
    /// compares, after **every** op, the returned cycles (bitwise), both
    /// levels' statistics, the miss split and the complete exported
    /// state; after every access, each level it reached must find its
    /// last line through the hint. Returns the first divergence.
    fn replay_against_reference(
        l1: CacheLevelConfig,
        l2: CacheLevelConfig,
        seed: u64,
        fault: HintFault,
    ) -> Result<(), String> {
        let latency = [0.5, 12.0, 100.0];
        let geometry = format!("{l1:?} {l2:?} seed={seed}");
        let new_sim = || {
            let mut sim = CacheSim::new(l1, l2, latency[0], latency[1], latency[2]);
            (sim.l1.fault, sim.l2.fault) = (fault, fault);
            sim
        };
        let mut fast = new_sim();
        // The hierarchy an import lands in when it is not a fresh one:
        // warm, with hints naming slots of another access history.
        let mut spare = new_sim();
        let mut slow = RefSim::new(l1, l2, latency);
        let mut rng = seed;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            rng >> 33
        };
        // A span a few times the L2 capacity, so every level evicts.
        let span = 4 * l2.size_bytes as u64;
        // Lines this many bytes apart share a hint entry in both levels
        // (the two tables are equally long).
        let hint_bytes = fast.l1.hint.len() as u64 * 64;
        let mut addr = 0u64;
        for op in 0..20_000u32 {
            let r = next();
            match r % 64 {
                0 => {
                    fast.flush();
                    slow.flush();
                }
                1 => {
                    // Twice in a row: the second flush finds it clean.
                    fast.flush();
                    fast.flush();
                    slow.flush();
                }
                2 => {
                    if fast.take_stats() != slow.take_stats() {
                        return Err(format!("{geometry} op {op}: drained statistics"));
                    }
                }
                3 => {
                    // Export -> import, as restore does: into a fresh
                    // hierarchy, or into the warm spare after a few
                    // accesses of its own.
                    let state = fast.export_state();
                    if next() % 2 == 0 {
                        spare = new_sim();
                    } else {
                        for _ in 0..next() % 256 {
                            spare.access(next() % (2 * span), 8);
                        }
                    }
                    if !spare.import_state(&state) {
                        return Err(format!("{geometry} op {op}: import refused"));
                    }
                    let _ = spare.take_stats();
                    let (l1s, l2s, st, rd) = fast.take_stats();
                    spare.absorb_stats(&l1s, &l2s, st, rd);
                    std::mem::swap(&mut fast, &mut spare);
                }
                kind => {
                    addr = match kind % 5 {
                        0 => addr,                   // Repeat.
                        1 => (addr + 8) % span,      // Unit stride.
                        2 => (addr + 64 * 5) % span, // Line stride.
                        3 => next() % span,          // Jump.
                        // A line congruent modulo the hint length.
                        _ => addr % hint_bytes + (next() % 4) * hint_bytes,
                    };
                    // Mostly one line; sometimes zero bytes or several lines.
                    let bytes = match next() % 8 {
                        0 => 0,
                        1 => 1 + next() % 300,
                        _ => 8,
                    };
                    let before = (fast.l1.accesses(), fast.l2.accesses());
                    let f = if bytes == 8 && addr % 64 <= 56 && next() % 2 == 0 {
                        fast.access_line_id(addr >> fast.line_shift())
                    } else {
                        fast.access(addr, bytes)
                    };
                    let s = slow.access(addr, bytes);
                    if f.to_bits() != s.to_bits() {
                        return Err(format!("{geometry} op {op}: cycles {f} vs {s}"));
                    }
                    let reached = [
                        (fast.l1.accesses() > before.0, &fast.l1),
                        (fast.l2.accesses() > before.1, &fast.l2),
                    ];
                    if reached
                        .iter()
                        .any(|&(reached, lvl)| reached && !lvl.hint_names_last_line())
                    {
                        return Err(format!("{geometry} op {op}: last line not hinted"));
                    }
                }
            }
            if (fast.l1_stats(), fast.l2_stats()) != slow.stats() {
                return Err(format!("{geometry} op {op}: statistics"));
            }
            if (fast.streamed_misses, fast.random_misses)
                != (slow.streamed_misses, slow.random_misses)
            {
                return Err(format!("{geometry} op {op}: miss split"));
            }
            if fast.export_state() != slow.export_state() {
                return Err(format!("{geometry} op {op}: state"));
            }
        }
        Ok(())
    }

    /// The fast walk (array-form probe, line-id entry, way hint,
    /// clean-flush skip) is the reference walk, bit for bit: for the lx2
    /// geometry, which takes the 8- and 16-way array form, and for
    /// geometries that take the slice fallback, down to a single set —
    /// with imports into fresh and warm hierarchies (stale hints) and
    /// lines that share hint entries. Each hint fault is caught on every
    /// geometry: a hint trusted without its tag compare moves a number,
    /// and one not refreshed after a probe loses the last line.
    #[test]
    fn conf_cache_walk_matches_reference_model() {
        let level = |sets: usize, ways: usize| CacheLevelConfig {
            size_bytes: sets * ways * 64,
            ways,
            line_bytes: 64,
        };
        let lx2 = crate::MachineConfig::lx2();
        let mut geometries = vec![(lx2.l1, lx2.l2), (level(4, 8), level(2, 16))];
        for ways in 1..=4 {
            geometries.push((level(1, ways), level(1, ways + 1)));
            geometries.push((level(2, ways), level(8, ways)));
        }
        // Wider than one eight-way chunk of the probe, and not a multiple.
        geometries.push((level(2, 3), level(4, 20)));
        for (g, &(l1, l2)) in geometries.iter().enumerate() {
            let seed = 0x9e37_79b9 + g as u64;
            if let Err(divergence) = replay_against_reference(l1, l2, seed, HintFault::None) {
                panic!("{divergence}");
            }
            for fault in [HintFault::Unchecked, HintFault::NotRefreshed] {
                assert!(
                    replay_against_reference(l1, l2, seed, fault).is_err(),
                    "{fault:?} not caught on {l1:?} {l2:?}"
                );
            }
        }
    }

    /// Replays a pseudo-random access stream heavy on consecutive
    /// same-line repeats — each one a hint hit — through the walk and
    /// the hint-less reference model: latencies, statistics and
    /// subsequent behaviour must be bit-identical — the hint is an
    /// accelerator, not a model change.
    #[test]
    fn way_hint_is_bit_identical_to_slow_path() {
        let mut fast = small_sim();
        let (l1, l2) = small_levels();
        let mut slow = RefSim::new(l1, l2, [1.0, 10.0, 100.0]);
        let mut state = 0x9e37_79b9_u64;
        let mut addr = 0u64;
        for i in 0..10_000u64 {
            // ~2/3 of accesses repeat the previous line; the rest jump.
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(i);
            if state % 3 == 0 {
                addr = (state >> 16) % 4096 * 8;
            }
            let (a, b) = (fast.access(addr, 8), slow.access(addr, 8));
            assert_eq!(a.to_bits(), b.to_bits(), "latency diverged at access {i}");
        }
        assert_eq!((fast.l1_stats(), fast.l2_stats()), slow.stats());
        assert_eq!(
            (fast.streamed_misses, fast.random_misses),
            (slow.streamed_misses, slow.random_misses)
        );
        assert_eq!(fast.export_state(), slow.export_state());
    }

    #[test]
    fn export_import_state_resumes_bit_identically() {
        let mut a = small_sim();
        let mut state = 0x1234_5678_u64;
        let mut addr = 0u64;
        for i in 0..5_000u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(i);
            if state % 3 != 2 {
                addr = (state >> 17) % 2048 * 8;
            }
            a.access(addr, 8);
        }
        let snap = a.export_state();
        let mut b = small_sim();
        assert!(b.import_state(&snap), "matching geometry must import");
        // Continue both with an identical stream: every latency (and the
        // miss split) must match bitwise.
        let (a_s0, a_r0) = (a.streamed_misses, a.random_misses);
        for i in 0..5_000u64 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(i);
            if state % 3 != 2 {
                addr = (state >> 17) % 2048 * 8;
            }
            let (x, y) = (a.access(addr, 8), b.access(addr, 8));
            assert_eq!(x.to_bits(), y.to_bits(), "latency diverged at {i}");
        }
        assert_eq!(a.streamed_misses - a_s0, b.streamed_misses);
        assert_eq!(a.random_misses - a_r0, b.random_misses);
    }

    #[test]
    fn import_state_refuses_mismatched_geometry() {
        let mut a = small_sim();
        a.access(0, 8);
        let snap = a.export_state();
        let mut other = CacheSim::new(
            CacheLevelConfig {
                size_bytes: 1024,
                ways: 2,
                line_bytes: 64,
            },
            CacheLevelConfig {
                size_bytes: 4096,
                ways: 4,
                line_bytes: 64,
            },
            1.0,
            10.0,
            100.0,
        );
        assert!(!other.import_state(&snap), "wrong geometry must refuse");
        let mut bad = snap.clone();
        bad.streams.pop();
        let mut c = small_sim();
        assert!(!c.import_state(&bad), "wrong stream count must refuse");
        // Line 0 sits in L1 set 0 (4 sets x 2 ways) and L2 set 0 (8 x 4).
        assert_eq!(snap.l1.tags[0], 0);
        let mut off_set = snap.clone();
        off_set.l1.tags[2] = 5; // Slot 2 is set 1's first way; line 5 maps to set 1.
        assert!(c.import_state(&off_set), "a line in its own set imports");
        off_set.l1.tags[2] = 4; // Line 4 maps to set 0.
        assert!(
            !c.import_state(&off_set),
            "a line outside its set must refuse"
        );
        let mut twice = snap.clone();
        twice.l2.tags[1] = 0;
        assert!(
            !c.import_state(&twice),
            "a line twice in one set must refuse"
        );
        let before = c.export_state();
        assert!(!c.import_state(&off_set) && !c.import_state(&twice));
        assert_eq!(c.export_state(), before, "a refused import changes nothing");
        assert!(c.import_state(&snap), "pristine state still imports");
    }

    #[test]
    fn way_hint_survives_flush_correctly() {
        let mut c = small_sim();
        c.access(0, 8);
        assert_eq!(c.access(0, 8), 1.0, "hinted repeat is an L1 hit");
        c.flush();
        // The hint still names line 0's old slot, but the flush emptied
        // it: post-flush the line is a cold miss again.
        assert_eq!(c.access(0, 8), 100.0);
    }
}
