//! Per-worker reusable buffers for the gather + push sweep.
//!
//! The parallel tile pipeline gives each worker one [`PushScratch`] and
//! reuses it for every tile the worker processes, so the per-step hot
//! path performs no heap allocation once the buffers have grown to the
//! largest tile's population.

use mpic_particles::PendingMove;

/// Reusable per-worker buffers for one tile's gather + push sweep.
#[derive(Debug, Clone, Default)]
pub struct PushScratch {
    /// Live SoA slot indices of the tile being processed (raw liveness
    /// order for the per-particle sweep; GPMA-sorted order for the
    /// cell-run sweep).
    pub live: Vec<usize>,
    /// Per-particle sampled grid node index (drives the gather's emulated
    /// address stream).
    pub sample_idx: Vec<usize>,
    /// SoA slots of the currently open same-cell run (cell-run sweep
    /// only: it buffers a run and interpolates it in lane-width packs
    /// when the run closes).
    pub run_slots: Vec<usize>,
    /// Intra-cell offsets of the currently open run, parallel to
    /// [`PushScratch::run_slots`].
    pub run_frac: Vec<[f64; 3]>,
    /// The tile's particles absorbed at a z boundary, in retire order:
    /// one removal batch when the sweep ends.
    pub removed: Vec<PendingMove>,
}

impl PushScratch {
    /// Clears all buffers, keeping their capacity.
    pub fn clear(&mut self) {
        self.live.clear();
        self.sample_idx.clear();
        self.run_slots.clear();
        self.run_frac.clear();
        self.removed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_keeps_capacity() {
        let mut s = PushScratch::default();
        s.live.extend(0..100);
        s.sample_idx.extend(0..100);
        s.run_slots.push(7);
        s.run_frac.push([0.5; 3]);
        let cap = s.live.capacity();
        s.clear();
        assert!(s.live.is_empty() && s.sample_idx.is_empty());
        assert!(s.run_slots.is_empty() && s.run_frac.is_empty());
        assert_eq!(s.live.capacity(), cap);
    }
}
