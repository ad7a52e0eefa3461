//! Structure-of-Arrays particle storage.
//!
//! The paper's multi-level data-reorganisation strategy preserves an SoA
//! layout so the VPU can stream positions/momenta with unit stride. A
//! tile's SoA is append-mostly: deletions (particles leaving the tile)
//! leave holes that are recycled by subsequent insertions and squeezed out
//! at the next global re-sort, mirroring the paper's "GPMA manipulates
//! indices, deferring data movement until necessary".

/// SoA storage of one particle tile (or one whole species when untiled).
#[derive(Debug, Clone, Default)]
pub struct ParticleSoA {
    /// Position components (m).
    pub x: Vec<f64>,
    /// Position components (m).
    pub y: Vec<f64>,
    /// Position components (m).
    pub z: Vec<f64>,
    /// Normalised momentum u = gamma * v / c (dimensionless).
    pub ux: Vec<f64>,
    /// Normalised momentum u = gamma * v / c (dimensionless).
    pub uy: Vec<f64>,
    /// Normalised momentum u = gamma * v / c (dimensionless).
    pub uz: Vec<f64>,
    /// Macro-particle weight (number of physical particles represented).
    pub w: Vec<f64>,
    /// Liveness flags; dead slots are recycled.
    pub alive: Vec<bool>,
    /// Stack of dead slot indices available for reuse.
    free: Vec<usize>,
}

impl ParticleSoA {
    /// Creates empty storage.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates storage with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        let mut s = Self::default();
        s.x.reserve(cap);
        s.y.reserve(cap);
        s.z.reserve(cap);
        s.ux.reserve(cap);
        s.uy.reserve(cap);
        s.uz.reserve(cap);
        s.w.reserve(cap);
        s.alive.reserve(cap);
        s
    }

    /// Number of storage slots (live + dead).
    pub fn slots(&self) -> usize {
        self.x.len()
    }

    /// Number of live particles.
    pub fn len(&self) -> usize {
        self.x.len() - self.free.len()
    }

    /// Whether no live particles exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends or recycles a slot for a particle, returning its index.
    pub fn push(&mut self, x: f64, y: f64, z: f64, ux: f64, uy: f64, uz: f64, w: f64) -> usize {
        if let Some(i) = self.free.pop() {
            self.x[i] = x;
            self.y[i] = y;
            self.z[i] = z;
            self.ux[i] = ux;
            self.uy[i] = uy;
            self.uz[i] = uz;
            self.w[i] = w;
            self.alive[i] = true;
            i
        } else {
            self.x.push(x);
            self.y.push(y);
            self.z.push(z);
            self.ux.push(ux);
            self.uy.push(uy);
            self.uz.push(uz);
            self.w.push(w);
            self.alive.push(true);
            self.x.len() - 1
        }
    }

    /// Marks slot `i` dead and recycles it.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already dead.
    pub fn remove(&mut self, i: usize) {
        assert!(self.alive[i], "double-free of particle slot {i}");
        self.alive[i] = false;
        self.free.push(i);
    }

    /// Copies particle `i` out as a tuple `(x, y, z, ux, uy, uz, w)`.
    pub fn get(&self, i: usize) -> (f64, f64, f64, f64, f64, f64, f64) {
        (
            self.x[i], self.y[i], self.z[i], self.ux[i], self.uy[i], self.uz[i], self.w[i],
        )
    }

    /// Applies a gather permutation: new slot `s` receives old slot
    /// `perm[s]`. All slots in `perm` must be live; the result is fully
    /// compacted (no free slots).
    pub fn permute(&mut self, perm: &[usize]) {
        let mut scratch = Vec::new();
        self.permute_with(perm, &mut scratch);
    }

    /// [`ParticleSoA::permute`] with a caller-provided gather buffer:
    /// each attribute array is gathered into `scratch` and swapped in, so
    /// a warm scratch (capacity >= `perm.len()`) makes the permutation
    /// allocation-free. The buffer cycles through the seven retired
    /// attribute arrays, so their capacity is recycled too.
    pub fn permute_with(&mut self, perm: &[usize], scratch: &mut Vec<f64>) {
        let Self {
            x,
            y,
            z,
            ux,
            uy,
            uz,
            w,
            ..
        } = self;
        for attr in [x, y, z, ux, uy, uz, w] {
            scratch.clear();
            scratch.extend(perm.iter().map(|&p| attr[p]));
            std::mem::swap(attr, scratch);
        }
        self.alive.clear();
        self.alive.resize(perm.len(), true);
        self.free.clear();
    }

    /// The dead-slot recycling stack, top last. Checkpointing records it
    /// verbatim: the LIFO order decides which slot the next
    /// [`ParticleSoA::push`] reuses, so a restored SoA must pop the same
    /// indices in the same order to stay bit-identical.
    pub fn free_slots(&self) -> &[usize] {
        &self.free
    }

    /// Rebuilds an SoA from checkpointed parts: the seven attribute
    /// arrays and the free stack, from which the liveness flags follow (a
    /// slot is dead exactly when it is on the stack). Validates instead of
    /// trusting the input — all arrays equally long, every free-stack
    /// index a distinct slot — and returns a description of the violated
    /// invariant on malformed input (corrupt snapshots must surface as
    /// errors, never as a poisoned container).
    #[allow(clippy::too_many_arguments)]
    pub fn from_parts(
        x: Vec<f64>,
        y: Vec<f64>,
        z: Vec<f64>,
        ux: Vec<f64>,
        uy: Vec<f64>,
        uz: Vec<f64>,
        w: Vec<f64>,
        free: Vec<usize>,
    ) -> Result<Self, &'static str> {
        let n = x.len();
        if [y.len(), z.len(), ux.len(), uy.len(), uz.len(), w.len()]
            .iter()
            .any(|&l| l != n)
        {
            return Err("attribute arrays disagree in length");
        }
        let mut alive = vec![true; n];
        for &i in &free {
            match alive.get_mut(i) {
                None => return Err("free-stack index out of range"),
                Some(false) => return Err("free-stack index duplicated"),
                Some(a) => *a = false,
            }
        }
        Ok(Self {
            x,
            y,
            z,
            ux,
            uy,
            uz,
            w,
            alive,
            free,
        })
    }

    /// Iterator over live slot indices.
    pub fn live_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| a.then_some(i))
    }

    /// Sum of weights of live particles (total charge diagnostics).
    pub fn total_weight(&self) -> f64 {
        self.live_indices().map(|i| self.w[i]).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut s = ParticleSoA::new();
        let i = s.push(1.0, 2.0, 3.0, 0.1, 0.2, 0.3, 5.0);
        assert_eq!(i, 0);
        assert_eq!(s.get(0), (1.0, 2.0, 3.0, 0.1, 0.2, 0.3, 5.0));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn remove_recycles_slot() {
        let mut s = ParticleSoA::new();
        s.push(1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0);
        s.push(2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0);
        s.remove(0);
        assert_eq!(s.len(), 1);
        let i = s.push(3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0);
        assert_eq!(i, 0, "dead slot must be reused");
        assert_eq!(s.slots(), 2);
    }

    #[test]
    #[should_panic(expected = "double-free")]
    fn double_remove_panics() {
        let mut s = ParticleSoA::new();
        s.push(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0);
        s.remove(0);
        s.remove(0);
    }

    #[test]
    fn permute_compacts() {
        let mut s = ParticleSoA::new();
        for i in 0..4 {
            s.push(i as f64, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0);
        }
        s.remove(1);
        s.permute(&[3, 0, 2]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.x, vec![3.0, 0.0, 2.0]);
        assert!(s.alive.iter().all(|&a| a));
    }

    #[test]
    fn from_parts_round_trips_and_rejects_corruption() {
        let mut s = ParticleSoA::new();
        for i in 0..5 {
            s.push(i as f64, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0);
        }
        s.remove(1);
        s.remove(3);
        let rebuilt = ParticleSoA::from_parts(
            s.x.clone(),
            s.y.clone(),
            s.z.clone(),
            s.ux.clone(),
            s.uy.clone(),
            s.uz.clone(),
            s.w.clone(),
            s.free_slots().to_vec(),
        )
        .unwrap();
        assert_eq!(rebuilt.len(), s.len());
        assert_eq!(rebuilt.alive, s.alive, "liveness follows the free stack");
        assert_eq!(rebuilt.free_slots(), s.free_slots());
        // The LIFO order must be preserved: next push reuses slot 3.
        let mut r = rebuilt;
        assert_eq!(r.push(9.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0), 3);

        let bad = |free: Vec<usize>| {
            ParticleSoA::from_parts(
                vec![0.0; 3],
                vec![0.0; 3],
                vec![0.0; 3],
                vec![0.0; 3],
                vec![0.0; 3],
                vec![0.0; 3],
                vec![0.0; 3],
                free,
            )
        };
        assert!(bad(vec![3]).is_err(), "oob");
        assert!(bad(vec![1, 1]).is_err(), "duplicate");
        assert!(
            ParticleSoA::from_parts(
                vec![0.0; 2],
                vec![0.0; 3],
                vec![0.0; 3],
                vec![0.0; 3],
                vec![0.0; 3],
                vec![0.0; 3],
                vec![0.0; 3],
                vec![],
            )
            .is_err(),
            "ragged arrays"
        );
    }

    #[test]
    fn live_indices_skip_dead() {
        let mut s = ParticleSoA::new();
        for i in 0..3 {
            s.push(i as f64, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0);
        }
        s.remove(1);
        let live: Vec<usize> = s.live_indices().collect();
        assert_eq!(live, vec![0, 2]);
        assert_eq!(s.total_weight(), 4.0);
    }
}
