//! Species-level particle container: one SoA + GPMA per tile, plus the
//! operations Algorithm 1 performs on them (global counting sort,
//! per-step incremental sweep, cross-tile migration).

use crate::gpma::{Gpma, GpmaState, MoveStats, PendingMove, INVALID_PARTICLE_ID, LEAVES_TILE};
use crate::soa::ParticleSoA;
use crate::sort::{counting_sort_keys_into, SortScratch, SortStats};
use mpic_grid::{GridGeometry, Tile, TileLayout};
use mpic_machine::{Exec, SchedulerPolicy, WorkerPool};

/// Default fractional gap headroom used when (re)building tile GPMAs.
pub const DEFAULT_GAP_RATIO: f64 = 0.5;

/// One tile's particles: SoA data plus the GPMA index over it.
#[derive(Debug, Clone)]
pub struct ParticleTile {
    /// Particle data (slots may be dead between global sorts).
    pub soa: ParticleSoA,
    /// The gapped index keeping slots binned by tile-local cell.
    pub gpma: Gpma,
    /// Authoritative bin per SoA slot (`INVALID_PARTICLE_ID` for dead).
    pub cells: Vec<usize>,
}

/// A particle that left its tile during the incremental sweep and must be
/// re-homed (the paper treats these as remove + insert pairs).
#[derive(Debug, Clone, Copy)]
pub struct Departure {
    /// Position (m).
    pub x: f64,
    /// Position (m).
    pub y: f64,
    /// Position (m).
    pub z: f64,
    /// Normalised momentum.
    pub ux: f64,
    /// Normalised momentum.
    pub uy: f64,
    /// Normalised momentum.
    pub uz: f64,
    /// Macro-particle weight.
    pub w: f64,
}

/// A tile-leaver as the incremental sweep's locate pass records it: the
/// particle and the home it located for it.
#[derive(Debug, Clone, Copy)]
pub struct Leaver {
    /// The particle's data, read in slot order.
    pub particle: Departure,
    /// Destination tile.
    pub tile: usize,
    /// Destination bin (tile-local cell of `tile`).
    pub bin: usize,
}

impl ParticleTile {
    /// Creates an empty tile with `n_bins` cells.
    pub fn empty(n_bins: usize, gap_ratio: f64) -> Self {
        Self {
            soa: ParticleSoA::new(),
            gpma: Gpma::build(&[], n_bins, gap_ratio),
            cells: Vec::new(),
        }
    }

    /// Reassembles a checkpointed tile from its stored parts, deriving
    /// the bin map ([`Gpma::from_state`]). The index must hold exactly
    /// the live slots: a slot is indexed iff it is not on the SoA's free
    /// stack.
    pub fn from_parts(soa: ParticleSoA, gpma: GpmaState) -> Result<Self, &'static str> {
        let (gpma, cells) = Gpma::from_state(gpma, soa.slots())?;
        if cells
            .iter()
            .zip(&soa.alive)
            .any(|(&c, &alive)| alive != (c != INVALID_PARTICLE_ID))
        {
            return Err("index disagrees with SoA liveness");
        }
        Ok(Self { soa, gpma, cells })
    }

    /// Number of live particles in the tile.
    pub fn len(&self) -> usize {
        self.gpma.num_particles()
    }

    /// Whether the tile holds no live particles.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Recomputes every live particle's bin from its position and rebuilds
    /// both the SoA (compacted, cell-ordered) and the GPMA — the paper's
    /// `GlobalSortParticlesByCell` restricted to one tile. All gather and
    /// histogram buffers come from `scratch`, so a warm scratch makes the
    /// sort itself allocation-free (the GPMA rebuild still allocates, but
    /// global sorts are rare policy events rather than per-step work).
    pub fn global_sort(
        &mut self,
        tile: &Tile,
        geom: &GridGeometry,
        gap_ratio: f64,
        scratch: &mut SortScratch,
    ) -> SortStats {
        let n_bins = tile.num_cells();
        // Gather live slots and their bins.
        scratch.live.clear();
        scratch.keys.clear();
        for i in self.soa.live_indices() {
            let (cell, _) = geom.locate(self.soa.x[i], self.soa.y[i], self.soa.z[i]);
            debug_assert!(tile.contains(cell), "particle escaped its tile");
            scratch.live.push(i);
            scratch.keys.push(tile.local_cell_id(cell));
        }
        let stats = counting_sort_keys_into(
            &scratch.keys,
            n_bins,
            &mut scratch.perm,
            &mut scratch.counts,
        );
        // Compose: new slot s holds old slot live[perm[s]].
        scratch.gathered.clear();
        scratch
            .gathered
            .extend(scratch.perm.iter().map(|&p| scratch.live[p]));
        self.soa
            .permute_with(&scratch.gathered, &mut scratch.attr_buf);
        self.cells.clear();
        self.cells
            .extend(scratch.perm.iter().map(|&p| scratch.keys[p]));
        self.gpma = Gpma::build(&self.cells, n_bins, gap_ratio);
        stats
    }

    /// Phase 1 of Algorithm 1 for tile `t`: re-bins every particle that
    /// changed cell and extracts tile-leavers, in two passes.
    ///
    /// The *locate pass* runs in SoA slot order — a contiguous sweep over
    /// the position arrays, one location per particle — and writes each
    /// live slot's new bin into `scratch.new_bin`. A particle that left
    /// the tile is copied out right there, while the attribute arrays
    /// stream by, together with the destination tile and bin: it is
    /// appended to `scratch.leavers` and its word is [`LEAVES_TILE`] plus
    /// its index there, so it is never located again. The *walk*
    /// ([`Gpma::sweep`]) runs in bin order, because the order of deletes,
    /// inserts and departures is part of the state: it appends each
    /// leaver's index to `scratch.leave_order` (and its destination tile
    /// to `scratch.leave_dest`) as it meets it. A warm scratch keeps the
    /// sweep allocation-free.
    ///
    /// Returns the GPMA operation stats and the number of particles
    /// scanned.
    pub fn incremental_sort_sweep(
        &mut self,
        t: usize,
        layout: &TileLayout,
        geom: &GridGeometry,
        scratch: &mut SortScratch,
    ) -> (MoveStats, usize) {
        let tile = layout.tile(t);
        let scanned = self.gpma.num_particles();
        let SortScratch {
            new_bin,
            inserts,
            leavers,
            leave_order,
            leave_dest,
            ..
        } = scratch;
        let Self { soa, gpma, cells } = self;
        new_bin.clear();
        new_bin.extend((0..soa.slots()).map(|p| {
            if !soa.alive[p] {
                return INVALID_PARTICLE_ID;
            }
            let (x, y, z) = (soa.x[p], soa.y[p], soa.z[p]);
            let (cell, _) = geom.locate(x, y, z);
            if tile.contains(cell) {
                return tile.local_cell_id(cell);
            }
            let to = layout.tile_of_cell(cell);
            leavers.push(Leaver {
                particle: Departure {
                    x,
                    y,
                    z,
                    ux: soa.ux[p],
                    uy: soa.uy[p],
                    uz: soa.uz[p],
                    w: soa.w[p],
                },
                tile: to,
                bin: layout.tile(to).local_cell_id(cell),
            });
            LEAVES_TILE | (leavers.len() - 1)
        }));
        let stats = gpma.sweep(new_bin, cells, inserts, |p, word| {
            let leaver = word & !LEAVES_TILE;
            leave_order.push(leaver);
            leave_dest.push(leavers[leaver].tile);
            soa.remove(p);
        });
        (stats, scanned)
    }

    /// Re-derives every slot's bin from its position
    /// (`INVALID_PARTICLE_ID` for a dead slot) and lays the GPMA out once
    /// over them: how a tile is indexed after a bulk load or after its
    /// SoA was permuted wholesale.
    pub fn reindex(&mut self, tile: &Tile, geom: &GridGeometry, gap_ratio: f64) {
        let Self { soa, gpma, cells } = self;
        cells.clear();
        cells.extend((0..soa.slots()).map(|p| {
            if !soa.alive[p] {
                return INVALID_PARTICLE_ID;
            }
            let (cell, _) = geom.locate(soa.x[p], soa.y[p], soa.z[p]);
            tile.local_cell_id(cell)
        }));
        *gpma = Gpma::build(cells, tile.num_cells(), gap_ratio);
    }

    /// Inserts one particle (injection or cross-tile arrival).
    pub fn insert(&mut self, d: Departure, tile: &Tile, geom: &GridGeometry) -> MoveStats {
        let (cell, _) = geom.locate(d.x, d.y, d.z);
        debug_assert!(tile.contains(cell), "insert routed to wrong tile");
        let mut stats = MoveStats::default();
        self.insert_in_bin(d, tile.local_cell_id(cell), &mut stats);
        stats
    }

    /// [`ParticleTile::insert`] with the bin already located, adding its
    /// GPMA operation counts to `stats`.
    fn insert_in_bin(&mut self, d: Departure, bin: usize, stats: &mut MoveStats) {
        let p = self.soa.push(d.x, d.y, d.z, d.ux, d.uy, d.uz, d.w);
        if p >= self.cells.len() {
            self.cells.resize(p + 1, INVALID_PARTICLE_ID);
        }
        self.cells[p] = bin;
        let arrival = PendingMove {
            particle: p,
            old_bin: None,
            new_bin: Some(bin),
        };
        stats.merge(&self.gpma.apply_moves(&[arrival], &self.cells));
    }

    /// The batch entry that removes live slot `p` from the tile, for
    /// [`ParticleTile::remove`].
    pub fn removal(&self, p: usize) -> PendingMove {
        PendingMove {
            particle: p,
            old_bin: Some(self.cells[p]),
            new_bin: None,
        }
    }

    /// Removes particles absorbed at a boundary or dropped by the moving
    /// window, each named by a [`ParticleTile::removal`], as one GPMA
    /// maintenance cycle that deletes them in the order given; a no-op
    /// when there are none.
    pub fn remove(&mut self, removals: &[PendingMove]) {
        if removals.is_empty() {
            return;
        }
        for mv in removals {
            debug_assert_eq!(*mv, self.removal(mv.particle));
            self.cells[mv.particle] = INVALID_PARTICLE_ID;
            self.soa.remove(mv.particle);
        }
        let _ = self.gpma.apply_moves(removals, &self.cells);
    }

    /// Validates GPMA invariants against the authoritative bins.
    pub fn check_invariants(&self) {
        self.gpma.check_invariants(&self.cells);
    }
}

/// All tiles of one species plus its charge/mass.
#[derive(Debug, Clone)]
pub struct ParticleContainer {
    /// Species charge (C); negative for electrons.
    pub charge: f64,
    /// Species mass (kg).
    pub mass: f64,
    /// Per-tile storage, indexed like `TileLayout`.
    pub tiles: Vec<ParticleTile>,
    gap_ratio: f64,
    /// Pooled sort buffers, one per worker of the widest global sort so
    /// far and never empty: the sequential paths (the incremental sweep,
    /// re-homing) use the first.
    scratch: Vec<SortScratch>,
}

impl ParticleContainer {
    /// Creates an empty container matching `layout`.
    pub fn new(layout: &TileLayout, charge: f64, mass: f64) -> Self {
        let tiles = layout
            .iter()
            .map(|t| ParticleTile::empty(t.num_cells(), DEFAULT_GAP_RATIO))
            .collect();
        Self {
            charge,
            mass,
            tiles,
            gap_ratio: DEFAULT_GAP_RATIO,
            scratch: vec![SortScratch::default()],
        }
    }

    /// Builds a container from `particles` in one pass: each is routed to
    /// its owning tile as [`ParticleContainer::inject`] routes it and
    /// appended to that tile's SoA in arrival order, then every tile is
    /// indexed once ([`ParticleTile::reindex`]). The SoA and `cells` are
    /// those injecting the same sequence leaves; the GPMA is the
    /// [`Gpma::build`] layout of those `cells` instead of the one a chain
    /// of one-particle maintenance cycles arrives at.
    pub fn from_particles(
        layout: &TileLayout,
        geom: &GridGeometry,
        charge: f64,
        mass: f64,
        particles: impl IntoIterator<Item = Departure>,
    ) -> Self {
        let mut c = Self::new(layout, charge, mass);
        for d in particles {
            let (cell, _) = geom.locate(d.x, d.y, d.z);
            let soa = &mut c.tiles[layout.tile_of_cell(cell)].soa;
            let _ = soa.push(d.x, d.y, d.z, d.ux, d.uy, d.uz, d.w);
        }
        for (t, tile) in c.tiles.iter_mut().enumerate() {
            tile.reindex(layout.tile(t), geom, c.gap_ratio);
        }
        c
    }

    /// Gap headroom used on rebuilds.
    pub fn gap_ratio(&self) -> f64 {
        self.gap_ratio
    }

    /// Overrides the gap headroom (GPMA ablation benches).
    pub fn set_gap_ratio(&mut self, r: f64) {
        assert!(r >= 0.0);
        self.gap_ratio = r;
    }

    /// Total live particles.
    pub fn total_particles(&self) -> usize {
        self.tiles.iter().map(|t| t.len()).sum()
    }

    /// Injects a particle, routing it to the owning tile.
    pub fn inject(&mut self, layout: &TileLayout, geom: &GridGeometry, d: Departure) -> MoveStats {
        let (cell, _) = geom.locate(d.x, d.y, d.z);
        let t = layout.tile_of_cell(cell);
        self.tiles[t].insert(d, layout.tile(t), geom)
    }

    /// Global sort of every tile; returns merged stats. Single-worker
    /// convenience wrapper around
    /// [`ParticleContainer::global_sort_parallel`].
    pub fn global_sort(&mut self, layout: &TileLayout, geom: &GridGeometry) -> SortStats {
        let pool = WorkerPool::sequential();
        self.global_sort_parallel(layout, geom, pool.exec(SchedulerPolicy::Static))
    }

    /// Global sort of every tile, the tiles dispatched over the
    /// persistent worker pool (each worker sorting with its own
    /// [`SortScratch`]). A tile's sort is a pure function of the tile and
    /// the stats merge in tile order, so the resulting particle order
    /// and merged stats are identical for any worker count.
    ///
    /// Particles that crossed a tile boundary since the last maintenance
    /// pass are re-homed first (tile-local counting sort requires every
    /// particle to be inside its tile).
    pub fn global_sort_parallel(
        &mut self,
        layout: &TileLayout,
        geom: &GridGeometry,
        exec: Exec<'_>,
    ) -> SortStats {
        let _ = self.incremental_sort(layout, geom);
        let particles = self.total_particles();
        let gap_ratio = self.gap_ratio;
        let Self { tiles, scratch, .. } = self;
        if scratch.len() < exec.workers() {
            scratch.resize_with(exec.workers(), SortScratch::default);
        }
        let mut sorted: Vec<(&mut ParticleTile, SortStats)> = tiles
            .iter_mut()
            .map(|tile| (tile, SortStats::default()))
            .collect();
        exec.with_work(particles).for_each_scratch(
            &mut sorted,
            scratch,
            |t, (tile, stats), scratch| {
                *stats = tile.global_sort(layout.tile(t), geom, gap_ratio, scratch);
            },
        );
        let mut total = SortStats::default();
        for (_, s) in &sorted {
            total.n += s.n;
            total.buckets += s.buckets;
            total.moves += s.moves;
        }
        total
    }

    /// Incremental sweep of every tile followed by re-homing of
    /// departures. Returns merged GPMA stats and particles scanned.
    ///
    /// Departures are re-homed grouped by destination tile (a stable
    /// counting sort on the tile id the sweep recorded), each into the
    /// bin the sweep located for it. Tiles are independent and every
    /// tile still receives its arrivals in source-tile-then-walk order,
    /// one maintenance cycle per arrival, so the state is the one the
    /// ungrouped loop produces — reached without bouncing between the
    /// indices of all tiles.
    pub fn incremental_sort(
        &mut self,
        layout: &TileLayout,
        geom: &GridGeometry,
    ) -> (MoveStats, usize) {
        let mut stats = MoveStats::default();
        let mut scanned = 0;
        let Self { tiles, scratch, .. } = self;
        let scratch = &mut scratch[0];
        scratch.leavers.clear();
        scratch.leave_order.clear();
        scratch.leave_dest.clear();
        for (t, tile) in tiles.iter_mut().enumerate() {
            let (s, n) = tile.incremental_sort_sweep(t, layout, geom, scratch);
            stats.merge(&s);
            scanned += n;
        }
        let _ = counting_sort_keys_into(
            &scratch.leave_dest,
            tiles.len(),
            &mut scratch.perm,
            &mut scratch.counts,
        );
        for &i in &scratch.perm {
            let leaver = &scratch.leavers[scratch.leave_order[i]];
            tiles[leaver.tile].insert_in_bin(leaver.particle, leaver.bin, &mut stats);
        }
        (stats, scanned)
    }

    /// Aggregate empty-slot ratio across tiles (policy trigger 4).
    pub fn empty_ratio(&self) -> f64 {
        let cap: usize = self.tiles.iter().map(|t| t.gpma.capacity()).sum();
        if cap == 0 {
            return 0.0;
        }
        let free: usize = self.tiles.iter().map(|t| t.gpma.num_empty_slots()).sum();
        free as f64 / cap as f64
    }

    /// Aggregate local-rebuild count since the last reset (trigger 3).
    pub fn rebuilds_accum(&self) -> u64 {
        self.tiles.iter().map(|t| t.gpma.rebuild_count()).sum()
    }

    /// Resets per-tile rebuild counters (after a global sort).
    pub fn reset_counters(&mut self) {
        for t in &mut self.tiles {
            t.gpma.reset_counters();
        }
    }

    /// Validates all tile invariants (test helper).
    pub fn check_invariants(&self) {
        for t in &self.tiles {
            t.check_invariants();
        }
    }

    /// Total charge carried (sum of weights x species charge).
    pub fn total_charge(&self) -> f64 {
        self.charge * self.tiles.iter().map(|t| t.soa.total_weight()).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{self, departure_bits, state, Mutant};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup() -> (GridGeometry, TileLayout, ParticleContainer) {
        let geom = GridGeometry::new([8, 8, 8], [0.0; 3], [1.0; 3], 1);
        let layout = TileLayout::new(&geom, [4, 4, 4]);
        let c = ParticleContainer::new(&layout, -1.0, 1.0);
        (geom, layout, c)
    }

    fn particle_at(x: f64, y: f64, z: f64) -> Departure {
        Departure {
            x,
            y,
            z,
            ux: 0.0,
            uy: 0.0,
            uz: 0.0,
            w: 1.0,
        }
    }

    #[test]
    fn inject_routes_to_owning_tile() {
        let (geom, layout, mut c) = setup();
        let _ = c.inject(&layout, &geom, particle_at(0.5, 0.5, 0.5));
        let _ = c.inject(&layout, &geom, particle_at(6.5, 6.5, 6.5));
        assert_eq!(c.tiles[0].len(), 1);
        assert_eq!(c.tiles[7].len(), 1);
        assert_eq!(c.total_particles(), 2);
        c.check_invariants();
    }

    #[test]
    fn from_particles_indexes_what_inject_stores() {
        let n_cells = [8, 8, 8];
        let geom = GridGeometry::new(n_cells, LO, DX, 1);
        let layout = TileLayout::new(&geom, [4, 4, 4]);
        let mut rng = StdRng::seed_from_u64(3);
        let particles: Vec<Departure> = (0..600)
            .map(|_| random_particle(&mut rng, n_cells))
            .collect();
        let mut injected = ParticleContainer::new(&layout, -1.0, 1.0);
        for &d in &particles {
            let _ = injected.inject(&layout, &geom, d);
        }
        let bulk = ParticleContainer::from_particles(&layout, &geom, -1.0, 1.0, particles);
        for (t, (a, b)) in injected.tiles.iter().zip(&bulk.tiles).enumerate() {
            let positions =
                |pt: &ParticleTile| [pt.soa.x.clone(), pt.soa.y.clone(), pt.soa.z.clone()];
            assert_eq!(positions(a), positions(b), "tile {t}");
            assert_eq!(
                (&a.soa.w, &a.soa.alive),
                (&b.soa.w, &b.soa.alive),
                "tile {t}"
            );
            assert_eq!(a.cells, b.cells, "tile {t}");
            let built = Gpma::build(&b.cells, layout.tile(t).num_cells(), DEFAULT_GAP_RATIO);
            assert_eq!(b.gpma.export_state(), built.export_state(), "tile {t}");
            b.check_invariants();
        }
    }

    #[test]
    fn global_sort_orders_by_cell() {
        let (geom, layout, mut c) = setup();
        // Insert in reverse cell order within tile 0.
        let _ = c.inject(&layout, &geom, particle_at(3.5, 3.5, 3.5));
        let _ = c.inject(&layout, &geom, particle_at(0.5, 0.5, 0.5));
        let _ = c.global_sort(&layout, &geom);
        c.check_invariants();
        let t = &c.tiles[0];
        // After sorting, SoA slot 0 must be the cell-(0,0,0) particle.
        assert_eq!(t.soa.x[0], 0.5);
        assert_eq!(t.soa.x[1], 3.5);
    }

    #[test]
    fn incremental_sort_moves_within_tile() {
        let (geom, layout, mut c) = setup();
        let _ = c.inject(&layout, &geom, particle_at(0.5, 0.5, 0.5));
        // Move particle into neighbouring cell (1,0,0), same tile.
        c.tiles[0].soa.x[0] = 1.5;
        let (stats, scanned) = c.incremental_sort(&layout, &geom);
        assert_eq!(scanned, 1);
        assert_eq!(stats.moves_applied, 1);
        c.check_invariants();
        assert_eq!(c.tiles[0].gpma.bin_len(0), 0);
        assert_eq!(c.tiles[0].gpma.bin_len(1), 1);
    }

    #[test]
    fn incremental_sort_migrates_across_tiles() {
        let (geom, layout, mut c) = setup();
        let _ = c.inject(&layout, &geom, particle_at(3.5, 0.5, 0.5));
        // Cross the tile boundary in x.
        c.tiles[0].soa.x[0] = 4.5;
        let (_, _) = c.incremental_sort(&layout, &geom);
        c.check_invariants();
        assert_eq!(c.tiles[0].len(), 0);
        assert_eq!(c.tiles[1].len(), 1);
        assert_eq!(c.total_particles(), 1);
    }

    #[test]
    fn stationary_particles_cost_nothing_to_move() {
        let (geom, layout, mut c) = setup();
        for i in 0..10 {
            let _ = c.inject(&layout, &geom, particle_at(0.1 + 0.05 * i as f64, 0.5, 0.5));
        }
        let (stats, scanned) = c.incremental_sort(&layout, &geom);
        assert_eq!(scanned, 10);
        assert_eq!(stats.moves_applied, 0, "no particle changed cell");
        assert_eq!(stats.deletions, 0);
        c.check_invariants();
    }

    #[test]
    fn global_sort_parallel_is_worker_count_invariant() {
        let build = || {
            let (geom, layout, mut c) = setup();
            // Scatter particles over cells in a worst-case reverse order.
            for i in 0..40 {
                let f = 7.5 - (i as f64) * 0.19;
                let _ = c.inject(
                    &layout,
                    &geom,
                    particle_at(f, 7.9 - f, 0.5 + 0.17 * i as f64),
                );
            }
            (geom, layout, c)
        };
        let (geom, layout, mut want) = build();
        let _ = want.global_sort(&layout, &geom);
        for workers in [2usize, 3, 7] {
            let pool = WorkerPool::new(workers);
            let (geom2, layout2, mut got) = build();
            let s = got.global_sort_parallel(&layout2, &geom2, pool.exec(SchedulerPolicy::Static));
            assert_eq!(s.n, 40);
            got.check_invariants();
            for (tw, tg) in want.tiles.iter().zip(&got.tiles) {
                assert_eq!(tw.soa.x, tg.soa.x, "workers {workers}");
                assert_eq!(tw.soa.w, tg.soa.w, "workers {workers}");
                assert_eq!(tw.cells, tg.cells, "workers {workers}");
            }
        }
    }

    /// What a scenario does to the particles before each sort.
    #[derive(Debug, Clone, Copy)]
    enum Motion {
        /// Nothing moves.
        Stay,
        /// Every particle jumps by up to this many cells per axis; odd
        /// slots stay unwrapped so `locate` sees out-of-domain positions.
        Churn(f64),
        /// Every particle jumps one tile width in x.
        LeaveAll,
        /// Three quarters of each tile pile into its first (even steps)
        /// or last (odd steps) cell: borrow chains right, then left.
        PileUp,
        /// Absorb a tenth, inject as many anywhere, then churn.
        Lwfa(f64),
        /// A third of all particles jump into one tile (a different one
        /// each step), the rest churn: arrivals outnumber free slots.
        Converge(f64),
    }

    struct Scenario {
        name: &'static str,
        n_cells: [usize; 3],
        tile_size: [usize; 3],
        ppc: usize,
        gap_ratio: f64,
        motion: Motion,
        steps: usize,
    }

    /// Non-trivial origin and spacing, so the locate division matters.
    const LO: [f64; 3] = [-0.3, 0.2, 1.0];
    const DX: [f64; 3] = [0.5, 0.25, 1.0];

    fn random_particle(rng: &mut StdRng, n_cells: [usize; 3]) -> Departure {
        let mut pos = [0.0; 3];
        for d in 0..3 {
            pos[d] = LO[d] + rng.gen::<f64>() * n_cells[d] as f64 * DX[d];
        }
        Departure {
            x: pos[0],
            y: pos[1],
            z: pos[2],
            ux: rng.gen::<f64>() - 0.5,
            uy: rng.gen::<f64>() - 0.5,
            uz: rng.gen::<f64>() - 0.5,
            w: 1.0 + rng.gen::<f64>(),
        }
    }

    impl Scenario {
        fn build(&self) -> (GridGeometry, TileLayout, ParticleContainer) {
            let geom = GridGeometry::new(self.n_cells, LO, DX, 1);
            let layout = TileLayout::new(&geom, self.tile_size);
            let mut c = ParticleContainer::new(&layout, -1.0, 1.0);
            c.set_gap_ratio(self.gap_ratio);
            let mut rng = StdRng::seed_from_u64(7);
            for _ in 0..self.ppc * geom.total_cells() {
                let _ = c.inject(&layout, &geom, random_particle(&mut rng, self.n_cells));
            }
            // Lays every tile out with the scenario's gap ratio.
            let _ = c.global_sort(&layout, &geom);
            (geom, layout, c)
        }

        fn perturb(
            &self,
            step: usize,
            geom: &GridGeometry,
            layout: &TileLayout,
            c: &mut ParticleContainer,
            rng: &mut StdRng,
        ) {
            if let Motion::Lwfa(_) = self.motion {
                let mut absorbed = 0;
                for pt in &mut c.tiles {
                    let removals: Vec<PendingMove> = (0..pt.soa.slots())
                        .filter(|&p| pt.soa.alive[p] && rng.gen_range(0..10) == 0)
                        .map(|p| pt.removal(p))
                        .collect();
                    absorbed += removals.len();
                    pt.remove(&removals);
                }
                for _ in 0..absorbed {
                    let _ = c.inject(layout, geom, random_particle(rng, self.n_cells));
                }
            }
            for (t, pt) in c.tiles.iter_mut().enumerate() {
                let tile = layout.tile(t);
                let corner = if step % 2 == 0 {
                    tile.lo
                } else {
                    tile.hi.map(|h| h - 1)
                };
                let sink = layout.tile(step % layout.num_tiles());
                for p in 0..pt.soa.slots() {
                    if !pt.soa.alive[p] {
                        continue;
                    }
                    let mut pos = [pt.soa.x[p], pt.soa.y[p], pt.soa.z[p]];
                    match self.motion {
                        Motion::Stay => {}
                        Motion::Converge(_) if p % 3 == 0 => {
                            for d in 0..3 {
                                let cell =
                                    sink.lo[d] as f64 + rng.gen::<f64>() * sink.size()[d] as f64;
                                pos[d] = LO[d] + cell * DX[d];
                            }
                        }
                        Motion::Churn(amp) | Motion::Lwfa(amp) | Motion::Converge(amp) => {
                            for d in 0..3 {
                                pos[d] += amp * (2.0 * rng.gen::<f64>() - 1.0) * DX[d];
                            }
                            if p % 2 == 0 {
                                pos = geom.wrap_position(pos);
                            }
                        }
                        Motion::LeaveAll => pos[0] += self.tile_size[0] as f64 * DX[0],
                        Motion::PileUp if p % 4 != 0 => {
                            for d in 0..3 {
                                pos[d] = LO[d] + (corner[d] as f64 + rng.gen::<f64>()) * DX[d];
                            }
                        }
                        Motion::PileUp => {}
                    }
                    [pt.soa.x[p], pt.soa.y[p], pt.soa.z[p]] = pos;
                }
            }
        }
    }

    const SCENARIOS: [Scenario; 8] = [
        Scenario {
            name: "uniform churn, ~100 % movers",
            n_cells: [16, 16, 8],
            tile_size: [8, 8, 8],
            ppc: 4,
            gap_ratio: DEFAULT_GAP_RATIO,
            motion: Motion::Churn(1.0),
            steps: 4,
        },
        Scenario {
            name: "all stay",
            n_cells: [8, 8, 8],
            tile_size: [4, 4, 4],
            ppc: 3,
            gap_ratio: DEFAULT_GAP_RATIO,
            motion: Motion::Stay,
            steps: 2,
        },
        Scenario {
            name: "all leave",
            n_cells: [8, 8, 8],
            tile_size: [4, 4, 4],
            ppc: 3,
            gap_ratio: DEFAULT_GAP_RATIO,
            motion: Motion::LeaveAll,
            steps: 3,
        },
        Scenario {
            name: "bins past capacity: borrow chains right and left",
            n_cells: [8, 8, 4],
            tile_size: [4, 4, 4],
            ppc: 4,
            gap_ratio: DEFAULT_GAP_RATIO,
            motion: Motion::PileUp,
            steps: 4,
        },
        Scenario {
            name: "one gapless dense tile: rebuild inside the sweep",
            n_cells: [4, 4, 4],
            tile_size: [4, 4, 4],
            ppc: 60,
            gap_ratio: 0.0,
            motion: Motion::Churn(0.6),
            steps: 3,
        },
        Scenario {
            name: "clipped tiles",
            n_cells: [10, 10, 10],
            tile_size: [8, 8, 8],
            ppc: 3,
            gap_ratio: 0.25,
            motion: Motion::Churn(0.8),
            steps: 3,
        },
        Scenario {
            name: "lwfa inserts and removes, dead slots",
            n_cells: [8, 8, 16],
            tile_size: [8, 8, 8],
            ppc: 3,
            gap_ratio: DEFAULT_GAP_RATIO,
            motion: Motion::Lwfa(0.4),
            steps: 4,
        },
        GAPLESS_REHOMING,
    ];

    /// Arrivals outnumber a tile's free slots: overflow rebuilds fire in
    /// the middle of its arrival batch.
    const GAPLESS_REHOMING: Scenario = Scenario {
        name: "gapless re-homing: rebuilds mid-batch",
        n_cells: [8, 8, 8],
        tile_size: [4, 4, 4],
        ppc: 6,
        gap_ratio: 0.0,
        motion: Motion::Converge(0.5),
        steps: 3,
    };

    /// Totals a scenario must reach to count as covering its case.
    #[derive(Debug, Default)]
    struct Coverage {
        stats: MoveStats,
        dead_slots_swept: usize,
        rebuilds_in_sweep: usize,
        /// Per mutant: diverged from the reference at least once.
        caught: Vec<bool>,
    }

    /// Runs `sc` on the fast path and on the queue-based reference side
    /// by side, demanding equal stats and bit-identical state after every
    /// sweep and every sort.
    fn run_against_reference(sc: &Scenario, mutants: &[Mutant]) -> Coverage {
        let (geom, layout, mut fast) = sc.build();
        let mut slow = fast.clone();
        let mut rng = StdRng::seed_from_u64(11);
        let mut cov = Coverage {
            caught: vec![false; mutants.len()],
            ..Coverage::default()
        };
        for step in 0..sc.steps {
            sc.perturb(step, &geom, &layout, &mut fast, &mut rng.clone());
            sc.perturb(step, &geom, &layout, &mut slow, &mut rng);
            // Tile by tile: the sweep alone, departure order included.
            let mut scratch = SortScratch::default();
            for t in 0..fast.tiles.len() {
                let at = format!("{}: step {step} tile {t}", sc.name);
                let (mut a, mut b) = (fast.tiles[t].clone(), slow.tiles[t].clone());
                cov.dead_slots_swept += a.soa.slots() - a.soa.len();
                let got = a.incremental_sort_sweep(t, &layout, &geom, &mut scratch);
                let mut departures = Vec::new();
                let tile = layout.tile(t);
                let want = reference::sweep(&mut b, tile, &geom, &mut departures, Mutant::None);
                assert_eq!(got, want, "{at}: stats");
                cov.rebuilds_in_sweep += got.0.rebuilds;
                assert_eq!(
                    scratch
                        .leave_order
                        .iter()
                        .map(|&k| departure_bits(&scratch.leavers[k].particle))
                        .collect::<Vec<_>>(),
                    departures.iter().map(departure_bits).collect::<Vec<_>>(),
                    "{at}: departure order"
                );
                for (i, d) in departures.iter().enumerate() {
                    let (cell, _) = geom.locate(d.x, d.y, d.z);
                    let to = layout.tile_of_cell(cell);
                    let leaver = &scratch.leavers[scratch.leave_order[i]];
                    assert_eq!(scratch.leave_dest[i], to, "{at}: destination tile");
                    assert_eq!(leaver.tile, to, "{at}: destination tile");
                    assert_eq!(leaver.bin, layout.tile(to).local_cell_id(cell));
                }
                scratch.leavers.clear();
                scratch.leave_order.clear();
                scratch.leave_dest.clear();
                assert_eq!(state(&[a]), state(&[b]), "{at}: state");
            }
            let before = slow.clone();
            let got = fast.incremental_sort(&layout, &geom);
            let want = reference::incremental_sort(&mut slow, &layout, &geom, Mutant::None);
            assert_eq!(got, want, "{}: step {step} stats", sc.name);
            assert_eq!(
                state(&fast.tiles),
                state(&slow.tiles),
                "{}: step {step}",
                sc.name
            );
            fast.check_invariants();
            cov.stats.merge(&got.0);
            for (m, caught) in mutants.iter().zip(&mut cov.caught) {
                let mut broken = before.clone();
                let _ = reference::incremental_sort(&mut broken, &layout, &geom, *m);
                *caught |= state(&broken.tiles) != state(&slow.tiles);
            }
        }
        cov
    }

    #[test]
    fn conf_fused_sweep_matches_queue_apply_bitwise() {
        let mutants = [Mutant::InsertsBeforeDeletes, Mutant::DeletesInSlotOrder];
        for (i, sc) in SCENARIOS.iter().enumerate() {
            let cov = run_against_reference(sc, &mutants);
            let s = cov.stats;
            match i {
                0 => {
                    assert!(s.deletions > 3 * 4 * 2048, "{}: {s:?}", sc.name);
                    assert_eq!(cov.caught, [true, true], "{}: order mutants", sc.name);
                }
                1 => assert_eq!(s, MoveStats::default(), "{}", sc.name),
                2 => assert_eq!(s.deletions, 3 * 3 * 512, "{}", sc.name),
                3 => assert!(
                    s.borrow_shifts > 0 && s.bins_scanned > 0,
                    "{}: {s:?}",
                    sc.name
                ),
                4 => assert!(cov.rebuilds_in_sweep > 0, "{}", sc.name),
                6 => assert!(cov.dead_slots_swept > 0, "{}", sc.name),
                _ => {}
            }
        }
    }

    #[test]
    fn conf_rehoming_matches_sequential_inject_bitwise() {
        let sc = &GAPLESS_REHOMING;
        let mutants = [Mutant::UnstableGrouping, Mutant::RebuildCheckPerBatch];
        let cov = run_against_reference(sc, &mutants);
        assert!(
            cov.stats.rebuilds > cov.rebuilds_in_sweep,
            "{:?}",
            cov.stats
        );
        assert_eq!(cov.caught, [true, true], "re-homing order mutants");
        // The re-homing that precedes a global sort, under every exec
        // configuration: the sorted SoA order depends on arrival order.
        for workers in [1usize, 3] {
            let pool = WorkerPool::new(workers);
            let (geom, layout, mut fast) = sc.build();
            let mut slow = fast.clone();
            let mut rng = StdRng::seed_from_u64(13);
            sc.perturb(0, &geom, &layout, &mut fast, &mut rng.clone());
            sc.perturb(0, &geom, &layout, &mut slow, &mut rng);
            let _ = fast.global_sort_parallel(&layout, &geom, pool.exec(SchedulerPolicy::Static));
            let _ = reference::incremental_sort(&mut slow, &layout, &geom, Mutant::None);
            let _ = slow.global_sort(&layout, &geom);
            assert_eq!(state(&fast.tiles), state(&slow.tiles), "workers {workers}");
        }
    }

    #[test]
    fn total_charge_scales_with_weights() {
        let (geom, layout, mut c) = setup();
        let mut p = particle_at(0.5, 0.5, 0.5);
        p.w = 3.0;
        let _ = c.inject(&layout, &geom, p);
        assert_eq!(c.total_charge(), -3.0);
    }

    #[test]
    fn periodic_wrap_keeps_particles_homed() {
        let (geom, layout, mut c) = setup();
        let _ = c.inject(&layout, &geom, particle_at(0.5, 0.5, 0.5));
        // Move past the periodic boundary: x = -0.5 wraps to 7.5 (tile 1).
        c.tiles[0].soa.x[0] = -0.5;
        let _ = c.incremental_sort(&layout, &geom);
        c.check_invariants();
        assert_eq!(c.total_particles(), 1);
        assert_eq!(c.tiles[1].len(), 1, "wrapped into the high-x tile");
    }
}
