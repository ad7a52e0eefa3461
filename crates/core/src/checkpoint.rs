//! Checkpoint/restore of a [`Simulation`]: which state goes into which
//! section of the container format of [`crate::snapshot`], one
//! encode/decode pair per section.
//!
//! The serialized inventory is everything `step()` reads or writes: the
//! nine field arrays, every tile's SoA + GPMA + bin map, the RNG
//! stream, the sort-policy counters, the per-phase performance counters
//! and cache statistics, the behavioural cache state (tags, LRU stamps,
//! stream detectors), the virtual address map with the allocator mark,
//! and the accumulated run report. Everything else a simulation owns is
//! either pure configuration (solver coefficients, Boris coefficients,
//! dt, geometry — rederived from `SimConfig`) or scratch that is cleared
//! before each use.
//!
//! A tile is stored as its independent state only. Stored: the seven
//! attribute arrays, the SoA free stack, the GPMA index, its bin
//! offsets, the per-bin free stacks (concatenated in bin order, LIFO
//! order kept), the gap ratio and the rebuild count. Derived at restore:
//! the liveness flags (from the free stack), the bin map `cells` (each
//! indexed particle's region), the reverse map `slot_of`, the bin and
//! stack lengths and the two counts. A cache level is stored as its
//! tags, LRU stamps and clock. `reference` keeps the format-1 encoder,
//! which stored all of it, plus a move queue that was empty at every
//! step boundary, a rebuild flag and a last-line memo that no step read;
//! `conf_v3_restore_reencodes_to_v1_bitwise` proves that restoring
//! format 3 rebuilds every byte format 1 wrote.
//!
//! The contract (pinned in `tests/snapshot.rs`): `restore` onto a fresh
//! simulation built from the same `SimConfig`, followed by `step()`, is
//! **bit-identical** to stepping the original — fields, currents,
//! particle data, per-phase cycle counters and the final report — for
//! any worker count and batching mode.

use mpic_deposit::AddrMap;
use mpic_grid::{Array3, FieldArrays};
use mpic_machine::{
    CacheLevelState, CacheSimState, CacheStats, MachineCounters, MemStats, PerfCounters, Phase,
    VAddr,
};
use mpic_particles::{GpmaState, ParticleSoA, ParticleTile, RankSortStats};
use mpic_push::BorisCoeffs;
use mpic_solver::SolverKind;
use rand::rngs::StdRng;

use crate::simulation::Simulation;
use crate::snapshot::{
    section, write_snapshot, SectionReader, SnapshotError, SnapshotReader, SnapshotWriter,
};
use crate::timings::{RunReport, StepTimings};

/// The decoded `PARTICLES` section.
struct Particles {
    charge: f64,
    mass: f64,
    gap_ratio: f64,
    tiles: Vec<ParticleTile>,
}

/// The decoded `DRIVER` section.
struct DriverState {
    sort_stats: RankSortStats,
    pending_global_sort: bool,
    window_accum: f64,
    time: f64,
    step_index: u64,
}

/// The decoded `ADDRS` section.
struct Addrs {
    alloc_mark: u64,
    field_addrs: [VAddr; 6],
    addr_map: AddrMap,
}

impl Simulation {
    /// Serializes the complete mutable state into the versioned snapshot
    /// format (see [`crate::snapshot`]). Non-destructive: the simulation
    /// is not perturbed, so snapshots can be taken mid-run at any step
    /// boundary.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.snapshot_into(&mut out);
        out
    }

    /// [`Simulation::snapshot`] into a caller-owned buffer, replacing its
    /// contents: a buffer kept across snapshots is rewritten in place
    /// whenever it is large enough, so periodic checkpointing allocates
    /// nothing in steady state.
    pub fn snapshot_into(&self, out: &mut Vec<u8>) {
        write_snapshot(out, |wtr| self.encode(wtr));
    }

    /// Every section in order.
    fn encode(&self, wtr: &mut SnapshotWriter<'_>) {
        self.encode_meta(wtr);
        self.encode_fields(wtr);
        self.encode_particles(wtr);
        self.encode_rng(wtr);
        self.encode_driver(wtr);
        self.encode_counters(wtr);
        self.encode_cache(wtr);
        self.encode_addrs(wtr);
        self.encode_report(wtr);
    }

    /// Restores the state captured by [`Simulation::snapshot`] into this
    /// simulation, which must have been built from the same
    /// configuration (geometry, solver, kernel, timestep). `num_workers`,
    /// `batching` and `simd` may differ. Only `num_workers` is host-only:
    /// `batching` and `simd` choose the prices, so the counters and the
    /// report continue under this simulation's mode, not the writer's.
    ///
    /// Corrupt, truncated or incompatible input returns a structured
    /// [`SnapshotError`] and never panics. Every fallible decode and
    /// validation runs before the first write to `self`, so a failed
    /// restore leaves the simulation exactly as it was.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let rdr = SnapshotReader::new(bytes)?;
        self.decode_meta(rdr.section(section::META)?)?;
        let field_data = self.decode_fields(rdr.section(section::FIELDS)?)?;
        let particles = self.decode_particles(rdr.section(section::PARTICLES)?)?;
        let rng_state = rdr.section(section::RNG)?.get_u64()?;
        let driver = decode_driver(rdr.section(section::DRIVER)?)?;
        let counters = decode_counters(rdr.section(section::COUNTERS)?)?;
        let cache_state = decode_cache(rdr.section(section::CACHE)?)?;
        let addrs = self.decode_addrs(rdr.section(section::ADDRS)?)?;
        let report = decode_report(rdr.section(section::REPORT)?)?;

        // --- Apply. The cache import is the one remaining fallible
        // step; it validates the state before mutating anything, so a
        // failure here still leaves `self` untouched. Everything after
        // it is infallible.
        if !self.machine.mem().import_state(&cache_state) {
            return Err(SnapshotError::Malformed {
                section: section::CACHE,
                reason: "cache state no walk of this geometry can produce",
            });
        }
        for (arr, data) in field_array_muts(&mut self.fields)
            .into_iter()
            .zip(&field_data)
        {
            arr.as_mut_slice().copy_from_slice(data);
        }
        self.electrons.charge = particles.charge;
        self.electrons.mass = particles.mass;
        self.electrons.set_gap_ratio(particles.gap_ratio);
        self.electrons.tiles = particles.tiles;
        // Derived from species parameters — rebuilt, not serialized.
        self.boris = BorisCoeffs::new(particles.charge, particles.mass, self.dt);
        self.rng = StdRng::from_state(rng_state);
        self.sort_stats = driver.sort_stats;
        self.pending_global_sort = driver.pending_global_sort;
        self.window_accum = driver.window_accum;
        self.time = driver.time;
        self.step_index = driver.step_index;
        *self.machine.counters_mut() = counters.perf;
        self.machine.mem().set_stats(counters.mem);
        self.machine.mem().restore_alloc_mark(addrs.alloc_mark);
        self.machine.reset_execution_state();
        self.field_addrs = addrs.field_addrs;
        self.depositor.restore_addr_map(addrs.addr_map);
        self.report = report;
        Ok(())
    }

    /// `META`: the configuration fingerprint.
    fn encode_meta(&self, wtr: &mut SnapshotWriter<'_>) {
        wtr.begin_section(section::META);
        for d in 0..3 {
            wtr.put_usize(self.cfg.n_cells[d]);
        }
        for d in 0..3 {
            wtr.put_f64(self.cfg.dx[d]);
        }
        for d in 0..3 {
            wtr.put_usize(self.cfg.tile_size[d]);
        }
        wtr.put_usize(self.geom.guard);
        wtr.put_u32(solver_kind_id(self.cfg.solver));
        wtr.put_usize(self.cfg.shape.order());
        wtr.put_str(self.kernel_name());
        wtr.put_f64(self.dt);
        wtr.put_usize(self.electrons.tiles.len());
        wtr.put_usize(self.fields.ex.as_slice().len());
        wtr.end_section();
    }

    /// Checks a snapshot's fingerprint against this simulation's.
    fn decode_meta(&self, mut s: SectionReader<'_>) -> Result<(), SnapshotError> {
        for d in 0..3 {
            if s.get_usize()? != self.cfg.n_cells[d] {
                return Err(SnapshotError::Incompatible { reason: "n_cells" });
            }
        }
        for d in 0..3 {
            if s.get_f64()?.to_bits() != self.cfg.dx[d].to_bits() {
                return Err(SnapshotError::Incompatible { reason: "dx" });
            }
        }
        for d in 0..3 {
            if s.get_usize()? != self.cfg.tile_size[d] {
                return Err(SnapshotError::Incompatible {
                    reason: "tile_size",
                });
            }
        }
        if s.get_usize()? != self.geom.guard {
            return Err(SnapshotError::Incompatible { reason: "guard" });
        }
        if s.get_u32()? != solver_kind_id(self.cfg.solver) {
            return Err(SnapshotError::Incompatible { reason: "solver" });
        }
        if s.get_usize()? != self.cfg.shape.order() {
            return Err(SnapshotError::Incompatible {
                reason: "shape order",
            });
        }
        if s.get_string()? != self.kernel_name() {
            return Err(SnapshotError::Incompatible { reason: "kernel" });
        }
        if s.get_f64()?.to_bits() != self.dt.to_bits() {
            return Err(SnapshotError::Incompatible { reason: "dt" });
        }
        if s.get_usize()? != self.electrons.tiles.len() {
            return Err(SnapshotError::Incompatible {
                reason: "tile count",
            });
        }
        if s.get_usize()? != self.fields.ex.as_slice().len() {
            return Err(SnapshotError::Incompatible {
                reason: "field length",
            });
        }
        Ok(())
    }

    /// `FIELDS`: the nine guarded field arrays.
    fn encode_fields(&self, wtr: &mut SnapshotWriter<'_>) {
        wtr.begin_section(section::FIELDS);
        for arr in field_array_refs(&self.fields) {
            wtr.put_vec_f64(arr.as_slice());
        }
        wtr.end_section();
    }

    fn decode_fields(&self, mut s: SectionReader<'_>) -> Result<Vec<Vec<f64>>, SnapshotError> {
        let field_len = self.fields.ex.as_slice().len();
        let mut field_data = Vec::with_capacity(9);
        for _ in 0..9 {
            let v = s.get_vec_f64()?;
            if v.len() != field_len {
                return Err(SnapshotError::Malformed {
                    section: section::FIELDS,
                    reason: "field array length mismatch",
                });
            }
            field_data.push(v);
        }
        Ok(field_data)
    }

    /// `PARTICLES`: per tile, the state that cannot be derived — the SoA
    /// attributes and free stack, and the GPMA's [`GpmaState`]; index
    /// words as `u32`. Restore derives the rest ([`ParticleTile::from_parts`]).
    fn encode_particles(&self, wtr: &mut SnapshotWriter<'_>) {
        wtr.begin_section(section::PARTICLES);
        wtr.put_f64(self.electrons.charge);
        wtr.put_f64(self.electrons.mass);
        wtr.put_f64(self.electrons.gap_ratio());
        wtr.put_usize(self.electrons.tiles.len());
        for tile in &self.electrons.tiles {
            let soa = &tile.soa;
            for attr in [&soa.x, &soa.y, &soa.z, &soa.ux, &soa.uy, &soa.uz, &soa.w] {
                wtr.put_vec_f64(attr);
            }
            let free = soa.free_slots();
            wtr.put_index_words(free.len(), free.iter().copied());
            let g = &tile.gpma;
            for words in [g.local_index(), g.bin_offsets()] {
                wtr.put_index_words(words.len(), words.iter().copied());
            }
            wtr.put_index_words(g.num_empty_slots(), g.free_stacks());
            wtr.put_f64(g.gap_ratio());
            wtr.put_u64(g.rebuild_count());
        }
        wtr.end_section();
    }

    fn decode_particles(&self, mut s: SectionReader<'_>) -> Result<Particles, SnapshotError> {
        let bad = |reason| SnapshotError::Malformed {
            section: section::PARTICLES,
            reason,
        };
        let charge = s.get_f64()?;
        let mass = s.get_f64()?;
        let gap_ratio = s.get_f64()?;
        if !gap_ratio.is_finite() || gap_ratio < 0.0 {
            return Err(bad("gap ratio outside [0, inf)"));
        }
        let n_tiles = self.electrons.tiles.len();
        if s.get_usize()? != n_tiles {
            return Err(bad("tile count disagrees with META"));
        }
        let mut tiles = Vec::with_capacity(n_tiles);
        for t in 0..n_tiles {
            let mut attrs = Vec::with_capacity(7);
            for _ in 0..7 {
                attrs.push(s.get_vec_f64()?);
            }
            let free = s.get_vec_index()?;
            let local_index = s.get_vec_index()?;
            let bin_offsets = s.get_vec_index()?;
            if bin_offsets.len() != self.layout.tile(t).num_cells() + 1 {
                return Err(bad("GPMA bin count disagrees with the tile layout"));
            }
            let free_stacks = s.get_vec_index()?;
            let g_gap_ratio = s.get_f64()?;
            let rebuild_count = s.get_u64()?;
            let [x, y, z, ux, uy, uz, w]: [Vec<f64>; 7] =
                attrs.try_into().expect("seven attribute arrays");
            let soa = ParticleSoA::from_parts(x, y, z, ux, uy, uz, w, free).map_err(bad)?;
            let gpma = GpmaState {
                local_index,
                bin_offsets,
                free_stacks,
                gap_ratio: g_gap_ratio,
                rebuild_count,
            };
            tiles.push(ParticleTile::from_parts(soa, gpma).map_err(bad)?);
        }
        Ok(Particles {
            charge,
            mass,
            gap_ratio,
            tiles,
        })
    }

    /// `RNG`: the stream position (decoded inline: one `u64`).
    fn encode_rng(&self, wtr: &mut SnapshotWriter<'_>) {
        wtr.begin_section(section::RNG);
        wtr.put_u64(self.rng.state());
        wtr.end_section();
    }

    /// `DRIVER`: sort-policy counters, window, time, step index.
    fn encode_driver(&self, wtr: &mut SnapshotWriter<'_>) {
        wtr.begin_section(section::DRIVER);
        wtr.put_u64(self.sort_stats.steps_since_sort);
        wtr.put_u64(self.sort_stats.rebuilds_accum);
        wtr.put_f64(self.sort_stats.empty_ratio);
        wtr.put_f64(self.sort_stats.perf_metric);
        wtr.put_f64(self.sort_stats.baseline_perf);
        wtr.put_bool(self.pending_global_sort);
        wtr.put_f64(self.window_accum);
        wtr.put_f64(self.time);
        wtr.put_u64(self.step_index);
        wtr.end_section();
    }

    /// `COUNTERS`: per-phase performance counters and cache statistics.
    fn encode_counters(&self, wtr: &mut SnapshotWriter<'_>) {
        wtr.begin_section(section::COUNTERS);
        let ctr = self.machine.counters();
        for p in Phase::ALL {
            wtr.put_f64(ctr.cycles(p));
        }
        wtr.put_f64(ctr.flops_issued);
        wtr.put_f64(ctr.useful_flops);
        wtr.put_u64(ctr.scalar_ops);
        wtr.put_u64(ctr.vector_ops);
        wtr.put_u64(ctr.mopa_ops);
        wtr.put_u64(ctr.tile_transfers);
        let mem = self.machine.mem_ref().stats();
        for level in [mem.l1, mem.l2] {
            wtr.put_u64(level.hits);
            wtr.put_u64(level.misses);
        }
        wtr.put_u64(mem.streamed_misses);
        wtr.put_u64(mem.random_misses);
        wtr.end_section();
    }

    /// `CACHE`: behavioural cache-hierarchy state (tags, LRU, streams).
    fn encode_cache(&self, wtr: &mut SnapshotWriter<'_>) {
        wtr.begin_section(section::CACHE);
        let cache = self.machine.mem_ref().export_state();
        for lvl in [&cache.l1, &cache.l2] {
            wtr.put_vec_u64(&lvl.tags);
            wtr.put_vec_u64(&lvl.stamps);
            wtr.put_u64(lvl.clock);
        }
        wtr.put_usize(cache.streams.len());
        for &(tag, count) in &cache.streams {
            wtr.put_u64(tag);
            wtr.put_u32(count);
        }
        wtr.put_u32(cache.decay_tick);
        wtr.end_section();
    }

    /// `ADDRS`: the virtual address map and allocator mark.
    fn encode_addrs(&self, wtr: &mut SnapshotWriter<'_>) {
        wtr.begin_section(section::ADDRS);
        wtr.put_u64(self.machine.mem_ref().alloc_mark());
        for a in self.field_addrs {
            wtr.put_u64(a.0);
        }
        let am = self
            .depositor
            .addr_map()
            .expect("depositor prepared at construction");
        wtr.put_u64(am.jx.0);
        wtr.put_u64(am.jy.0);
        wtr.put_u64(am.jz.0);
        wtr.put_usize(am.soa.len());
        for tile in &am.soa {
            for a in tile {
                wtr.put_u64(a.0);
            }
        }
        wtr.put_usize(am.local_index.len());
        for a in &am.local_index {
            wtr.put_u64(a.0);
        }
        wtr.put_usize(am.rhocell.len());
        for a in &am.rhocell {
            wtr.put_u64(a.0);
        }
        wtr.put_u64(am.staging.0);
        wtr.end_section();
    }

    fn decode_addrs(&self, mut s: SectionReader<'_>) -> Result<Addrs, SnapshotError> {
        let bad_addr = |reason| SnapshotError::Malformed {
            section: section::ADDRS,
            reason,
        };
        let n_tiles = self.electrons.tiles.len();
        let alloc_mark = s.get_u64()?;
        let mut field_addrs = [VAddr(0); 6];
        for a in &mut field_addrs {
            *a = VAddr(s.get_u64()?);
        }
        let jx = VAddr(s.get_u64()?);
        let jy = VAddr(s.get_u64()?);
        let jz = VAddr(s.get_u64()?);
        if s.get_usize()? != n_tiles {
            return Err(bad_addr("SoA address table length"));
        }
        let mut soa_addrs = Vec::with_capacity(n_tiles);
        for _ in 0..n_tiles {
            let mut tile_addrs = [VAddr(0); 7];
            for a in &mut tile_addrs {
                *a = VAddr(s.get_u64()?);
            }
            soa_addrs.push(tile_addrs);
        }
        if s.get_usize()? != n_tiles {
            return Err(bad_addr("local-index address table length"));
        }
        let mut local_index_addrs = Vec::with_capacity(n_tiles);
        for _ in 0..n_tiles {
            local_index_addrs.push(VAddr(s.get_u64()?));
        }
        if s.get_usize()? != n_tiles {
            return Err(bad_addr("rhocell address table length"));
        }
        let mut rhocell_addrs = Vec::with_capacity(n_tiles);
        for _ in 0..n_tiles {
            rhocell_addrs.push(VAddr(s.get_u64()?));
        }
        let staging = VAddr(s.get_u64()?);
        Ok(Addrs {
            alloc_mark,
            field_addrs,
            addr_map: AddrMap {
                jx,
                jy,
                jz,
                soa: soa_addrs,
                local_index: local_index_addrs,
                rhocell: rhocell_addrs,
                staging,
            },
        })
    }

    /// `REPORT`: the accumulated timing report.
    fn encode_report(&self, wtr: &mut SnapshotWriter<'_>) {
        wtr.begin_section(section::REPORT);
        wtr.put_f64(self.report.useful_flops);
        wtr.put_usize(self.report.steps.len());
        for s in &self.report.steps {
            for c in s.cycles {
                wtr.put_f64(c);
            }
            wtr.put_usize(s.particles);
        }
        wtr.end_section();
    }
}

fn decode_driver(mut s: SectionReader<'_>) -> Result<DriverState, SnapshotError> {
    Ok(DriverState {
        sort_stats: RankSortStats {
            steps_since_sort: s.get_u64()?,
            rebuilds_accum: s.get_u64()?,
            empty_ratio: s.get_f64()?,
            perf_metric: s.get_f64()?,
            baseline_perf: s.get_f64()?,
        },
        pending_global_sort: s.get_bool()?,
        window_accum: s.get_f64()?,
        time: s.get_f64()?,
        step_index: s.get_u64()?,
    })
}

fn decode_counters(mut s: SectionReader<'_>) -> Result<MachineCounters, SnapshotError> {
    let mut perf = PerfCounters::new();
    for p in Phase::ALL {
        perf.add_cycles(p, s.get_f64()?);
    }
    perf.flops_issued = s.get_f64()?;
    perf.useful_flops = s.get_f64()?;
    perf.scalar_ops = s.get_u64()?;
    perf.vector_ops = s.get_u64()?;
    perf.mopa_ops = s.get_u64()?;
    perf.tile_transfers = s.get_u64()?;
    // Struct fields evaluate in the order written: the section order.
    let mem = MemStats {
        l1: CacheStats {
            hits: s.get_u64()?,
            misses: s.get_u64()?,
        },
        l2: CacheStats {
            hits: s.get_u64()?,
            misses: s.get_u64()?,
        },
        streamed_misses: s.get_u64()?,
        random_misses: s.get_u64()?,
    };
    Ok(MachineCounters { perf, mem })
}

fn decode_cache(mut s: SectionReader<'_>) -> Result<CacheSimState, SnapshotError> {
    let l1 = decode_cache_level(&mut s)?;
    let l2 = decode_cache_level(&mut s)?;
    let n_streams = s.get_usize()?;
    if n_streams > s.remaining() / 12 + 1 {
        return Err(SnapshotError::Malformed {
            section: section::CACHE,
            reason: "stream table length exceeds the section",
        });
    }
    let mut streams = Vec::with_capacity(n_streams);
    for _ in 0..n_streams {
        let tag = s.get_u64()?;
        let count = s.get_u32()?;
        streams.push((tag, count));
    }
    let decay_tick = s.get_u32()?;
    Ok(CacheSimState {
        l1,
        l2,
        streams,
        decay_tick,
    })
}

fn decode_report(mut s: SectionReader<'_>) -> Result<RunReport, SnapshotError> {
    let useful_flops = s.get_f64()?;
    let n_steps = s.get_usize()?;
    if n_steps > s.remaining() / 72 + 1 {
        return Err(SnapshotError::Malformed {
            section: section::REPORT,
            reason: "step count exceeds the section",
        });
    }
    let mut steps = Vec::with_capacity(n_steps);
    for _ in 0..n_steps {
        let mut cy = [0.0f64; 8];
        for c in &mut cy {
            *c = s.get_f64()?;
        }
        let particles = s.get_usize()?;
        steps.push(StepTimings {
            cycles: cy,
            particles,
        });
    }
    Ok(RunReport {
        steps,
        useful_flops,
    })
}

/// Stable on-disk discriminant for the solver kind (CKC is 1; 0 was the
/// retired Yee solver's).
fn solver_kind_id(k: SolverKind) -> u32 {
    match k {
        SolverKind::Ckc => 1,
    }
}

/// The nine field arrays in serialization order.
fn field_array_refs(f: &FieldArrays) -> [&Array3; 9] {
    [
        &f.ex, &f.ey, &f.ez, &f.bx, &f.by, &f.bz, &f.jx, &f.jy, &f.jz,
    ]
}

/// Mutable view of the nine field arrays in serialization order.
fn field_array_muts(f: &mut FieldArrays) -> [&mut Array3; 9] {
    [
        &mut f.ex, &mut f.ey, &mut f.ez, &mut f.bx, &mut f.by, &mut f.bz, &mut f.jx, &mut f.jy,
        &mut f.jz,
    ]
}

/// Decodes one cache level's behavioural state.
fn decode_cache_level(s: &mut SectionReader<'_>) -> Result<CacheLevelState, SnapshotError> {
    Ok(CacheLevelState {
        tags: s.get_vec_u64()?,
        stamps: s.get_vec_u64()?,
        clock: s.get_u64()?,
    })
}

/// The format-1 encoder, the oracle that formats 2 and 3 drop only state
/// that is derivable or that no step reads: a simulation restored from
/// format 3 re-encodes to the original's format-1 bytes.
#[cfg(test)]
mod reference {
    use super::*;

    /// The snapshot as format 1 wrote it: `PARTICLES` and `CACHE` in
    /// their format-1 layout, every other section as format 3 writes it.
    pub fn snapshot_v1(sim: &Simulation) -> Vec<u8> {
        let mut out = Vec::new();
        write_snapshot(&mut out, |wtr| {
            sim.encode_meta(wtr);
            sim.encode_fields(wtr);
            encode_particles_v1(sim, wtr);
            sim.encode_rng(wtr);
            sim.encode_driver(wtr);
            sim.encode_counters(wtr);
            encode_cache_v1(sim, wtr);
            sim.encode_addrs(wtr);
            sim.encode_report(wtr);
        });
        out[8..12].copy_from_slice(&1u32.to_le_bytes());
        out
    }

    /// A length-prefixed vector, each word a `u64`.
    fn put_vec_usize(wtr: &mut SnapshotWriter<'_>, v: &[usize]) {
        wtr.put_usize(v.len());
        for &x in v {
            wtr.put_usize(x);
        }
    }

    /// Per tile, everything format 3 stores plus what restore derives —
    /// `alive`, the bin map `cells`, the bin lengths, one length word per
    /// free stack, `slot_of` and the two counts — and a move queue and a
    /// rebuild flag, which were empty and `false` at every step boundary;
    /// every index word a `u64`.
    fn encode_particles_v1(sim: &Simulation, wtr: &mut SnapshotWriter<'_>) {
        wtr.begin_section(section::PARTICLES);
        wtr.put_f64(sim.electrons.charge);
        wtr.put_f64(sim.electrons.mass);
        wtr.put_f64(sim.electrons.gap_ratio());
        wtr.put_usize(sim.electrons.tiles.len());
        for tile in &sim.electrons.tiles {
            let soa = &tile.soa;
            for attr in [&soa.x, &soa.y, &soa.z, &soa.ux, &soa.uy, &soa.uz, &soa.w] {
                wtr.put_vec_f64(attr);
            }
            wtr.put_usize(soa.alive.len());
            for &a in &soa.alive {
                wtr.put_bool(a);
            }
            put_vec_usize(wtr, soa.free_slots());
            put_vec_usize(wtr, &tile.cells);
            let g = &tile.gpma;
            put_vec_usize(wtr, g.local_index());
            put_vec_usize(wtr, g.bin_offsets());
            let lengths: Vec<usize> = (0..g.num_bins()).map(|c| g.bin_len(c)).collect();
            put_vec_usize(wtr, &lengths);
            wtr.put_usize(g.num_bins());
            for c in 0..g.num_bins() {
                put_vec_usize(wtr, g.free_stack(c));
            }
            put_vec_usize(wtr, g.slot_of());
            wtr.put_usize(g.num_particles());
            wtr.put_usize(g.num_empty_slots());
            wtr.put_f64(g.gap_ratio());
            wtr.put_usize(0);
            wtr.put_bool(false);
            wtr.put_u64(g.rebuild_count());
        }
        wtr.end_section();
    }

    /// Per level, format 3's words plus the last-line memo, which each
    /// access set to the line and slot it touched and a flush cleared:
    /// the slot stamped with the clock, or none (`u64::MAX` twice) when
    /// the clock is 0 or no slot carries its stamp.
    fn encode_cache_v1(sim: &Simulation, wtr: &mut SnapshotWriter<'_>) {
        wtr.begin_section(section::CACHE);
        let cache = sim.machine.mem_ref().export_state();
        for lvl in [&cache.l1, &cache.l2] {
            wtr.put_vec_u64(&lvl.tags);
            wtr.put_vec_u64(&lvl.stamps);
            wtr.put_u64(lvl.clock);
            let last = (lvl.clock > 0)
                .then(|| lvl.stamps.iter().position(|&s| s == lvl.clock))
                .flatten();
            wtr.put_u64(last.map_or(u64::MAX, |slot| lvl.tags[slot]));
            wtr.put_u64(last.map_or(u64::MAX, |slot| slot as u64));
        }
        wtr.put_usize(cache.streams.len());
        for &(tag, count) in &cache.streams {
            wtr.put_u64(tag);
            wtr.put_u32(count);
        }
        wtr.put_u32(cache.decay_tick);
        wtr.end_section();
    }
}

#[cfg(test)]
mod tests {
    use super::reference::snapshot_v1;
    use super::*;
    use crate::workloads;
    use mpic_deposit::{KernelConfig, ShapeOrder};

    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// `tests/exec_mode_goldens.rs`'s runs and, per `(batching, simd)`
    /// mode, the FNV-1a of their format-1 snapshots — the constants that
    /// file pinned before format 2.
    const V1_GOLDENS: [(KernelConfig, ShapeOrder, [u64; 2]); 8] = [
        (
            KernelConfig::FullOpt,
            ShapeOrder::Cic,
            [0x292f286c0d5851b4, 0xf5bd2296a33f3a88],
        ),
        (
            KernelConfig::FullOpt,
            ShapeOrder::Qsp,
            [0x8bbafd1cb59486c4, 0xe0b6278181da160a],
        ),
        (
            KernelConfig::RhocellIncrSortVpu,
            ShapeOrder::Cic,
            [0x29c1d24704f5653d; 2],
        ),
        (
            KernelConfig::RhocellIncrSortVpu,
            ShapeOrder::Qsp,
            [0xadf046c373664eae; 2],
        ),
        (
            KernelConfig::BaselineIncrSort,
            ShapeOrder::Cic,
            [0x532caeba51eace9b; 2],
        ),
        (
            KernelConfig::BaselineIncrSort,
            ShapeOrder::Qsp,
            [0xe3c88fc87a21a685; 2],
        ),
        (
            KernelConfig::Baseline,
            ShapeOrder::Cic,
            [0xc2809cfc465bc1aa; 2],
        ),
        (
            KernelConfig::Baseline,
            ShapeOrder::Qsp,
            [0x737b982db1cf3400; 2],
        ),
    ];
    const MODES: [(bool, bool); 2] = [(false, false), (true, true)];

    /// Restores `sim`'s format-3 snapshot into `fresh` and returns the
    /// v1 encodings of both.
    fn v1_before_and_after(sim: &Simulation, mut fresh: Simulation) -> (Vec<u8>, Simulation) {
        fresh.restore(&sim.snapshot()).expect("format 3 restores");
        (snapshot_v1(sim), fresh)
    }

    /// Format 3 stores only state a future step reads and that cannot be
    /// derived, and derives the rest exactly: restoring format-3 bytes
    /// and re-encoding with the format-1 encoder reproduces the
    /// original's v1 bytes, which hash to the constants
    /// `conf_exec_mode_goldens` pinned before format 2 — every kernel x
    /// shape x mode row, the unsorted `Baseline` ones included. Also on
    /// LWFA after window removals (dead slots, free stacks). Older
    /// formats are refused, and the refusal leaves the target untouched.
    #[test]
    fn conf_v3_restore_reencodes_to_v1_bitwise() {
        for (kernel, shape, want) in V1_GOLDENS {
            for ((batching, simd), want) in MODES.into_iter().zip(want) {
                let build = || {
                    let mut s =
                        workloads::uniform_plasma_sim([8, 8, 16], 10, shape, kernel, 20_260_930);
                    s.cfg.batching = batching;
                    s.cfg.simd = simd;
                    s
                };
                let mut sim = build();
                sim.run(3);
                let (v1, restored) = v1_before_and_after(&sim, build());
                let at = format!("{kernel:?}/{shape:?} {:?}", (batching, simd));
                assert_eq!(fnv1a64(&v1), want, "{at}: v1 bytes moved");
                assert!(
                    snapshot_v1(&restored) == v1,
                    "{at}: restore derived other state"
                );
            }
        }

        let lwfa =
            || workloads::lwfa_sim([8, 8, 32], 2, ShapeOrder::Cic, KernelConfig::FullOpt, 13);
        let mut sim = lwfa();
        sim.run(6);
        let dead: usize = sim
            .electrons
            .tiles
            .iter()
            .map(|t| t.soa.free_slots().len())
            .sum();
        assert!(dead > 0, "the window removed no particle");
        let (v1, restored) = v1_before_and_after(&sim, lwfa());
        assert!(
            snapshot_v1(&restored) == v1,
            "lwfa: restore derived other state"
        );

        // Format-1 bytes, and the same bytes labelled format 2.
        let mut old = v1;
        let mut target = lwfa();
        target.run(1);
        let before = target.snapshot();
        for version in [1u32, 2] {
            old[8..12].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                target.restore(&old),
                Err(SnapshotError::BadVersion(version))
            );
            assert!(
                target.snapshot() == before,
                "a refused format moved the target"
            );
        }
    }
}
