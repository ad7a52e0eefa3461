//! Checkpoint/restore tests: deterministic snapshot round-trips and the
//! per-section corruption matrix.
//!
//! The `conf_` tests pin the crash-resilience contract: a simulation that is
//! snapshotted mid-run and restored into a *fresh* `Simulation` (built from
//! the same config) must continue bit-identically to the uninterrupted run —
//! fields, currents, particles, RNG, per-phase counters and cache behavioural
//! state included — across every worker count and execution mode. Corrupted snapshot bytes must produce structured [`SnapshotError`]s,
//! never panics.

use matrix_pic::core::config::GUARD_CELLS;
use matrix_pic::core::snapshot::{section, SnapshotError};
use matrix_pic::core::{workloads, SimConfig, Simulation};
use matrix_pic::deposit::{KernelConfig, ShapeOrder};
use matrix_pic::machine::MachineConfig;
use matrix_pic::particles::{ParticleTile, INVALID_PARTICLE_ID};

mod common;
use common::{particle_tiles, reseal_at, section_table, TileWords};

const UNIFORM_DIMS: [usize; 3] = [8, 8, 8];
const UNIFORM_PPC: usize = 2;
const UNIFORM_SEED: u64 = 97;
const LWFA_DIMS: [usize; 3] = [8, 8, 32];
const LWFA_PPC: usize = 2;
const LWFA_SEED: u64 = 13;

fn uniform_sim(workers: usize, runs: bool) -> Simulation {
    let mut sim = workloads::uniform_plasma_sim(
        UNIFORM_DIMS,
        UNIFORM_PPC,
        ShapeOrder::Cic,
        KernelConfig::FullOpt,
        UNIFORM_SEED,
    );
    sim.cfg.num_workers = workers;
    (sim.cfg.batching, sim.cfg.simd) = (runs, runs);
    sim
}

fn lwfa_sim(workers: usize, runs: bool) -> Simulation {
    let mut sim = workloads::lwfa_sim(
        LWFA_DIMS,
        LWFA_PPC,
        ShapeOrder::Cic,
        KernelConfig::FullOpt,
        LWFA_SEED,
    );
    sim.cfg.num_workers = workers;
    (sim.cfg.batching, sim.cfg.simd) = (runs, runs);
    sim
}

/// Run `total` steps uninterrupted; separately run `pre` steps, snapshot,
/// restore into a fresh sim and run the remaining steps there. Both final
/// states are compared through `Simulation::snapshot`, which captures every
/// piece of stepping state (fields, particles, RNG, counters, cache tags,
/// report), so byte equality is total-state equality.
fn assert_restore_continues_bit_identical(
    make: &dyn Fn() -> Simulation,
    pre: usize,
    total: usize,
    label: &str,
) {
    assert!(pre < total);
    let mut reference = make();
    reference.run(total);
    let expected = reference.snapshot();

    let mut interrupted = make();
    interrupted.run(pre);
    let checkpoint = interrupted.snapshot();
    drop(interrupted);

    let mut resumed = make();
    resumed
        .restore(&checkpoint)
        .unwrap_or_else(|e| panic!("{label}: restore failed: {e}"));
    resumed.run(total - pre);
    let actual = resumed.snapshot();

    assert_eq!(
        expected.len(),
        actual.len(),
        "{label}: snapshot size diverged after restore"
    );
    assert!(
        expected == actual,
        "{label}: state diverged after snapshot/restore"
    );
}

/// Snapshot -> restore -> N steps is bit-identical to the uninterrupted run
/// for every worker count x execution mode (per-particle, cell runs) in
/// the paper's determinism matrix (uniform plasma workload).
#[test]
fn conf_snapshot_restore_bit_identical_across_exec_matrix() {
    for &workers in &[1usize, 2, 4, 7] {
        for &runs in &[false, true] {
            let label = format!("uniform w={workers} runs={runs}");
            assert_restore_continues_bit_identical(&|| uniform_sim(workers, runs), 2, 4, &label);
        }
    }
}

/// The LWFA workload exercises the moving window, the laser antenna, the
/// absorbing boundaries and the RNG-driven fresh-plasma injection — all of
/// which must survive a checkpoint bit-exactly.
#[test]
fn conf_snapshot_restore_bit_identical_lwfa_moving_window() {
    for &workers in &[1usize, 4] {
        let label = format!("lwfa w={workers}");
        assert_restore_continues_bit_identical(&|| lwfa_sim(workers, true), 3, 6, &label);
    }
}

/// A checkpoint is mode-agnostic for *state*: a snapshot written by the
/// per-particle sweep restores into a simulation running the cell-run
/// sweep and continues with bit-identical field values. The writer's two
/// per-particle steps charge the cache-walking prices in the memory-bound
/// phases the run sweep re-prices (block gathers with register reuse,
/// the state-free streaming model elsewhere), so the resumed run carries
/// a strictly higher Preprocess/Compute/Reduce/Gather/Sort history than
/// the uninterrupted run-sweep run. (This 8^3 grid's guarded field arrays
/// fit in L1, so the streamed block loads pay the roofline crossover's
/// resident line price, which keeps Gather below the mostly-L1-hit walk.)
/// Every other phase matches bitwise.
#[test]
fn conf_snapshot_written_scalar_restores_into_simd() {
    use matrix_pic::machine::Phase;

    let mut writer = uniform_sim(1, false);
    writer.run(2);
    let checkpoint = writer.snapshot();

    let mut reference = uniform_sim(1, true);
    reference.run(4);

    let mut resumed = uniform_sim(1, true);
    resumed.restore(&checkpoint).expect("cross-mode restore");
    resumed.run(2);

    let fields = |s: &Simulation| {
        [
            s.fields.jx.clone(),
            s.fields.jy.clone(),
            s.fields.jz.clone(),
            s.fields.ex.clone(),
            s.fields.ey.clone(),
            s.fields.ez.clone(),
            s.fields.bx.clone(),
            s.fields.by.clone(),
            s.fields.bz.clone(),
        ]
    };
    for (i, (a, b)) in fields(&reference).iter().zip(fields(&resumed)).enumerate() {
        let same = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(u, v)| u.to_bits() == v.to_bits());
        assert!(
            same,
            "field {i} diverged after per-particle -> runs restore"
        );
    }
    for p in Phase::ALL {
        let want = reference.machine.counters().cycles(p);
        let got = resumed.machine.counters().cycles(p);
        if matches!(
            p,
            Phase::Preprocess | Phase::Compute | Phase::Reduce | Phase::Gather | Phase::Sort
        ) {
            assert!(
                got > want,
                "writer's per-particle steps must leave a higher {p:?} history \
                 ({got} vs {want})"
            );
        } else {
            assert_eq!(
                want.to_bits(),
                got.to_bits(),
                "{p:?} cycles diverged after per-particle -> runs restore"
            );
        }
    }
}

/// A checkpoint is worker agnostic: state written under one worker count
/// may be restored under another, and the continuation is still
/// bit-identical to an uninterrupted run under the *target* config (the
/// determinism contract says the worker count never changes results). The execution mode must match, because it changes the
/// emulated cost-model charges the counters and report accumulate.
#[test]
fn conf_snapshot_restores_across_worker_counts() {
    let mut writer = uniform_sim(1, true);
    writer.run(2);
    let checkpoint = writer.snapshot();

    let mut reference = uniform_sim(7, true);
    reference.run(4);
    let expected = reference.snapshot();

    let mut resumed = uniform_sim(7, true);
    resumed.restore(&checkpoint).expect("cross-config restore");
    resumed.run(2);
    assert!(
        resumed.snapshot() == expected,
        "restoring a w=1 checkpoint into w=7 diverged"
    );

    // The moving window too: written on 4 workers, restored on 7
    // byte-lossless, and the continuation lands on the writer's bytes.
    let mut writer = lwfa_sim(4, true);
    writer.run(3);
    let checkpoint = writer.snapshot();
    writer.run(3);

    let mut resumed = lwfa_sim(7, true);
    resumed.restore(&checkpoint).expect("cross-config restore");
    assert!(
        resumed.snapshot() == checkpoint,
        "lwfa: w=4 -> w=7 round trip is not byte-lossless"
    );
    resumed.run(3);
    assert!(
        resumed.snapshot() == writer.snapshot(),
        "lwfa: restoring a w=4 checkpoint into w=7 diverged"
    );
}

/// Restore is idempotent at the byte level: restoring a snapshot and
/// immediately re-snapshotting reproduces the original bytes exactly.
#[test]
fn conf_snapshot_round_trip_is_byte_lossless() {
    let mut sim = lwfa_sim(2, true);
    sim.run(3);
    let first = sim.snapshot();

    let mut fresh = lwfa_sim(2, true);
    fresh.restore(&first).expect("round-trip restore");
    let second = fresh.snapshot();
    assert!(
        first == second,
        "snapshot -> restore -> snapshot changed bytes"
    );
}

// ---------------------------------------------------------------------------
// Corruption matrix: every malformed input is a structured error, never a
// panic, and a failed restore leaves the target simulation untouched.
// ---------------------------------------------------------------------------

fn snapshot_for_corruption() -> (Vec<u8>, Simulation) {
    let mut sim = uniform_sim(2, false);
    sim.run(2);
    let bytes = sim.snapshot();
    (bytes, sim)
}

#[test]
fn corrupted_snapshot_truncation_is_structured() {
    let (bytes, mut sim) = snapshot_for_corruption();
    // Every truncation length must fail cleanly: header-short inputs report
    // TooShort, table/payload-short inputs report a table or checksum error.
    for keep in [0usize, 7, 15, 16, 40, bytes.len() / 2, bytes.len() - 1] {
        let err = sim
            .restore(&bytes[..keep.min(bytes.len())])
            .expect_err("truncated snapshot must not restore");
        match err {
            SnapshotError::TooShort
            | SnapshotError::BadSectionTable
            | SnapshotError::ChecksumMismatch { .. } => {}
            other => panic!("truncation at {keep} gave unexpected error: {other}"),
        }
    }
}

#[test]
fn corrupted_snapshot_bad_magic_and_version() {
    let (bytes, mut sim) = snapshot_for_corruption();

    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xff;
    assert!(matches!(
        sim.restore(&bad_magic),
        Err(SnapshotError::BadMagic)
    ));

    let mut bad_version = bytes.clone();
    bad_version[8] = 0xfe;
    assert!(matches!(
        sim.restore(&bad_version),
        Err(SnapshotError::BadVersion(_))
    ));
}

/// Flipping one payload byte in *each* section is caught by that section's
/// checksum — corruption is localised and reported per section.
#[test]
fn corrupted_snapshot_every_section_checksum_detected() {
    let (bytes, mut sim) = snapshot_for_corruption();
    let table = section_table(&bytes);
    let all = [
        section::META,
        section::FIELDS,
        section::PARTICLES,
        section::RNG,
        section::DRIVER,
        section::COUNTERS,
        section::CACHE,
        section::ADDRS,
        section::REPORT,
    ];
    for &id in &all {
        let &(_, off, len) = table
            .iter()
            .find(|&&(sid, _, _)| sid == id)
            .unwrap_or_else(|| panic!("snapshot missing section {id}"));
        assert!(len > 0, "section {id} has empty payload");
        let mut corrupt = bytes.clone();
        corrupt[off + len / 2] ^= 0x01;
        match sim.restore(&corrupt) {
            Err(SnapshotError::ChecksumMismatch { section: s }) => {
                assert_eq!(s, id, "corruption attributed to the wrong section")
            }
            other => panic!("section {id} corruption gave {other:?}"),
        }
    }
}

/// A snapshot from an incompatible simulation is rejected with
/// `Incompatible` naming the one field that differs, and leaves the
/// target fully untouched. Fields a configuration sets are changed in
/// the target; fields none reaches — `guard` and `solver` are constants,
/// `dt`, the tile count and the field length follow from the rest — are
/// edited in the snapshot's `META` words, re-sealed so the decoder, not
/// the checksum, meets them.
#[test]
fn incompatible_snapshot_rejected_and_target_untouched() {
    let mut source = uniform_sim(2, false);
    source.run(2);
    let checkpoint = source.snapshot();
    let expect_rejected = |target: &mut Simulation, bytes: &[u8], want: &str| {
        let before = target.snapshot();
        match target.restore(bytes) {
            Err(SnapshotError::Incompatible { reason }) if reason == want => {}
            other => panic!("{want}: expected Incompatible {{ {want} }}, got {other:?}"),
        }
        assert!(
            target.snapshot() == before,
            "{want}: failed restore mutated the target"
        );
    };

    let base = workloads::uniform_plasma_config(
        UNIFORM_DIMS,
        ShapeOrder::Cic,
        KernelConfig::FullOpt,
        UNIFORM_SEED,
    );
    let build = |cfg: SimConfig| {
        let (geom, layout) = cfg.grid();
        let electrons = workloads::load_uniform_plasma(
            &geom,
            &layout,
            workloads::UNIFORM_DENSITY,
            UNIFORM_PPC,
            workloads::UNIFORM_UTH,
            UNIFORM_SEED,
        );
        Simulation::from_parts(cfg, electrons, None)
    };
    // Control: the unchanged configuration accepts the snapshot.
    assert!(build(base.clone()).restore(&checkpoint).is_ok());
    type Change = fn(&mut SimConfig);
    let changes: [(&str, Change); 5] = [
        ("n_cells", |c| c.n_cells = [8, 8, 16]),
        ("dx", |c| c.dx = [2.0e-6; 3]),
        ("tile_size", |c| c.tile_size = [4, 8, 8]),
        ("shape order", |c| c.shape = ShapeOrder::Qsp),
        ("kernel", |c| c.kernel = KernelConfig::Baseline),
    ];
    for (reason, change) in changes {
        let mut cfg = base.clone();
        change(&mut cfg);
        expect_rejected(&mut build(cfg), &checkpoint, reason);
    }

    // META: n_cells, dx and tile_size (three words each), guard, the
    // solver id (a u32), shape order, the kernel name (length word, then
    // bytes), dt, tile count, field length.
    let (_, meta, _) = section_table(&checkpoint)
        .into_iter()
        .find(|(id, ..)| *id == section::META)
        .expect("a META section");
    let word = |at: usize| u64::from_le_bytes(checkpoint[at..at + 8].try_into().unwrap());
    let guard = meta + 9 * 8;
    let solver = guard + 8;
    let kernel = solver + 4 + 8;
    let dt = kernel + 8 + word(kernel) as usize;
    let tiles = dt + 8;
    let field_len = tiles + 8;
    let target = uniform_sim(1, false);
    assert_eq!(word(guard) as usize, GUARD_CELLS);
    assert_eq!(checkpoint[solver..solver + 4], 1u32.to_le_bytes());
    assert_eq!(word(dt), target.dt().to_bits());
    assert_eq!(word(tiles) as usize, target.electrons.tiles.len());
    assert_eq!(word(field_len) as usize, target.fields.ex.as_slice().len());
    for (reason, at) in [
        ("guard", guard),
        ("solver", solver),
        ("dt", dt),
        ("tile count", tiles),
        ("field length", field_len),
    ] {
        let mut bytes = checkpoint.clone();
        bytes[at] ^= 1; // The word's lowest bit (little-endian).
        reseal_at(&mut bytes, at);
        expect_rejected(&mut uniform_sim(1, false), &bytes, reason);
    }
}

/// Asserts `err` is `Malformed { section: PARTICLES }` for the reason
/// containing `why`.
fn assert_particles_malformed(err: Result<(), SnapshotError>, why: &str) {
    match err {
        Err(SnapshotError::Malformed {
            section: section::PARTICLES,
            reason,
        }) if reason.contains(why) => {}
        other => panic!("expected PARTICLES malformed ({why}), got {other:?}"),
    }
}

/// Restores a snapshot of a simulation whose first tile `corrupt`
/// altered — validly encoded, so only the decoder's cross-checks of the
/// SoA and the GPMA stand between it and a panic in the next step.
fn restore_with_corrupt_tile(corrupt: impl FnOnce(&mut ParticleTile)) -> Result<(), SnapshotError> {
    let (_, mut sim) = snapshot_for_corruption();
    corrupt(&mut sim.electrons.tiles[0]);
    let bytes = sim.snapshot();
    uniform_sim(2, false).restore(&bytes)
}

#[test]
fn index_entry_naming_a_dead_slot_is_malformed() {
    let err = restore_with_corrupt_tile(|tile| {
        // Kill an indexed particle in the SoA and the bin map only.
        let p = tile.gpma.sorted_particles().next().expect("a loaded tile");
        tile.soa.remove(p);
        tile.cells[p] = INVALID_PARTICLE_ID;
    });
    assert_particles_malformed(err, "liveness");
}

/// Restores `bytes` after `damage` edited index words of its
/// `PARTICLES` section (re-sealing the checksum), into a simulation
/// `make` builds; a failed restore must leave that target untouched.
fn restore_damaged(
    make: fn(usize, bool) -> Simulation,
    mut bytes: Vec<u8>,
    damage: impl FnOnce(&mut [u8], &[TileWords]),
) -> Result<(), SnapshotError> {
    let tiles = particle_tiles(&bytes);
    damage(&mut bytes, &tiles);
    let mut target = make(1, false);
    let before = target.snapshot();
    let result = target.restore(&bytes);
    assert!(
        result.is_ok() || target.snapshot() == before,
        "failed restore mutated the target"
    );
    result
}

/// The first occupied slot of a tile's index.
fn occupied_slot(bytes: &[u8], tile: &TileWords) -> usize {
    (0..tile.local_index.len)
        .find(|&s| tile.local_index.get(bytes, s) != u32::MAX)
        .expect("a loaded tile")
}

#[test]
fn index_word_past_the_slot_count_is_malformed() {
    let (bytes, _) = snapshot_for_corruption();
    let err = restore_damaged(uniform_sim, bytes, |b, tiles| {
        let t = &tiles[0];
        t.local_index.set(b, occupied_slot(b, t), t.slots as u32);
    });
    assert_particles_malformed(err, "past the SoA");
}

#[test]
fn duplicated_index_entry_is_malformed() {
    let (bytes, _) = snapshot_for_corruption();
    let err = restore_damaged(uniform_sim, bytes, |b, tiles| {
        let t = &tiles[0];
        let p = t.local_index.get(b, occupied_slot(b, t));
        let gap = t.free_stacks.get(b, 0) as usize;
        t.local_index.set(b, gap, p);
    });
    assert_particles_malformed(err, "twice");
}

#[test]
fn free_stack_entry_naming_an_occupied_slot_is_malformed() {
    let (bytes, _) = snapshot_for_corruption();
    let err = restore_damaged(uniform_sim, bytes, |b, tiles| {
        let t = &tiles[0];
        let offsets: Vec<usize> = (0..t.bin_offsets.len)
            .map(|i| t.bin_offsets.get(b, i) as usize)
            .collect();
        // A stack entry and an occupied slot of the same bin.
        let (k, slot) = (0..t.free_stacks.len)
            .find_map(|k| {
                let gap = t.free_stacks.get(b, k) as usize;
                let bin = offsets.partition_point(|&o| o <= gap) - 1;
                (offsets[bin]..offsets[bin + 1])
                    .find(|&s| t.local_index.get(b, s) != u32::MAX)
                    .map(|s| (k, s))
            })
            .expect("a bin with a gap and a particle");
        t.free_stacks.set(b, k, slot as u32);
    });
    assert_particles_malformed(err, "not a gap of its bin");
}

#[test]
fn free_list_entry_out_of_range_is_malformed() {
    // The moving window leaves dead slots on the SoA free lists.
    let mut sim = lwfa_sim(1, true);
    sim.run(6);
    let err = restore_damaged(lwfa_sim, sim.snapshot(), |b, tiles| {
        let t = tiles
            .iter()
            .find(|t| t.free.len > 0)
            .expect("a tile with dead slots");
        t.free.set(b, 0, t.slots as u32);
    });
    assert_particles_malformed(err, "out of range");
}

/// Overwrites tag slot `slot` of the L1 tag vector, which leads the
/// `CACHE` section, and re-seals the section.
fn set_l1_tag(bytes: &mut [u8], slot: usize, line: u64) {
    let &(_, off, _) = section_table(bytes)
        .iter()
        .find(|&&(id, _, _)| id == section::CACHE)
        .expect("a CACHE section");
    let at = off + 8 + 8 * slot;
    bytes[at..at + 8].copy_from_slice(&line.to_le_bytes());
    reseal_at(bytes, at);
}

/// The cache import takes only tag arrays a walk can produce — every
/// line in its own set, at most once per set, which is what lets the
/// walk trust a way hint's tag compare — and refuses the rest as
/// `Malformed { section: CACHE }`, leaving the target untouched.
#[test]
fn cache_tag_no_walk_can_place_is_malformed() {
    let (bytes, _) = snapshot_for_corruption();
    let l1 = MachineConfig::lx2().l1;
    // A line of set 0 no step touches; slot 0 is set 0's first way,
    // slot 1 its second, slot `ways` set 1's first.
    let far = 1_000_003 * l1.num_sets() as u64;
    let restore = |edits: &[(usize, u64)]| {
        restore_damaged(uniform_sim, bytes.clone(), |b, _| {
            for &(slot, line) in edits {
                set_l1_tag(b, slot, line);
            }
        })
    };
    assert!(
        restore(&[(0, far)]).is_ok(),
        "a line in its own set restores"
    );
    for edits in [&[(l1.ways, far)][..], &[(0, far), (1, far)]] {
        match restore(edits) {
            Err(SnapshotError::Malformed {
                section: section::CACHE,
                ..
            }) => {}
            other => panic!("tag edits {edits:?} gave {other:?}"),
        }
    }
}

/// Corrupt restores (checksum failures) are also all-or-nothing.
#[test]
fn failed_checksum_restore_leaves_target_untouched() {
    let (bytes, mut sim) = snapshot_for_corruption();
    let before = sim.snapshot();
    let table = section_table(&bytes);
    let &(_, off, len) = table
        .iter()
        .find(|&&(sid, _, _)| sid == section::PARTICLES)
        .expect("particles section present");
    let mut corrupt = bytes.clone();
    corrupt[off + len / 3] ^= 0x80;
    assert!(sim.restore(&corrupt).is_err());
    assert!(
        sim.snapshot() == before,
        "failed restore mutated the target"
    );
}
