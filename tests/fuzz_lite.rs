//! Fuzz-lite harnesses: the property tests that are worth running far
//! past the default case budget.
//!
//! Each harness reads its case count from the `MPIC_FUZZ_ITERS`
//! environment variable, so a plain `cargo test` stays fast while a
//! dedicated fuzz sweep (`MPIC_FUZZ_ITERS=2000 cargo test --test
//! fuzz_lite`) hammers the same properties with three orders of
//! magnitude more inputs. The targets are the three structures whose
//! corruption would silently break the determinism contract rather than
//! crash — the run decomposition, the tile-sharded global sort, and the
//! GPMA's incremental maintenance — plus the one decoder of untrusted
//! bytes, `Simulation::restore`.

use std::panic::{catch_unwind, AssertUnwindSafe};

use matrix_pic::core::{workloads, Simulation, SnapshotError};
use matrix_pic::deposit::{KernelConfig, ShapeOrder};
use matrix_pic::grid::{FieldArrays, GridGeometry, TileLayout};
use matrix_pic::machine::vect::W;
use matrix_pic::machine::{SchedulerPolicy, WorkerPool};
use matrix_pic::particles::{
    cell_runs, Departure, Gpma, ParticleContainer, ParticleTile, PendingMove, INVALID_PARTICLE_ID,
};
use matrix_pic::push::gather::{
    gather_fields_with_cell, gather_from_block_lanes_masked, load_node_block, NodeBlock,
};
use proptest::prelude::*;
use proptest::TestRng;

mod common;
use common::{reseal_at, section_table};

/// A batch entry: `particle` leaves bin `from` (none: it arrives) for
/// bin `to` (none: it leaves the tile).
fn mv(particle: usize, from: Option<usize>, to: Option<usize>) -> PendingMove {
    PendingMove {
        particle,
        old_bin: from,
        new_bin: to,
    }
}

/// Case budget: `MPIC_FUZZ_ITERS` if set and parseable, else `default`.
fn fuzz_cases(default: u32) -> u32 {
    std::env::var("MPIC_FUZZ_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Reference grouping: linear scan tracking the previous key.
fn naive_runs(keys: &[usize]) -> Vec<(usize, usize, usize)> {
    let mut out: Vec<(usize, usize, usize)> = Vec::new();
    for (i, &k) in keys.iter().enumerate() {
        match out.last_mut() {
            Some((cell, _, end)) if *cell == k && *end == i => *end = i + 1,
            _ => out.push((k, i, i + 1)),
        }
    }
    out
}

/// `cell_runs` must agree with the naive reference grouping, tile the
/// index space exactly, and yield maximal runs — for sorted, unsorted
/// and degenerate key sequences alike.
#[test]
fn fuzz_cell_runs_match_reference_and_tile_exactly() {
    proptest!(ProptestConfig::with_cases(fuzz_cases(128)).with_corpus("cell_runs"), |(
        keys in prop::collection::vec(0usize..6, 0..400),
        sort_it in 0u8..2,
    )| {
        // The macro re-borrows the inputs for its failure report, so
        // shadow with a clone rather than moving.
        let mut keys = keys.clone();
        if sort_it == 1 {
            keys.sort_unstable();
        }
        let got: Vec<(usize, usize, usize)> =
            cell_runs(&keys).map(|r| (r.cell, r.start, r.end)).collect();
        prop_assert_eq!(&got, &naive_runs(&keys));
        // Runs tile 0..len exactly, in order.
        let mut cursor = 0;
        for &(_, start, end) in &got {
            prop_assert_eq!(start, cursor);
            prop_assert!(end > start, "empty run yielded");
            cursor = end;
        }
        prop_assert_eq!(cursor, keys.len());
        // Maximality: neighbouring runs never share a key.
        for w in got.windows(2) {
            prop_assert!(w[0].0 != w[1].0, "adjacent runs share key {}", w[0].0);
        }
    });
}

/// Everything a global sort leaves behind in a tile, floats as bits.
fn tile_state(t: &ParticleTile) -> impl PartialEq + std::fmt::Debug {
    let soa = &t.soa;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    (
        [&soa.x, &soa.y, &soa.z, &soa.ux, &soa.uy, &soa.uz, &soa.w].map(|v| bits(v)),
        soa.alive.clone(),
        soa.free_slots().to_vec(),
        t.cells.clone(),
        t.gpma.export_state(),
    )
}

/// The global sort dispatches tiles over the pool: on a random
/// multi-tile container — particles injected unsorted, some then pushed
/// across tile boundaries so the sort re-homes first — every worker
/// count (ragged 1..=7, far from powers of two) must leave the
/// byte-identical SoA, bin map, GPMA and
/// [`SortStats`](matrix_pic::particles::SortStats) of the 1-worker run,
/// on populations straddling the size below which the exec layer sorts
/// inline.
#[test]
fn fuzz_sharded_sort_matches_sequential_for_all_workers_and_policies() {
    let pools: Vec<WorkerPool> = (1..=7).map(WorkerPool::new).collect();
    proptest!(ProptestConfig::with_cases(fuzz_cases(12)).with_corpus("sharded_sort"), |(
        tile_edge in 1usize..5,
        // Up to ~1.5x the 4096-particle wake threshold of the exec layer.
        n_particles in 0usize..6200,
        seed in 0usize..1_000_000,
    )| {
        let geom = GridGeometry::new([8, 4, 6], [0.0; 3], [1.0; 3], 1);
        let layout = TileLayout::new(&geom, [tile_edge; 3]);
        let mut state = seed as u64 ^ 0x9E37_79B9_7F4A_7C15;
        let mut unit = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut unsorted = ParticleContainer::new(&layout, -1.0, 1.0);
        for _ in 0..n_particles {
            let d = Departure {
                x: 8.0 * unit(),
                y: 4.0 * unit(),
                z: 6.0 * unit(),
                ux: unit() - 0.5,
                uy: unit() - 0.5,
                uz: unit() - 0.5,
                w: 1.0 + unit(),
            };
            let _ = unsorted.inject(&layout, &geom, d);
        }
        for tile in &mut unsorted.tiles {
            for p in (0..tile.soa.slots()).step_by(3) {
                tile.soa.x[p] = 8.0 * unit();
            }
        }
        let mut expect = None;
        for pool in &pools {
            let mut c = unsorted.clone();
            let stats = c.global_sort_parallel(&layout, &geom, pool.exec(SchedulerPolicy::Static));
            c.check_invariants();
            let got = (
                (stats.n, stats.buckets, stats.moves),
                c.tiles.iter().map(tile_state).collect::<Vec<_>>(),
            );
            prop_assert_eq!(stats.n, n_particles);
            let same = expect.as_ref().is_none_or(|want| got == *want);
            expect.get_or_insert(got);
            prop_assert!(
                same,
                "divergence at workers={} particles={} tile edge={}",
                pool.workers(),
                n_particles,
                tile_edge
            );
        }
    });
}

/// The run flush's lane-pack decomposition — masked packs of
/// `min(W, remaining)` lanes through `gather_from_block_lanes_masked` —
/// must be bit-identical to the per-particle `gather_fields_with_cell`
/// (the reference path) for every run length — empty, 1, `W-1`, `W`,
/// `W+1` and ragged multi-run tiles — across shape orders, cells
/// (periodic seams included) and arbitrary field values. The
/// lane-boundary lengths `kW-1`, `kW`, `kW+1` run on every case in
/// addition to the randomly drawn tiles, and tail packs must
/// additionally leave every inactive lane at exactly 0.0 bits.
#[test]
fn fuzz_lane_remainder_gather_matches_scalar_bitwise() {
    proptest!(ProptestConfig::with_cases(fuzz_cases(64)).with_corpus("lane_remainder"), |(
        run_lens in prop::collection::vec(0usize..(2 * W + 2), 1..6),
        order_pick in 0usize..2,
        seed in 0u64..1_000_000,
    )| {
        let order = [ShapeOrder::Cic, ShapeOrder::Qsp][order_pick];
        // Lane-boundary lengths kW-1 / kW / kW+1 ride along on every
        // case: they are exactly where a masked-tail bug would hide.
        let boundary = [W - 1, W, W + 1, 2 * W - 1, 2 * W, 2 * W + 1];
        let run_lens: Vec<usize> = run_lens.iter().copied().chain(boundary).collect();
        let mut state = seed ^ 0x243F_6A88_85A3_08D3;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        const N: usize = 6;
        let geom = GridGeometry::new([N; 3], [0.0; 3], [1.0e-6; 3], 2);
        let mut fields = FieldArrays::new(&geom);
        for arr in [
            &mut fields.ex, &mut fields.ey, &mut fields.ez,
            &mut fields.bx, &mut fields.by, &mut fields.bz,
        ] {
            for v in arr.as_mut_slice() {
                *v = next() * 3.0;
            }
        }
        let mut block = NodeBlock::new();
        for &len in &run_lens {
            // Each run sits in its own cell (as a ragged tile's runs do),
            // so each sees its own stencil.
            let cell: [usize; 3] = std::array::from_fn(|_| ((next() + 0.5) * N as f64) as usize);
            load_node_block(&geom, order, &fields, cell, &mut block);
            let pos: Vec<[f64; 3]> = (0..len)
                .map(|_| {
                    std::array::from_fn(|d| {
                        (cell[d] as f64 + 0.001 + 0.998 * (next() + 0.5)) * geom.dx[d]
                    })
                })
                .collect();
            let fracs: Vec<[f64; 3]> = pos
                .iter()
                .map(|x| {
                    let (at, frac) = geom.locate(x[0], x[1], x[2]);
                    assert_eq!(at, cell, "position left its cell");
                    frac
                })
                .collect();
            // Decompose exactly as the run flush does.
            for (pack, pack_pos) in fracs.chunks(W).zip(pos.chunks(W)) {
                let (e, b) = gather_from_block_lanes_masked(order, &block, pack);
                for (l, x) in pack_pos.iter().enumerate() {
                    let (e_want, b_want, at) =
                        gather_fields_with_cell(&geom, order, &fields, x[0], x[1], x[2]);
                    prop_assert_eq!(at, cell);
                    for d in 0..3 {
                        prop_assert_eq!(
                            e[d].lane(l).to_bits(),
                            e_want[d].to_bits(),
                            "{:?} len={} lane={} E[{}]",
                            order, len, l, d
                        );
                        prop_assert_eq!(
                            b[d].lane(l).to_bits(),
                            b_want[d].to_bits(),
                            "{:?} len={} lane={} B[{}]",
                            order, len, l, d
                        );
                    }
                }
                // Inactive lanes of a tail pack must be exactly zero: a
                // masked accumulator that leaks a partial product would
                // show up here.
                for l in pack.len()..W {
                    for d in 0..3 {
                        prop_assert_eq!(e[d].lane(l).to_bits(), 0, "tail lane {} E[{}]", l, d);
                        prop_assert_eq!(b[d].lane(l).to_bits(), 0, "tail lane {} B[{}]", l, d);
                    }
                }
            }
        }
    });
}

/// A real format-3 snapshot and a simulation of its configuration to
/// restore it into.
struct RestoreSubject {
    bytes: Vec<u8>,
    target: Simulation,
}

/// The uniform (one sorted tile) and LWFA (moving window: dead slots,
/// many tiles) snapshots the restore target damages.
fn restore_subjects() -> [RestoreSubject; 2] {
    let uniform =
        || workloads::uniform_plasma_sim([8, 8, 8], 2, ShapeOrder::Cic, KernelConfig::FullOpt, 5);
    let lwfa = || workloads::lwfa_sim([8, 8, 32], 2, ShapeOrder::Cic, KernelConfig::FullOpt, 5);
    [(uniform(), uniform(), 3), (lwfa(), lwfa(), 6)].map(|(mut sim, target, steps)| {
        sim.run(steps);
        RestoreSubject {
            bytes: sim.snapshot(),
            target,
        }
    })
}

/// One damaged input, built from a real snapshot `bytes`: `mode` 0 is
/// arbitrary bytes (`noise`, behind the real header when `pick` is odd),
/// 1 a truncation to `pick` bytes, 2 one byte xored with `xor` — in the
/// header or table one time in eight, else in a section chosen by `pick`,
/// whose checksum is then re-sealed so the decoders see the damage.
fn damaged(bytes: &[u8], mode: u8, pick: u64, xor: u8, noise: &[u8]) -> Vec<u8> {
    let pick = pick as usize;
    match mode {
        0 if pick % 2 == 1 => bytes[..16].iter().chain(noise).copied().collect(),
        0 => noise.to_vec(),
        1 => bytes[..pick % bytes.len()].to_vec(),
        _ => {
            let table = section_table(bytes);
            let mut out = bytes.to_vec();
            if pick % 8 == 0 {
                out[(pick >> 3) % table[0].1] ^= xor;
            } else {
                let (_, off, len) = table[(pick >> 3) % table.len()];
                let at = off + (pick >> 8) % len;
                out[at] ^= xor;
                reseal_at(&mut out, at);
            }
            out
        }
    }
}

/// Restores `input` into `subject.target`: a panic is reported as an
/// error message; a failed restore must leave the target's snapshot
/// unchanged, and a successful one is undone.
fn restore_case(
    subject: &mut RestoreSubject,
    input: &[u8],
) -> Result<Result<(), SnapshotError>, String> {
    let RestoreSubject { bytes, target } = subject;
    let before = target.snapshot();
    let result = catch_unwind(AssertUnwindSafe(|| target.restore(input)))
        .map_err(|_| "restore panicked".to_string())?;
    match &result {
        Ok(()) => target.restore(bytes).expect("the real snapshot restores"),
        Err(_) if target.snapshot() != before => {
            return Err("a failed restore mutated the target".into())
        }
        Err(_) => {}
    }
    Ok(result)
}

/// One restore case as a seed generates it: which subject, and the
/// `mode`, `pick`, `xor` and `noise` of [`damaged`].
type RestoreCase = (usize, u8, u64, u8, Vec<u8>);

fn restore_cases() -> impl Strategy<Value = RestoreCase> {
    (
        0usize..2,
        0u8..3,
        0u64..(1 << 40),
        1u8..=255,
        prop::collection::vec(0u8..=255, 0..96),
    )
}

/// Restores the input `case` builds: `Err` with a message if the
/// restore panicked or a failed one mutated the target.
fn run_restore_case(
    subjects: &mut [RestoreSubject; 2],
    (which, mode, pick, xor, noise): &RestoreCase,
) -> Result<Result<(), SnapshotError>, String> {
    let subject = &mut subjects[*which];
    let input = damaged(&subject.bytes, *mode, *pick, *xor, noise);
    restore_case(subject, &input)
}

/// `Simulation::restore` is total on hostile input (ROADMAP 8(c)):
/// arbitrary bytes, truncations and single-byte mutants of real
/// snapshots — re-sealed, so every decoder behind the checksum meets the
/// damage — return `Err` or `Ok`, never panic, and a failed restore
/// leaves the target's state exactly as it was. The corpus holds seeds
/// whose mutants reach each `PARTICLES` and `CACHE` check
/// ([`restore_corpus_reaches_the_outcome_each_seed_names`]).
#[test]
fn fuzz_restore_is_total_on_damaged_snapshots() {
    let mut subjects = restore_subjects();
    proptest!(ProptestConfig::with_cases(fuzz_cases(64)).with_corpus("restore"), |(
        case in restore_cases(),
    )| {
        let outcome = run_restore_case(&mut subjects, &case);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    });
}

/// How a restore ends, as the corpus comments name it: `Ok`, a
/// `Malformed` error's section and reason, or another error's `Debug`
/// form.
fn outcome_name(result: &Result<(), SnapshotError>) -> String {
    match result {
        Ok(()) => "Ok".into(),
        Err(SnapshotError::Malformed { section, reason }) => {
            let name = "META FIELDS PARTICLES RNG DRIVER COUNTERS CACHE ADDRS REPORT"
                .split(' ')
                .nth(*section as usize - 1)
                .expect("a section id");
            format!("{name}: {reason}")
        }
        Err(e) => format!("{e:?}"),
    }
}

/// Every seed in `tests/corpus/restore.seeds` still reaches the outcome
/// the comment line right above it names ([`outcome_name`]), so a format
/// change that moves a seed is reported here instead of leaving a stale
/// comment.
#[test]
fn restore_corpus_reaches_the_outcome_each_seed_names() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus/restore.seeds");
    let corpus = std::fs::read_to_string(path).expect("the restore corpus");
    let mut subjects = restore_subjects();
    let (mut named, mut seeds, mut drifted) = (None, 0, Vec::new());
    for line in corpus.lines().map(str::trim) {
        if let Some(comment) = line.strip_prefix('#') {
            named = Some(comment.trim());
            continue;
        }
        if line.is_empty() {
            named = None;
            continue;
        }
        let seed = u64::from_str_radix(line.trim_start_matches("0x"), 16).expect("a hex seed");
        let want = named
            .take()
            .unwrap_or_else(|| panic!("seed {line} names no outcome"));
        let case = restore_cases().generate(&mut TestRng::from_seed_value(seed));
        let got = match run_restore_case(&mut subjects, &case) {
            Ok(result) => outcome_name(&result),
            Err(message) => message,
        };
        if got != want {
            drifted.push(format!("{line}: named {want:?}, reaches {got:?}"));
        }
        seeds += 1;
    }
    assert!(seeds > 0, "an empty restore corpus");
    assert!(
        drifted.is_empty(),
        "drifted seeds:\n  {}",
        drifted.join("\n  ")
    );
}

/// GPMA insert/remove/move churn with randomized build sizes (empty
/// included), bin counts, gap ratios and duplicate-heavy bins: the
/// structure must keep every invariant and agree with the shadow
/// `cells` array after every applied batch.
#[test]
fn fuzz_gpma_churn_randomized_shapes() {
    proptest!(ProptestConfig::with_cases(fuzz_cases(48)).with_corpus("gpma_churn"), |(
        n_bins in 1usize..24,
        gap_pick in 0usize..3,
        initial_len in 0usize..120,
        dup_bin in 0usize..24,
        ops in prop::collection::vec((0u8..3, 0usize..256, 0usize..24), 0..200),
    )| {
        let gap_ratio = [0.1, 0.3, 0.7][gap_pick];
        // Half the initial particles pile into one bin to stress the
        // shift path with long equal runs.
        let mut cells: Vec<usize> = (0..initial_len)
            .map(|i| if i % 2 == 0 { dup_bin % n_bins } else { i % n_bins })
            .collect();
        let mut g = Gpma::build(&cells, n_bins, gap_ratio);
        g.check_invariants(&cells);
        for chunk in ops.chunks(16) {
            let mut touched = vec![false; cells.len() + chunk.len()];
            let mut batch = Vec::new();
            for &(op, pick, bin) in chunk {
                let bin = bin % n_bins;
                match op {
                    0 => {
                        let p = cells.len();
                        cells.push(bin);
                        batch.push(mv(p, None, Some(bin)));
                        if p < touched.len() {
                            touched[p] = true;
                        }
                    }
                    1 => {
                        let live: Vec<usize> = (0..cells.len())
                            .filter(|&p| cells[p] != INVALID_PARTICLE_ID
                                && !touched.get(p).copied().unwrap_or(true))
                            .collect();
                        if live.is_empty() {
                            continue;
                        }
                        let p = live[pick % live.len()];
                        batch.push(mv(p, Some(cells[p]), None));
                        cells[p] = INVALID_PARTICLE_ID;
                        touched[p] = true;
                    }
                    _ => {
                        let live: Vec<usize> = (0..cells.len())
                            .filter(|&p| cells[p] != INVALID_PARTICLE_ID
                                && !touched.get(p).copied().unwrap_or(true))
                            .collect();
                        if live.is_empty() {
                            continue;
                        }
                        let p = live[pick % live.len()];
                        if cells[p] == bin {
                            continue;
                        }
                        batch.push(mv(p, Some(cells[p]), Some(bin)));
                        cells[p] = bin;
                        touched[p] = true;
                    }
                }
            }
            let _ = g.apply_moves(&batch, &cells);
            g.check_invariants(&cells);
        }
        let live = cells.iter().filter(|&&c| c != INVALID_PARTICLE_ID).count();
        prop_assert_eq!(g.num_particles(), live);
    });
}
