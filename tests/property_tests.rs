//! Property-based tests over the core data structures and invariants.

use matrix_pic::deposit::{reference_deposit, ShapeOrder};
use matrix_pic::grid::GridGeometry;
use matrix_pic::machine::{LineCarry, TensorBlock, VAddr};
use matrix_pic::particles::{counting_sort_keys, Gpma, PendingMove, INVALID_PARTICLE_ID};
use proptest::prelude::*;

/// A batch entry: `particle` leaves bin `from` (none: it arrives) for
/// bin `to` (none: it leaves the tile).
fn mv(particle: usize, from: Option<usize>, to: Option<usize>) -> PendingMove {
    PendingMove {
        particle,
        old_bin: from,
        new_bin: to,
    }
}

/// Arbitrary move sequences never lose or duplicate particles and keep
/// every GPMA invariant — the structure's central safety property.
#[test]
fn gpma_survives_arbitrary_move_sequences() {
    proptest!(ProptestConfig::with_cases(64), |(
        initial in prop::collection::vec(0usize..16, 1..200),
        moves in prop::collection::vec((0usize..200, 0usize..16), 0..300),
    )| {
        let n_bins = 16;
        let mut cells = initial.clone();
        let mut g = Gpma::build(&cells, n_bins, 0.3);
        g.check_invariants(&cells);
        // Apply moves in batches (one per "step"), deduplicating by
        // particle within a batch (the sweep visits each particle once).
        for chunk in moves.chunks(20) {
            let mut seen = std::collections::HashSet::new();
            let mut batch = Vec::new();
            for &(p, new_bin) in chunk {
                let p = p % cells.len();
                if !seen.insert(p) || cells[p] == new_bin {
                    continue;
                }
                batch.push(mv(p, Some(cells[p]), Some(new_bin)));
                cells[p] = new_bin;
            }
            let _ = g.apply_moves(&batch, &cells);
            g.check_invariants(&cells);
        }
        prop_assert_eq!(g.num_particles(), cells.len());
    });
}

/// Mixed insert/remove workloads keep the GPMA consistent.
#[test]
fn gpma_survives_insert_remove_churn() {
    proptest!(ProptestConfig::with_cases(48), |(
        ops in prop::collection::vec((0u8..3, 0usize..64, 0usize..8), 1..150),
    )| {
        let n_bins = 8;
        let mut cells: Vec<usize> = vec![0, 1, 2, 3];
        let mut g = Gpma::build(&cells, n_bins, 0.5);
        for chunk in ops.chunks(10) {
            let mut touched = std::collections::HashSet::new();
            let mut batch = Vec::new();
            for &(op, pick, bin) in chunk {
                match op {
                    // Insert a brand-new particle.
                    0 => {
                        let p = cells.len();
                        cells.push(bin);
                        batch.push(mv(p, None, Some(bin)));
                        touched.insert(p);
                    }
                    // Remove an existing live particle.
                    1 => {
                        let live: Vec<usize> = (0..cells.len())
                            .filter(|&p| cells[p] != INVALID_PARTICLE_ID
                                && !touched.contains(&p))
                            .collect();
                        if live.is_empty() { continue; }
                        let p = live[pick % live.len()];
                        batch.push(mv(p, Some(cells[p]), None));
                        cells[p] = INVALID_PARTICLE_ID;
                        touched.insert(p);
                    }
                    // Move an existing live particle.
                    _ => {
                        let live: Vec<usize> = (0..cells.len())
                            .filter(|&p| cells[p] != INVALID_PARTICLE_ID
                                && !touched.contains(&p))
                            .collect();
                        if live.is_empty() { continue; }
                        let p = live[pick % live.len()];
                        if cells[p] == bin { continue; }
                        batch.push(mv(p, Some(cells[p]), Some(bin)));
                        cells[p] = bin;
                        touched.insert(p);
                    }
                }
            }
            let _ = g.apply_moves(&batch, &cells);
            g.check_invariants(&cells);
        }
    });
}

/// The same churn through the container path — inject, boundary
/// removal, displacement across cells and tiles, then the per-step
/// `incremental_sort` (locate pass, fused GPMA walk, tile-grouped
/// re-homing): nothing is lost or duplicated, every particle ends up in
/// the tile and bin its position names, and the reported stats add up.
#[test]
fn container_survives_insert_remove_churn() {
    use matrix_pic::grid::TileLayout;
    use matrix_pic::particles::{Departure, ParticleContainer};
    proptest!(ProptestConfig::with_cases(48), |(
        ops in prop::collection::vec(
            (0u8..4, 0usize..4096, -2.0f64..10.0, -2.0f64..10.0, -2.0f64..10.0),
            1..200),
    )| {
        // 6^3 cells in 4^3 tiles: clipped edge tiles, periodic wrap for
        // the positions drawn outside [0, 6).
        let geom = GridGeometry::new([6, 6, 6], [0.0; 3], [1.0; 3], 1);
        let layout = TileLayout::new(&geom, [4, 4, 4]);
        let mut c = ParticleContainer::new(&layout, -1.0, 1.0);
        let mut live = 0usize;
        for chunk in ops.chunks(25) {
            // Boundary removals, one batch per tile at the end of the chunk.
            let mut removals: Vec<Vec<PendingMove>> = vec![Vec::new(); c.tiles.len()];
            for &(op, pick, x, y, z) in chunk {
                // Slot `pick` of tile `pick % tiles`, when it is live and
                // not yet removed.
                let t = pick % c.tiles.len();
                let tile = &mut c.tiles[t];
                let p = pick / 8 % tile.soa.slots().max(1);
                let target = p < tile.soa.slots()
                    && tile.soa.alive[p]
                    && !removals[t].iter().any(|mv| mv.particle == p);
                match op {
                    0 | 1 => {
                        let d = Departure { x, y, z, ux: 0.0, uy: 0.0, uz: 0.0, w: 1.0 };
                        let _ = c.inject(&layout, &geom, d);
                        live += 1;
                    }
                    2 if target => {
                        removals[t].push(tile.removal(p));
                        live -= 1;
                    }
                    3 if target => {
                        [tile.soa.x[p], tile.soa.y[p], tile.soa.z[p]] = [x, y, z];
                    }
                    _ => {}
                }
            }
            let owner = |tile: &matrix_pic::particles::ParticleTile, p: usize| {
                let (x, y, z) = (tile.soa.x[p], tile.soa.y[p], tile.soa.z[p]);
                layout.tile_of_cell(geom.locate(x, y, z).0)
            };
            let mut arrivals = 0;
            for (t, tile) in c.tiles.iter_mut().enumerate() {
                tile.remove(&removals[t]);
                arrivals += tile.soa.live_indices().filter(|&p| owner(tile, p) != t).count();
            }
            let (stats, scanned) = c.incremental_sort(&layout, &geom);
            c.check_invariants();
            prop_assert_eq!(scanned, live);
            prop_assert_eq!(c.total_particles(), live);
            // Every mover is deleted once; all but the tile-leavers are
            // re-inserted by the sweep, and the leavers on arrival.
            prop_assert_eq!(stats.insertions, stats.deletions);
            prop_assert_eq!(stats.moves_applied, stats.deletions + arrivals);
            for (t, tile) in c.tiles.iter().enumerate() {
                for p in tile.soa.live_indices() {
                    prop_assert_eq!(owner(tile, p), t);
                    let (x, y, z) = (tile.soa.x[p], tile.soa.y[p], tile.soa.z[p]);
                    let (cell, _) = geom.locate(x, y, z);
                    prop_assert_eq!(tile.cells[p], layout.tile(t).local_cell_id(cell));
                }
            }
        }
    });
}

/// Counting sort always produces a stable permutation that sorts.
#[test]
fn counting_sort_is_stable_bijection() {
    proptest!(|(keys in prop::collection::vec(0usize..32, 0..500))| {
        let (perm, _) = counting_sort_keys(&keys, 32);
        prop_assert_eq!(perm.len(), keys.len());
        // Bijection.
        let mut seen = vec![false; keys.len()];
        for &p in &perm {
            prop_assert!(!seen[p]);
            seen[p] = true;
        }
        // Sorted and stable.
        for w in perm.windows(2) {
            let (a, b) = (keys[w[0]], keys[w[1]]);
            prop_assert!(a <= b);
            if a == b {
                prop_assert!(w[0] < w[1], "stability violated");
            }
        }
    });
}

/// 1-D shape weights are a partition of unity for every order and any
/// intra-cell offset — the discrete charge-conservation property.
#[test]
fn shape_weights_partition_unity() {
    proptest!(|(d in 0.0f64..1.0, order_pick in 0usize..2)| {
        let order = [ShapeOrder::Cic, ShapeOrder::Qsp][order_pick];
        let mut w = [0.0; 4];
        order.weights(d, &mut w);
        let sum: f64 = w.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-13);
        prop_assert!(w.iter().all(|&x| x >= -1e-15));
    });
}

/// Total deposited current equals the analytic sum q*w*v/V for any
/// particle set (shape functions conserve the zeroth moment).
#[test]
fn deposition_conserves_total_current() {
    proptest!(ProptestConfig::with_cases(24), |(
        parts in prop::collection::vec(
            (0.0f64..8.0, 0.0f64..8.0, 0.0f64..8.0,
             -0.5f64..0.5, -0.5f64..0.5, -0.5f64..0.5),
            1..40),
        order_pick in 0usize..2,
    )| {
        use matrix_pic::grid::TileLayout;
        use matrix_pic::particles::{Departure, ParticleContainer};
        let geom = GridGeometry::new([8, 8, 8], [0.0; 3], [1.0; 3], 2);
        let layout = TileLayout::new(&geom, [8, 8, 8]);
        let mut c = ParticleContainer::new(&layout, -2.0, 1.0);
        let mut expect = 0.0;
        for &(x, y, z, ux, uy, uz) in &parts {
            let _ = c.inject(&layout, &geom, Departure { x, y, z, ux, uy, uz, w: 1.5 });
            let (vx, _, _) = matrix_pic::deposit::velocity_from_u(ux, uy, uz);
            expect += -2.0 * 1.5 * vx / geom.cell_volume();
        }
        let order = [ShapeOrder::Cic, ShapeOrder::Qsp][order_pick];
        let (jx, _, _) = reference_deposit(&geom, order, &c);
        let scale = expect.abs().max(1e-6);
        prop_assert!((jx.sum() - expect).abs() / scale < 1e-10);
    });
}

/// The block line builder against a set oracle that knows nothing about
/// rows, carries or sortedness: after a predecessor and a current block
/// — any supports, grid stencils as well as offsets no grid produces
/// (rows that overlap, repeat, run backwards), any base, any line size —
/// the carry holds the ascending distinct lines of the current block and
/// reports how many of them the predecessor did not cover — for the
/// base and line size of the current call, whatever the predecessor's.
#[test]
fn block_line_carry_equals_a_set_oracle() {
    proptest!(ProptestConfig::with_cases(512), |(
        offsets in prop::collection::vec(0usize..20, 24..25),
        supports in (0usize..=4, 0usize..=4),
        strides in (1usize..24, 1usize..600),
        bases in (4096u64..8192, 4096u64..8192),
        same_base in 0usize..2,
        shifts in (3u32..=7, 3u32..=7),
    )| {
        use std::collections::BTreeSet;
        let stride = [1, strides.0, strides.1];
        let block = |support: usize, at: usize| {
            TensorBlock::from_fn(support, |d, a| offsets[at + 4 * d + a] * stride[d])
        };
        let (prev, cur) = (block(supports.0, 0), block(supports.1, 12));
        // Half the time the predecessor met another base, under another
        // line size.
        let (base, shift) = (VAddr(bases.1), shifts.1);
        let first = if same_base == 1 { (base, shift) } else { (VAddr(bases.0), shifts.0) };
        let lines = |block: &TensorBlock| {
            let mut lines = BTreeSet::new();
            block.for_each_node(|_, i| {
                lines.insert(((base.0 + 8 * i as u64) >> shift) - (base.0 >> shift));
            });
            lines
        };
        let mut carry = LineCarry::new();
        carry.advance(&prev, first.0, first.1);
        let new = carry.advance(&cur, base, shift);
        let (want_prev, want) = (lines(&prev), lines(&cur));
        prop_assert_eq!(carry.lines(), want.iter().copied().collect::<Vec<_>>());
        prop_assert_eq!(new, want.difference(&want_prev).count());
        carry.reset();
        prop_assert_eq!(carry.advance(&cur, base, shift), want.len());
    });
}

/// Position wrap + cell id: every position maps to a cell inside the
/// domain, and wrap is idempotent.
#[test]
fn wrap_is_idempotent_and_in_range() {
    proptest!(|(x in -100.0f64..100.0, y in -100.0f64..100.0, z in -100.0f64..100.0)| {
        let geom = GridGeometry::new([8, 4, 2], [0.0; 3], [1.0; 3], 1);
        let w1 = geom.wrap_position([x, y, z]);
        let w2 = geom.wrap_position(w1);
        for d in 0..3 {
            prop_assert!(w1[d] >= geom.lo[d] && w1[d] < geom.hi()[d] + 1e-9);
            prop_assert!((w1[d] - w2[d]).abs() < 1e-9);
        }
        let (c, _) = geom.locate(w1[0], w1[1], w1[2]);
        prop_assert!(c[0] < 8 && c[1] < 4 && c[2] < 2);
    });
}
