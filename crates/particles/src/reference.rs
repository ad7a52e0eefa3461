//! Test-only reference for the per-step maintenance path: the
//! queue-based sweep and the one-at-a-time re-homing loop the fused
//! sweep and the tile-grouped re-homing replaced, kept on the public
//! batch API ([`crate::gpma::Gpma::apply_moves`] over a local queue) so
//! the conformance tests can demand bit-identical state from the fast
//! path — plus the order mutants those tests must reject.

use crate::container::{Departure, ParticleContainer, ParticleTile};
use crate::gpma::{MoveStats, PendingMove, INVALID_PARTICLE_ID};
use mpic_grid::{GridGeometry, Tile, TileLayout};

/// Order contract violations the conformance tests must tell apart from
/// the reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutant {
    /// The reference itself.
    None,
    /// Every mover is its own maintenance cycle, so inserts run before
    /// the deletes of later movers.
    InsertsBeforeDeletes,
    /// Movers are deleted in SoA slot order instead of walk order.
    DeletesInSlotOrder,
    /// Arrivals are grouped by destination tile, but not stably.
    UnstableGrouping,
    /// A destination tile takes all its arrivals in one maintenance
    /// cycle: one rebuild check per batch instead of per arrival.
    RebuildCheckPerBatch,
}

/// The queue-based sweep: snapshot the sorted order, locate every
/// particle through a gather, queue a `PendingMove` per mover, apply.
pub fn sweep(
    pt: &mut ParticleTile,
    tile: &Tile,
    geom: &GridGeometry,
    departures: &mut Vec<Departure>,
    mutant: Mutant,
) -> (MoveStats, usize) {
    let mut scan: Vec<(usize, usize)> = pt.gpma.iter_sorted().collect();
    let scanned = scan.len();
    if mutant == Mutant::DeletesInSlotOrder {
        scan.sort_by_key(|&(_, p)| p);
    }
    let mut stats = MoveStats::default();
    let mut queue = Vec::new();
    for &(old_bin, p) in &scan {
        // An earlier mover's insert may have borrowed across this bin's
        // boundary; only `cells` still names the particle's region then.
        let old_bin = if mutant == Mutant::InsertsBeforeDeletes {
            pt.cells[p]
        } else {
            old_bin
        };
        let (cell, _) = geom.locate(pt.soa.x[p], pt.soa.y[p], pt.soa.z[p]);
        if tile.contains(cell) {
            let new_bin = tile.local_cell_id(cell);
            if new_bin != old_bin {
                queue.push(PendingMove {
                    particle: p,
                    old_bin: Some(old_bin),
                    new_bin: Some(new_bin),
                });
                pt.cells[p] = new_bin;
            }
        } else {
            let (x, y, z, ux, uy, uz, w) = pt.soa.get(p);
            departures.push(Departure {
                x,
                y,
                z,
                ux,
                uy,
                uz,
                w,
            });
            queue.push(PendingMove {
                particle: p,
                old_bin: Some(old_bin),
                new_bin: None,
            });
            pt.cells[p] = INVALID_PARTICLE_ID;
            pt.soa.remove(p);
        }
        if mutant == Mutant::InsertsBeforeDeletes && !queue.is_empty() {
            stats.merge(&pt.gpma.apply_moves(&queue, &pt.cells));
            queue.clear();
        }
    }
    stats.merge(&pt.gpma.apply_moves(&queue, &pt.cells));
    (stats, scanned)
}

/// Inserts one arrival through a one-entry queue, as its own cycle.
fn insert(pt: &mut ParticleTile, d: Departure, tile: &Tile, geom: &GridGeometry) -> MoveStats {
    let arrival = [arrival(pt, d, tile, geom)];
    pt.gpma.apply_moves(&arrival, &pt.cells)
}

/// Pushes `d` into the tile's SoA and bin map and returns the move that
/// indexes it.
fn arrival(pt: &mut ParticleTile, d: Departure, tile: &Tile, geom: &GridGeometry) -> PendingMove {
    let (cell, _) = geom.locate(d.x, d.y, d.z);
    assert!(tile.contains(cell), "arrival routed to the wrong tile");
    let bin = tile.local_cell_id(cell);
    let p = pt.soa.push(d.x, d.y, d.z, d.ux, d.uy, d.uz, d.w);
    if p >= pt.cells.len() {
        pt.cells.resize(p + 1, INVALID_PARTICLE_ID);
    }
    pt.cells[p] = bin;
    PendingMove {
        particle: p,
        old_bin: None,
        new_bin: Some(bin),
    }
}

/// The queue-based `ParticleContainer::incremental_sort`: sweep every
/// tile, then locate, route and insert the departures one at a time in
/// source-tile-then-walk order.
pub fn incremental_sort(
    c: &mut ParticleContainer,
    layout: &TileLayout,
    geom: &GridGeometry,
    mutant: Mutant,
) -> (MoveStats, usize) {
    let mut stats = MoveStats::default();
    let mut scanned = 0;
    let mut departures = Vec::new();
    for (t, pt) in c.tiles.iter_mut().enumerate() {
        let (s, n) = sweep(pt, layout.tile(t), geom, &mut departures, mutant);
        stats.merge(&s);
        scanned += n;
    }
    let owner = |d: &Departure| layout.tile_of_cell(geom.locate(d.x, d.y, d.z).0);
    match mutant {
        Mutant::UnstableGrouping => {
            departures.reverse();
            departures.sort_by_key(owner);
        }
        Mutant::RebuildCheckPerBatch => departures.sort_by_key(owner),
        _ => {}
    }
    let mut queues = vec![Vec::new(); c.tiles.len()];
    for d in departures {
        let t = owner(&d);
        let pt = &mut c.tiles[t];
        if mutant == Mutant::RebuildCheckPerBatch {
            queues[t].push(arrival(pt, d, layout.tile(t), geom));
        } else {
            stats.merge(&insert(pt, d, layout.tile(t), geom));
        }
    }
    if mutant == Mutant::RebuildCheckPerBatch {
        for (pt, queue) in c.tiles.iter_mut().zip(&queues) {
            stats.merge(&pt.gpma.apply_moves(queue, &pt.cells));
        }
    }
    (stats, scanned)
}

/// Everything the maintenance path may touch, per tile, in comparable
/// form: floats as bit patterns, the GPMA with its free-stack order.
pub fn state(tiles: &[ParticleTile]) -> Vec<impl PartialEq + std::fmt::Debug> {
    tiles
        .iter()
        .map(|pt| {
            let s = &pt.soa;
            let bits = [&s.x, &s.y, &s.z, &s.ux, &s.uy, &s.uz, &s.w]
                .map(|a| a.iter().map(|v| v.to_bits()).collect::<Vec<u64>>());
            (
                bits,
                s.alive.clone(),
                s.free_slots().to_vec(),
                pt.cells.clone(),
                pt.gpma.export_state(),
            )
        })
        .collect()
}

/// A departure as bit patterns.
pub fn departure_bits(d: &Departure) -> [u64; 7] {
    [d.x, d.y, d.z, d.ux, d.uy, d.uz, d.w].map(f64::to_bits)
}
