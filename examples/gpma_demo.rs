//! GPMA in isolation: drive the gapped packed-memory array with a
//! CFL-style particle drift and print the amortised maintenance cost per
//! step — the O(1) claim of paper section 4.3.
//!
//! ```sh
//! cargo run --release --example gpma_demo
//! ```

use matrix_pic::particles::{Gpma, MoveStats, PendingMove};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let n_bins = 512; // One 8x8x8 tile.
    let n_particles = 512 * 16; // PPC 16.
    let move_fraction = 0.05; // CFL keeps most particles in-cell.
    let steps = 200;

    let mut rng = StdRng::seed_from_u64(1);
    let mut cells: Vec<usize> = (0..n_particles).map(|p| p % n_bins).collect();
    let mut g = Gpma::build(&cells, n_bins, 0.5);
    println!(
        "GPMA demo: {n_bins} bins, {n_particles} particles, {:.0}% move/step",
        100.0 * move_fraction
    );
    println!(
        "{:>5} {:>8} {:>10} {:>10} {:>9} {:>9} {:>12}",
        "step", "moves", "O(1) ins", "borrows", "rebuilds", "empty%", "ops/move"
    );
    let mut total = MoveStats::default();
    for step in 0..steps {
        let movers = (n_particles as f64 * move_fraction) as usize;
        // Sample distinct particles: the per-step sweep visits each
        // particle once, so a particle gets at most one move per batch.
        let mut sample: Vec<usize> = (0..n_particles).collect();
        for i in 0..movers {
            let j = rng.gen_range(i..n_particles);
            sample.swap(i, j);
        }
        let mut batch = Vec::new();
        for &p in sample.iter().take(movers) {
            let old = cells[p];
            // Drift to a neighbouring bin (CFL: at most one cell).
            let new = if old + 1 < n_bins && rng.gen_bool(0.5) {
                old + 1
            } else {
                old.saturating_sub(1)
            };
            if new != old {
                batch.push(PendingMove {
                    particle: p,
                    old_bin: Some(old),
                    new_bin: Some(new),
                });
                cells[p] = new;
            }
        }
        let stats = g.apply_moves(&batch, &cells);
        g.check_invariants(&cells);
        total.merge(&stats);
        if step % 25 == 0 {
            let ops = stats.o1_inserts + 6 * stats.borrow_shifts + 4 * stats.rebuild_particles;
            println!(
                "{:>5} {:>8} {:>10} {:>10} {:>9} {:>9.1} {:>12.2}",
                step,
                stats.moves_applied,
                stats.o1_inserts,
                stats.borrow_shifts,
                stats.rebuilds,
                100.0 * g.empty_ratio(),
                ops as f64 / stats.moves_applied.max(1) as f64,
            );
        }
    }
    let amortised = (total.o1_inserts + 6 * total.borrow_shifts + 4 * total.rebuild_particles)
        as f64
        / total.moves_applied.max(1) as f64;
    println!(
        "\n{} moves over {steps} steps: {:.2} index ops per move (amortised O(1)), {} rebuilds",
        total.moves_applied, amortised, total.rebuilds
    );
}
