//! Appendix B generality demo: the Particle-Mesh (PM) mass deposition of
//! cosmological N-body codes is algorithmically isomorphic to PIC current
//! deposition (source = massive particles, target = density grid,
//! operation = shape-function scatter-add). This example drives the same
//! shape machinery and the MPU outer-product mapping for *mass* density,
//! showing that MatrixPIC's kernels are not electromagnetic-specific.
//!
//! ```sh
//! cargo run --release --example pm_nbody
//! ```

use matrix_pic::deposit::common::stencil_block;
use matrix_pic::deposit::{stage_particle, ShapeOrder};
use matrix_pic::grid::{Array3, GridGeometry};
use matrix_pic::machine::{Machine, MachineConfig, Phase, TileId, VReg};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scatter a particle's mass onto the grid via the CIC MPU mapping:
/// a pair of particles per 4x8 outer product, exactly as in the paper but
/// with mass in place of the effective current.
fn deposit_mass_mpu(
    m: &mut Machine,
    geom: &GridGeometry,
    parts: &[(f64, f64, f64, f64)], // (x, y, z, mass)
    rho: &mut Array3,
) {
    let order = ShapeOrder::Cic;
    let mut i = 0;
    while i < parts.len() {
        let pair: Vec<_> = parts[i..(i + 2).min(parts.len())]
            .iter()
            .map(|&(x, y, z, mass)| {
                (
                    stage_particle(geom, order, 1.0, x, y, z, 0.0, 0.0, 0.0, 1.0),
                    mass,
                )
            })
            .collect();
        // A = [m1*sx0, m1*sx1 | m2*sx0, m2*sx1], B = [syz products].
        let mut a = [0.0; 8];
        let mut b = [0.0; 8];
        for (h, (st, mass)) in pair.iter().enumerate() {
            a[h * 2] = mass * st.sx[0];
            a[h * 2 + 1] = mass * st.sx[1];
            for c in 0..2 {
                for bb in 0..2 {
                    b[h * 4 + c * 2 + bb] = st.sy[bb] * st.sz[c];
                }
            }
        }
        m.in_phase(Phase::Compute, |k| {
            k.t_zero(TileId(0));
            k.t_mopa(TileId(0), VReg(a), VReg(b));
        });
        // Extract the two diagonal blocks onto the grid: node
        // `(c * 2 + bb) * 2 + aa` of the particle's stencil block.
        for (h, (st, _)) in pair.iter().enumerate() {
            stencil_block(geom, order, st.cell).for_each_node(|nd, i| {
                let (aa, bb, c) = (nd % 2, nd / 2 % 2, nd / 4);
                rho.as_mut_slice()[i] += m.tile_value(TileId(0), h * 2 + aa, h * 4 + c * 2 + bb);
            });
        }
        i += 2;
    }
}

fn main() {
    let geom = GridGeometry::new([16, 16, 16], [0.0; 3], [1.0; 3], 2);
    let dims = geom.dims_with_guard();
    let mut rho = Array3::zeros(dims[0], dims[1], dims[2]);
    let mut m = Machine::new(MachineConfig::lx2());

    // A clustered "halo" of massive particles plus a uniform background.
    let mut rng = StdRng::seed_from_u64(2024);
    let mut parts = Vec::new();
    let mut total_mass = 0.0;
    for _ in 0..2000 {
        let r: f64 = rng.gen::<f64>().powf(2.0) * 6.0;
        let th = rng.gen::<f64>() * std::f64::consts::TAU;
        let ph = rng.gen::<f64>() * std::f64::consts::PI;
        let mass = rng.gen_range(0.5..2.0);
        parts.push((
            (8.0 + r * th.cos() * ph.sin()).rem_euclid(16.0),
            (8.0 + r * th.sin() * ph.sin()).rem_euclid(16.0),
            (8.0 + r * ph.cos()).rem_euclid(16.0),
            mass,
        ));
        total_mass += mass;
    }
    deposit_mass_mpu(&mut m, &geom, &parts, &mut rho);

    println!("PM mass deposition via MPU outer products");
    println!("  particles: {}", parts.len());
    println!("  total mass in:  {total_mass:.6}");
    println!("  total mass out: {:.6}", rho.sum());
    assert!((rho.sum() - total_mass).abs() < 1e-9 * total_mass);
    println!("  mass conserved to machine precision — CIC shapes partition unity");
    println!(
        "  MOPA instructions: {}, emulated compute: {:.3} ms",
        m.counters().mopa_ops,
        1e3 * m
            .cfg()
            .cycles_to_seconds(m.counters().cycles(Phase::Compute)),
    );
    // Radial density profile of the halo.
    println!("\n  radial density profile (halo centre at 8,8,8):");
    let g = geom.guard;
    for shell in 0..6 {
        let (mut sum, mut count) = (0.0, 0);
        for k in 0..16 {
            for j in 0..16 {
                for i in 0..16 {
                    let r2 = [(i, 8.0), (j, 8.0), (k, 8.0)]
                        .iter()
                        .map(|&(v, c)| (v as f64 + 0.5 - c).powi(2))
                        .sum::<f64>();
                    if (r2.sqrt() as usize) == shell {
                        sum += rho.get(i + g, j + g, k + g);
                        count += 1;
                    }
                }
            }
        }
        if count > 0 {
            println!(
                "    r = {shell}: <rho> = {:>8.4}  {}",
                sum / count as f64,
                "#".repeat(((sum / count as f64 * 8.0) as usize).min(60))
            );
        }
    }
}
