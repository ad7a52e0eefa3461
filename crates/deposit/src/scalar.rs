//! The canonical scalar deposition (ground truth) and the WarpX-style
//! direct-scatter baseline kernel.
//!
//! [`reference_deposit`] is the textbook equation-(1) loop, written in
//! plain Rust with no cost model. Every emulated kernel in this crate is
//! tested for numerical agreement with it.
//!
//! [`deposit_tile`] models the unmodified WarpX kernel: a compiler
//! auto-vectorised loop over particles that scatters each particle's
//! `support^3` nodal contributions straight onto the global current
//! arrays. Lanes of one vector that target the same grid node serialise
//! (the atomic-conflict problem of Figure 2), and the scattered address
//! stream is priced by the cache model — which is exactly why adding the
//! incremental sorter speeds this kernel up (Table 1, `Baseline+IncrSort`)
//! even though it was designed without sorting in mind.

use mpic_grid::{Array3, GridGeometry};
use mpic_machine::{Machine, Phase, TensorBlock, VAddr, VReg, VLANES};
use mpic_particles::ParticleContainer;

use crate::common::{node_coord, stage_particle, stencil_block, Staging, TouchedNodes};
use crate::kernel::TileCtx;
use crate::shape::ShapeOrder;

/// Computes the exact current deposition of every live particle onto
/// guarded nodal arrays (x fastest). Pure reference; no cost model: each
/// node is wrapped on its own by `node_coord`, the per-node
/// specification the kernels' stencil blocks are held to.
pub fn reference_deposit(
    geom: &GridGeometry,
    order: ShapeOrder,
    container: &ParticleContainer,
) -> (Array3, Array3, Array3) {
    let dims = geom.dims_with_guard();
    let mut jx = Array3::zeros(dims[0], dims[1], dims[2]);
    let mut jy = jx.clone();
    let mut jz = jx.clone();
    let s = order.support();
    for tile in &container.tiles {
        for p in tile.soa.live_indices() {
            let st = stage_particle(
                geom,
                order,
                container.charge,
                tile.soa.x[p],
                tile.soa.y[p],
                tile.soa.z[p],
                tile.soa.ux[p],
                tile.soa.uy[p],
                tile.soa.uz[p],
                tile.soa.w[p],
            );
            let node = |d: usize, off: usize| node_coord(geom, order, d, st.cell[d], off);
            for c in 0..s {
                for b in 0..s {
                    for a in 0..s {
                        let w = st.sx[a] * st.sy[b] * st.sz[c];
                        let n = [node(0, a), node(1, b), node(2, c)];
                        jx.add(n[0], n[1], n[2], st.wq[0] * w);
                        jy.add(n[0], n[1], n[2], st.wq[1] * w);
                        jz.add(n[0], n[1], n[2], st.wq[2] * w);
                    }
                }
            }
        }
    }
    (jx, jy, jz)
}

/// The unmodified-WarpX baseline: auto-vectorised direct scatter of one
/// tile's staged particles onto the worker's private guarded current
/// accumulators `jx`, `jy`, `jz`. The cache model is priced against the
/// *global* array bases `j_addr`, so the emulated cost is that of a true
/// grid scatter; `touched` records every accumulator node written, in
/// first-touch order, so the driver can extract (and re-zero) the tile's
/// sparse output deterministically.
pub fn deposit_tile(
    m: &mut Machine,
    ctx: &TileCtx,
    st: &Staging,
    j_addr: [VAddr; 3],
    jx: &mut Array3,
    jy: &mut Array3,
    jz: &mut Array3,
    touched: &mut TouchedNodes,
) {
    let s = ctx.order.support();
    let n = st.n;
    m.in_phase(Phase::Compute, |m| {
        m.use_autovec_model();
        let mut p0 = 0;
        while p0 < n {
            let lanes = (n - p0).min(VLANES);
            // Per-vector staged re-loads: cache-blocked staging, so
            // issue cost only.
            m.v_issue(3 * s + 3);
            // Each lane's stencil, built once per chunk.
            let blocks: [TensorBlock; VLANES] = std::array::from_fn(|l| {
                if l < lanes {
                    stencil_block(ctx.geom, ctx.order, st.cell[p0 + l])
                } else {
                    TensorBlock::EMPTY
                }
            });
            for c in 0..s {
                for b in 0..s {
                    for a in 0..s {
                        // Tensor shape product for the 8 lanes.
                        let sxa = VReg::from_slice(&st.shape[0][a * n + p0..a * n + p0 + lanes]);
                        let syb = VReg::from_slice(&st.shape[1][b * n + p0..b * n + p0 + lanes]);
                        let szc = VReg::from_slice(&st.shape[2][c * n + p0..c * n + p0 + lanes]);
                        let sxy = m.v_mul(sxa, syb);
                        let w = m.v_mul(sxy, szc);
                        // Per-lane target node (address math).
                        m.v_ops(2);
                        let mut idx = [0usize; VLANES];
                        for (slot, block) in idx.iter_mut().zip(&blocks[..lanes]) {
                            *slot = block.axis(0)[a] + block.axis(1)[b] + block.axis(2)[c];
                            touched.note(*slot);
                        }
                        for (comp, arr) in [&mut *jx, &mut *jy, &mut *jz].into_iter().enumerate() {
                            let wq = VReg::from_slice(&st.wq[comp][p0..p0 + lanes]);
                            let val = m.v_mul(w, wq);
                            m.v_scatter_add(j_addr[comp], &idx[..lanes], val, arr.as_mut_slice());
                        }
                    }
                }
            }
            p0 += lanes;
        }
        m.use_intrinsics_model();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::canonical_flops_per_particle;
    use mpic_grid::constants::C;
    use mpic_grid::TileLayout;
    use mpic_particles::Departure;

    fn setup() -> (GridGeometry, TileLayout, ParticleContainer) {
        let geom = GridGeometry::new([8, 8, 8], [0.0; 3], [1.0e-6; 3], 2);
        let layout = TileLayout::new(&geom, [8, 8, 8]);
        let mut c = ParticleContainer::new(&layout, -1.0e-19, 9.1e-31);
        // A handful of moving particles spread over cells.
        for i in 0..20 {
            let f = i as f64 / 20.0;
            let _ = c.inject(
                &layout,
                &geom,
                Departure {
                    x: (0.1 + 7.0 * f) * 1e-6,
                    y: (7.9 - 7.0 * f) * 1e-6,
                    z: (0.3 + 3.0 * f) * 1e-6,
                    ux: 0.1 * (i as f64).sin(),
                    uy: 0.05,
                    uz: -0.2 * f,
                    w: 1e10,
                },
            );
        }
        (geom, layout, c)
    }

    #[test]
    fn reference_conserves_charge_current() {
        // Total deposited Jx equals sum of q*w*vx / V (shape sums to 1).
        let (geom, _, c) = setup();
        let (jx, _, _) = reference_deposit(&geom, ShapeOrder::Cic, &c);
        let mut expect = 0.0;
        for t in &c.tiles {
            for p in t.soa.live_indices() {
                let (vx, _, _) =
                    crate::common::velocity_from_u(t.soa.ux[p], t.soa.uy[p], t.soa.uz[p]);
                expect += c.charge * t.soa.w[p] * vx / geom.cell_volume();
            }
        }
        assert!(
            ((jx.sum() - expect) / expect.abs().max(1e-300)).abs() < 1e-12,
            "sum {} vs {}",
            jx.sum(),
            expect
        );
    }

    #[test]
    fn reference_qsp_matches_cic_totals() {
        // Different orders distribute differently but total current is
        // identical.
        let (geom, _, c) = setup();
        let (j1, _, _) = reference_deposit(&geom, ShapeOrder::Cic, &c);
        let (j3, _, _) = reference_deposit(&geom, ShapeOrder::Qsp, &c);
        assert!((j1.sum() - j3.sum()).abs() <= 1e-12 * j1.sum().abs().max(1e-300));
    }

    #[test]
    fn reference_at_rest_deposits_nothing() {
        let geom = GridGeometry::new([4, 4, 4], [0.0; 3], [1.0; 3], 1);
        let layout = TileLayout::new(&geom, [4, 4, 4]);
        let mut c = ParticleContainer::new(&layout, -1.0, 1.0);
        let _ = c.inject(
            &layout,
            &geom,
            Departure {
                x: 1.5,
                y: 1.5,
                z: 1.5,
                ux: 0.0,
                uy: 0.0,
                uz: 0.0,
                w: 1.0,
            },
        );
        let (jx, jy, jz) = reference_deposit(&geom, ShapeOrder::Cic, &c);
        assert_eq!(jx.sum(), 0.0);
        assert_eq!(jy.sum(), 0.0);
        assert_eq!(jz.sum(), 0.0);
    }

    #[test]
    fn reference_single_particle_cic_weights() {
        let geom = GridGeometry::new([4, 4, 4], [0.0; 3], [1.0; 3], 1);
        let layout = TileLayout::new(&geom, [4, 4, 4]);
        let mut c = ParticleContainer::new(&layout, 2.0, 1.0);
        // Particle at the exact corner of cell (1,1,1): all weight on one
        // node. ux=1 => vx = c/sqrt(2).
        let _ = c.inject(
            &layout,
            &geom,
            Departure {
                x: 1.0,
                y: 1.0,
                z: 1.0,
                ux: 1.0,
                uy: 0.0,
                uz: 0.0,
                w: 3.0,
            },
        );
        let (jx, _, _) = reference_deposit(&geom, ShapeOrder::Cic, &c);
        let vx = C / 2.0_f64.sqrt();
        let expect = 2.0 * 3.0 * vx / 1.0;
        assert!((jx.get(2, 2, 2) - expect).abs() < 1e-9 * expect);
        assert!((jx.sum() - expect).abs() < 1e-9 * expect);
    }

    #[test]
    fn canonical_flops_sane_for_counting() {
        assert!(canonical_flops_per_particle(ShapeOrder::Qsp) > 500.0);
    }
}
