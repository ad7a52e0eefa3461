//! The canonical scalar deposition (ground truth) and the WarpX-style
//! direct-scatter baseline kernel.
//!
//! [`reference_deposit`] is the textbook equation-(1) loop, written in
//! plain Rust with no cost model. Every emulated kernel in this crate is
//! tested for numerical agreement with it.
//!
//! [`BaselineKernel`] models the unmodified WarpX kernel: a compiler
//! auto-vectorised loop over particles that scatters each particle's
//! `support^3` nodal contributions straight onto the global current
//! arrays. Lanes of one vector that target the same grid node serialise
//! (the atomic-conflict problem of Figure 2), and the scattered address
//! stream is priced by the cache model — which is exactly why adding the
//! incremental sorter speeds this kernel up (Table 1, `Baseline+IncrSort`)
//! even though it was designed without sorting in mind.

use mpic_grid::{Array3, GridGeometry};
use mpic_machine::{Lanes, Machine, Meter, Phase, VReg, VLANES};
use mpic_particles::{cell_runs, ParticleContainer};

use crate::common::{node_index, stage_particle, PrepStyle, Staging, TouchedNodes};
use crate::kernel::{DepositionKernel, ExecMode, TileCtx, TileOutput};
use crate::shape::{ShapeOrder, MAX_NODES_3D, MAX_SUPPORT};

/// Computes the exact current deposition of every live particle onto
/// guarded nodal arrays (x fastest). Pure reference; no cost model.
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
            for c in 0..s {
                for b in 0..s {
                    for a in 0..s {
                        let w = st.sx[a] * st.sy[b] * st.sz[c];
                        let n = node_index(geom, st.cell, order, a, b, c);
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

/// The unmodified-WarpX baseline: auto-vectorised direct scatter.
#[derive(Debug, Clone, Copy, Default)]
pub struct BaselineKernel;

impl DepositionKernel for BaselineKernel {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn prep_style(&self) -> PrepStyle {
        PrepStyle::Autovec
    }

    fn uses_rhocell(&self) -> bool {
        false
    }

    fn deposit_tile(&self, m: &mut Machine, ctx: &TileCtx, st: &Staging, out: &mut TileOutput) {
        let TileOutput::Grid {
            j_addr,
            jx,
            jy,
            jz,
            touched,
        } = out
        else {
            panic!("baseline kernel writes the grid directly");
        };
        // Nothing below the staging loads is priced by mode: the block
        // accumulate is L1-resident and the scatter always walks.
        if let ExecMode::Runs(_) = ctx.mode {
            deposit_tile_runs(m, ctx, st, *j_addr, jx, jy, jz, touched);
            return;
        }
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
                for c in 0..s {
                    for b in 0..s {
                        for a in 0..s {
                            // Tensor shape product for the 8 lanes.
                            let sxa =
                                VReg::from_slice(&st.shape[0][a * n + p0..a * n + p0 + lanes]);
                            let syb =
                                VReg::from_slice(&st.shape[1][b * n + p0..b * n + p0 + lanes]);
                            let szc =
                                VReg::from_slice(&st.shape[2][c * n + p0..c * n + p0 + lanes]);
                            let sxy = m.v_mul(sxa, syb);
                            let w = m.v_mul(sxy, szc);
                            // Per-lane target node (address math).
                            m.v_ops(2);
                            let mut idx = [0usize; VLANES];
                            for (l, p) in (p0..p0 + lanes).enumerate() {
                                let g = node_index(ctx.geom, st.cell[p], ctx.order, a, b, c);
                                idx[l] = jx.idx(g[0], g[1], g[2]);
                                touched.note(idx[l]);
                            }
                            for (comp, arr) in
                                [&mut **jx, &mut **jy, &mut **jz].into_iter().enumerate()
                            {
                                let wq = VReg::from_slice(&st.wq[comp][p0..p0 + lanes]);
                                let val = m.v_mul(w, wq);
                                m.v_scatter_add(
                                    j_addr[comp],
                                    &idx[..lanes],
                                    val,
                                    arr.as_mut_slice(),
                                );
                            }
                        }
                    }
                }
                p0 += lanes;
            }
            m.use_intrinsics_model();
        });
    }
}

/// The cell-run direct-scatter sweep: each same-cell particle
/// run accumulates its `support^3 x 3` nodal contributions into a
/// stack-resident stencil block (per-particle adds in particle order, so
/// within-run sums match the per-particle kernel bit for bit), and the
/// block is applied to the worker's accumulator **once per run** — the
/// node addresses are computed once and the scattered writes shrink by
/// roughly the run length. Cross-run contributions to a shared grid node
/// regroup the FP adds (run subtotals instead of interleaved particles),
/// which is the tight-ULP deviation the equivalence tests pin.
fn deposit_tile_runs(
    m: &mut Machine,
    ctx: &TileCtx,
    st: &Staging,
    j_addr: [mpic_machine::VAddr; 3],
    jx: &mut Array3,
    jy: &mut Array3,
    jz: &mut Array3,
    touched: &mut TouchedNodes,
) {
    let s = ctx.order.support();
    let nodes = ctx.order.nodes_3d();
    let n = st.n;
    m.in_phase(Phase::Compute, |m| {
        m.use_autovec_model();
        let mut idx = [0usize; MAX_NODES_3D];
        let mut block = [[0.0f64; MAX_NODES_3D]; 3];
        for run in cell_runs(&st.cell_local[..n]) {
            // Stencil node addresses once per run (shared by every
            // particle of the run and all three components).
            let cell = st.cell[run.start];
            for c in 0..s {
                for b in 0..s {
                    for a in 0..s {
                        let g = node_index(ctx.geom, cell, ctx.order, a, b, c);
                        idx[(c * s + b) * s + a] = jx.idx(g[0], g[1], g[2]);
                    }
                }
            }
            m.s_ops(3 * s + nodes); // Per-dim wraps + linear index math.
            for comp in block.iter_mut() {
                comp[..nodes].fill(0.0);
            }
            // Accumulate the run into the block in particle order; the
            // block is stack/L1-resident, so only arithmetic and issue
            // costs are charged — the memory the batching saves.
            accumulate_run(m, st, s, nodes, run.start, run.end, &mut block);
            // Apply the block to the accumulator once per run: the only
            // scattered grid traffic left, priced per distinct node with
            // no intra-vector conflicts (each node appears once).
            for (comp, arr) in [&mut *jx, &mut *jy, &mut *jz].into_iter().enumerate() {
                let dst = arr.as_mut_slice();
                let mut nd = 0;
                while nd < nodes {
                    let w = (nodes - nd).min(VLANES);
                    m.v_touch_scatter_add(j_addr[comp], &idx[nd..nd + w]);
                    for l in nd..nd + w {
                        if comp == 0 {
                            touched.note(idx[l]);
                        }
                        dst[idx[l]] += block[comp][l];
                    }
                    nd += w;
                }
            }
        }
        m.use_intrinsics_model();
    });
}

/// Lane-parallel accumulation of one same-cell run into the stencil
/// block. Values are computed particle-outer with node-chunked
/// [`Lanes`] arithmetic: for every (component, node) pair the adds land
/// in ascending particle order and the shape product keeps the
/// per-particle kernel's `(sx*sy)*sz` association. The charge stream is
/// that of a particle-chunked vector loop: per [`VLANES`] particles,
/// one round of staged re-loads plus product / multiply / accumulate
/// per stencil node.
#[inline]
fn accumulate_run(
    m: &mut Meter<'_>,
    st: &Staging,
    s: usize,
    nodes: usize,
    start: usize,
    end: usize,
    block: &mut [[f64; MAX_NODES_3D]; 3],
) {
    let mut p0 = start;
    while p0 < end {
        let lanes = (end - p0).min(VLANES);
        m.v_issue(3 * s + 3); // Staged re-loads (cache-blocked).
        for _nd in 0..nodes {
            m.v_ops(2); // Tensor shape product per chunk.
            m.v_ops(3); // Effective-current multiplies.
            m.v_issue(3); // Block accumulates (L1-resident).
        }
        for p in p0..p0 + lanes {
            // The s*s x-y products once per particle; folding sz in per
            // node keeps the (sx*sy)*sz association of the scalar loop.
            let mut sxy = [0.0; MAX_SUPPORT * MAX_SUPPORT];
            for b in 0..s {
                for a in 0..s {
                    sxy[b * s + a] = st.s(0, a, p) * st.s(1, b, p);
                }
            }
            let wq = [
                Lanes::splat(st.wq[0][p]),
                Lanes::splat(st.wq[1][p]),
                Lanes::splat(st.wq[2][p]),
            ];
            let mut node = 0;
            while node < nodes {
                let w = (nodes - node).min(VLANES);
                let mut w3 = [0.0; VLANES];
                for (l, v) in w3.iter_mut().enumerate().take(w) {
                    let nd = node + l;
                    *v = sxy[nd % (s * s)] * st.s(2, nd / (s * s), p);
                }
                let w3 = Lanes(w3);
                for comp in 0..3 {
                    Lanes::from_slice(&block[comp][node..node + w])
                        .mul_acc(w3, wq[comp])
                        .write_to(&mut block[comp][node..node + w], w);
                }
                node += w;
            }
        }
        p0 += lanes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::canonical_flops_per_particle;
    use mpic_grid::constants::C;
    use mpic_grid::TileLayout;
    use mpic_particles::Departure;

    fn setup(order: ShapeOrder) -> (GridGeometry, TileLayout, ParticleContainer) {
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
        let _ = order;
        (geom, layout, c)
    }

    #[test]
    fn reference_conserves_charge_current() {
        // Total deposited Jx equals sum of q*w*vx / V (shape sums to 1).
        let (geom, _, c) = setup(ShapeOrder::Cic);
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
        let (geom, _, c) = setup(ShapeOrder::Cic);
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
