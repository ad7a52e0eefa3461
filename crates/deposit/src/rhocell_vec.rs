//! VPU-based rhocell deposition kernels.
//!
//! Two configurations of the same algorithm (the strongest VPU baselines
//! of the paper's Table 1/2 comparison):
//!
//! * [`RhocellKernel`] with `hand_tuned = false` — "Rhocell (auto-vec)": a
//!   faithful reproduction of the compiler-vectorised rhocell
//!   implementation; arithmetic is charged at the auto-vectorisation
//!   efficiency of the cost model (the paper observes compilers
//!   "struggle to vectorise" its preprocessing).
//! * `hand_tuned = true` — "Rhocell (VPU)": the manually vectorised
//!   variant with full intrinsic throughput.
//!
//! Both accumulate per-cell node vectors into the tile [`Rhocell`], which
//! removes the scatter conflicts of the baseline; combined with sorted
//! iteration the rhocell working set stays cache-resident, which is the
//! paper's `Rhocell+IncrSort` observation.

use mpic_machine::{Lanes, Machine, Phase, Pricing, VAddr, VReg, VLANES};
use mpic_particles::cell_runs;

use crate::common::{PrepStyle, Staging};
use crate::kernel::{DepositionKernel, ExecMode, TileCtx, TileOutput};
use crate::rhocell::Rhocell;
use crate::shape::{MAX_NODES_3D, MAX_SUPPORT};

/// VPU rhocell kernel (auto-vectorised or hand-tuned).
#[derive(Debug, Clone, Copy)]
pub struct RhocellKernel {
    /// Whether the kernel models hand-written intrinsics (no
    /// auto-vectorisation penalty).
    pub hand_tuned: bool,
}

impl DepositionKernel for RhocellKernel {
    fn name(&self) -> &'static str {
        if self.hand_tuned {
            "rhocell_vpu"
        } else {
            "rhocell_autovec"
        }
    }

    fn prep_style(&self) -> PrepStyle {
        if self.hand_tuned {
            PrepStyle::VpuIntrinsics
        } else {
            PrepStyle::Autovec
        }
    }

    fn uses_rhocell(&self) -> bool {
        true
    }

    fn deposit_tile(&self, m: &mut Machine, ctx: &TileCtx, st: &Staging, out: &mut TileOutput) {
        let TileOutput::Rho { rho_addr, rho } = out else {
            panic!("rhocell kernel requires a rhocell output");
        };
        if let ExecMode::Runs(pricing) = ctx.mode {
            deposit_tile_runs(m, ctx, st, pricing, *rho_addr, rho, self.hand_tuned);
            return;
        }
        let s = ctx.order.support();
        let nodes = ctx.order.nodes_3d();
        m.in_phase(Phase::Compute, |m| {
            if !self.hand_tuned {
                m.use_autovec_model();
            }
            for p in 0..st.n {
                let cell = st.cell_local[p];
                // Staged term loads for this particle (register-blocked
                // in the real kernel; cache-blocked staging => issue
                // cost only).
                m.v_issue(2);

                // Precompute the s*s x-y products (2 vector ops for QSP's
                // 16 terms, 1 for CIC's 4). Stack-resident: support is at
                // most MAX_SUPPORT, so the hot loop never allocates.
                let mut sxy = [0.0; MAX_SUPPORT * MAX_SUPPORT];
                for b in 0..s {
                    for a in 0..s {
                        sxy[b * s + a] = st.s(0, a, p) * st.s(1, b, p);
                    }
                }
                m.v_ops((s * s).div_ceil(VLANES).max(1));

                // Hoist the three effective-current broadcasts out of the
                // node loop (one register each).
                let wq_reg = [
                    m.v_splat(st.wq[0][p]),
                    m.v_splat(st.wq[1][p]),
                    m.v_splat(st.wq[2][p]),
                ];

                // Sweep the node vector in full-width chunks; node id is
                // (c*s + b)*s + a with a fastest, so each chunk is a run
                // of x-y products times one or two sz terms.
                let mut node = 0;
                while node < nodes {
                    let w = (nodes - node).min(VLANES);
                    let mut svals = [0.0; VLANES];
                    for (l, val) in svals.iter_mut().enumerate().take(w) {
                        let nd = node + l;
                        let ab = nd % (s * s);
                        let c = nd / (s * s);
                        *val = sxy[ab] * st.s(2, c, p);
                    }
                    // One multiply to fold sz into the chunk.
                    let sreg = m.v_mul(VReg::from_slice(&svals[..w]), VReg::splat(1.0));
                    for comp in 0..3 {
                        let contrib = m.v_mul(sreg, wq_reg[comp]);
                        rho.accumulate(m, Pricing::Walk, *rho_addr, comp, cell, node, w, contrib);
                    }
                    node += w;
                }
            }
            m.use_intrinsics_model();
        });
    }
}

/// The cell-run rhocell sweep: each same-cell run accumulates into a
/// stack-resident stencil block (per-particle adds in particle order,
/// products identical to the per-particle kernel's lane arithmetic) and
/// the block is folded into the tile rhocell **once per run** — one
/// load/add/store pass per cell instead of one per particle, priced at
/// `pricing`. Because a sorted tile has exactly one run per occupied
/// cell and the rhocell slice starts at +0.0, regrouping through the
/// block reproduces the per-particle accumulation bit for bit (the
/// `batched_*` equivalence tests pin this).
fn deposit_tile_runs(
    m: &mut Machine,
    ctx: &TileCtx,
    st: &Staging,
    pricing: Pricing,
    rho_addr: VAddr,
    rho: &mut Rhocell,
    hand_tuned: bool,
) {
    let s = ctx.order.support();
    let nodes = ctx.order.nodes_3d();
    m.in_phase(Phase::Compute, |m| {
        if !hand_tuned {
            m.use_autovec_model();
        }
        let mut block = [[0.0f64; MAX_NODES_3D]; 3];
        for run in cell_runs(&st.cell_local[..st.n]) {
            let cell = run.cell;
            for comp in block.iter_mut() {
                comp[..nodes].fill(0.0);
            }
            for p in run.range() {
                m.v_issue(2); // Staged term loads (cache-blocked).

                // The s*s x-y products, as in the per-particle kernel.
                let mut sxy = [0.0; MAX_SUPPORT * MAX_SUPPORT];
                for b in 0..s {
                    for a in 0..s {
                        sxy[b * s + a] = st.s(0, a, p) * st.s(1, b, p);
                    }
                }
                m.v_ops((s * s).div_ceil(VLANES).max(1));
                m.v_issue(3); // The three wq broadcasts (no FLOPs).

                let wq = [st.wq[0][p], st.wq[1][p], st.wq[2][p]];
                let mut node = 0;
                while node < nodes {
                    let w = (nodes - node).min(VLANES);
                    m.v_ops(1); // Fold sz into the chunk.

                    // Lane-parallel block accumulate: per (comp, node)
                    // the adds land in particle order with the
                    // per-particle kernel's `(sx*sy)*sz` association.
                    // Ragged final chunks run zero-padded (QSP's 64
                    // nodes split evenly, TSC's 27 leave a 3-wide
                    // tail): only the `w` active lanes are written back.
                    let mut svals = [0.0; VLANES];
                    for (l, v) in svals.iter_mut().enumerate().take(w) {
                        let nd = node + l;
                        *v = sxy[nd % (s * s)] * st.s(2, nd / (s * s), p);
                    }
                    let svals = Lanes(svals);
                    for comp in 0..3 {
                        m.v_ops(1); // Effective-current multiply.
                        m.v_issue(1); // Block accumulate (L1-resident).
                        Lanes::from_slice(&block[comp][node..node + w])
                            .mul_acc(svals, Lanes::splat(wq[comp]))
                            .write_to(&mut block[comp][node..node + w], w);
                    }
                    node += w;
                }
            }
            // One load/add/store pass over the cell's rhocell slice per
            // run — the per-particle path pays this per particle.
            for comp in 0..3 {
                let mut node = 0;
                while node < nodes {
                    let w = (nodes - node).min(VLANES);
                    let contrib = VReg::from_slice(&block[comp][node..node + w]);
                    rho.accumulate(m, pricing, rho_addr, comp, cell, node, w, contrib);
                    node += w;
                }
            }
        }
        m.use_intrinsics_model();
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::ShapeOrder;
    use mpic_grid::GridGeometry;
    use mpic_machine::MachineConfig;

    /// The multiplication by splat(1.0) must not perturb values.
    #[test]
    fn splat_identity_is_exact() {
        let mut m = Machine::new(MachineConfig::lx2());
        let v = VReg::from_slice(&[0.1, 0.2, 0.3]);
        let r = m.v_mul(v, VReg::splat(1.0));
        assert_eq!(r.lane(0), 0.1);
        assert_eq!(r.lane(2), 0.3);
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(RhocellKernel { hand_tuned: true }.name(), "rhocell_vpu");
        assert_eq!(
            RhocellKernel { hand_tuned: false }.name(),
            "rhocell_autovec"
        );
        assert!(RhocellKernel { hand_tuned: true }.uses_rhocell());
    }

    #[test]
    fn hand_tuned_is_faster_than_autovec() {
        // Identical staged input, both deposit one tile; the auto-vec
        // variant must charge more cycles.
        use crate::common::stage_tile;
        use mpic_grid::TileLayout;
        use mpic_particles::{Departure, ParticleContainer};

        let geom = GridGeometry::new([4, 4, 4], [0.0; 3], [1.0e-6; 3], 2);
        let layout = TileLayout::new(&geom, [4, 4, 4]);
        let mut c = ParticleContainer::new(&layout, -1.0e-19, 9.1e-31);
        for i in 0..32 {
            let _ = c.inject(
                &layout,
                &geom,
                Departure {
                    x: (0.1 + (i as f64) * 0.11) % 3.9 * 1e-6,
                    y: 1.1e-6,
                    z: 2.3e-6,
                    ux: 0.1,
                    uy: 0.0,
                    uz: 0.0,
                    w: 1.0,
                },
            );
        }
        let mut cycles = Vec::new();
        for hand_tuned in [false, true] {
            let mut m = Machine::new(MachineConfig::lx2());
            let soa_addr = std::array::from_fn(|_| m.mem().alloc_f64(64));
            let rho_addr = m.mem().alloc_f64(3 * 64 * 8);
            let tile = layout.tile(0);
            let iter: Vec<usize> = c.tiles[0].soa.live_indices().collect();
            let mut st = Staging::default();
            stage_tile(
                &mut m,
                &geom,
                tile,
                ShapeOrder::Cic,
                c.charge,
                &c.tiles[0].soa,
                &iter,
                &soa_addr,
                if hand_tuned {
                    PrepStyle::VpuIntrinsics
                } else {
                    PrepStyle::Autovec
                },
                Pricing::Walk,
                &mut st,
            );
            let mut rho = crate::rhocell::Rhocell::new(ShapeOrder::Cic, tile.num_cells());
            let k = RhocellKernel { hand_tuned };
            let ctx = TileCtx {
                geom: &geom,
                tile,
                order: ShapeOrder::Cic,
                mode: ExecMode::PerParticle,
            };
            let mut out = TileOutput::Rho {
                rho_addr,
                rho: &mut rho,
            };
            k.deposit_tile(&mut m, &ctx, &st, &mut out);
            cycles.push(m.counters().total_cycles());
        }
        assert!(
            cycles[0] > cycles[1],
            "autovec {} must exceed hand-tuned {}",
            cycles[0],
            cycles[1]
        );
    }
}
