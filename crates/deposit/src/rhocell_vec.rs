//! VPU-based rhocell deposition kernels.
//!
//! Two configurations of the same algorithm, [`deposit_tile`] (the
//! strongest VPU baselines of the paper's Table 1/2 comparison):
//!
//! * [`PrepStyle::Autovec`] — "Rhocell (auto-vec)": a faithful
//!   reproduction of the compiler-vectorised rhocell implementation;
//!   arithmetic is charged at the auto-vectorisation efficiency of the
//!   cost model (the paper observes compilers "struggle to vectorise"
//!   its preprocessing).
//! * [`PrepStyle::VpuIntrinsics`] — "Rhocell (VPU)": the manually
//!   vectorised variant with full intrinsic throughput.
//!
//! Both accumulate per-cell node vectors into the tile [`Rhocell`], which
//! removes the scatter conflicts of the baseline; combined with sorted
//! iteration the rhocell working set stays cache-resident, which is the
//! paper's `Rhocell+IncrSort` observation.

use mpic_machine::{Machine, Phase, Pricing, VAddr, VReg, VLANES};

use crate::common::{PrepStyle, Staging};
use crate::kernel::TileCtx;
use crate::rhocell::Rhocell;
use crate::shape::MAX_SUPPORT;

/// The VPU rhocell kernel: accumulates each staged particle's per-node
/// contributions into the tile [`Rhocell`] at `rho_addr`, one particle
/// at a time. `prep` is the configuration's staging style, and the
/// compute loop takes the same one: [`PrepStyle::Autovec`] charges
/// arithmetic at the auto-vectorisation efficiency, anything else at
/// full intrinsic throughput.
pub fn deposit_tile(
    m: &mut Machine,
    ctx: &TileCtx,
    st: &Staging,
    prep: PrepStyle,
    rho_addr: VAddr,
    rho: &mut Rhocell,
) {
    let s = ctx.order.support();
    let nodes = ctx.order.nodes_3d();
    m.in_phase(Phase::Compute, |m| {
        if prep == PrepStyle::Autovec {
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
                    rho.accumulate(m, Pricing::Walk, rho_addr, comp, cell, node, w, contrib);
                }
                node += w;
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
        use crate::configs::{KernelConfig, KernelFamily};
        for (cfg, prep, name) in [
            (
                KernelConfig::RhocellIncrSortVpu,
                PrepStyle::VpuIntrinsics,
                "rhocell_vpu",
            ),
            (
                KernelConfig::RhocellIncrSort,
                PrepStyle::Autovec,
                "rhocell_autovec",
            ),
        ] {
            assert_eq!(cfg.family(), KernelFamily::Rhocell);
            assert_eq!(cfg.prep_style(), prep);
            assert_eq!(cfg.build(ShapeOrder::Cic).name(), name);
        }
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
        for prep in [PrepStyle::Autovec, PrepStyle::VpuIntrinsics] {
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
                prep,
                Pricing::Walk,
                &mut st,
            );
            let mut rho = crate::rhocell::Rhocell::new(ShapeOrder::Cic, tile.num_cells());
            let ctx = TileCtx {
                geom: &geom,
                tile,
                order: ShapeOrder::Cic,
                pricing: Pricing::Walk,
            };
            deposit_tile(&mut m, &ctx, &st, prep, rho_addr, &mut rho);
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
