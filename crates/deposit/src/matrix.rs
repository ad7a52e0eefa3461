//! The MatrixPIC hybrid VPU-MPU deposition kernel (paper section 4.2).
//!
//! # CIC mapping (section 4.2.1, Figure 5 left)
//!
//! For a particle pair `(p1, p2)` and one current component, the VPU
//! assembles
//!
//! * `A = [wq1*sx0(p1), wq1*sx1(p1), wq2*sx0(p2), wq2*sx1(p2)]` and
//! * `B = [syz00, syz10, syz01, syz11 | same for p2]`
//!   where `syz_bc = sy_b * sz_c`,
//!
//! and a single MOPA computes `A (x) B`: the top-left 2x4 block is p1's 8
//! nodal contributions, the bottom-right 2x4 block is p2's; the
//! cross-term blocks are ignored at extraction. 16 of the 64 tile slots
//! are useful — the 25% utilisation the paper quotes for CIC.
//!
//! # QSP mapping
//!
//! The third-order tensor product `wq*sx (x) sy (x) sz` is computed as
//! four z-slab MOPAs per pair: slab `c` uses
//! `A_c = [wq1*sz1[c]*sx0..3(p1) | wq2*sz2[c]*sx0..3(p2)]` against
//! `B = [sy0..3(p1) | sy0..3(p2)]`, so each MOPA carries 2 x 16 = 32
//! useful slots of 64 — the 50% utilisation the paper quotes for QSP.
//!
//! # Cell residency
//!
//! Particles are processed in runs of equal cell (the GPMA-sorted order
//! guarantees long runs). Tile registers accumulate across all pairs of a
//! run and are extracted to the rhocell once per run, which is the
//! data-movement saving the paper attributes to sorting; with unsorted
//! input the runs degenerate to length ~1 and the kernel pays a zero +
//! extraction per pair — reproducing the `Hybrid-noSort` degradation of
//! the ablation study (Figure 10).

use mpic_machine::{Machine, Meter, Phase, Pricing, TileId, VAddr, VReg, VLANES};
use mpic_particles::cell_runs;

use crate::common::Staging;
use crate::kernel::TileCtx;
use crate::rhocell::Rhocell;
use crate::shape::ShapeOrder;

/// Tiles used per current component (Jx, Jy, Jz).
const COMP_TILE: [TileId; 3] = [TileId(0), TileId(1), TileId(2)];

/// The hybrid VPU-MPU deposition kernel: accumulates one tile's staged
/// particles into the tile [`Rhocell`] at `rho_addr`, run by run. The
/// same code serves every configuration of the family (`Matrix-only`
/// differs only in its scalar staging) and every execution mode: it is
/// run-batched by design, so the mode only selects `ctx.pricing`, the
/// price of the per-run rhocell accumulate.
pub fn deposit_tile(
    m: &mut Machine,
    ctx: &TileCtx,
    st: &Staging,
    rho_addr: VAddr,
    rho: &mut Rhocell,
) {
    let pricing = ctx.pricing;
    m.in_phase(Phase::Compute, |m| {
        // Process maximal runs of identical cell id via the shared run
        // iterator (sorted input => one run per occupied cell; unsorted
        // input => short runs). MPU tile registers stay resident across
        // a run and are extracted once per run; `cell_runs` makes its
        // run boundaries the same ones the push's run sweep uses.
        for run in cell_runs(&st.cell_local[..st.n]) {
            match ctx.order {
                ShapeOrder::Cic => {
                    deposit_run_cic(m, pricing, st, run.start, run.end, run.cell, rho_addr, rho);
                }
                ShapeOrder::Qsp => {
                    deposit_run_qsp(m, pricing, st, run.start, run.end, run.cell, rho_addr, rho);
                }
            }
        }
    });
}

/// CIC: one MOPA per pair per component; tile resident across the run.
/// Inlined into the scope's run loop so the meter stays in registers
/// (see [`Machine::in_phase`]); so is [`deposit_run_qsp`].
#[inline(always)]
fn deposit_run_cic(
    m: &mut Meter<'_>,
    pricing: Pricing,
    st: &Staging,
    run_start: usize,
    run_end: usize,
    cell: usize,
    rho_addr: VAddr,
    rho: &mut Rhocell,
) {
    for comp in 0..3 {
        m.t_zero(COMP_TILE[comp]);
    }
    let mut p = run_start;
    while p < run_end {
        let pair: [Option<usize>; 2] = [Some(p), (p + 1 < run_end).then_some(p + 1)];
        // Staged loads for the pair (cache-blocked => issue only).
        m.v_issue(2);

        // B = [sy0sz0, sy1sz0, sy0sz1, sy1sz1 | p2...] : one multiply of
        // a shuffled sy vector by a shuffled sz vector.
        let mut sy8 = [0.0; VLANES];
        let mut sz8 = [0.0; VLANES];
        for (half, part) in pair.iter().enumerate() {
            if let Some(q) = part {
                for c in 0..2 {
                    for b in 0..2 {
                        sy8[half * 4 + c * 2 + b] = st.s(1, b, *q);
                        sz8[half * 4 + c * 2 + b] = st.s(2, c, *q);
                    }
                }
            }
        }
        m.v_ops(2); // The two shuffles.
        let b_vec = m.v_mul(VReg(sy8), VReg(sz8));

        // A = [wq*sx0, wq*sx1 | p2...] (p2's lanes stay zero for a solo
        // trailing particle); the sx factor is shared by the components.
        let mut sx4 = [0.0; VLANES];
        for (half, part) in pair.iter().enumerate() {
            if let Some(q) = part {
                sx4[half * 2] = st.s(0, 0, *q);
                sx4[half * 2 + 1] = st.s(0, 1, *q);
            }
        }
        for comp in 0..3 {
            let mut wq4 = [0.0; VLANES];
            for (half, part) in pair.iter().enumerate() {
                if let Some(q) = part {
                    wq4[half * 2] = st.wq[comp][*q];
                    wq4[half * 2 + 1] = st.wq[comp][*q];
                }
            }
            m.v_ops(1); // Broadcast/interleave of wq.
            let a_vec = m.v_mul(VReg(sx4), VReg(wq4));
            m.t_mopa(COMP_TILE[comp], a_vec, b_vec);
        }
        p += 2;
    }
    // Extraction once per run: p1 block = rows 0-1 x cols 0-3, p2 block =
    // rows 2-3 x cols 4-7; node id = (c*2 + b)*2 + a = col*2 + row.
    for comp in 0..3 {
        let mut rows = [VReg::zero(); 4];
        for (r, row) in rows.iter_mut().enumerate() {
            *row = m.t_read_row(COMP_TILE[comp], r);
        }
        let mut vals = [0.0; VLANES];
        for col in 0..4 {
            for row in 0..2 {
                vals[col * 2 + row] = rows[row].lane(col) + rows[2 + row].lane(4 + col);
            }
        }
        m.v_ops(2); // Block add + interleave shuffle.
        rho.accumulate(m, pricing, rho_addr, comp, cell, 0, 8, VReg(vals));
    }
}

/// QSP: one z-slab MOPA per support layer per pair per component, over
/// the 4-node support; tiles resident across the run for one component
/// at a time.
#[inline(always)]
fn deposit_run_qsp(
    m: &mut Meter<'_>,
    pricing: Pricing,
    st: &Staging,
    run_start: usize,
    run_end: usize,
    cell: usize,
    rho_addr: VAddr,
    rho: &mut Rhocell,
) {
    // Support per dimension. Extraction packing: the b-rows are `S` = 4
    // lanes, so two of them fill one 8-wide accumulate pass.
    const S: usize = 4;
    const ROWS_PER_PASS: usize = 2;
    // One component at a time so the z-slab tiles fit in the
    // architectural tile registers (TileId 0..3).
    for comp in 0..3 {
        for c in 0..S {
            m.t_zero(TileId(c));
        }
        let mut p = run_start;
        while p < run_end {
            let pair: [Option<usize>; 2] = [Some(p), (p + 1 < run_end).then_some(p + 1)];
            m.v_issue(2);

            // B = [sy0..3(p1) | sy0..3(p2)] and the sx lanes of every
            // A_c — pure staged data, shared by the pair's slabs.
            let mut by = [0.0; VLANES];
            let mut ax = [0.0; VLANES];
            for (half, part) in pair.iter().enumerate() {
                if let Some(q) = part {
                    for t in 0..S {
                        by[half * 4 + t] = st.s(1, t, *q);
                        ax[half * 4 + t] = st.s(0, t, *q);
                    }
                }
            }
            m.v_ops(1);
            let b_vec = VReg(by);

            for c in 0..S {
                // A_c = [wq*sz[c]*sx0..3(p1) | same p2].
                let mut scale = [0.0; VLANES];
                for (half, part) in pair.iter().enumerate() {
                    if let Some(q) = part {
                        let f = st.wq[comp][*q] * st.s(2, c, *q);
                        scale[half * 4..half * 4 + S].fill(f);
                    }
                }
                m.v_ops(1); // wq*sz broadcast.
                let a_vec = m.v_mul(VReg(ax), VReg(scale));
                m.t_mopa(TileId(c), a_vec, b_vec);
            }
            p += 2;
        }
        // Extraction once per run per component: slab tile `c` holds, for
        // each particle half, the 4 x 4 block sx (x) sy scaled by
        // wq*sz[c]; node id = (c*S + b)*S + a.
        for c in 0..S {
            let mut block = [[0.0; VLANES]; VLANES];
            for (r, row) in block.iter_mut().enumerate().take(VLANES) {
                let reg = m.t_read_row(TileId(c), r);
                for (col, v) in row.iter_mut().enumerate() {
                    *v = reg.lane(col);
                }
            }
            for b0 in (0..S).step_by(ROWS_PER_PASS) {
                let mut vals = [0.0; VLANES];
                for b in 0..ROWS_PER_PASS {
                    for a in 0..S {
                        // p1 block rows 0-3 cols 0-3; p2 rows 4-7 cols 4-7.
                        vals[b * S + a] = block[a][b0 + b] + block[4 + a][4 + b0 + b];
                    }
                }
                m.v_ops(2);
                let (node0, w) = ((c * S + b0) * S, ROWS_PER_PASS * S);
                rho.accumulate(m, pricing, rho_addr, comp, cell, node0, w, VReg(vals));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{KernelConfig, KernelFamily};

    #[test]
    fn constructor_names() {
        // The hybrid and the MPU-only configurations both run this
        // kernel; only the name they build with tells them apart.
        for (cfg, name) in [
            (KernelConfig::FullOpt, "matrixpic"),
            (KernelConfig::MatrixOnly, "matrix_only"),
        ] {
            assert_eq!(cfg.family(), KernelFamily::Matrix);
            assert_eq!(cfg.build(ShapeOrder::Cic).name(), name);
        }
    }
}
