//! Grid-to-particle field interpolation.
//!
//! Two value paths, bit-identical per particle:
//! [`gather_fields_with_cell`], the per-particle reference (one stencil
//! walk per particle), and the run-scoped pair [`load_node_block`] +
//! [`gather_from_block_lanes_masked`] — a cell's stencil loaded once,
//! then interpolated for a lane pack of its particles at a time,
//! branch-free for every pack length. Both take the cell and fraction
//! from `GridGeometry::locate`, the weights from [`ShapeOrder::weights`]
//! and the node indices from the deposit side's
//! [`mpic_deposit::common::stencil_block`], so gather and deposit can
//! never disagree on node targets. Two charges mirror them:
//! [`charge_gather`] walks the cache per particle chunk, and
//! [`charge_gather_run`] prices one block gather per run on the
//! [`Meter`] of the tile sweep's Gather scope.

use mpic_deposit::common::stencil_block;
use mpic_deposit::shape::MAX_SUPPORT;
use mpic_deposit::ShapeOrder;
use mpic_grid::{FieldArrays, GridGeometry};
use mpic_machine::{
    vect::W, Lanes, LineCarry, Machine, Meter, Phase, Pricing, TensorBlock, VAddr, VLANES,
};

/// Per-step cost parameters of the gather sweep (charged coarsely: the
/// gather is not the paper's optimisation target, but its time must
/// appear in the Figure 1/8 breakdowns with a realistic magnitude).
#[derive(Debug, Clone, Copy)]
pub struct GatherCost {
    /// Vector ALU ops charged per 8 particles.
    pub v_ops_per_chunk: usize,
}

impl Default for GatherCost {
    fn default() -> Self {
        Self {
            v_ops_per_chunk: 30,
        }
    }
}

/// Interpolates `(E, B)` at one particle position using shape order
/// `order` and returns them with the particle's wrapped physical cell
/// (pure; used by the per-particle push sweep, which reuses the cell for
/// the gather cost model's sampled address stream, and by tests).
///
/// The innermost loop of the per-particle sweep runs here (particles x
/// nodes x six arrays): the stencil's node indices come from one
/// [`stencil_block`] per particle, a row's offset is shared by its
/// nodes and each node's linear index by all six field reads. Weight
/// products keep the `(sx * sy) * sz` association of the scalar
/// reference, and nodes are accumulated in its `(c, b, a)` order.
pub fn gather_fields_with_cell(
    geom: &GridGeometry,
    order: ShapeOrder,
    fields: &FieldArrays,
    x: f64,
    y: f64,
    z: f64,
) -> ([f64; 3], [f64; 3], [usize; 3]) {
    let (cell, frac) = geom.locate(x, y, z);
    let mut sw = [[0.0; MAX_SUPPORT]; 3];
    for (w, &f) in sw.iter_mut().zip(&frac) {
        order.weights(f, w);
    }
    let [sx, sy, sz] = sw;
    let block = stencil_block(geom, order, cell);
    let (ex, ey, ez) = (
        fields.ex.as_slice(),
        fields.ey.as_slice(),
        fields.ez.as_slice(),
    );
    let (bx, by, bz) = (
        fields.bx.as_slice(),
        fields.by.as_slice(),
        fields.bz.as_slice(),
    );
    let mut e = [0.0; 3];
    let mut b = [0.0; 3];
    for (&kc, &wc) in block.axis(2).iter().zip(&sz) {
        for (&kb, &wb) in block.axis(1).iter().zip(&sy) {
            let row = kc + kb;
            for (&ka, &wa) in block.axis(0).iter().zip(&sx) {
                let w = wa * wb * wc;
                let li = row + ka;
                e[0] += w * ex[li];
                e[1] += w * ey[li];
                e[2] += w * ez[li];
                b[0] += w * bx[li];
                b[1] += w * by[li];
                b[2] += w * bz[li];
            }
        }
    }
    (e, b, cell)
}

/// Maximum stencil nodes of any shape order, sizing the stack-resident
/// node blocks of the batched gather. Derived from the deposit side's
/// [`mpic_deposit::shape::MAX_NODES_3D`] so a future higher-order shape
/// grows both block families together.
pub const MAX_STENCIL_NODES: usize = mpic_deposit::shape::MAX_NODES_3D;

/// One cell's cached stencil: where its support nodes sit in a guarded
/// field array plus the six field-component values at those nodes, in
/// node order `(c*s + b)*s + a` with `a` fastest — the same traversal
/// [`gather_fields_with_cell`] uses, so interpolating from the block is
/// bit-exact.
///
/// Loaded once per same-cell particle run by the cell-run sweep and
/// reused for every particle of the run (gathers are read-only, so the
/// cached values cannot go stale within a run).
#[derive(Debug, Clone)]
pub struct NodeBlock {
    /// The stencil currently loaded: node `n`'s linear guarded-grid
    /// index is the block's element `n`.
    pub stencil: TensorBlock,
    /// Field values per node: `[ex, ey, ez, bx, by, bz]`.
    pub vals: [[f64; MAX_STENCIL_NODES]; 6],
}

impl NodeBlock {
    /// An empty block (no nodes loaded).
    pub fn new() -> Self {
        Self {
            stencil: TensorBlock::EMPTY,
            vals: [[0.0; MAX_STENCIL_NODES]; 6],
        }
    }
}

impl Default for NodeBlock {
    fn default() -> Self {
        Self::new()
    }
}

/// Fills `block` with the stencil and field values of the given wrapped
/// physical `cell` — the once-per-run half of the batched gather. Pure
/// (no cost charging); the node indices come from the shared
/// deposit-side [`stencil_block`], as the per-particle gather's do.
pub fn load_node_block(
    geom: &GridGeometry,
    order: ShapeOrder,
    fields: &FieldArrays,
    cell: [usize; 3],
    block: &mut NodeBlock,
) {
    let arrays = [
        fields.ex.as_slice(),
        fields.ey.as_slice(),
        fields.ez.as_slice(),
        fields.bx.as_slice(),
        fields.by.as_slice(),
        fields.bz.as_slice(),
    ];
    block.stencil = stencil_block(geom, order, cell);
    let vals = &mut block.vals;
    block.stencil.for_each_node(|nd, li| {
        for (comp, arr) in arrays.iter().enumerate() {
            vals[comp][nd] = arr[li];
        }
    });
}

/// The lane gather: interpolates `(E, B)` from a cached [`NodeBlock`]
/// for `fracs.len()` particles (at most [`W`]), given their intra-cell
/// offsets, and returns the results still in lane-register layout
/// (`[Lanes; 3]` per field, lane `l` = particle `l`) for the
/// lane-parallel Boris push to consume directly — no transpose through
/// memory. Each lane is one particle: the six accumulators are per
/// lane, the weights come from the same [`ShapeOrder::weights`]
/// evaluation as [`gather_fields_with_cell`], the node loop runs in its `(c, b, a)`
/// order and each lane's weight keeps the `(sx * sy) * sz` association,
/// so every active lane is bit-identical to the per-particle gather at
/// that position (no cross-lane arithmetic exists to regroup).
///
/// Every pack length runs the same branch-free lane code. The weights
/// are held lane-major — one [`Lanes`] per (axis, support offset),
/// filled per particle — so a node's weight is two lane multiplies and
/// its six accumulates are plain unmasked [`Lanes::mul_acc`]s, with the
/// support a const so the node loop has a fixed trip count. Lanes past
/// the pack carry zero weights, so they accumulate `0 * value`: zero
/// for any finite node value, and whatever a non-finite one made of
/// them is overwritten by the final zeroing of lanes `n..W` — inactive
/// lanes hold exact `+0.0` on return whatever the block holds.
///
/// # Panics
/// If `fracs` is wider than a lane pack.
pub fn gather_from_block_lanes_masked(
    order: ShapeOrder,
    block: &NodeBlock,
    fracs: &[[f64; 3]],
) -> ([Lanes; 3], [Lanes; 3]) {
    match order {
        ShapeOrder::Cic => gather_lanes::<2>(order, block, fracs),
        ShapeOrder::Qsp => gather_lanes::<4>(order, block, fracs),
    }
}

/// [`gather_from_block_lanes_masked`] for support `S = order.support()`.
fn gather_lanes<const S: usize>(
    order: ShapeOrder,
    block: &NodeBlock,
    fracs: &[[f64; 3]],
) -> ([Lanes; 3], [Lanes; 3]) {
    let n = fracs.len();
    assert!(n <= W, "pack wider than a lane pack");
    debug_assert_eq!(S, order.support());
    // Lane-major shape weights, evaluated exactly as the per-particle
    // gather evaluates them; lanes past the pack keep zero weights.
    let mut sw = [[Lanes::zero(); S]; 3];
    for (l, f) in fracs.iter().enumerate() {
        for (d, axis) in sw.iter_mut().enumerate() {
            let mut w = [0.0; MAX_SUPPORT];
            order.weights(f[d], &mut w);
            for (a, lanes) in axis.iter_mut().enumerate() {
                lanes.0[l] = w[a];
            }
        }
    }
    let [sx, sy, sz] = sw;
    let mut acc = [Lanes::zero(); 6];
    for c in 0..S {
        for b in 0..S {
            for a in 0..S {
                let nd = (c * S + b) * S + a;
                let wl = (sx[a] * sy[b]) * sz[c];
                for (comp, lane_acc) in acc.iter_mut().enumerate() {
                    *lane_acc = lane_acc.mul_acc(wl, Lanes::splat(block.vals[comp][nd]));
                }
            }
        }
    }
    for lane_acc in &mut acc {
        lane_acc.0[n..].fill(0.0);
    }
    ([acc[0], acc[1], acc[2]], [acc[3], acc[4], acc[5]])
}

/// Charges the gather cost of one same-cell run of `n` particles whose
/// stencil block (`stencil`) was loaded **once** for the whole run: the
/// six field arrays pay one run-scoped block gather
/// (every distinct cache line charged at most once per array, see
/// [`Meter::v_touch_gather_block`]) instead of a per-particle
/// node sweep, while the interpolation arithmetic is still charged per
/// particle — batching amortises memory traffic, not FLOPs. Issued on
/// the meter of the tile sweep's [`Phase::Gather`] scope, one call per
/// run.
///
/// The sweep visits a tile's runs in sorted-cell order, so the previous
/// run's block (its lines are what `carry`, the tile sweep's, holds) is
/// still resident in lane registers — cache lines it covers are rotated
/// in place instead of re-gathered, and only the **new** lines are
/// charged, at the state-free streaming price: the block loads of
/// consecutive sorted runs sweep the field arrays in ascending order,
/// which the stream prefetcher services at bandwidth. `footprint` is
/// the byte span of one field array (guarded grid x 8), which the
/// machine's roofline crossover compares against L1 capacity — small
/// L1-resident grids are charged at the resident line price instead of
/// the DRAM stream price.
#[inline]
pub fn charge_gather_run(
    m: &mut Meter<'_>,
    cost: GatherCost,
    n: usize,
    field_addrs: &[VAddr; 6],
    stencil: &TensorBlock,
    carry: &mut LineCarry,
    footprint: u64,
) {
    m.v_touch_gather_block(field_addrs, stencil, carry, footprint);
    let chunks = n.div_ceil(VLANES);
    m.v_ops(cost.v_ops_per_chunk * chunks);
    m.record_flops((n * stencil.len() * 6 * 2) as f64);
}

/// Charges the gather cost of `n` particles touching `nodes` grid nodes
/// each across six field arrays whose bases are `field_addrs`; node
/// addresses are sampled from the particles' first node (`sample_idx`)
/// so cache behaviour tracks the real access stream.
pub fn charge_gather(
    m: &mut Machine,
    cost: GatherCost,
    n: usize,
    nodes: usize,
    field_addrs: &[VAddr; 6],
    sample_idx: &[usize],
) {
    m.in_phase(Phase::Gather, |m| {
        let mut p = 0;
        while p < n {
            let lanes = (n - p).min(VLANES);
            m.v_ops(cost.v_ops_per_chunk);
            // Six field arrays x nodes gathers; use the sampled node
            // index of each lane, offset per node to cover the stencil.
            // The lane indices are identical across the six arrays, so
            // they — and the line set they touch — are built once per
            // node.
            for node in 0..nodes.min(VLANES) {
                let mut idx = [0usize; VLANES];
                for (l, i) in (p..p + lanes).enumerate() {
                    idx[l] = sample_idx[i.min(sample_idx.len() - 1)] + node;
                }
                m.v_touch_gather_priced(Pricing::Walk, field_addrs, &idx[..lanes], 0);
            }
            p += lanes;
        }
        m.record_flops((n * nodes * 6 * 2) as f64);
    });
}

#[cfg(test)]
/// Two executable specifications the live gathers are held to bitwise.
///
/// The lane gather as it stood before the branch-free body — weights
/// particle-major, every node's accumulate masked to the lanes that hold
/// a particle — is what `conf_lane_gather_matches_masked_reference_bitwise`
/// holds the new body to, and — through [`reference::Mutant`] — the near
/// misses that test must reject.
///
/// The per-particle gather as it stood before it read its nodes from
/// `stencil_block` — cell and weights from the deposition staging record,
/// each axis's node coordinates wrapped one by one, a row walk over the
/// guarded array — is what `conf_gather_stencil_matches_row_walk_bitwise`
/// holds [`super::gather_fields_with_cell`] to.
mod reference {
    use super::*;
    use mpic_deposit::stage_particle;

    pub fn gather_fields_with_cell(
        geom: &GridGeometry,
        order: ShapeOrder,
        fields: &FieldArrays,
        x: f64,
        y: f64,
        z: f64,
    ) -> ([f64; 3], [f64; 3], [usize; 3]) {
        // Charge, momentum and weight are irrelevant for the shape
        // factors the staging record carries.
        let st = stage_particle(geom, order, 1.0, x, y, z, 0.0, 0.0, 0.0, 1.0);
        let s = order.support();
        let mut ni = [[0usize; MAX_SUPPORT]; 3];
        for (d, axis) in ni.iter_mut().enumerate() {
            let n = geom.n_cells[d] as i64;
            for (a, slot) in axis.iter_mut().enumerate().take(s) {
                let v = st.cell[d] as i64 + order.start_offset() + a as i64;
                *slot = v.rem_euclid(n) as usize + geom.guard;
            }
        }
        let dims = geom.dims_with_guard();
        let arrays = [
            fields.ex.as_slice(),
            fields.ey.as_slice(),
            fields.ez.as_slice(),
            fields.bx.as_slice(),
            fields.by.as_slice(),
            fields.bz.as_slice(),
        ];
        let mut acc = [0.0; 6];
        for c in 0..s {
            for bb in 0..s {
                let row = (ni[2][c] * dims[1] + ni[1][bb]) * dims[0];
                for a in 0..s {
                    let w = st.sx[a] * st.sy[bb] * st.sz[c];
                    let li = row + ni[0][a];
                    for (v, arr) in acc.iter_mut().zip(&arrays) {
                        *v += w * arr[li];
                    }
                }
            }
        }
        ([acc[0], acc[1], acc[2]], [acc[3], acc[4], acc[5]], st.cell)
    }

    /// A deliberate defect the bitwise test must catch.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Mutant {
        None,
        /// `w.mul_add(value, acc)` in place of multiply, then add.
        FusedMulAdd,
        /// `sx * (sy * sz)` in place of `(sx * sy) * sz`.
        SyTimesSzFirst,
    }

    pub fn gather_from_block_lanes_masked(
        order: ShapeOrder,
        block: &NodeBlock,
        fracs: &[[f64; 3]],
        mutant: Mutant,
    ) -> ([Lanes; 3], [Lanes; 3]) {
        let s = order.support();
        let n = fracs.len();
        let mut sw = [[[0.0f64; 4]; 3]; W];
        for (l, f) in fracs.iter().enumerate() {
            order.weights(f[0], &mut sw[l][0]);
            order.weights(f[1], &mut sw[l][1]);
            order.weights(f[2], &mut sw[l][2]);
        }
        let mut acc = [Lanes::zero(); 6];
        for c in 0..s {
            for bb in 0..s {
                for a in 0..s {
                    let nd = (c * s + bb) * s + a;
                    let mut wl = [0.0; W];
                    for (l, w) in wl.iter_mut().enumerate().take(n) {
                        *w = match mutant {
                            Mutant::SyTimesSzFirst => sw[l][0][a] * (sw[l][1][bb] * sw[l][2][c]),
                            _ => sw[l][0][a] * sw[l][1][bb] * sw[l][2][c],
                        };
                    }
                    let wl = Lanes(wl);
                    for (comp, lane_acc) in acc.iter_mut().enumerate() {
                        let v = block.vals[comp][nd];
                        // Lanes past `n` hold no particle and pass through.
                        *lane_acc = Lanes(std::array::from_fn(|l| match mutant {
                            _ if l >= n => lane_acc.0[l],
                            Mutant::FusedMulAdd => wl.0[l].mul_add(v, lane_acc.0[l]),
                            _ => lane_acc.0[l] + wl.0[l] * v,
                        }));
                    }
                }
            }
        }
        ([acc[0], acc[1], acc[2]], [acc[3], acc[4], acc[5]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (GridGeometry, FieldArrays) {
        let geom = GridGeometry::new([8, 8, 8], [0.0; 3], [1.0e-6; 3], 2);
        let fields = FieldArrays::new(&geom);
        (geom, fields)
    }

    #[test]
    fn uniform_field_gathers_exactly() {
        let (geom, mut fields) = setup();
        fields.ez.fill(5.0);
        fields.bx.fill(-2.0);
        for order in [ShapeOrder::Cic, ShapeOrder::Qsp] {
            let (e, b, _) = gather_fields_with_cell(&geom, order, &fields, 3.3e-6, 4.7e-6, 1.2e-6);
            assert!((e[2] - 5.0).abs() < 1e-12, "{order:?}");
            assert!((b[0] + 2.0).abs() < 1e-12, "{order:?}");
            assert!(e[0].abs() < 1e-12);
        }
    }

    #[test]
    fn linear_field_interpolated_linearly_cic() {
        let (geom, mut fields) = setup();
        // Ex = i (node x index) on the grid: at fractional position the
        // CIC gather must reproduce the linear profile.
        let [nx, ny, nz] = fields.ex.shape();
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    fields.ex.set(i, j, k, i as f64);
                }
            }
        }
        let (e, _, _) = gather_fields_with_cell(&geom, ShapeOrder::Cic, &fields, 2.25e-6, 0.0, 0.0);
        // x = 2.25 cells -> guarded node coordinate 4.25.
        assert!((e[0] - 4.25).abs() < 1e-12, "got {}", e[0]);
    }

    #[test]
    fn block_gather_is_bit_identical_to_per_particle_gather() {
        // Fill the fields with an irregular pattern and compare the
        // block-cached gather (a one-particle pack) against the
        // per-particle reference at many positions inside one cell: the
        // cell-run sweep's value-exactness claim, pinned bitwise.
        let (geom, mut fields) = setup();
        let [nx, ny, nz] = fields.ex.shape();
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let v = (i * 31 + j * 7 + k) as f64 * 0.013 - 1.7;
                    fields.ex.set(i, j, k, v);
                    fields.ey.set(i, j, k, -v * 0.5);
                    fields.ez.set(i, j, k, v * v * 1e-3);
                    fields.bx.set(i, j, k, 2.0 - v);
                    fields.by.set(i, j, k, v.sin());
                    fields.bz.set(i, j, k, 0.25 * v);
                }
            }
        }
        for order in [ShapeOrder::Cic, ShapeOrder::Qsp] {
            let mut block = NodeBlock::new();
            for t in 0..20 {
                let f = t as f64 / 20.0;
                let (x, y, z) = (
                    (3.0 + f) * 1e-6,
                    (4.0 + f * 0.77) * 1e-6,
                    (1.0 + f * 0.31) * 1e-6,
                );
                let (cell, frac) = geom.locate(x, y, z);
                load_node_block(&geom, order, &fields, cell, &mut block);
                let (e_want, b_want, _) = gather_fields_with_cell(&geom, order, &fields, x, y, z);
                let (e_got, b_got) = gather_from_block_lanes_masked(order, &block, &[frac]);
                for d in 0..3 {
                    assert_eq!(
                        e_got[d].lane(0).to_bits(),
                        e_want[d].to_bits(),
                        "{order:?} E[{d}]"
                    );
                    assert_eq!(
                        b_got[d].lane(0).to_bits(),
                        b_want[d].to_bits(),
                        "{order:?} B[{d}]"
                    );
                }
            }
        }
    }

    /// A full pack of positions inside the cell holding `anchor`, as
    /// `(position, located frac)` — the lane gather consumes the fracs,
    /// the per-particle reference the positions.
    fn pack_in_cell(
        geom: &GridGeometry,
        anchor: [f64; 3],
        offset: impl Fn(f64) -> [f64; 3],
    ) -> ([usize; 3], Vec<[f64; 3]>, Vec<[f64; 3]>) {
        let (cell, _) = geom.locate(anchor[0], anchor[1], anchor[2]);
        let mut pos = Vec::new();
        let mut fracs = Vec::new();
        for t in 0..W {
            let f = offset(t as f64 / W as f64);
            let x: [f64; 3] = std::array::from_fn(|d| (cell[d] as f64 + f[d]) * geom.dx[d]);
            let (at, frac) = geom.locate(x[0], x[1], x[2]);
            assert_eq!(at, cell, "test position left the anchor cell");
            pos.push(x);
            fracs.push(frac);
        }
        (cell, pos, fracs)
    }

    #[test]
    fn lane_gather_matches_scalar_block_gather_bitwise() {
        // Every lane of the lane gather must reproduce the per-particle
        // gather of its own particle bit for bit, at full width and on
        // ragged tails (1, W-1, W lanes).
        let (geom, mut fields) = setup();
        let [nx, ny, nz] = fields.ex.shape();
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let v = (i * 13 + j * 5 + k * 3) as f64 * 0.021 - 0.9;
                    fields.ex.set(i, j, k, v);
                    fields.ey.set(i, j, k, v * 1.5 - 0.2);
                    fields.ez.set(i, j, k, (v * 0.7).cos());
                    fields.bx.set(i, j, k, -v);
                    fields.by.set(i, j, k, v * v * 0.05);
                    fields.bz.set(i, j, k, 1.0 / (2.0 + v * v));
                }
            }
        }
        for order in [ShapeOrder::Cic, ShapeOrder::Qsp] {
            let mut block = NodeBlock::new();
            let (cell, pos, fracs) = pack_in_cell(&geom, [3.4e-6, 4.1e-6, 1.9e-6], |f| {
                [f * 0.9 + 0.05, (1.0 - f) * 0.8 + 0.1, f * f * 0.7 + 0.2]
            });
            load_node_block(&geom, order, &fields, cell, &mut block);
            for n in [1, W - 1, W] {
                let (e, b) = gather_from_block_lanes_masked(order, &block, &fracs[..n]);
                for (l, x) in pos[..n].iter().enumerate() {
                    let (e_want, b_want, _) =
                        gather_fields_with_cell(&geom, order, &fields, x[0], x[1], x[2]);
                    for d in 0..3 {
                        assert_eq!(
                            e[d].lane(l).to_bits(),
                            e_want[d].to_bits(),
                            "{order:?} n={n} lane {l} E[{d}]"
                        );
                        assert_eq!(
                            b[d].lane(l).to_bits(),
                            b_want[d].to_bits(),
                            "{order:?} n={n} lane {l} B[{d}]"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn conf_masked_tail_gather_matches_scalar_bitwise() {
        // The lane gather must return, for EVERY tail width 1..=W, active
        // lanes bit-identical to the per-particle gather (the scalar
        // reference) and exact zeros in the inactive tail lanes — the
        // contract that lets the push consume ragged runs without a
        // scalar remainder loop.
        let (geom, mut fields) = setup();
        let [nx, ny, nz] = fields.ex.shape();
        for k in 0..nz {
            for j in 0..ny {
                for i in 0..nx {
                    let v = (i * 17 + j * 3 + k * 11) as f64 * 0.017 - 1.1;
                    fields.ex.set(i, j, k, v);
                    fields.ey.set(i, j, k, v * 0.3 + 0.6);
                    fields.ez.set(i, j, k, (v * 0.4).sin());
                    fields.bx.set(i, j, k, 0.7 - v);
                    fields.by.set(i, j, k, v * v * 0.02);
                    fields.bz.set(i, j, k, 1.0 / (1.5 + v * v));
                }
            }
        }
        for order in [ShapeOrder::Cic, ShapeOrder::Qsp] {
            let mut block = NodeBlock::new();
            let (cell, pos, fracs) = pack_in_cell(&geom, [2.6e-6, 5.2e-6, 3.8e-6], |f| {
                [f * 0.85 + 0.05, (1.0 - f) * 0.7 + 0.15, f * f * 0.6 + 0.25]
            });
            load_node_block(&geom, order, &fields, cell, &mut block);
            for n in 1..=W {
                let (e, b) = gather_from_block_lanes_masked(order, &block, &fracs[..n]);
                for (l, x) in pos[..n].iter().enumerate() {
                    let (e_want, b_want, _) =
                        gather_fields_with_cell(&geom, order, &fields, x[0], x[1], x[2]);
                    for d in 0..3 {
                        assert_eq!(
                            e[d].lane(l).to_bits(),
                            e_want[d].to_bits(),
                            "{order:?} n={n} lane {l} E[{d}]"
                        );
                        assert_eq!(
                            b[d].lane(l).to_bits(),
                            b_want[d].to_bits(),
                            "{order:?} n={n} lane {l} B[{d}]"
                        );
                    }
                }
                for l in n..W {
                    for d in 0..3 {
                        assert_eq!(e[d].lane(l).to_bits(), 0, "{order:?} n={n} tail lane {l}");
                        assert_eq!(b[d].lane(l).to_bits(), 0, "{order:?} n={n} tail lane {l}");
                    }
                }
            }
        }
    }

    #[test]
    fn conf_lane_gather_matches_masked_reference_bitwise() {
        use reference::Mutant;
        // Every order x pack length x a frac set reaching both ends of
        // [0, 1) x blocks that are finite or hold ±inf / NaN at some
        // nodes: active lanes equal the masked reference, inactive lanes
        // are exact +0.0 — also where an infinite node value met their
        // zero weight.
        let edge = 1.0 - f64::EPSILON / 2.0;
        let mut rng = 0x2545_f491_4f6c_dd1d_u64;
        let mut unit = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut caught = [false; 2];
        for order in [ShapeOrder::Cic, ShapeOrder::Qsp] {
            for poison in [
                None,
                Some(f64::INFINITY),
                Some(f64::NEG_INFINITY),
                Some(f64::NAN),
            ] {
                let mut block = NodeBlock::new();
                for comp in block.vals.iter_mut() {
                    for (nd, v) in comp.iter_mut().enumerate().take(order.nodes_3d()) {
                        *v = match poison {
                            Some(p) if nd % 5 == 2 => p,
                            _ => unit() * 4.0 - 2.0,
                        };
                    }
                }
                let fracs: [[f64; 3]; W] = std::array::from_fn(|l| match l {
                    0 => [0.0, edge, unit()],
                    1 => [edge, 0.0, 0.0],
                    _ => [unit(), unit(), unit()],
                });
                for n in 1..=W {
                    let fracs = &fracs[W - n..];
                    let (e, b) = gather_from_block_lanes_masked(order, &block, fracs);
                    let want = |mutant| {
                        let (e, b) =
                            reference::gather_from_block_lanes_masked(order, &block, fracs, mutant);
                        [e, b]
                    };
                    let spec = want(Mutant::None);
                    for (f, (got, want)) in [e, b].iter().zip(&spec).enumerate() {
                        for d in 0..3 {
                            for l in 0..W {
                                let (g, w) = (got[d].lane(l), want[d].lane(l));
                                let what = format!("{order:?} {poison:?} n={n} {f}/{d} lane {l}");
                                // Sign and payload of a NaN result are
                                // not specified; everything else is bits.
                                assert!(
                                    g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                                    "{what}: {g:e} vs {w:e}"
                                );
                                if l >= n {
                                    assert_eq!(g.to_bits(), 0, "{what}: inactive lane");
                                }
                            }
                        }
                    }
                    if poison.is_none() {
                        for (mutant, caught) in [Mutant::FusedMulAdd, Mutant::SyTimesSzFirst]
                            .into_iter()
                            .zip(&mut caught)
                        {
                            *caught |= want(mutant) != spec;
                        }
                    }
                }
            }
        }
        assert_eq!(caught, [true; 2], "fused multiply-add, sy * sz first");
    }

    #[test]
    fn conf_gather_stencil_matches_row_walk_bitwise() {
        // The per-particle gather against the row walk it replaced, for
        // `(e, b, cell)` bit for bit: random positions (inside the
        // domain and up to one extent outside it), positions on every
        // periodic edge of every axis, on an ordinary grid and on one
        // narrower than the QSP support on every axis (wrapped stencil
        // offsets repeat, on a one-cell axis all of them).
        let mut rng = 0x6a09_e667_f3bc_c908_u64;
        let mut unit = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng >> 11) as f64 / (1u64 << 53) as f64
        };
        for n_cells in [[8, 8, 8], [3, 2, 1]] {
            let geom = GridGeometry::new(n_cells, [-1.5e-6, 0.0, 2.0e-6], [1.0e-6; 3], 2);
            let mut fields = FieldArrays::new(&geom);
            for arr in [
                &mut fields.ex,
                &mut fields.ey,
                &mut fields.ez,
                &mut fields.bx,
                &mut fields.by,
                &mut fields.bz,
            ] {
                for v in arr.as_mut_slice() {
                    *v = unit() * 4.0 - 2.0;
                }
            }
            let (lo, hi) = (geom.lo, geom.hi());
            let mut positions: Vec<[f64; 3]> = (0..200)
                .map(|_| std::array::from_fn(|d| lo[d] + (unit() * 3.0 - 1.0) * (hi[d] - lo[d])))
                .collect();
            let inner: [f64; 3] = std::array::from_fn(|d| lo[d] + 0.37 * (hi[d] - lo[d]));
            for d in 0..3 {
                let tiny = geom.dx[d] * 1e-9;
                for at in [
                    lo[d],
                    lo[d] + tiny,
                    lo[d] - tiny,
                    f64::from_bits((lo[d] - tiny).to_bits() - 1),
                    hi[d],
                    hi[d] - tiny,
                    hi[d] + tiny,
                    f64::from_bits(hi[d].to_bits() - 1),
                ] {
                    let mut x = inner;
                    x[d] = at;
                    positions.push(x);
                }
            }
            for order in [ShapeOrder::Cic, ShapeOrder::Qsp] {
                for x in &positions {
                    let got = gather_fields_with_cell(&geom, order, &fields, x[0], x[1], x[2]);
                    let want =
                        reference::gather_fields_with_cell(&geom, order, &fields, x[0], x[1], x[2]);
                    let what = format!("{n_cells:?} {order:?} at {x:?}");
                    assert_eq!(got.2, want.2, "{what}: cell");
                    for (g, w) in [got.0, got.1].iter().zip(&[want.0, want.1]) {
                        let bits = |v: &[f64; 3]| v.map(f64::to_bits);
                        assert_eq!(bits(g), bits(w), "{what}: {g:?} vs {w:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn lane_gather_rejects_oversized_packs() {
        let block = NodeBlock::new();
        let fracs = vec![[0.5; 3]; W + 1];
        let r = std::panic::catch_unwind(|| {
            gather_from_block_lanes_masked(ShapeOrder::Cic, &block, &fracs)
        });
        assert!(r.is_err(), "packs wider than W lanes must be rejected");
    }

    #[test]
    fn node_block_wraps_periodically() {
        // A boundary cell's block must target the same wrapped nodes the
        // per-particle gather touches (shared stencil_block), so values
        // gathered across the periodic seam stay exact.
        let (geom, mut fields) = setup();
        fields.ez.fill(3.25);
        let mut block = NodeBlock::new();
        load_node_block(&geom, ShapeOrder::Qsp, &fields, [0, 7, 0], &mut block);
        assert_eq!(block.stencil.len(), 64);
        let (_, frac) = geom.locate(0.4e-6, 7.6e-6, 0.1e-6);
        let (e, _) = gather_from_block_lanes_masked(ShapeOrder::Qsp, &block, &[frac]);
        assert!(
            (e[2].lane(0) - 3.25).abs() < 1e-12,
            "weights must sum to 1 over wrapped nodes"
        );
    }

    #[test]
    fn charge_gather_run_is_cheaper_than_per_particle_charge() {
        // The whole point of the batched cost model: a ppc-sized run
        // charges its stencil lines once, not once per particle.
        let mut per_particle = Machine::new(mpic_machine::MachineConfig::lx2());
        let mut batched = Machine::new(mpic_machine::MachineConfig::lx2());
        let addrs_a: [VAddr; 6] = std::array::from_fn(|_| per_particle.mem().alloc_f64(4096));
        let addrs_b: [VAddr; 6] = std::array::from_fn(|_| batched.mem().alloc_f64(4096));
        // One 64-particle run over an 8-node CIC stencil: the reference
        // path replays the node sweep for every 8-lane particle chunk,
        // the batched path loads the block once for the whole run.
        let stencil = TensorBlock::from_fn(2, |d, a| 100 + (a << d));
        charge_gather(
            &mut per_particle,
            GatherCost::default(),
            64,
            8,
            &addrs_a,
            &[100; 64],
        );
        batched.in_phase(Phase::Gather, |m| {
            charge_gather_run(
                m,
                GatherCost::default(),
                64,
                &addrs_b,
                &stencil,
                &mut LineCarry::new(),
                0,
            );
        });
        let (pp, bt) = (
            per_particle.counters().cycles(Phase::Gather),
            batched.counters().cycles(Phase::Gather),
        );
        assert!(
            bt < pp,
            "batched run charge {bt} must undercut per-particle {pp}"
        );
        assert_eq!(
            per_particle.counters().flops_issued,
            batched.counters().flops_issued,
            "batching amortises memory, not useful FLOPs"
        );
    }

    #[test]
    fn charge_gather_matches_one_gather_per_array_bitwise() {
        // The per-particle charge over a shuffled tile (random cells per
        // lane, ragged last chunk) shares one line set across the six
        // field arrays; counters and cache state must equal the plain
        // node x array x `v_touch_gather` sweep it replaces.
        let cfg = mpic_machine::MachineConfig::lx2();
        let mut shared = Machine::new(cfg.clone());
        let mut plain = Machine::new(cfg);
        let len = 20 * 20 * 20;
        let addrs: [VAddr; 6] = std::array::from_fn(|_| shared.mem().alloc_f64(len));
        for _ in 0..6 {
            let _ = plain.mem().alloc_f64(len);
        }
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        let sample_idx: Vec<usize> = (0..1003)
            .map(|_| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                (rng % (len as u64 - 8)) as usize
            })
            .collect();
        let (n, nodes) = (sample_idx.len(), 8);
        let cost = GatherCost::default();
        charge_gather(&mut shared, cost, n, nodes, &addrs, &sample_idx);
        plain.in_phase(Phase::Gather, |m| {
            for chunk in sample_idx.chunks(8) {
                m.v_ops(cost.v_ops_per_chunk);
                for node in 0..nodes {
                    let idx: Vec<usize> = chunk.iter().map(|i| i + node).collect();
                    for addr in &addrs {
                        m.v_touch_gather(*addr, &idx);
                    }
                }
            }
            m.record_flops((n * nodes * 6 * 2) as f64);
        });
        assert_eq!(
            shared.mem_ref().export_state(),
            plain.mem_ref().export_state()
        );
        let (a, b) = (shared.drain_counters(), plain.drain_counters());
        assert!(b.mem.l2.misses > 0 && b.mem.l1.hits > 0);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn gather_cost_is_charged() {
        let (_, _) = setup();
        let mut m = Machine::new(mpic_machine::MachineConfig::lx2());
        let addrs = std::array::from_fn(|_| m.mem().alloc_f64(1000));
        charge_gather(&mut m, GatherCost::default(), 64, 8, &addrs, &[0; 64]);
        assert!(m.counters().cycles(Phase::Gather) > 0.0);
        assert_eq!(m.counters().cycles(Phase::Compute), 0.0);
    }
}
