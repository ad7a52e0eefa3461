//! The rhocell intermediate accumulator (paper section 3.4, after
//! Vincenti et al.) extended to three current components and all shape
//! orders.
//!
//! For every tile cell, the contributions of that cell's particles to its
//! `support^3` surrounding nodes are accumulated contiguously (node
//! fastest, 64-byte aligned via the virtual address map), eliminating
//! write conflicts during the particle loop. A single O(N_cells)
//! reduction then scatter-adds the accumulators onto the global current
//! arrays (equation 5): [`Rhocell::charge_reduce`] is its one cost
//! traversal, at the walked or the streamed price, and
//! [`Rhocell::apply_to_grid`] its functional half.

use mpic_grid::{Array3, GridGeometry, Tile};
use mpic_machine::{LineCarry, Machine, Meter, Phase, Pricing, TensorBlock, VAddr, VReg, VLANES};

use crate::common::stencil_block;
use crate::shape::{ShapeOrder, MAX_NODES_3D};

/// Per-tile rhocell accumulators for Jx, Jy and Jz.
#[derive(Debug, Clone)]
pub struct Rhocell {
    order: ShapeOrder,
    n_cells: usize,
    nodes: usize,
    /// Layout: `((comp * n_cells) + cell) * nodes + node`.
    data: Vec<f64>,
}

impl Rhocell {
    /// Allocates zeroed accumulators for a tile of `n_cells` cells.
    pub fn new(order: ShapeOrder, n_cells: usize) -> Self {
        let nodes = order.nodes_3d();
        Self {
            order,
            n_cells,
            nodes,
            data: vec![0.0; 3 * n_cells * nodes],
        }
    }

    /// Shape order the accumulator was built for.
    pub fn order(&self) -> ShapeOrder {
        self.order
    }

    /// Total f64 footprint (for address-map sizing).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Byte footprint of the whole accumulator (all three components) —
    /// the operand span the roofline crossover compares against L1
    /// capacity when the cell slices are streamed (the sweep interleaves
    /// components per cell, so the resident set is the full array).
    /// Passed as the `footprint` argument of the priced machine calls.
    pub fn footprint_bytes(&self) -> u64 {
        (self.data.len() * 8) as u64
    }

    /// Whether the accumulator is empty (zero cells).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Zeroes all accumulators.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
    }

    /// Linear element index of `(comp, cell, node)`.
    #[inline]
    pub fn index(&self, comp: usize, cell: usize, node: usize) -> usize {
        debug_assert!(comp < 3 && cell < self.n_cells && node < self.nodes);
        (comp * self.n_cells + cell) * self.nodes + node
    }

    /// Adds `v` to one accumulator element.
    #[inline]
    pub fn add(&mut self, comp: usize, cell: usize, node: usize, v: f64) {
        let i = self.index(comp, cell, node);
        self.data[i] += v;
    }

    /// Mutable view of one cell's accumulator for one component.
    pub fn cell_slice_mut(&mut self, comp: usize, cell: usize) -> &mut [f64] {
        let i = self.index(comp, cell, 0);
        let n = self.nodes;
        &mut self.data[i..i + n]
    }

    /// Adds the first `w` lanes of `contrib` onto the accumulator slice
    /// `(comp, cell, node..node + w)`: the load / add / store pass every
    /// rhocell kernel retires a run (or a particle) with, priced at
    /// `pricing`. `rho_addr` is the accumulator's base address. Sorted
    /// runs visit consecutive cells, so under [`Pricing::Stream`] the
    /// passes form a dense ascending sweep priced as a stream instead of
    /// a cache walk. Called per run inside the kernels' Compute scope,
    /// so inlined into it (see [`Machine::in_phase`]).
    #[inline(always)]
    pub fn accumulate(
        &mut self,
        m: &mut Meter<'_>,
        pricing: Pricing,
        rho_addr: VAddr,
        comp: usize,
        cell: usize,
        node: usize,
        w: usize,
        contrib: VReg,
    ) {
        let i = self.index(comp, cell, node);
        let addr = rho_addr.offset_f64(i);
        let footprint = self.footprint_bytes();
        let cur = m.v_load_priced(pricing, addr, &self.data[i..i + w], footprint);
        let sum = m.v_add(cur, contrib);
        m.v_store_priced(pricing, addr, sum, &mut self.data[i..i + w], w, footprint);
    }

    /// The one cell walk of the reduction — [`Rhocell::charge_reduce`]
    /// and [`Rhocell::apply_to_grid`]: `(accumulator cell, physical cell)`
    /// over the tile this accumulator was sized for, in cell order.
    /// Driven with `for_each`, which runs the nested ranges as plain
    /// nested loops (a `for` would step the flattened iterator's state
    /// machine once per cell).
    fn cells(&self, tile: &Tile) -> impl Iterator<Item = (usize, [usize; 3])> {
        debug_assert_eq!(self.n_cells, tile.num_cells());
        tile.cells()
    }

    /// Grid node indices of every accumulator slot of the cell at
    /// physical coordinates `gc`, in node order (shared by all three
    /// components, whose arrays are congruent), written into a
    /// caller-provided stack buffer. (Spelt out inside
    /// [`Rhocell::apply_to_grid`] instead, the same expansion measured
    /// 10 % slower on `rhocell_apply_8x8x64_cic`.)
    fn cell_node_indices(&self, geom: &GridGeometry, gc: [usize; 3], idx: &mut [usize]) {
        stencil_block(geom, self.order, gc).for_each_node(|node, i| idx[node] = i);
    }

    /// Charges the reduction of the accumulators onto the global current
    /// arrays (Algorithm 2 Stage 3) to [`Phase::Reduce`] without touching
    /// grid data: one walk over the tile's cells, two prices. The
    /// functional half is [`Rhocell::apply_to_grid`] either way — the
    /// parallel driver charges per worker and applies values in
    /// deterministic tile order — so the pricing changes *only* the
    /// counters. `rho_addr` is the tile's rhocell base; `j_addr` the
    /// three grid bases.
    ///
    /// A component whose node vector is all zero pays one masked zero
    /// test (`s_ops(1)`) and nothing else — all-zero cells are common in
    /// sparse tiles — so sparse-tile pricing is the same in both modes.
    /// A live component pays no test; it is charged as follows.
    ///
    /// * [`Pricing::Walk`] — the per-component sweep, right where the
    ///   component is met: the cell's node vector in full-width chunks
    ///   (CIC's 8 nodes are one register, QSP's 64 are eight), each a
    ///   walked node-vector load plus a grid scatter-add with conflict
    ///   pricing.
    /// * [`Pricing::Stream`] — the cell's live components are folded in
    ///   **one pass** priced by [`Meter::v_touch_reduce_block_reuse`]:
    ///   scatter address generation paid once per node (not once per
    ///   node per component) and each component's distinct destination
    ///   cache lines charged once. Consecutive cells in the sweep have
    ///   heavily overlapping stencils, and the fused fold keeps the
    ///   previous cell's destination lines in the store buffer: while
    ///   the **live-component set** stays what the preceding folded cell
    ///   had — the only case in which the destination lists pair up —
    ///   lines that cell already wrote charge nothing. The reuse state is
    ///   a [`LineCarry`] owned by this invocation (per tile, per call),
    ///   reset when the set changes and advanced in cell order, so the
    ///   charge stream is deterministic across worker counts.
    pub fn charge_reduce(
        &self,
        m: &mut Machine,
        pricing: Pricing,
        geom: &GridGeometry,
        tile: &Tile,
        rho_addr: VAddr,
        j_addr: [VAddr; 3],
    ) {
        m.in_phase(Phase::Reduce, |m| {
            let mut block = TensorBlock::EMPTY;
            // The walked scatters' node list.
            let mut idx = [0usize; MAX_NODES_3D];
            // What the preceding folded cell left in the store buffer,
            // and the live-component set it was folded under (0: none).
            let mut carry = LineCarry::new();
            let mut carry_mask = 0u8;
            // Roofline footprints for the streamed prices: the whole
            // accumulator on the source side (the sweep interleaves
            // components), one guarded current array on the destination
            // side (each component scatters into its own array).
            let src_footprint = self.footprint_bytes();
            let dims = geom.dims_with_guard();
            let dst_footprint = (dims[0] * dims[1] * dims[2] * 8) as u64;
            self.cells(tile).for_each(|(cell, gc)| {
                let mut srcs = [VAddr(0); 3];
                let mut dsts = [VAddr(0); 3];
                let mut active = 0usize;
                let mut mask = 0u8;
                for comp in 0..3 {
                    let slice_start = self.index(comp, cell, 0);
                    let src = &self.data[slice_start..slice_start + self.nodes];
                    if src.iter().all(|&v| v == 0.0) {
                        m.s_ops(1);
                        continue;
                    }
                    if mask == 0 {
                        block = stencil_block(geom, self.order, gc);
                        if pricing == Pricing::Walk {
                            block.for_each_node(|node, i| idx[node] = i);
                        }
                    }
                    mask |= 1 << comp;
                    match pricing {
                        Pricing::Walk => {
                            let mut node = 0;
                            while node < self.nodes {
                                let n = (self.nodes - node).min(VLANES);
                                m.v_touch_load(rho_addr.offset_f64(slice_start + node), n);
                                m.v_touch_scatter_add(j_addr[comp], &idx[node..node + n]);
                                node += n;
                            }
                        }
                        Pricing::Stream => {
                            srcs[active] = rho_addr.offset_f64(slice_start);
                            dsts[active] = j_addr[comp];
                            active += 1;
                        }
                    }
                }
                if active > 0 {
                    if mask != carry_mask {
                        carry.reset();
                        carry_mask = mask;
                    }
                    m.v_touch_reduce_block_reuse(
                        &srcs[..active],
                        &dsts[..active],
                        &block,
                        &mut carry,
                        src_footprint,
                        dst_footprint,
                    );
                }
            });
        });
    }

    /// Applies the accumulated values onto the grid (the functional half
    /// of the reduction; no cost model). Adds run in (cell, component,
    /// node) order, so calling this per tile in tile order reproduces the
    /// sequential reduction bit for bit regardless of how the rhocells
    /// were computed.
    pub fn apply_to_grid(
        &self,
        geom: &GridGeometry,
        tile: &Tile,
        jx: &mut Array3,
        jy: &mut Array3,
        jz: &mut Array3,
    ) {
        let mut idx = [0usize; MAX_NODES_3D];
        self.cells(tile).for_each(|(cell, gc)| {
            let mut indices_ready = false;
            for (comp, arr) in [&mut *jx, &mut *jy, &mut *jz].into_iter().enumerate() {
                let slice_start = self.index(comp, cell, 0);
                let src = &self.data[slice_start..slice_start + self.nodes];
                if src.iter().all(|&v| v == 0.0) {
                    continue;
                }
                if !indices_ready {
                    self.cell_node_indices(geom, gc, &mut idx);
                    indices_ready = true;
                }
                let dst = arr.as_mut_slice();
                for (nd, &v) in src.iter().enumerate() {
                    dst[idx[nd]] += v;
                }
            }
        });
    }
}

#[cfg(test)]
/// The two charge traversals [`Rhocell::charge_reduce`] replaced — the
/// walked per-component sweep and the streamed fused fold, each with its
/// own cell walk — kept as the executable specification
/// `conf_rhocell_reduce_matches_reference_bitwise` holds the single
/// traversal to, and — through [`reference::Mutant`] — the near misses
/// that test must reject.
mod reference {
    use super::*;

    /// A deliberate defect the bitwise test must catch.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Mutant {
        None,
        /// A cell's three zero-test `s_ops(1)` charged before any live
        /// component's loads and scatters.
        HoistedZeroTests,
        /// The previous cell's lines carried over even when its
        /// live-component set differs.
        ReuseAcrossMaskChange,
    }

    pub fn charge_reduction(
        r: &Rhocell,
        m: &mut Machine,
        geom: &GridGeometry,
        tile: &Tile,
        rho_addr: VAddr,
        j_addr: [VAddr; 3],
        mutant: Mutant,
    ) {
        m.in_phase(Phase::Reduce, |m| {
            let mut idx = [0usize; MAX_NODES_3D];
            r.cells(tile).for_each(|(cell, gc)| {
                let zero = |comp: usize| {
                    let slice_start = r.index(comp, cell, 0);
                    let src = &r.data[slice_start..slice_start + r.nodes];
                    src.iter().all(|&v| v == 0.0)
                };
                if mutant == Mutant::HoistedZeroTests {
                    for _ in (0..3).filter(|&comp| zero(comp)) {
                        m.s_ops(1);
                    }
                }
                let mut indices_ready = false;
                for comp in 0..3 {
                    let slice_start = r.index(comp, cell, 0);
                    if zero(comp) {
                        if mutant != Mutant::HoistedZeroTests {
                            m.s_ops(1);
                        }
                        continue;
                    }
                    if !indices_ready {
                        stencil_block(geom, r.order, gc).for_each_node(|node, i| idx[node] = i);
                        indices_ready = true;
                    }
                    let mut node = 0;
                    while node < r.nodes {
                        let n = (r.nodes - node).min(VLANES);
                        m.v_touch_load(rho_addr.offset_f64(slice_start + node), n);
                        m.v_touch_scatter_add(j_addr[comp], &idx[node..node + n]);
                        node += n;
                    }
                }
            });
        });
    }

    pub fn charge_reduction_fused(
        r: &Rhocell,
        m: &mut Machine,
        geom: &GridGeometry,
        tile: &Tile,
        rho_addr: VAddr,
        j_addr: [VAddr; 3],
        mutant: Mutant,
    ) {
        m.in_phase(Phase::Reduce, |m| {
            let mut carry = LineCarry::new();
            let mut prev_live = false;
            let mut prev_mask = 0u8;
            let src_footprint = r.footprint_bytes();
            let dims = geom.dims_with_guard();
            let dst_footprint = (dims[0] * dims[1] * dims[2] * 8) as u64;
            r.cells(tile).for_each(|(cell, gc)| {
                let mut srcs = [VAddr(0); 3];
                let mut dsts = [VAddr(0); 3];
                let mut active = 0usize;
                let mut mask = 0u8;
                for comp in 0..3 {
                    let slice_start = r.index(comp, cell, 0);
                    let src = &r.data[slice_start..slice_start + r.nodes];
                    if src.iter().all(|&v| v == 0.0) {
                        m.s_ops(1);
                        continue;
                    }
                    srcs[active] = rho_addr.offset_f64(slice_start);
                    dsts[active] = j_addr[comp];
                    active += 1;
                    mask |= 1 << comp;
                }
                if active == 0 {
                    return;
                }
                let same = prev_mask == mask || mutant == Mutant::ReuseAcrossMaskChange;
                if !(prev_live && same) {
                    carry.reset();
                }
                m.v_touch_reduce_block_reuse(
                    &srcs[..active],
                    &dsts[..active],
                    &stencil_block(geom, r.order, gc),
                    &mut carry,
                    src_footprint,
                    dst_footprint,
                );
                prev_live = true;
                prev_mask = mask;
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::node_coord;
    use mpic_machine::MachineConfig;

    fn setup() -> (GridGeometry, Tile, Machine) {
        let geom = GridGeometry::new([8, 8, 8], [0.0; 3], [1.0e-6; 3], 2);
        let tile = Tile {
            lo: [0, 0, 0],
            hi: [8, 8, 8],
        };
        (geom, tile, Machine::new(MachineConfig::lx2()))
    }

    #[test]
    fn index_layout_is_node_fastest() {
        let r = Rhocell::new(ShapeOrder::Cic, 4);
        assert_eq!(r.index(0, 0, 1), r.index(0, 0, 0) + 1);
        assert_eq!(r.index(0, 1, 0), r.index(0, 0, 0) + 8);
        assert_eq!(r.index(1, 0, 0), r.index(0, 0, 0) + 32);
    }

    #[test]
    fn add_and_slices() {
        let mut r = Rhocell::new(ShapeOrder::Cic, 2);
        r.add(1, 1, 3, 2.5);
        assert_eq!(r.cell_slice_mut(1, 1)[3], 2.5);
        assert_eq!(r.data.iter().sum::<f64>(), 2.5, "and nowhere else");
        r.clear();
        assert!(r.data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn reduce_scatter_adds_to_grid() {
        let (geom, tile, mut m) = setup();
        let mut r = Rhocell::new(ShapeOrder::Cic, tile.num_cells());
        // Cell (0,0,0), Jx, node (1,1,1) — the last of the CIC block's
        // node order — lands on grid node (0+1+g, 0+1+g, 0+1+g) with
        // guard g=2.
        r.add(0, 0, 7, 7.0);
        let dims = geom.dims_with_guard();
        let len = dims[0] * dims[1] * dims[2];
        let mut jx = Array3::zeros(dims[0], dims[1], dims[2]);
        let mut jy = jx.clone();
        let mut jz = jx.clone();
        let rho_addr = m.mem().alloc_f64(r.len());
        let ja = [
            m.mem().alloc_f64(len),
            m.mem().alloc_f64(len),
            m.mem().alloc_f64(len),
        ];
        r.charge_reduce(&mut m, Pricing::Walk, &geom, &tile, rho_addr, ja);
        r.apply_to_grid(&geom, &tile, &mut jx, &mut jy, &mut jz);
        assert_eq!(jx.get(3, 3, 3), 7.0);
        assert_eq!(jx.sum(), 7.0);
        assert_eq!(jy.sum(), 0.0);
        assert!(m.counters().cycles(Phase::Reduce) > 0.0);
    }

    #[test]
    fn reduce_wraps_periodic_nodes() {
        let (geom, tile, mut m) = setup();
        let mut r = Rhocell::new(ShapeOrder::Qsp, tile.num_cells());
        // Cell (0,0,0) with QSP: node (0,0,0), the block's first, is
        // cell -1 -> wraps to physical 7 -> guarded index 9.
        r.add(2, 0, 0, 1.5);
        let dims = geom.dims_with_guard();
        let len = dims[0] * dims[1] * dims[2];
        let mut jx = Array3::zeros(dims[0], dims[1], dims[2]);
        let mut jy = jx.clone();
        let mut jz = jx.clone();
        let rho_addr = m.mem().alloc_f64(r.len());
        let ja = [
            m.mem().alloc_f64(len),
            m.mem().alloc_f64(len),
            m.mem().alloc_f64(len),
        ];
        r.charge_reduce(&mut m, Pricing::Walk, &geom, &tile, rho_addr, ja);
        r.apply_to_grid(&geom, &tile, &mut jx, &mut jy, &mut jz);
        assert_eq!(jz.get(9, 9, 9), 1.5);
    }

    /// The shared cell walk visits `(id, Tile::global_cell(id))` for
    /// every id in order, and the stencil blocks built from its cells
    /// expand to the per-node `node_coord` products — on clipped edge
    /// tiles and for every shape order.
    #[test]
    fn conf_rhocell_cell_walk_matches_global_cell() {
        let geom = GridGeometry::new([10, 10, 10], [0.0; 3], [1.0e-6; 3], 2);
        let layout = mpic_grid::TileLayout::new(&geom, [8, 8, 8]);
        let dims = geom.dims_with_guard();
        for order in [ShapeOrder::Cic, ShapeOrder::Qsp] {
            let s = order.support();
            for tile in layout.iter() {
                let r = Rhocell::new(order, tile.num_cells());
                let walk: Vec<_> = r.cells(tile).collect();
                let want: Vec<_> = (0..tile.num_cells())
                    .map(|id| (id, tile.global_cell(id)))
                    .collect();
                assert_eq!(walk, want, "{tile:?}");
                // Mutant: the same cells with y fastest.
                let [sx, sy, sz] = tile.size();
                let y_fastest: Vec<_> = (0..sz)
                    .flat_map(|k| (0..sx).flat_map(move |i| (0..sy).map(move |j| [i, j, k])))
                    .map(|[i, j, k]| [tile.lo[0] + i, tile.lo[1] + j, tile.lo[2] + k])
                    .enumerate()
                    .collect();
                assert_eq!(y_fastest.len(), want.len());
                assert_ne!(y_fastest, want, "{tile:?}: walk order must matter");
                for (id, gc) in walk {
                    let block = stencil_block(&geom, order, gc);
                    assert_eq!(block.len(), r.nodes);
                    let gc = tile.global_cell(id);
                    block.for_each_node(|nd, got| {
                        let (a, b, c) = (nd % s, nd / s % s, nd / (s * s));
                        let node = |d: usize, off: usize| node_coord(&geom, order, d, gc[d], off);
                        let want = (node(2, c) * dims[1] + node(1, b)) * dims[0] + node(0, a);
                        assert_eq!(got, want, "{order:?} {tile:?} cell {id} node {nd}");
                    });
                }
            }
        }
    }

    #[test]
    fn qsp_footprint() {
        let mut r = Rhocell::new(ShapeOrder::Qsp, 512);
        assert_eq!(r.len(), 3 * 512 * 64);
        assert_eq!(r.cell_slice_mut(2, 511).len(), 64);
    }

    #[test]
    fn fused_reduction_charge_undercuts_per_component_sweep() {
        // Same accumulator content, fresh machines: the fused traversal
        // must charge strictly fewer Reduce cycles — shared address
        // generation and once-per-line destination touches are the
        // saving the streamed reduction claims.
        let (geom, tile, _) = setup();
        let mut r = Rhocell::new(ShapeOrder::Cic, tile.num_cells());
        // A mix of fully-active and partial-active cells.
        for cell in [0usize, 1, 9, 100] {
            for comp in 0..3 {
                if cell == 9 && comp > 0 {
                    continue; // Cell 9: Jx only (partial-active fold).
                }
                for node in 0..8 {
                    r.add(comp, cell, node, 0.5 + cell as f64 + node as f64);
                }
            }
        }
        let dims = geom.dims_with_guard();
        let len = dims[0] * dims[1] * dims[2];
        let charge = |pricing: Pricing| -> f64 {
            let mut m = Machine::new(MachineConfig::lx2());
            let rho_addr = m.mem().alloc_f64(r.len());
            let ja = [
                m.mem().alloc_f64(len),
                m.mem().alloc_f64(len),
                m.mem().alloc_f64(len),
            ];
            r.charge_reduce(&mut m, pricing, &geom, &tile, rho_addr, ja);
            m.counters().cycles(Phase::Reduce)
        };
        let swept = charge(Pricing::Walk);
        let fused = charge(Pricing::Stream);
        assert!(
            fused < swept,
            "fused {fused} must undercut per-component {swept}"
        );
    }

    #[test]
    fn fused_reduction_charge_matches_sweep_on_empty_tiles() {
        // An all-zero rhocell charges only the per-component skip test,
        // identically in both modes: sparse-tile pricing stays aligned.
        let (geom, tile, _) = setup();
        let r = Rhocell::new(ShapeOrder::Cic, tile.num_cells());
        let dims = geom.dims_with_guard();
        let len = dims[0] * dims[1] * dims[2];
        let charge = |pricing: Pricing| -> u64 {
            let mut m = Machine::new(MachineConfig::lx2());
            let rho_addr = m.mem().alloc_f64(r.len());
            let ja = [
                m.mem().alloc_f64(len),
                m.mem().alloc_f64(len),
                m.mem().alloc_f64(len),
            ];
            r.charge_reduce(&mut m, pricing, &geom, &tile, rho_addr, ja);
            m.counters().cycles(Phase::Reduce).to_bits()
        };
        assert_eq!(charge(Pricing::Walk), charge(Pricing::Stream));
    }

    /// The single traversal against both traversals it replaced, on
    /// twin machines: counters and cache state after every tile, for
    /// CIC and QSP accumulators over clipped edge tiles whose cells run
    /// through all-zero and every partial live-component set, changing
    /// between neighbours.
    #[test]
    fn conf_rhocell_reduce_matches_reference_bitwise() {
        use reference::Mutant;
        let geom = GridGeometry::new([10, 10, 10], [0.0; 3], [1.0e-6; 3], 2);
        let layout = mpic_grid::TileLayout::new(&geom, [8, 8, 8]);
        let dims = geom.dims_with_guard();
        let len = dims[0] * dims[1] * dims[2];
        let mut caught = [false; 2];
        // The LX2 prices are all dyadic, so their sums are exact in any
        // order; a scalar price that is not makes the add order of the
        // zero tests visible, as any retuned cost table would.
        let cfg = MachineConfig {
            scalar_arith_cy: 0.3,
            ..MachineConfig::lx2()
        };
        for order in [ShapeOrder::Cic, ShapeOrder::Qsp] {
            let mut new = Machine::new(cfg.clone());
            let mut old = Machine::new(cfg.clone());
            let mut tiles = Vec::new();
            for m in [&mut new, &mut old] {
                tiles = layout
                    .iter()
                    .map(|tile| (tile, m.mem().alloc_f64(3 * tile.num_cells() * 64)))
                    .collect();
            }
            let mut ja = [VAddr(0); 3];
            for m in [&mut new, &mut old] {
                ja = std::array::from_fn(|_| m.mem().alloc_f64(len));
            }
            let mut masks = [false; 8];
            for (t, &(tile, rho_addr)) in tiles.iter().enumerate() {
                let mut r = Rhocell::new(order, tile.num_cells());
                for cell in 0..tile.num_cells() {
                    // Runs of equal masks (reuse granted) broken by
                    // every other mask, 0 = an all-zero cell.
                    let mask = (cell / 2 * 5 + cell / 14 + t) % 8;
                    masks[mask] = true;
                    for comp in (0..3).filter(|comp| mask >> comp & 1 == 1) {
                        for node in (cell % 3..r.nodes).step_by(3) {
                            r.add(comp, cell, node, 0.5 + (cell + node) as f64);
                        }
                    }
                }
                for pricing in [Pricing::Walk, Pricing::Stream] {
                    let reference = |m: &mut Machine, mutant: Mutant| {
                        match pricing {
                            Pricing::Walk => reference::charge_reduction(
                                &r, m, &geom, tile, rho_addr, ja, mutant,
                            ),
                            Pricing::Stream => reference::charge_reduction_fused(
                                &r, m, &geom, tile, rho_addr, ja, mutant,
                            ),
                        }
                        format!("{:?}", m.drain_counters())
                    };
                    for (mutant, caught) in
                        [Mutant::HoistedZeroTests, Mutant::ReuseAcrossMaskChange]
                            .into_iter()
                            .zip(&mut caught)
                    {
                        let (mut a, mut b) = (old.clone(), old.clone());
                        *caught |= reference(&mut a, mutant) != reference(&mut b, Mutant::None);
                    }
                    let want = reference(&mut old, Mutant::None);
                    r.charge_reduce(&mut new, pricing, &geom, tile, rho_addr, ja);
                    let what = format!("{order:?} {pricing:?} {tile:?}");
                    assert_eq!(format!("{:?}", new.drain_counters()), want, "{what}");
                    assert_eq!(
                        new.mem_ref().export_state(),
                        old.mem_ref().export_state(),
                        "{what}"
                    );
                }
            }
            assert_eq!(masks, [true; 8], "{order:?}: every component mask");
        }
        assert_eq!(caught, [true; 2], "hoisted zero tests, reuse across masks");
    }
}
