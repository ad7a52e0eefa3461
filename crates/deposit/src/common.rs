//! Shared helpers for all deposition kernels: relativistic velocity
//! recovery, per-particle staging records and the virtual-address map
//! that lets kernels present realistic address streams to the cache
//! model.

use mpic_grid::constants::C;
use mpic_grid::{Array3, GridGeometry};
use mpic_machine::{Machine, Pricing, TensorBlock, VAddr};

use crate::shape::{ShapeOrder, MAX_SUPPORT};

/// Recovers velocity (m/s) from normalised momentum u = gamma v / c.
#[inline]
pub fn velocity_from_u(ux: f64, uy: f64, uz: f64) -> (f64, f64, f64) {
    let gamma = (1.0 + ux * ux + uy * uy + uz * uz).sqrt();
    let f = C / gamma;
    (ux * f, uy * f, uz * f)
}

/// Staged per-particle deposition data — the output of the paper's VPU
/// preprocessing stage (Algorithm 2 Stage 1), stored in temporary arrays
/// before the compute stage consumes it.
#[derive(Debug, Clone, Copy)]
pub struct Staged {
    /// Wrapped physical cell index.
    pub cell: [usize; 3],
    /// Effective current terms `q * v * W / V_cell` per component.
    pub wq: [f64; 3],
    /// 1-D shape weights per dimension.
    pub sx: [f64; MAX_SUPPORT],
    /// 1-D shape weights per dimension.
    pub sy: [f64; MAX_SUPPORT],
    /// 1-D shape weights per dimension.
    pub sz: [f64; MAX_SUPPORT],
}

/// Computes the staged record for one particle (no cost charging; the
/// emulated kernels charge their own instruction streams and use this
/// only for the functional values).
#[inline]
pub fn stage_particle(
    geom: &GridGeometry,
    order: ShapeOrder,
    charge: f64,
    x: f64,
    y: f64,
    z: f64,
    ux: f64,
    uy: f64,
    uz: f64,
    w: f64,
) -> Staged {
    let (cell, frac) = geom.locate(x, y, z);
    let (vx, vy, vz) = velocity_from_u(ux, uy, uz);
    let qw = charge * w / geom.cell_volume();
    let mut sx = [0.0; MAX_SUPPORT];
    let mut sy = [0.0; MAX_SUPPORT];
    let mut sz = [0.0; MAX_SUPPORT];
    order.weights(frac[0], &mut sx);
    order.weights(frac[1], &mut sy);
    order.weights(frac[2], &mut sz);
    Staged {
        cell,
        wq: [qw * vx, qw * vy, qw * vz],
        sx,
        sy,
        sz,
    }
}

/// Wrapped, guarded node coordinate along axis `d` for support offset
/// `a` of a particle in physical cell `cell_d`.
///
/// The per-node specification of the periodic node wrap: [`stencil_block`]
/// wraps its first node per axis here and steps the rest, and
/// [`reference_deposit`](crate::scalar::reference_deposit) and the
/// stencil tests hold the block to this helper node by node.
#[inline]
pub(crate) fn node_coord(
    geom: &GridGeometry,
    order: ShapeOrder,
    d: usize,
    cell_d: usize,
    a: usize,
) -> usize {
    let n = geom.n_cells[d] as i64;
    let mut v = cell_d as i64 + order.start_offset() + a as i64;
    // In-bounds cells land at most one period outside [0, n): a
    // conditional add/sub replaces the `rem_euclid` division on the hot
    // path (this runs per stencil node per particle), with the division
    // kept as the fallback for out-of-range callers.
    if v < 0 {
        v += n;
    } else if v >= n {
        v -= n;
    }
    if !(0..n).contains(&v) {
        v = v.rem_euclid(n);
    }
    v as usize + geom.guard
}

/// The stencil of physical cell `cell` as offsets into one guarded grid
/// array: per axis, the `node_coord`s times the axis stride — node
/// `(a, b, c)` of the block is the linear index of stencil node
/// `(a, b, c)`, `axis(0)[a] + axis(1)[b] + axis(2)[c]`. The one source
/// of stencil node indices: every gather and every deposit targets the
/// nodes of this block, and the block touches hand it to the machine.
/// Always inlined: it runs per cell and per run, and out of line the
/// block comes back through memory (the reduction's apply pass measured
/// 9 % slower with the call).
#[inline(always)]
pub fn stencil_block(geom: &GridGeometry, order: ShapeOrder, cell: [usize; 3]) -> TensorBlock {
    let dims = geom.dims_with_guard();
    let stride = [1, dims[0], dims[0] * dims[1]];
    // A stencil's nodes are consecutive modulo the period: wrap the
    // first, step the rest.
    let mut off = [[0; MAX_SUPPORT]; 3];
    for (d, axis) in off.iter_mut().enumerate() {
        let mut node = node_coord(geom, order, d, cell[d], 0);
        for slot in &mut axis[..order.support()] {
            *slot = node * stride[d];
            node += 1;
            if node == geom.n_cells[d] + geom.guard {
                node = geom.guard;
            }
        }
    }
    TensorBlock::new(order.support(), off)
}

/// Virtual base addresses of the structures a deposition step touches,
/// registered once so the cache simulation sees stable, realistic
/// addresses across timesteps.
#[derive(Debug, Clone)]
pub struct AddrMap {
    /// Global current arrays.
    pub jx: VAddr,
    /// Global current arrays.
    pub jy: VAddr,
    /// Global current arrays.
    pub jz: VAddr,
    /// Per-tile SoA attribute bases `[x, y, z, ux, uy, uz, w]`.
    pub soa: Vec<[VAddr; 7]>,
    /// Per-tile GPMA `local_index` base.
    pub local_index: Vec<VAddr>,
    /// Per-tile rhocell base (all three components, contiguous).
    pub rhocell: Vec<VAddr>,
    /// Staging scratch (shape factors, weights) shared across tiles.
    pub staging: VAddr,
}

impl AddrMap {
    /// Allocates the address map.
    ///
    /// `grid_len` is the guarded length of each J array; `tile_particle
    /// capacity` entries reserve SoA/GPMA space per tile (over-allocated
    /// 2x so address streams stay disjoint as tiles grow);
    /// `rhocell_len` is the per-tile rhocell footprint in f64 elements.
    pub fn new(
        m: &mut Machine,
        grid_len: usize,
        tile_capacities: &[usize],
        rhocell_len: usize,
    ) -> Self {
        let jx = m.mem().alloc_f64(grid_len);
        let jy = m.mem().alloc_f64(grid_len);
        let jz = m.mem().alloc_f64(grid_len);
        let mut soa = Vec::with_capacity(tile_capacities.len());
        let mut local_index = Vec::with_capacity(tile_capacities.len());
        let mut rhocell = Vec::with_capacity(tile_capacities.len());
        for &cap in tile_capacities {
            let reserve = (cap * 2).max(64);
            let mut attrs = [VAddr(0); 7];
            for a in &mut attrs {
                *a = m.mem().alloc_f64(reserve);
            }
            soa.push(attrs);
            local_index.push(m.mem().alloc_f64(reserve * 2));
            rhocell.push(m.mem().alloc_f64(rhocell_len));
        }
        // Staging holds up to ~20 term-major arrays of the largest tile
        // (QSP: 3 wq + 12 shape terms + indices), with the 2x reserve.
        let max_cap = tile_capacities.iter().copied().max().unwrap_or(64);
        let staging = m.mem().alloc_f64(20 * (max_cap * 2).max(64));
        Self {
            jx,
            jy,
            jz,
            soa,
            local_index,
            rhocell,
            staging,
        }
    }
}

/// How the preprocessing stage is executed by a kernel configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrepStyle {
    /// Scalar loop (the `Matrix-only` ablation, isolating raw MPU power).
    Scalar,
    /// Compiler auto-vectorised loop (baseline and plain rhocell configs).
    Autovec,
    /// Hand-tuned VPU intrinsics (the hybrid pipeline of Algorithm 2).
    VpuIntrinsics,
}

/// Staged per-tile deposition data in term-major SoA layout — the
/// "temporary 1-D arrays" Algorithm 2 Stage 1 produces.
///
/// Instances are pooled per worker (see [`TileScratch`]) and recycled
/// tile after tile via [`Staging::reset`], so the step loop performs no
/// heap allocation once the buffers have grown to the largest tile.
#[derive(Debug, Clone, Default)]
pub struct Staging {
    /// Number of staged particles.
    pub n: usize,
    /// Shape support the buffers are currently laid out for.
    support: usize,
    /// Tile-local cell id per staged particle (GPMA bin); drives the
    /// cell-grouped MPU sweep and the rhocell target.
    pub cell_local: Vec<usize>,
    /// Wrapped physical cell per staged particle.
    pub cell: Vec<[usize; 3]>,
    /// Effective current terms per component, `wq[c][p]`.
    pub wq: [Vec<f64>; 3],
    /// Shape terms per dimension, term-major: `shape[d][a * n + p]`.
    pub shape: [Vec<f64>; 3],
}

impl Staging {
    /// Resizes (reusing capacity) and zeroes the buffers for a tile of
    /// `n` particles at shape support `support`. Every buffer is sized
    /// exactly, so stale data from a previously staged tile can never
    /// alias into the new layout.
    pub fn reset(&mut self, n: usize, support: usize) {
        self.n = n;
        self.support = support;
        self.cell_local.clear();
        self.cell_local.resize(n, 0);
        self.cell.clear();
        self.cell.resize(n, [0; 3]);
        for c in &mut self.wq {
            c.clear();
            c.resize(n, 0.0);
        }
        for d in &mut self.shape {
            d.clear();
            d.resize(support * n, 0.0);
        }
    }

    /// Shape support the staging buffers are laid out for.
    pub fn support(&self) -> usize {
        self.support
    }

    /// Shape term `a` of dimension `d` for staged particle `p`.
    ///
    /// The flat `shape` buffers are term-major (`a * n + p`); with pooled
    /// buffers an out-of-range `a` or `p` could silently read another
    /// term's data instead of panicking, so the layout coordinates are
    /// debug-asserted here.
    #[inline]
    pub fn s(&self, d: usize, a: usize, p: usize) -> f64 {
        debug_assert!(d < 3, "shape dimension {d} out of range");
        debug_assert!(
            a < self.support,
            "shape term {a} out of support {}",
            self.support
        );
        debug_assert!(p < self.n, "staged particle {p} out of {}", self.n);
        self.shape[d][a * self.n + p]
    }
}

/// First-touch-order tracker of grid nodes written by a direct-scatter
/// kernel, so a tile's dense private accumulator can be converted to a
/// sparse per-tile output (and re-zeroed) without scanning the whole
/// grid. The recorded order is a pure function of the tile's particle
/// stream — the determinism anchor of the sharded direct-scatter path.
#[derive(Debug, Clone, Default)]
pub struct TouchedNodes {
    /// Per-node generation stamp (`== gen` means already recorded).
    stamp: Vec<u32>,
    gen: u32,
    /// Distinct linear node indices in first-touch order.
    pub idx: Vec<usize>,
}

impl TouchedNodes {
    /// Prepares for a new tile over a grid of `len` nodes: clears the
    /// recorded indices and invalidates all stamps in O(1) (amortised; a
    /// generation wrap or resize pays one O(len) refill).
    pub fn reset(&mut self, len: usize) {
        if self.stamp.len() != len || self.gen == u32::MAX {
            self.stamp.clear();
            self.stamp.resize(len, 0);
            self.gen = 0;
        }
        self.gen += 1;
        self.idx.clear();
    }

    /// Records node `i` if this is its first touch since the last reset.
    #[inline]
    pub fn note(&mut self, i: usize) {
        if self.stamp[i] != self.gen {
            self.stamp[i] = self.gen;
            self.idx.push(i);
        }
    }
}

/// One tile's direct-scatter output in sparse form: the grid nodes it
/// touched (first-touch order) and the accumulated current values per
/// component. Produced by workers in parallel, applied to the global
/// grid sequentially in tile order — the direct-scatter analogue of the
/// rhocell apply pass.
#[derive(Debug, Clone, Default)]
pub struct TileCurrents {
    /// Linear grid indices, parallel to each `j` component vector.
    pub idx: Vec<usize>,
    /// Accumulated per-node current values, `j[comp][k]` for `idx[k]`.
    pub j: [Vec<f64>; 3],
}

impl TileCurrents {
    /// Empties the output, keeping capacity for reuse.
    pub fn clear(&mut self) {
        self.idx.clear();
        for c in &mut self.j {
            c.clear();
        }
    }

    /// Adds the recorded contributions onto the guarded grid arrays, in
    /// first-touch node order per component.
    pub fn apply_to_grid(&self, jx: &mut Array3, jy: &mut Array3, jz: &mut Array3) {
        for (comp, arr) in [jx, jy, jz].into_iter().enumerate() {
            let dst = arr.as_mut_slice();
            for (&i, &v) in self.idx.iter().zip(&self.j[comp]) {
                dst[i] += v;
            }
        }
    }
}

/// Per-worker pool of reusable tile-processing buffers: the staging
/// arrays plus the sorted-iteration index buffer, and — for
/// direct-scatter kernels — a private dense current accumulator with its
/// touched-node tracker. One instance per parallel worker keeps the
/// deposit hot path allocation-free without any cross-worker
/// synchronisation.
#[derive(Debug, Clone, Default)]
pub struct TileScratch {
    /// Staged per-particle data, recycled across tiles.
    pub staging: Staging,
    /// Iteration order (GPMA-sorted or live-slot) for the current tile.
    pub iteration: Vec<usize>,
    /// Dense per-worker `[jx, jy, jz]` accumulators for direct-scatter
    /// kernels, allocated lazily to the guarded grid shape.
    pub accum: Option<[Array3; 3]>,
    /// Tracker of which accumulator nodes the current tile wrote.
    pub touched: TouchedNodes,
}

/// Runs the preprocessing stage for one tile: loads particle data in the
/// given iteration order, computes cell indices, shape factors and
/// effective currents, and stores them into `st` (a pooled [`Staging`],
/// reset and refilled in place — no allocation once warm).
///
/// `iteration` lists SoA indices in processing order (GPMA-sorted or
/// raw); contiguous chunks are charged as unit-stride vector loads while
/// scattered chunks are charged as gathers, so the locality benefit of
/// sorting is priced from the actual index stream.
///
/// The vectorised staging branches price their attribute loads at
/// `pricing`. Under [`Pricing::Stream`] that is the state-free
/// streaming model instead of a cache walk: seven parallel unit-stride
/// SoA streams are exactly what the prefetcher services at bandwidth,
/// and the pure-function charge keeps the mode bit-reproducible from the
/// tile data alone. The scalar staging style always walks (a scalar loop
/// has no lanes to stream).
///
/// Charged to [`Phase::Preprocess`](mpic_machine::Phase::Preprocess).
pub fn stage_tile(
    m: &mut Machine,
    geom: &GridGeometry,
    tile: &mpic_grid::Tile,
    order: ShapeOrder,
    charge: f64,
    soa: &mpic_particles::ParticleSoA,
    iteration: &[usize],
    soa_addr: &[VAddr; 7],
    prep: PrepStyle,
    pricing: Pricing,
    st: &mut Staging,
) {
    use mpic_machine::Phase;
    let n = iteration.len();
    let support = order.support();
    st.reset(n, support);

    // Functional fill.
    for (p, &i) in iteration.iter().enumerate() {
        let s = stage_particle(
            geom, order, charge, soa.x[i], soa.y[i], soa.z[i], soa.ux[i], soa.uy[i], soa.uz[i],
            soa.w[i],
        );
        st.cell[p] = s.cell;
        st.cell_local[p] = tile.local_cell_id(s.cell);
        for c in 0..3 {
            st.wq[c][p] = s.wq[c];
        }
        for a in 0..support {
            st.shape[0][a * n + p] = s.sx[a];
            st.shape[1][a * n + p] = s.sy[a];
            st.shape[2][a * n + p] = s.sz[a];
        }
    }

    // Cost model: charge the instruction stream of the staging loop.
    m.in_phase(Phase::Preprocess, |m| {
        match prep {
            PrepStyle::Scalar => {
                // Scalar loop: ~10 loads/stores + arithmetic per particle.
                let arith = 13 + 6 + 3 * order.weights_flops() + 8;
                for &i in iteration {
                    for a in soa_addr {
                        m.s_load(a.offset_f64(i), 8);
                    }
                    m.s_ops(arith);
                    // Cache-blocked staging stores: issue cost only.
                    m.s_ops(12);
                }
            }
            PrepStyle::Autovec | PrepStyle::VpuIntrinsics => {
                if prep == PrepStyle::Autovec {
                    m.use_autovec_model();
                }
                let mut p = 0;
                // Roofline footprint of one SoA attribute array: the
                // whole tile's particles are swept, so that is the
                // operand span the crossover tests against L1.
                let soa_footprint = (soa.x.len() * 8) as u64;
                while p < n {
                    let lanes = (n - p).min(mpic_machine::VLANES);
                    let chunk = &iteration[p..p + lanes];
                    let contiguous = chunk.windows(2).all(|w| w[1] == w[0] + 1);
                    // 7 attribute loads: unit-stride when the iteration
                    // order is compacted, gathers (one index vector
                    // shared by all seven arrays) when GPMA-indexed.
                    if contiguous {
                        for a in soa_addr {
                            let addr = a.offset_f64(chunk[0]);
                            m.v_touch_load_priced(pricing, addr, lanes, soa_footprint);
                        }
                    } else {
                        m.v_touch_gather_priced(pricing, soa_addr, chunk, soa_footprint);
                    }
                    // Arithmetic: gamma+velocity (6), locate (6), weights
                    // (per dim), effective currents (4), index math (3).
                    let weight_ops = (3 * order.weights_flops()).div_ceil(2);
                    // gamma+velocity (6), locate (6), weights, effective
                    // currents (4), index/mask packing (10).
                    m.v_ops(6 + 6 + weight_ops + 4 + 10);
                    // Stores: 3 wq + 3*support shape terms + cell ids.
                    // Staging is processed in cache-blocked chunks, so
                    // only the store issue cost is charged (the blocks
                    // stay L1/L2 resident by construction).
                    m.v_issue(3 + 3 * support + 1);
                    p += lanes;
                }
                m.use_intrinsics_model();
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpic_machine::MachineConfig;

    fn geom() -> GridGeometry {
        GridGeometry::new([8, 8, 8], [0.0; 3], [1.0e-6; 3], 2)
    }

    #[test]
    fn stencil_block_steps_to_the_node_coord_products() {
        // Every cell of a grid narrower than a QSP stencil on two axes
        // (wrapped offsets repeat), of one with a one-cell axis (every
        // offset wraps onto the same node) and of an ordinary one.
        for n_cells in [[2, 3, 9], [1, 4, 2], [8, 8, 8]] {
            let geom = GridGeometry::new(n_cells, [0.0; 3], [1.0e-6; 3], 2);
            let dims = geom.dims_with_guard();
            for order in [ShapeOrder::Cic, ShapeOrder::Qsp] {
                let s = order.support();
                for cell in (0..n_cells[0] * n_cells[1] * n_cells[2]).map(|id| {
                    [
                        id % n_cells[0],
                        id / n_cells[0] % n_cells[1],
                        id / (n_cells[0] * n_cells[1]),
                    ]
                }) {
                    let block = stencil_block(&geom, order, cell);
                    assert_eq!(block.len(), order.nodes_3d());
                    block.for_each_node(|nd, got| {
                        let node = |d: usize, off: usize| node_coord(&geom, order, d, cell[d], off);
                        let (a, b, c) = (nd % s, nd / s % s, nd / (s * s));
                        let want = (node(2, c) * dims[1] + node(1, b)) * dims[0] + node(0, a);
                        assert_eq!(got, want, "{n_cells:?} {order:?} {cell:?} node {nd}");
                    });
                }
            }
        }
    }

    #[test]
    fn velocity_nonrelativistic_limit() {
        let (vx, _, _) = velocity_from_u(1e-4, 0.0, 0.0);
        assert!((vx / (1e-4 * C) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn velocity_bounded_by_c() {
        let (vx, vy, vz) = velocity_from_u(100.0, 50.0, 25.0);
        let v = (vx * vx + vy * vy + vz * vz).sqrt();
        assert!(v < C);
        assert!(v > 0.99 * C);
    }

    #[test]
    fn stage_particle_basics() {
        let g = geom();
        let s = stage_particle(
            &g,
            ShapeOrder::Cic,
            -1.0,
            0.5e-6,
            0.5e-6,
            0.5e-6,
            0.0,
            0.0,
            0.0,
            1.0,
        );
        assert_eq!(s.cell, [0, 0, 0]);
        assert_eq!(s.wq, [0.0, 0.0, 0.0], "at rest no current");
        assert!((s.sx[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn node_coord_wraps_periodically() {
        let g = geom();
        // QSP starts one node below the cell: offset a=0 -> node -1 -> 7.
        for d in 0..3 {
            assert_eq!(node_coord(&g, ShapeOrder::Qsp, d, 0, 0), 7 + 2);
            assert_eq!(node_coord(&g, ShapeOrder::Qsp, d, 0, 1), 2);
        }
        // And the last cell's stencil runs past n: node 8 -> 0.
        assert_eq!(node_coord(&g, ShapeOrder::Qsp, 0, 7, 2), 2);
    }

    #[test]
    fn staging_reset_sizes_buffers_exactly() {
        let mut st = Staging::default();
        st.reset(10, 4);
        st.shape[0][39] = 7.0; // Last slot of the old layout.
        assert_eq!(st.shape[0].len(), 40);
        st.reset(3, 2);
        assert_eq!(st.n, 3);
        assert_eq!(st.support(), 2);
        assert_eq!(
            st.shape[0].len(),
            6,
            "pooled buffer must shrink logically so stale terms cannot alias"
        );
        assert!(st.shape[0].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn addr_map_is_disjoint() {
        let mut m = Machine::new(MachineConfig::lx2());
        let map = AddrMap::new(&mut m, 1000, &[10, 20], 8 * 3 * 64);
        let mut addrs = vec![map.jx.0, map.jy.0, map.jz.0, map.staging.0];
        for t in 0..2 {
            addrs.extend(map.soa[t].iter().map(|a| a.0));
            addrs.push(map.local_index[t].0);
            addrs.push(map.rhocell[t].0);
        }
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), addrs.len(), "no duplicate bases");
    }
}
