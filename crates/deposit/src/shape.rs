//! B-spline particle shape functions (orders 1 and 3).
//!
//! The paper evaluates exactly two shapes: the first-order Cloud-in-Cell
//! (CIC) scheme and the third-order scheme it calls QSP. Both are the
//! standard centred B-splines used by WarpX: order `n` spreads a particle
//! over `n + 1` nodes per dimension and its weights sum to exactly 1 for
//! any intra-cell offset — the charge-conservation property the property
//! tests pin down.

/// Maximum support points of any implemented order.
pub const MAX_SUPPORT: usize = 4;

/// Maximum 3-D stencil nodes of any implemented order (QSP: 4^3), sizing
/// the stack-resident run blocks of the batched kernels.
pub const MAX_NODES_3D: usize = MAX_SUPPORT * MAX_SUPPORT * MAX_SUPPORT;

/// Interpolation order of the deposition/gather shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShapeOrder {
    /// First order: Cloud-in-Cell, 2 nodes/dim, 8 nodes in 3-D.
    Cic,
    /// Third order: cubic B-spline (the paper's "QSP"), 4 nodes/dim,
    /// 64 nodes in 3-D.
    Qsp,
}

impl ShapeOrder {
    /// Polynomial order (the WarpX `algo.particle_shape` value).
    pub fn order(self) -> usize {
        match self {
            ShapeOrder::Cic => 1,
            ShapeOrder::Qsp => 3,
        }
    }

    /// Support points per dimension (`order + 1`).
    pub fn support(self) -> usize {
        self.order() + 1
    }

    /// Nodes touched in 3-D (`support^3`).
    pub fn nodes_3d(self) -> usize {
        let s = self.support();
        s * s * s
    }

    /// Offset of the first support node relative to the particle's cell
    /// index: CIC starts at the cell itself, QSP one node below.
    pub fn start_offset(self) -> i64 {
        match self {
            ShapeOrder::Cic => 0,
            ShapeOrder::Qsp => -1,
        }
    }

    /// Evaluates the 1-D shape weights for intra-cell offset
    /// `d` in `[0, 1)`, writing `support()` weights into `out`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `d` is outside `[0, 1)`.
    #[inline]
    pub fn weights(self, d: f64, out: &mut [f64; MAX_SUPPORT]) {
        debug_assert!((0.0..1.0).contains(&d) || d.abs() < 1e-12, "d={d}");
        match self {
            ShapeOrder::Cic => {
                out[0] = 1.0 - d;
                out[1] = d;
                out[2] = 0.0;
                out[3] = 0.0;
            }
            ShapeOrder::Qsp => {
                // Cubic B-spline over nodes {cell-1 .. cell+2}.
                let d2 = d * d;
                let d3 = d2 * d;
                let inv6 = 1.0 / 6.0;
                let omd = 1.0 - d;
                out[0] = inv6 * omd * omd * omd;
                out[1] = inv6 * (4.0 - 6.0 * d2 + 3.0 * d3);
                out[2] = inv6 * (1.0 + 3.0 * d + 3.0 * d2 - 3.0 * d3);
                out[3] = inv6 * d3;
            }
        }
    }

    /// FLOPs charged for one 1-D weight evaluation by the cost model
    /// (counts of the expressions in [`ShapeOrder::weights`]).
    pub fn weights_flops(self) -> usize {
        match self {
            ShapeOrder::Cic => 1,
            ShapeOrder::Qsp => 16,
        }
    }
}

/// Canonical useful FLOPs per particle of the scalar deposition
/// algorithm, used for peak-efficiency percentages (paper section 5.2.2).
///
/// The count covers: Lorentz factor + velocity recovery (13), the three
/// effective-current weights (6), three 1-D shape evaluations, and
/// `8 FLOPs x nodes` for the node loop (two multiplies for the tensor
/// shape product and three FMAs for the current components). The paper
/// quotes 419 FLOPs for QSP with its own counting convention; ours is
/// applied uniformly across all platforms and configurations, so the
/// *ratios* in Table 3 are directly comparable.
pub fn canonical_flops_per_particle(order: ShapeOrder) -> f64 {
    let pre = 13.0 + 6.0 + 3.0 * order.weights_flops() as f64;
    pre + 8.0 * order.nodes_3d() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const ORDERS: [ShapeOrder; 2] = [ShapeOrder::Cic, ShapeOrder::Qsp];

    #[test]
    fn weights_sum_to_one() {
        for order in ORDERS {
            for i in 0..100 {
                let d = i as f64 / 100.0;
                let mut w = [0.0; MAX_SUPPORT];
                order.weights(d, &mut w);
                let sum: f64 = w.iter().sum();
                assert!((sum - 1.0).abs() < 1e-14, "{order:?} d={d} sum={sum}");
            }
        }
    }

    #[test]
    fn weights_nonnegative() {
        for order in ORDERS {
            for i in 0..100 {
                let d = i as f64 / 100.0;
                let mut w = [0.0; MAX_SUPPORT];
                order.weights(d, &mut w);
                assert!(w.iter().all(|&x| x >= -1e-15), "{order:?} d={d} {w:?}");
            }
        }
    }

    #[test]
    fn cic_is_linear() {
        let mut w = [0.0; MAX_SUPPORT];
        ShapeOrder::Cic.weights(0.25, &mut w);
        assert_eq!(w[0], 0.75);
        assert_eq!(w[1], 0.25);
    }

    #[test]
    fn qsp_symmetry() {
        // Weights at d and 1-d must be mirror images.
        let mut a = [0.0; MAX_SUPPORT];
        let mut b = [0.0; MAX_SUPPORT];
        ShapeOrder::Qsp.weights(0.3, &mut a);
        ShapeOrder::Qsp.weights(0.7, &mut b);
        for k in 0..4 {
            assert!((a[k] - b[3 - k]).abs() < 1e-14);
        }
    }

    #[test]
    fn qsp_continuity_across_cells() {
        // As a particle crosses a cell boundary, the weight attributed to
        // a fixed grid node must be continuous: node cell+1 seen with
        // d -> 1 (weight index 2) equals the same node seen from the next
        // cell with d = 0 (weight index 1).
        let mut lo = [0.0; MAX_SUPPORT];
        let mut hi = [0.0; MAX_SUPPORT];
        ShapeOrder::Qsp.weights(1.0 - 1e-9, &mut lo);
        ShapeOrder::Qsp.weights(0.0, &mut hi);
        assert!((lo[2] - hi[1]).abs() < 1e-7);
        assert!((lo[3] - hi[2]).abs() < 1e-7);
    }

    #[test]
    fn support_and_nodes() {
        assert_eq!(ShapeOrder::Cic.support(), 2);
        assert_eq!(ShapeOrder::Qsp.support(), 4);
        assert_eq!(ShapeOrder::Cic.nodes_3d(), 8);
        assert_eq!(ShapeOrder::Qsp.nodes_3d(), 64);
    }

    #[test]
    fn canonical_flops_grow_with_order() {
        let cic = canonical_flops_per_particle(ShapeOrder::Cic);
        let qsp = canonical_flops_per_particle(ShapeOrder::Qsp);
        assert!(cic > 60.0 && cic < 120.0, "cic {cic}");
        assert!(qsp > 400.0 && qsp < 700.0, "qsp {qsp}");
        assert!(qsp > 4.0 * cic);
    }
}
