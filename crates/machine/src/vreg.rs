//! VPU vector register values.
//!
//! A 512-bit FP64 vector holds [`VLANES`] = 8 lanes. `VReg` is a plain
//! value type: arithmetic on it is performed by the [`crate::Meter`]
//! ops so that every operation is charged to the cost model; the
//! helpers here are cost-free constructors and lane accessors.

/// Number of f64 lanes in a 512-bit VPU register. Derived from the
/// workspace's single lane-width definition ([`crate::vect::W`], rule
/// L9): the emulated VPU and the lane-parallel host loops deliberately
/// share one width.
pub const VLANES: usize = crate::vect::W;

/// A VPU vector register value (8 x f64).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VReg(pub [f64; VLANES]);

impl VReg {
    /// All-zero register.
    pub fn zero() -> Self {
        VReg([0.0; VLANES])
    }

    /// Broadcasts `x` to all lanes (cost-free constructor; use
    /// [`crate::Meter::v_splat`] inside emulated kernels).
    pub fn splat(x: f64) -> Self {
        VReg([x; VLANES])
    }

    /// Builds a register from a slice, zero-padding missing lanes.
    ///
    /// # Panics
    ///
    /// Panics if `s.len() > VLANES`.
    pub fn from_slice(s: &[f64]) -> Self {
        assert!(s.len() <= VLANES, "slice wider than a vector register");
        let mut r = [0.0; VLANES];
        r[..s.len()].copy_from_slice(s);
        VReg(r)
    }

    /// Lane accessor.
    ///
    /// # Panics
    ///
    /// Panics if `i >= VLANES`.
    pub fn lane(&self, i: usize) -> f64 {
        self.0[i]
    }
}

impl Default for VReg {
    fn default() -> Self {
        Self::zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_slice_zero_pads() {
        let r = VReg::from_slice(&[1.0, 2.0]);
        assert_eq!(r.lane(0), 1.0);
        assert_eq!(r.lane(1), 2.0);
        assert_eq!(r.lane(7), 0.0);
    }

    #[test]
    #[should_panic(expected = "wider than a vector register")]
    fn from_slice_rejects_oversize() {
        let _ = VReg::from_slice(&[0.0; 9]);
    }
}
