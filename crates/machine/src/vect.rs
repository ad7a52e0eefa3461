//! The single definition of the host SIMD lane width, plus a minimal
//! fixed-width lane-pack wrapper for the lane-parallel host loops of
//! the batched hot kernels.
//!
//! Everything here is stable Rust: [`Lanes`] is a plain `[f64; W]`
//! new-type whose operations are straight-line per-lane loops the
//! compiler can autovectorize — no unstable `portable_simd` feature, no
//! `std::arch` intrinsics (mpic-lint rule L9 fences both to this file,
//! along with the definition of the lane-pack type itself). The push's
//! run sweep (`flush_run`) chunks a cell run into [`W`]-wide packs and
//! finishes the ragged tail as one more pack: it sets each active lane
//! from its particle's scattered SoA slot, leaves the rest at zero and
//! reads the active lanes back one by one — no scalar remainder loop
//! exists on the hot path. [`Lanes::from_slice`] and [`Lanes::write_to`]
//! are the contiguous form of that idiom, held to the masked-tail
//! reference by the tests below; the README's hot-path section
//! documents the layout and equivalence contract.
//!
//! The wrapper exists for *host* throughput only. Emulated-cost vector
//! state lives in [`crate::VReg`], whose operations charge the cycle
//! model; `Lanes` arithmetic is cost-free by design: what a lane loop
//! is charged is decided separately, by the sweep's explicit charge
//! calls (the bit-identity contract covers counters too).

/// Host SIMD lane width, in `f64` lanes, of every lane-parallel hot
/// loop in the workspace — and the **only** place a lane width may be
/// spelled as a numeric literal (mpic-lint rule L9). The emulated
/// machine's [`crate::VLANES`] derives from this constant, as must any
/// kernel-local chunk width: eight f64 lanes is one 512-bit vector
/// register on the modelled LX2 VPU and two-to-four registers on
/// commodity AVX2/NEON hosts, all of which unroll cleanly from the same
/// fixed-width arrays.
pub const W: usize = 8;

/// A pack of [`W`] `f64` lanes processed together by a lane-parallel
/// host loop. Plain data: `Lanes(pub [f64; W])`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lanes(pub [f64; W]);

impl Default for Lanes {
    fn default() -> Self {
        Self::zero()
    }
}

impl Lanes {
    /// All-zero pack.
    #[inline]
    pub fn zero() -> Self {
        Lanes([0.0; W])
    }

    /// Broadcasts `x` to all lanes.
    #[inline]
    pub fn splat(x: f64) -> Self {
        Lanes([x; W])
    }

    /// Builds a pack from a slice, zero-padding missing lanes.
    ///
    /// # Panics
    ///
    /// Panics if `s.len() > W`.
    #[inline]
    pub fn from_slice(s: &[f64]) -> Self {
        assert!(s.len() <= W, "slice wider than a lane pack");
        let mut r = [0.0; W];
        r[..s.len()].copy_from_slice(s);
        Lanes(r)
    }

    /// Lane accessor.
    ///
    /// # Panics
    ///
    /// Panics if `l >= W`.
    #[inline]
    pub fn lane(&self, l: usize) -> f64 {
        self.0[l]
    }

    /// Lane-wise `self + a * b` — written as separate multiply and add
    /// (NOT `f64::mul_add`), so every lane reproduces the scalar
    /// reference's round-to-nearest-per-operation results bit for bit.
    #[inline]
    #[must_use]
    pub fn mul_acc(self, a: Lanes, b: Lanes) -> Lanes {
        let mut r = self.0;
        for (l, slot) in r.iter_mut().enumerate() {
            *slot += a.0[l] * b.0[l];
        }
        Lanes(r)
    }

    /// Writes the first `n` lanes to `dst`.
    ///
    /// # Panics
    ///
    /// Panics if `n > W` or `dst.len() < n`.
    #[inline]
    pub fn write_to(&self, dst: &mut [f64], n: usize) {
        assert!(n <= W);
        dst[..n].copy_from_slice(&self.0[..n]);
    }

    /// Lane-wise square root. IEEE-754 `sqrt` is correctly rounded, so
    /// each lane is bitwise the scalar `f64::sqrt` of its input — the
    /// lane-parallel Boris push leans on this for its two Lorentz
    /// factors.
    #[inline]
    #[must_use]
    pub fn sqrt(self) -> Lanes {
        let mut r = self.0;
        for v in &mut r {
            *v = v.sqrt();
        }
        Lanes(r)
    }
}

impl std::ops::Add for Lanes {
    type Output = Lanes;

    /// Lane-wise `self + rhs`.
    #[inline]
    fn add(self, rhs: Lanes) -> Lanes {
        let mut r = self.0;
        for (a, b) in r.iter_mut().zip(rhs.0) {
            *a += b;
        }
        Lanes(r)
    }
}

impl std::ops::Sub for Lanes {
    type Output = Lanes;

    /// Lane-wise `self - rhs`.
    #[inline]
    fn sub(self, rhs: Lanes) -> Lanes {
        let mut r = self.0;
        for (a, b) in r.iter_mut().zip(rhs.0) {
            *a -= b;
        }
        Lanes(r)
    }
}

impl std::ops::Mul for Lanes {
    type Output = Lanes;

    /// Lane-wise `self * rhs`.
    #[inline]
    fn mul(self, rhs: Lanes) -> Lanes {
        let mut r = self.0;
        for (a, b) in r.iter_mut().zip(rhs.0) {
            *a *= b;
        }
        Lanes(r)
    }
}

impl std::ops::Div for Lanes {
    type Output = Lanes;

    /// Lane-wise `self / rhs`. IEEE-754 division is correctly rounded,
    /// so each lane is bitwise the scalar quotient of its inputs.
    #[inline]
    fn div(self, rhs: Lanes) -> Lanes {
        let mut r = self.0;
        for (a, b) in r.iter_mut().zip(rhs.0) {
            *a /= b;
        }
        Lanes(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Which lanes of a pack are active ([`LaneMask::prefix`] for a
    /// ragged tail). Inactive lanes are contractually inert: masked loads
    /// read zeros into them, masked FMAs leave them untouched, masked
    /// stores never write them — so a masked tail pack is
    /// bitwise-equivalent to the scalar remainder loop it replaces.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct LaneMask([bool; W]);

    impl LaneMask {
        /// All [`W`] lanes active (the full-pack mask).
        #[inline]
        fn all() -> Self {
            LaneMask([true; W])
        }

        /// The first `n` lanes active — the tail mask of a run with
        /// `n = len % W` leftover particles.
        ///
        /// # Panics
        ///
        /// Panics if `n > W`.
        #[inline]
        fn prefix(n: usize) -> Self {
            assert!(n <= W, "mask wider than a lane pack");
            let mut m = [false; W];
            m[..n].fill(true);
            LaneMask(m)
        }

        /// Whether lane `l` is active.
        ///
        /// # Panics
        ///
        /// Panics if `l >= W`.
        #[inline]
        fn test(&self, l: usize) -> bool {
            self.0[l]
        }

        /// Number of active lanes.
        #[inline]
        fn count(&self) -> usize {
            self.0.iter().filter(|&&b| b).count()
        }

        /// Whether every lane is active (lets helpers take the unmasked
        /// fast path, which the compiler vectorizes without per-lane
        /// branches).
        #[inline]
        fn is_full(&self) -> bool {
            self.0 == [true; W]
        }

        /// One past the highest active lane (0 when no lane is active):
        /// the minimum slice length a masked load/store may be given.
        #[inline]
        fn required_len(&self) -> usize {
            self.0.iter().rposition(|&b| b).map_or(0, |l| l + 1)
        }
    }

    /// The masked tail ops the kernels used before their ragged chunks
    /// went through the zero-padded `from_slice` / `mul_acc` /
    /// `write_to` idiom — kept as the reference that idiom is held to.
    impl Lanes {
        /// Masked load: lane `l` reads `src[l]` when active, 0.0 when
        /// masked off. A full mask is the plain contiguous load.
        ///
        /// # Panics
        ///
        /// Panics if `src` is shorter than the mask's
        /// [`LaneMask::required_len`].
        #[inline]
        fn load_masked(src: &[f64], mask: LaneMask) -> Self {
            if mask.is_full() {
                let mut r = [0.0; W];
                r.copy_from_slice(&src[..W]);
                return Lanes(r);
            }
            assert!(
                src.len() >= mask.required_len(),
                "masked load past the source slice"
            );
            let mut r = [0.0; W];
            for (l, slot) in r.iter_mut().enumerate() {
                if mask.test(l) {
                    *slot = src[l];
                }
            }
            Lanes(r)
        }

        /// Masked store: lane `l` writes `dst[l]` when active; masked-off
        /// lanes leave `dst` untouched. A full mask is the plain
        /// contiguous store.
        ///
        /// # Panics
        ///
        /// Panics if `dst` is shorter than the mask's
        /// [`LaneMask::required_len`].
        #[inline]
        fn store_masked(&self, dst: &mut [f64], mask: LaneMask) {
            if mask.is_full() {
                dst[..W].copy_from_slice(&self.0);
                return;
            }
            assert!(
                dst.len() >= mask.required_len(),
                "masked store past the destination slice"
            );
            for (l, &v) in self.0.iter().enumerate() {
                if mask.test(l) {
                    dst[l] = v;
                }
            }
        }

        /// Masked lane-wise `self + a * b`: active lanes run the same
        /// unfused multiply-then-add as [`Lanes::mul_acc`] (bitwise equal
        /// to the scalar reference), masked-off lanes pass `self` through
        /// unchanged.
        #[inline]
        #[must_use]
        fn mul_acc_masked(self, a: Lanes, b: Lanes, mask: LaneMask) -> Lanes {
            if mask.is_full() {
                return self.mul_acc(a, b);
            }
            let mut r = self.0;
            for (l, slot) in r.iter_mut().enumerate() {
                if mask.test(l) {
                    *slot += a.0[l] * b.0[l];
                }
            }
            Lanes(r)
        }
    }

    #[test]
    fn lane_width_matches_the_emulated_vpu() {
        // `VLANES` is derived, not duplicated: one definition site.
        assert_eq!(crate::VLANES, W);
    }

    #[test]
    fn from_slice_zero_pads_the_tail() {
        let l = Lanes::from_slice(&[1.0, 2.0]);
        assert_eq!(l.lane(0), 1.0);
        assert_eq!(l.lane(1), 2.0);
        assert_eq!(l.lane(W - 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "wider than a lane pack")]
    fn from_slice_rejects_oversized_input() {
        let wide = vec![0.0; W + 1];
        let _ = Lanes::from_slice(&wide);
    }

    #[test]
    fn arithmetic_is_per_lane_and_unfused() {
        let a = Lanes::splat(0.1);
        let b = Lanes::splat(0.2);
        let s = a + b;
        let p = a * b;
        // Bitwise the same as the scalar expression, lane by lane.
        assert_eq!(s.lane(3), 0.1 + 0.2);
        assert_eq!(p.lane(7), 0.1 * 0.2);
        let acc = Lanes::splat(1.0).mul_acc(a, b);
        assert_eq!(acc.lane(0), 1.0 + 0.1 * 0.2);
    }

    #[test]
    fn write_to_copies_exactly_n_lanes() {
        let l = Lanes::splat(4.0);
        let mut dst = [0.0; 3];
        l.write_to(&mut dst, 3);
        assert_eq!(dst, [4.0; 3]);
    }

    #[test]
    fn sub_div_sqrt_match_scalar_bitwise() {
        let a = Lanes::splat(0.3);
        let b = Lanes::splat(0.7);
        assert_eq!((a - b).lane(2).to_bits(), (0.3f64 - 0.7).to_bits());
        assert_eq!((a / b).lane(5).to_bits(), (0.3f64 / 0.7).to_bits());
        assert_eq!(b.sqrt().lane(0).to_bits(), 0.7f64.sqrt().to_bits());
    }

    #[test]
    fn prefix_mask_shape() {
        let m = LaneMask::prefix(3);
        assert_eq!(m.count(), 3);
        assert_eq!(m.required_len(), 3);
        assert!(m.test(0) && m.test(2) && !m.test(3));
        assert!(!m.is_full());
        assert!(LaneMask::prefix(W).is_full());
        assert_eq!(LaneMask::all(), LaneMask::prefix(W));
        assert_eq!(LaneMask::prefix(0).count(), 0);
        assert_eq!(LaneMask::prefix(0).required_len(), 0);
    }

    #[test]
    #[should_panic(expected = "wider than a lane pack")]
    fn prefix_mask_rejects_oversized_width() {
        let _ = LaneMask::prefix(W + 1);
    }

    #[test]
    fn masked_load_zeroes_inactive_lanes() {
        let src = [1.0, 2.0, 3.0];
        let l = Lanes::load_masked(&src, LaneMask::prefix(3));
        assert_eq!(l.lane(1), 2.0);
        assert_eq!(l.lane(3), 0.0);
        assert_eq!(l.lane(W - 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "masked load past the source slice")]
    fn masked_load_rejects_short_source() {
        let src = [1.0, 2.0];
        let _ = Lanes::load_masked(&src, LaneMask::prefix(3));
    }

    #[test]
    fn masked_store_leaves_inactive_slots_untouched() {
        // The destination may be exactly the tail's length: the masked
        // store must never touch slots past the active lanes.
        let mut dst = [9.0, 9.0, 9.0];
        Lanes::splat(1.5).store_masked(&mut dst, LaneMask::prefix(2));
        assert_eq!(dst, [1.5, 1.5, 9.0]);
    }

    #[test]
    fn masked_mul_acc_matches_unmasked_on_active_lanes() {
        let acc = Lanes::splat(1.0);
        let a = Lanes::splat(0.1);
        let b = Lanes::splat(0.2);
        let full = acc.mul_acc(a, b);
        let masked = acc.mul_acc_masked(a, b, LaneMask::prefix(3));
        for l in 0..W {
            let want = if l < 3 { full.lane(l) } else { 1.0 };
            assert_eq!(masked.lane(l).to_bits(), want.to_bits(), "lane {l}");
        }
        // Full masks take the unmasked path bit-for-bit.
        let via_full_mask = acc.mul_acc_masked(a, b, LaneMask::all());
        assert_eq!(via_full_mask, full);
    }

    #[test]
    fn zero_padded_tail_matches_masked_reference_bitwise() {
        // A ragged chunk through `from_slice` / `mul_acc` / `write_to`
        // lands the masked ops' bits on every active lane and leaves
        // the slots past them alone.
        for n in 0..=W {
            let a = Lanes(std::array::from_fn(|l| 0.1 + 0.3 * l as f64));
            let b = Lanes::splat(1.0 / 3.0);
            let init: Vec<f64> = (0..W).map(|l| 0.7 * l as f64 - 1.1).collect();
            let (mut padded, mut masked) = (init.clone(), init);
            let mask = LaneMask::prefix(n);
            Lanes::from_slice(&padded[..n])
                .mul_acc(a, b)
                .write_to(&mut padded[..n], n);
            Lanes::load_masked(&masked[..n], mask)
                .mul_acc_masked(a, b, mask)
                .store_masked(&mut masked[..n], mask);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&padded), bits(&masked), "tail of {n}");
        }
    }
}
