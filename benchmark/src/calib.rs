//! The calibration kernel: a fixed, benchmark-owned unit of host work.
//!
//! The sandbox's host speed is not stationary: over seconds to minutes
//! the same step takes 75 ms or 145 ms, depending on what else the
//! shared host is doing (twelve back-to-back runs of `uniform_cic` read
//! a median step of 75–146 ms, quartile spread 45 % of the median). No
//! statistic of raw wall time inside a 10 s window is steady across such
//! phases, so the host-time metrics that carry a bound are reported in
//! **cal**: the operation's wall time divided by the wall time of one
//! pass of this kernel, measured immediately before and after it. The
//! same twelve runs agree within 10 % in cal (quartile spread 6 %).
//!
//! The kernel is a PIC-like pass — stream seven particle attribute
//! arrays, gather from six grid arrays through a mostly ascending cell
//! index, a few dozen flops and one square root per particle, write six
//! arrays back — over a working set (≈ 9.5 MB) that, like a
//! simulation's, lives in the shared last-level cache. A pure compute
//! loop does not work as a unit: it does not see the cache and
//! memory-system contention that dominates the slow phases.
//!
//! Nothing in the repository's crates is called here, so no later change
//! to them can move the unit. **Changing this file changes the unit and
//! invalidates every comparison with numbers measured before.**

use std::hint::black_box;
use std::time::Instant;

use crate::stats::XorShift64;

/// One pass on the sandbox this benchmark was defined on, host quiet.
/// `setup_s` must be in seconds, so it is reported as cal times this:
/// seconds at the kernel's nominal speed.
pub const NOMINAL_PASS_SECONDS: f64 = 0.002;

/// Synthetic particles per pass.
const PARTICLES: usize = 128 * 1024;

/// Cells of the synthetic grid (a 36^3 block, one row is 36 cells).
const CELLS: usize = 36 * 36 * 36;
const ROW: usize = 36;

/// The calibration kernel's state: inputs from a fixed generator, never
/// from `--seed`.
pub struct Calibration {
    attrs: [Vec<f64>; 7],
    cell: Vec<u32>,
    grid: [Vec<f64>; 6],
    /// Wall seconds of every pass so far.
    passes: Vec<f64>,
}

impl Calibration {
    pub fn new() -> Self {
        let mut rng = XorShift64(0x9e37_79b9_7f4a_7c15);
        let mut next = move || rng.next();
        let attrs = std::array::from_fn(|_| {
            (0..PARTICLES)
                .map(|_| (next() % 1000) as f64 * 1e-3)
                .collect()
        });
        // Ascending with jitter, like particles iterated in GPMA order.
        let span = (CELLS - ROW - 2) as u64;
        let cell = (0..PARTICLES as u64)
            .map(|p| ((p * span / PARTICLES as u64 + next() % 64) % span) as u32)
            .collect();
        let grid =
            std::array::from_fn(|_| (0..CELLS).map(|_| (next() % 1000) as f64 * 1e-3).collect());
        Self {
            attrs,
            cell,
            grid,
            passes: Vec::new(),
        }
    }

    /// Bytes this kernel keeps resident (all touched by `new`).
    pub fn resident_bytes(&self) -> usize {
        8 * (7 * PARTICLES + 6 * CELLS) + 4 * PARTICLES
    }

    /// One pass; returns its wall time in seconds. The values stay
    /// bounded and no branch depends on them, so every pass does the
    /// same work.
    pub fn pass(&mut self) -> f64 {
        let start = Instant::now();
        let [x, y, z, ux, uy, uz, w] = &mut self.attrs;
        let mut acc = 0.0;
        for p in 0..PARTICLES {
            let c = self.cell[p] as usize;
            let mut e = [0.0f64; 6];
            for (k, g) in self.grid.iter().enumerate() {
                e[k] = g[c] * x[p] + g[c + 1] * y[p] + g[c + ROW] * z[p] + g[c + ROW + 1] * w[p];
            }
            ux[p] = ux[p] * 0.999 + e[0] * 1e-3 + e[3] * uy[p] * 1e-3;
            uy[p] = uy[p] * 0.999 + e[1] * 1e-3 + e[4] * uz[p] * 1e-3;
            uz[p] = uz[p] * 0.999 + e[2] * 1e-3 + e[5] * ux[p] * 1e-3;
            x[p] = (x[p] + ux[p] * 1e-3).fract();
            y[p] = (y[p] + uy[p] * 1e-3).fract();
            z[p] = (z[p] + uz[p] * 1e-3).fract();
            acc += (1.0 + ux[p] * ux[p]).sqrt();
        }
        black_box(acc);
        let seconds = start.elapsed().as_secs_f64();
        self.passes.push(seconds);
        seconds
    }

    /// Median wall seconds of the passes so far: how fast the host was
    /// while this run measured.
    pub fn median_pass_seconds(&self) -> f64 {
        crate::stats::median(&self.passes)
    }

    /// Runs `op` between two passes and returns its result, its wall
    /// time in seconds, and that time in cal (divided by the mean of the
    /// two bracketing passes).
    pub fn bracket<R>(&mut self, op: impl FnOnce() -> R) -> (R, f64, f64) {
        let before = self.pass();
        let start = Instant::now();
        let r = op();
        let seconds = start.elapsed().as_secs_f64();
        let after = self.pass();
        (r, seconds, seconds / (0.5 * (before + after)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passes_stay_finite_and_in_range() {
        let mut cal = Calibration::new();
        assert!(cal.cell.iter().all(|c| (*c as usize) + ROW + 1 < CELLS));
        for _ in 0..20 {
            assert!(cal.pass() > 0.0);
        }
        assert!(cal
            .attrs
            .iter()
            .flatten()
            .all(|v| v.is_finite() && v.abs() < 1e3));
    }

    #[test]
    fn bracket_reports_seconds_and_cal() {
        let mut cal = Calibration::new();
        let (r, seconds, in_cal) = cal.bracket(|| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            7
        });
        assert_eq!(r, 7);
        assert!(seconds >= 0.02);
        assert!(in_cal > 0.0 && in_cal.is_finite());
    }
}
