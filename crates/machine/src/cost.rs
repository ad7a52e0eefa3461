//! The parameterised cost model of the emulated LX2 core.
//!
//! All constants are per-core reciprocal throughputs in cycles. They encode
//! the architectural facts the paper states in section 5.1:
//!
//! * both compute engines run at (or above) 1.3 GHz;
//! * the VPU executes 512-bit FP64 SIMD, i.e. 8 lanes;
//! * the MPU executes 8x8 FP64 MOPA instructions whose theoretical FLOP
//!   rate is about 4x the VPU's MLA instruction;
//! * VPU<->MPU traffic is not free — the paper attributes the gap between
//!   the anticipated 2x and the observed 1.5x CIC kernel speedup to "data
//!   movement between the VPU and MPU, intrinsic latencies, and other
//!   VPU-bound operations" (section 6.1).
//!
//! Efficiency percentages are charged against the VPU peak
//! ([`MachineConfig::vpu_peak_flops_per_cycle`]) for every configuration,
//! MatrixPIC included: `KernelConfig::unit_peak_flops_per_cycle` in
//! `mpic-deposit` is the one denominator, and its doc says why the MPU
//! peak would make the paper's Table 3 numbers impossible.

use crate::cache::CacheLevelConfig;
use crate::vreg::VLANES;

/// Static description of the emulated core and memory hierarchy.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Core clock in Hz (1.3 GHz for the LX2).
    pub clock_hz: f64,
    /// Parallel VPU pipes (affects reciprocal throughput of vector ops).
    pub vpu_pipes: usize,
    /// Reciprocal throughput of a VPU arithmetic instruction, in cycles.
    pub vpu_arith_cy: f64,
    /// Reciprocal throughput of a scalar FP instruction, in cycles.
    pub scalar_arith_cy: f64,
    /// Extra per-lane cost of a gather/scatter beyond a contiguous access.
    pub gather_lane_cy: f64,
    /// Serialisation penalty per conflicting lane in a scatter-add
    /// (models the atomic/conflict-detection loop of equation 2).
    pub conflict_lane_cy: f64,
    /// Reciprocal throughput of one MOPA instruction, in cycles.
    ///
    /// With [`VLANES`] = 8 a MOPA performs 64 FMAs = 128 FLOPs; at one MOPA
    /// per cycle the MPU peak is 128 FLOP/cycle = 4x the VPU's 32
    /// FLOP/cycle (8 lanes x 2 FLOP x 2 pipes), matching the paper.
    pub mopa_cy: f64,
    /// Cost of moving one tile row between MPU and VPU register files.
    pub tile_row_xfer_cy: f64,
    /// Cost of zeroing an MPU tile register.
    pub tile_zero_cy: f64,
    /// L1 data cache geometry.
    pub l1: CacheLevelConfig,
    /// L2 cache geometry.
    pub l2: CacheLevelConfig,
    /// Cycles for an L1 hit (effective, throughput-amortised).
    pub l1_hit_cy: f64,
    /// Cycles for an L2 hit.
    pub l2_hit_cy: f64,
    /// Cycles for a DRAM access after overlap (memory-level parallelism).
    pub dram_cy: f64,
    /// Bandwidth-limited cycles per cache line charged by the
    /// *state-free streaming* price of block transfers
    /// (`Pricing::Stream`). Wide loads and stores issued
    /// back to back behave like an established prefetch stream: the fill
    /// pipeline hides per-line latency and only the line's share of
    /// sustained bandwidth remains. Matches the cache model's streamed
    /// (prefetched) DRAM cost so the two pricing regimes agree on what a
    /// perfectly streamed line costs.
    pub simd_stream_line_cy: f64,
    /// Roofline crossover for the state-free streaming price: when a
    /// streamed call declares an operand-array footprint at or below this
    /// many bytes (and the footprint is known, i.e. non-zero), the
    /// operand set fits in L1 across the sweep and the line price drops
    /// from [`Self::simd_stream_line_cy`] to [`Self::resident_line_cy`].
    /// Keeps the price a pure function of the call operands — no cache
    /// state is consulted — while no longer overcharging L1-resident
    /// grids at the DRAM stream rate.
    pub stream_crossover_bytes: u64,
    /// Bandwidth-limited cycles per cache line on the resident side of
    /// the crossover: an L1-resident operand streams at L1 bandwidth, so
    /// one line costs one (throughput-amortised) L1 hit.
    pub resident_line_cy: f64,
    /// Efficiency factor applied to compiler auto-vectorised loops
    /// relative to hand-written intrinsics (<= 1.0). The paper's Table 1
    /// shows the auto-vectorised rhocell preprocessing running at roughly
    /// 2.6x the cost of the hand-tuned VPU version.
    pub autovec_efficiency: f64,
}

impl MachineConfig {
    /// The LX2 core model used for all headline experiments.
    ///
    /// Note on cache capacities: the real LX2 runs grids of hundreds of
    /// megabytes per rank, dwarfing its per-core caches by two to three
    /// orders of magnitude. Emulation forces laptop-scale grids (a few
    /// megabytes), so the modelled caches are scaled down by a comparable
    /// factor (L1 16 KiB, L2 256 KiB) to preserve the grid-to-cache ratio
    /// that makes deposition memory-bound — the regime every locality
    /// result in the paper depends on. This substitution is recorded in
    /// DESIGN.md.
    pub fn lx2() -> Self {
        Self {
            clock_hz: 1.3e9,
            vpu_pipes: 2,
            vpu_arith_cy: 0.5,
            scalar_arith_cy: 0.5,
            gather_lane_cy: 0.125,
            conflict_lane_cy: 1.0,
            mopa_cy: 1.0,
            tile_row_xfer_cy: 1.0,
            tile_zero_cy: 1.0,
            l1: CacheLevelConfig {
                size_bytes: 16 * 1024,
                ways: 8,
                line_bytes: 64,
            },
            l2: CacheLevelConfig {
                size_bytes: 256 * 1024,
                ways: 16,
                line_bytes: 64,
            },
            l1_hit_cy: 0.5,
            l2_hit_cy: 12.0,
            dram_cy: 80.0,
            // = dram_cy x 0.15, the cache model's streamed-miss cost.
            simd_stream_line_cy: 12.0,
            // Crossover at the L1 capacity: an operand array that fits in
            // L1 streams at L1-hit bandwidth (one l1_hit_cy per line).
            stream_crossover_bytes: 16 * 1024,
            resident_line_cy: 0.5,
            autovec_efficiency: 0.30,
        }
    }

    /// Peak FP64 FLOPs per cycle of the VPU
    /// ([`VLANES`] lanes x 2 FLOP/FMA x pipes).
    pub fn vpu_peak_flops_per_cycle(&self) -> f64 {
        (VLANES * 2 * self.vpu_pipes) as f64
    }

    /// Peak FP64 FLOPs per cycle of the MPU
    /// ([`VLANES`]^2 FMAs per MOPA x 2 FLOP / mopa_cy).
    pub fn mpu_peak_flops_per_cycle(&self) -> f64 {
        (VLANES * VLANES * 2) as f64 / self.mopa_cy
    }

    /// Converts a cycle count into seconds at the configured clock.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / self.clock_hz
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::lx2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lx2_mpu_is_4x_vpu() {
        let cfg = MachineConfig::lx2();
        let ratio = cfg.mpu_peak_flops_per_cycle() / cfg.vpu_peak_flops_per_cycle();
        assert!((ratio - 4.0).abs() < 1e-12, "MOPA must be ~4x VPU MLA");
    }

    #[test]
    fn cycles_to_seconds_uses_clock() {
        let cfg = MachineConfig::lx2();
        assert!((cfg.cycles_to_seconds(1.3e9) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lx2_crossover_sits_at_l1_capacity() {
        let cfg = MachineConfig::lx2();
        assert_eq!(cfg.stream_crossover_bytes, cfg.l1.size_bytes as u64);
        assert_eq!(cfg.resident_line_cy, cfg.l1_hit_cy);
        assert!(
            cfg.resident_line_cy <= cfg.simd_stream_line_cy,
            "the crossover must only ever lower the line price"
        );
    }

    #[test]
    fn vpu_peak_matches_paper_width() {
        let cfg = MachineConfig::lx2();
        // 512-bit FP64 = 8 lanes; 2 pipes; FMA = 2 FLOPs.
        assert_eq!(cfg.vpu_peak_flops_per_cycle(), 32.0);
        assert_eq!(cfg.mpu_peak_flops_per_cycle(), 128.0);
    }
}
