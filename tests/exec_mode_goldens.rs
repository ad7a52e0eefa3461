//! Absolute golden checksums of every execution mode.
//!
//! The self-consistency suites (`batched_hot_path.rs`, `snapshot.rs`,
//! `parallel_determinism.rs`) compare modes against each other, and
//! `BENCH_step.json` pins absolute emulated counters for FullOpt/CIC
//! only — so a pricing slip in the rhocell or direct-scatter kernels, or
//! at QSP, that moved every worker count the same way would pass all
//! of them. This file pins the *whole* post-run state of each kernel
//! family x shape order x `(batching, simd)` pair to a constant: FNV-1a
//! over `Simulation::snapshot()`, which covers fields, particles, GPMA,
//! per-phase counters, cache statistics and behavioural state, and the
//! run report. The loop holds no libm call (sqrt and division are IEEE
//! correctly rounded), so the constants are host-independent.
//!
//! Only the matrix kernel has cell-run sweeps (`Depositor::mode`), so
//! on the direct-scatter and rhocell rows the two checksums coincide:
//! those rows pin that both knobs are no-ops there. Either knob alone is
//! a no-op everywhere (`conf_simd_without_batching_is_a_bitwise_noop`,
//! `conf_batched_unsorted_fallback_is_bitwise_noop`), so the two columns
//! are every mode there is.
//!
//! A constant changes when the physics or the cost model changes, and on
//! the two `Baseline` rows also when the GPMA layout a load leaves
//! changes: that configuration neither sorts nor is shuffled here, so it
//! steps from the load's index rather than from one the initial sort
//! lays out. All 16 also change with the snapshot format, whose bytes
//! they hash — without the state under them moving: format 3 stores
//! only state a future step reads and that cannot be derived, and
//! `checkpoint::tests::conf_v3_restore_reencodes_to_v1_bitwise` restores
//! each of these runs from format 3 and re-encodes it with the format-1
//! encoder, reproducing the format-1 constants this table held before
//! format 2.
//! Otherwise a refactor must reproduce every one of them unmodified.

use matrix_pic::core::workloads;
use matrix_pic::deposit::{KernelConfig, ShapeOrder};

/// Ten particles per cell: every sorted same-cell run spans one full
/// lane pack plus a masked tail, so both pack shapes are under the hash.
const DIMS: [usize; 3] = [8, 8, 16];
const PPC: usize = 10;
const SEED: u64 = 20_260_930;
const STEPS: usize = 3;

/// `(batching, simd)`: per-particle, cell runs.
const MODES: [(bool, bool); 2] = [(false, false), (true, true)];

/// One row per kernel x shape; one checksum per entry of [`MODES`].
/// Only the sorted matrix configuration (`FullOpt`) runs the cell-run
/// sweeps: on the direct-scatter and rhocell kernels, sorted or not,
/// both knobs are no-ops and the two checksums coincide.
const GOLDENS: [(KernelConfig, ShapeOrder, [u64; 2]); 8] = [
    (
        KernelConfig::FullOpt,
        ShapeOrder::Cic,
        [0xa3530ddcdb585799, 0x66ef801fe2ab3bcd],
    ),
    (
        KernelConfig::FullOpt,
        ShapeOrder::Qsp,
        [0xe60e04a9b045d0f5, 0xf1087e8158700376],
    ),
    (
        KernelConfig::RhocellIncrSortVpu,
        ShapeOrder::Cic,
        [0x726e9d1617b7b845, 0x726e9d1617b7b845],
    ),
    (
        KernelConfig::RhocellIncrSortVpu,
        ShapeOrder::Qsp,
        [0x62279dc1f7b6a832, 0x62279dc1f7b6a832],
    ),
    (
        KernelConfig::BaselineIncrSort,
        ShapeOrder::Cic,
        [0x9bd88642351681a2, 0x9bd88642351681a2],
    ),
    (
        KernelConfig::BaselineIncrSort,
        ShapeOrder::Qsp,
        [0xd00b7c33bebc14fa, 0xd00b7c33bebc14fa],
    ),
    (
        KernelConfig::Baseline,
        ShapeOrder::Cic,
        [0x9361284f2685d55f, 0x9361284f2685d55f],
    ),
    (
        KernelConfig::Baseline,
        ShapeOrder::Qsp,
        [0x2d73bd3061162b6a, 0x2d73bd3061162b6a],
    ),
];

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn checksum(kernel: KernelConfig, shape: ShapeOrder, batching: bool, simd: bool) -> u64 {
    let mut sim = workloads::uniform_plasma_sim(DIMS, PPC, shape, kernel, SEED);
    sim.cfg.batching = batching;
    sim.cfg.simd = simd;
    sim.run(STEPS);
    fnv1a64(&sim.snapshot())
}

#[test]
fn conf_exec_mode_goldens() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    for (kernel, shape, want) in GOLDENS {
        let got = MODES.map(|(batching, simd)| checksum(kernel, shape, batching, simd));
        table.push_str(&format!(
            "    (KernelConfig::{kernel:?}, ShapeOrder::{shape:?}, [{:#018x}, {:#018x}]),\n",
            got[0], got[1]
        ));
        for (m, (g, w)) in got.iter().zip(want).enumerate() {
            if *g != w {
                mismatches.push(format!(
                    "{kernel:?}/{shape:?} (batching, simd) = {:?}: got {g:#018x}, want {w:#018x}",
                    MODES[m]
                ));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "execution-mode goldens moved:\n  {}\nfull table as computed:\n{table}",
        mismatches.join("\n  ")
    );
}
