//! Absolute golden checksums of every execution mode.
//!
//! The self-consistency suites (`batched_hot_path.rs`, `snapshot.rs`,
//! `parallel_determinism.rs`) compare modes against each other, and
//! `BENCH_step.json` pins absolute emulated counters for FullOpt/CIC
//! only — so a pricing slip in the rhocell or direct-scatter kernels, or
//! at QSP/TSC, that moved every worker count the same way would pass all
//! of them. This file pins the *whole* post-run state of each kernel
//! family x shape order x `(batching, simd)` pair to a constant: FNV-1a
//! over `Simulation::snapshot()`, which covers fields, particles, GPMA,
//! per-phase counters, cache statistics and behavioural state, and the
//! run report. The loop holds no libm call (sqrt and division are IEEE
//! correctly rounded), so the constants are host-independent.
//!
//! Only the matrix kernel has cell-run sweeps (`Depositor::mode`), so
//! on the direct-scatter and rhocell rows the three checksums coincide:
//! those rows pin that both knobs are no-ops there.
//!
//! A constant changes when the physics or the cost model changes, and on
//! the two `Baseline` rows also when the GPMA layout a load leaves
//! changes: that configuration neither sorts nor is shuffled here, so it
//! steps from the load's index rather than from one the initial sort
//! lays out. Otherwise a refactor must reproduce every one of them
//! unmodified.

use matrix_pic::core::workloads;
use matrix_pic::deposit::{KernelConfig, ShapeOrder};

/// Ten particles per cell: every sorted same-cell run spans one full
/// lane pack plus a masked tail, so both pack shapes are under the hash.
const DIMS: [usize; 3] = [8, 8, 16];
const PPC: usize = 10;
const SEED: u64 = 20_260_930;
const STEPS: usize = 3;

/// `(batching, simd)`: per-particle, runs at the walk price, runs at the
/// stream price.
const MODES: [(bool, bool); 3] = [(false, false), (true, false), (true, true)];

/// One row per kernel x shape; one checksum per entry of [`MODES`].
/// Only the sorted matrix configuration (`FullOpt`) runs the cell-run
/// sweeps: on the direct-scatter and rhocell kernels, sorted or not,
/// both knobs are no-ops and the three checksums coincide.
const GOLDENS: [(KernelConfig, ShapeOrder, [u64; 3]); 9] = [
    (
        KernelConfig::FullOpt,
        ShapeOrder::Cic,
        [0x292f286c0d5851b4, 0xa49f29dbd96f5259, 0xf5bd2296a33f3a88],
    ),
    (
        KernelConfig::FullOpt,
        ShapeOrder::Qsp,
        [0x8bbafd1cb59486c4, 0x5bcd61f0ed772ba1, 0xe0b6278181da160a],
    ),
    (
        KernelConfig::FullOpt,
        ShapeOrder::Tsc,
        [0x3c2c424ab501df5f, 0x1f7f7f623e003999, 0xa3965d78058baf0e],
    ),
    (
        KernelConfig::RhocellIncrSortVpu,
        ShapeOrder::Cic,
        [0x29c1d24704f5653d, 0x29c1d24704f5653d, 0x29c1d24704f5653d],
    ),
    (
        KernelConfig::RhocellIncrSortVpu,
        ShapeOrder::Qsp,
        [0xadf046c373664eae, 0xadf046c373664eae, 0xadf046c373664eae],
    ),
    (
        KernelConfig::BaselineIncrSort,
        ShapeOrder::Cic,
        [0x532caeba51eace9b, 0x532caeba51eace9b, 0x532caeba51eace9b],
    ),
    (
        KernelConfig::BaselineIncrSort,
        ShapeOrder::Qsp,
        [0xe3c88fc87a21a685, 0xe3c88fc87a21a685, 0xe3c88fc87a21a685],
    ),
    (
        KernelConfig::Baseline,
        ShapeOrder::Cic,
        [0xc2809cfc465bc1aa, 0xc2809cfc465bc1aa, 0xc2809cfc465bc1aa],
    ),
    (
        KernelConfig::Baseline,
        ShapeOrder::Qsp,
        [0x737b982db1cf3400, 0x737b982db1cf3400, 0x737b982db1cf3400],
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
            "    (KernelConfig::{kernel:?}, ShapeOrder::{shape:?}, [{:#018x}, {:#018x}, {:#018x}]),\n",
            got[0], got[1], got[2]
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
