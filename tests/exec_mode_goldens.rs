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
//! lays out. All 27 also change with the snapshot format, whose bytes
//! they hash — without the state under them moving: format 2's
//! `PARTICLES` section stores only state that cannot be derived, and
//! `checkpoint::tests::conf_v2_restore_reencodes_to_v1_bitwise` restores
//! each of these runs from format 2 and re-encodes it with the format-1
//! encoder, reproducing the format-1 constants this table held before.
//! Otherwise a refactor must reproduce every one of them unmodified.

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
        [0x42412687acd3ed89, 0x2a2897c846751dba, 0xd53e6ba428d94b1b],
    ),
    (
        KernelConfig::FullOpt,
        ShapeOrder::Qsp,
        [0xf3389078de71cfe3, 0x5e23a80f0fa04a6e, 0xfdf504615135af49],
    ),
    (
        KernelConfig::FullOpt,
        ShapeOrder::Tsc,
        [0x3eaa7ef563fbc190, 0xb7a11d4dd2ca1d66, 0xc3a8009babb616d7],
    ),
    (
        KernelConfig::RhocellIncrSortVpu,
        ShapeOrder::Cic,
        [0xfd70aba9b539f3d7, 0xfd70aba9b539f3d7, 0xfd70aba9b539f3d7],
    ),
    (
        KernelConfig::RhocellIncrSortVpu,
        ShapeOrder::Qsp,
        [0x0334fc8664fb7437, 0x0334fc8664fb7437, 0x0334fc8664fb7437],
    ),
    (
        KernelConfig::BaselineIncrSort,
        ShapeOrder::Cic,
        [0x15bd95b97685e7ab, 0x15bd95b97685e7ab, 0x15bd95b97685e7ab],
    ),
    (
        KernelConfig::BaselineIncrSort,
        ShapeOrder::Qsp,
        [0x46a351ccdfece194, 0x46a351ccdfece194, 0x46a351ccdfece194],
    ),
    (
        KernelConfig::Baseline,
        ShapeOrder::Cic,
        [0x5d426e8cae8f2d78, 0x5d426e8cae8f2d78, 0x5d426e8cae8f2d78],
    ),
    (
        KernelConfig::Baseline,
        ShapeOrder::Qsp,
        [0x63a87cd9f29243f1, 0x63a87cd9f29243f1, 0x63a87cd9f29243f1],
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
