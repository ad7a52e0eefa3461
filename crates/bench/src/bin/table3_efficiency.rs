//! Table 3 — Cross-platform kernel efficiency (% of theoretical FP64
//! peak) on the third-order QSP kernel at saturating density.
//!
//! Paper reference values:
//!
//! | System | Config | Peak efficiency |
//! |---|---|---|
//! | LX2 CPU | MatrixPIC | 83.08% |
//! | LX2 CPU | Rhocell+IncrSort (VPU) | 54.58% |
//! | LX2 CPU | Baseline | 9.84% |
//! | NVIDIA A800 | Baseline (CUDA) | 29.76% |
//!
//! CPU configurations are measured against the peak of the unit their
//! inner loop runs on (MPU for MatrixPIC, VPU otherwise); the A800 value
//! comes from the SIMT cost model replaying the *same particle stream*
//! (atomic conflicts and coalescing measured from real addresses). The
//! reproduced claim is the ranking — MatrixPIC saturates its unit far
//! better than the CUDA scatter-add saturates a GPU — and the rough
//! CPU-vs-GPU utilisation factor.

use mpic_bench::{measure_uniform, MEASURE_STEPS};
use mpic_core::workloads;
use mpic_deposit::common::stencil_block;
use mpic_deposit::{canonical_flops_per_particle, KernelConfig, ShapeOrder};
use mpic_machine::{GpuConfig, GpuModel};

/// Saturating density (paper: PPC 512; scaled for emulation).
const PPC: usize = 64;
const CELLS: [usize; 3] = [16, 16, 16];

fn main() {
    println!("== Table 3: cross-platform kernel efficiency, QSP, PPC {PPC} ==");
    println!(
        "{:>14} {:>26} {:>16} {:>16}",
        "System", "Config.", "Peak Eff. (%)", "vs MatrixPIC"
    );

    let mut fractions = Vec::new();
    for kernel in [
        KernelConfig::FullOpt,
        KernelConfig::RhocellIncrSortVpu,
        KernelConfig::Baseline,
    ] {
        eprintln!("running {} ...", kernel.label());
        let m = measure_uniform(CELLS, PPC, ShapeOrder::Qsp, kernel, MEASURE_STEPS);
        fractions.push(m.peak_fraction);
        println!(
            "{:>14} {:>26} {:>15.2}% {:>15.2}x",
            "LX2 CPU (emu)",
            m.label,
            100.0 * m.peak_fraction,
            fractions[0] / m.peak_fraction,
        );
    }
    let matrixpic = fractions[0];

    // GPU model: replay the same particle population's node addresses.
    eprintln!("running A800 SIMT model ...");
    let mut sim =
        workloads::uniform_plasma_sim(CELLS, PPC, ShapeOrder::Qsp, KernelConfig::Baseline, 42);
    // The CUDA baseline processes particles in their steady-state
    // (unsorted) order, as on the CPU side.
    {
        let (geom, layout) = (sim.geom.clone(), sim.layout.clone());
        workloads::shuffle_particles(&mut sim.electrons, &geom, &layout, 7);
    }
    let geom = &sim.geom;
    let dims = geom.dims_with_guard();
    let grid_len = (dims[0] * dims[1] * dims[2]) as u64;
    let order = ShapeOrder::Qsp;
    let mut addrs: Vec<Vec<u64>> = Vec::new();
    for tile in &sim.electrons.tiles {
        for p in tile.soa.live_indices() {
            let (cell, _) = geom.locate(tile.soa.x[p], tile.soa.y[p], tile.soa.z[p]);
            let block = stencil_block(geom, order, cell);
            let mut list = Vec::with_capacity(3 * block.len());
            for comp in 0..3u64 {
                block.for_each_node(|_, lin| list.push((comp * grid_len + lin as u64) * 8));
            }
            addrs.push(list);
        }
    }
    let model = GpuModel::new(GpuConfig::a800());
    let flops = canonical_flops_per_particle(order);
    let rep = model.deposit(&addrs, flops, flops * 1.1);
    println!(
        "{:>14} {:>26} {:>15.2}% {:>15.2}x",
        "NVIDIA A800",
        "Baseline (CUDA model)",
        100.0 * rep.peak_fraction(model.cfg()),
        matrixpic / rep.peak_fraction(model.cfg()),
    );
    println!("\npaper ratios: MatrixPIC/VPU 1.52x, MatrixPIC/CUDA 2.79x, CUDA/Baseline 3.0x");
    println!(
        "  (A800 model: {:.0} atomic transactions, {:.0} replays, {:.2e} cycles)",
        rep.atomic_transactions as f64, rep.atomic_replays as f64, rep.cycles
    );
}
