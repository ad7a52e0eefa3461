//! Criterion micro-benchmarks over the deposition kernels and their
//! substrates. These measure *host* execution time of the emulated
//! kernels (useful for tracking the emulator's own performance); the
//! paper-figure regeneration uses the cycle-model harness bins instead.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use mpic_core::workloads;
use mpic_deposit::common::stencil_block;
use mpic_deposit::{ExecMode, KernelConfig, Rhocell, ShapeOrder};
use mpic_grid::{FieldArrays, GridGeometry, Tile, TileLayout};
use mpic_machine::{LineCarry, Machine, MachineConfig, Phase, Pricing, TensorBlock, VAddr};
use mpic_particles::Gpma;
use mpic_push::gather::{charge_gather_run, GatherCost};
use mpic_push::{BorisCoeffs, PushCtx, PushScratch};
use mpic_solver::{MaxwellSolver, SolverKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_deposition_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("deposit_cic_ppc8");
    group.sample_size(10);
    for kernel in [
        KernelConfig::Baseline,
        KernelConfig::RhocellIncrSortVpu,
        KernelConfig::FullOpt,
    ] {
        group.bench_with_input(
            BenchmarkId::from_parameter(kernel.label()),
            &kernel,
            |b, &kernel| {
                let geom = GridGeometry::new([8, 8, 8], [0.0; 3], [1e-6; 3], 2);
                let layout = TileLayout::new(&geom, [8, 8, 8]);
                let mut container = workloads::load_uniform_plasma(
                    &geom,
                    &layout,
                    workloads::UNIFORM_DENSITY,
                    8,
                    0.01,
                    1,
                );
                let mut m = Machine::new(MachineConfig::lx2());
                let mut dep = kernel.build(ShapeOrder::Cic);
                dep.prepare(&mut m, &geom, &layout, &mut container);
                let mut fields = FieldArrays::new(&geom);
                b.iter(|| {
                    dep.sort_step(&mut m, &geom, &layout, &mut container, false);
                    dep.deposit_step(&mut m, &geom, &layout, &container, &mut fields);
                    std::hint::black_box(fields.jx.sum())
                });
            },
        );
    }
    group.finish();
}

fn bench_gpma_maintenance(c: &mut Criterion) {
    c.bench_function("gpma_apply_moves_5pct", |b| {
        let n_bins = 512;
        let n = 512 * 16;
        b.iter(|| {
            let mut cells: Vec<usize> = (0..n).map(|p| p % n_bins).collect();
            let mut g = Gpma::build(&cells, n_bins, 0.5);
            for step in 0..5 {
                for p in (step..n).step_by(20) {
                    let old = cells[p];
                    let new = if old + 1 < n_bins { old + 1 } else { old - 1 };
                    g.queue_move(p, old, new);
                    cells[p] = new;
                }
                let _ = g.apply_pending_moves(&cells);
            }
            std::hint::black_box(g.num_particles())
        });
    });
}

/// The per-step maintenance path on the `uniform_cic` workload (32^3,
/// ppc 8, FullOpt + simd) at steady state — step 81, where ~94 % of the
/// particles change cell and ~18 % change tile every step. Neither bench
/// clones inside the timed loop: each iteration moves the particles (a
/// contiguous pass, the same on any two commits) and re-sorts, so the
/// state stays at the same churn indefinitely.
fn bench_incremental_sort(c: &mut Criterion) {
    let mut sim =
        workloads::uniform_plasma_sim([32, 32, 32], 8, ShapeOrder::Cic, KernelConfig::FullOpt, 42);
    sim.cfg.batching = true;
    sim.cfg.simd = true;
    for _ in 0..80 {
        sim.step();
    }
    let (geom, layout) = (&sim.geom, &sim.layout);
    let step = mpic_grid::constants::C * sim.dt();

    // Whole `incremental_sort` after a ballistic drift of every particle:
    // locate pass + fused walk + re-homing at the real step's churn.
    c.bench_function("incremental_sort_uniform32_steady", |b| {
        let mut electrons = sim.electrons.clone();
        b.iter(|| {
            for tile in &mut electrons.tiles {
                let soa = &mut tile.soa;
                for p in 0..soa.slots() {
                    let u = [soa.ux[p], soa.uy[p], soa.uz[p]];
                    let drift = step / (1.0 + u[0] * u[0] + u[1] * u[1] + u[2] * u[2]).sqrt();
                    let pos = [
                        soa.x[p] + drift * u[0],
                        soa.y[p] + drift * u[1],
                        soa.z[p] + drift * u[2],
                    ];
                    [soa.x[p], soa.y[p], soa.z[p]] = geom.wrap_position(pos);
                }
            }
            std::hint::black_box(electrons.incremental_sort(layout, geom))
        });
    });

    // Re-homing in isolation: only the two x-face cell layers of every
    // tile move, one cell outwards, so a quarter of the particles change
    // tile (each face cell trades its population with the neighbour's
    // opposite face — density and gap headroom stay as they are) and
    // everything else stays in its bin.
    c.bench_function("rehome_departures_uniform32", |b| {
        let mut electrons = sim.electrons.clone();
        let nx = layout.tile_size[0];
        b.iter(|| {
            for tile in &mut electrons.tiles {
                for p in 0..tile.soa.slots() {
                    if !tile.soa.alive[p] {
                        continue;
                    }
                    // `cells[p]` is the tile-local cell id, x fastest.
                    let i = tile.cells[p] % nx;
                    let hop = if i == 0 {
                        -geom.dx[0]
                    } else if i == nx - 1 {
                        geom.dx[0]
                    } else {
                        continue;
                    };
                    let pos = [tile.soa.x[p] + hop, tile.soa.y[p], tile.soa.z[p]];
                    tile.soa.x[p] = geom.wrap_position(pos)[0];
                }
            }
            std::hint::black_box(electrons.incremental_sort(layout, geom))
        });
    });
}

/// The two particle layers of the `uniform_qsp` configuration (QSP,
/// FullOpt, cell runs at the streamed price) in isolation, on a 16^3
/// ppc 8 plasma 40 steps in: the sort + deposit pair as the CIC group
/// times it, and the run sweep — block gather, lane gather, lane push —
/// over every tile, which `benchmark/`'s per-particle `push.kernels`
/// span does not reach.
fn bench_qsp_streamed_layers(c: &mut Criterion) {
    let mut sim =
        workloads::uniform_plasma_sim([16, 16, 16], 8, ShapeOrder::Qsp, KernelConfig::FullOpt, 42);
    sim.cfg.batching = true;
    sim.cfg.simd = true;
    for _ in 0..40 {
        sim.step();
    }
    let (geom, layout) = (&sim.geom, &sim.layout);

    c.bench_function("deposit_qsp_fullopt_streamed", |b| {
        let mut m = Machine::new(MachineConfig::lx2());
        let mut dep = KernelConfig::FullOpt.build(ShapeOrder::Qsp);
        let mut electrons = sim.electrons.clone();
        dep.prepare(&mut m, geom, layout, &mut electrons);
        dep.set_batching(true);
        dep.set_simd(true);
        let mut fields = sim.fields.clone();
        b.iter(|| {
            dep.sort_step(&mut m, geom, layout, &mut electrons, false);
            dep.deposit_step(&mut m, geom, layout, &electrons, &mut fields);
            std::hint::black_box(fields.jx.sum())
        });
    });

    c.bench_function("push_runs_qsp_streamed", |b| {
        let mut m = Machine::new(MachineConfig::lx2());
        let len = sim.fields.ex.len();
        let ctx = PushCtx {
            geom,
            order: ShapeOrder::Qsp,
            fields: &sim.fields,
            field_addrs: std::array::from_fn(|_| m.mem().alloc_f64(len)),
            boris: BorisCoeffs::new(sim.electrons.charge, sim.electrons.mass, sim.dt()),
            absorb_z: None,
        };
        let mut scratch = PushScratch::default();
        // Every iteration pushes the same sorted state: a pushed tile's
        // particles have left their cells, so the next sweep over it
        // would see shorter runs.
        b.iter_batched(
            || sim.electrons.tiles.clone(),
            |mut tiles| {
                for tile in &mut tiles {
                    ctx.push_tile(&mut m, ExecMode::Runs, tile, &mut scratch);
                }
                tiles
            },
            BatchSize::LargeInput,
        );
    });
}

/// The two streamed block charges of the `uniform_qsp` configuration,
/// alone, over the 512 cells of the upper corner tile of its 32x32x16
/// grid — the tile whose stencils straddle the periodic wrap on every
/// axis (58 % of its cells on at least one; a third of the grid's do).
/// One iteration is one tile sweep, carry reset included: divide by 512
/// for ns per block.
fn bench_block_charges(c: &mut Criterion) {
    let geom = GridGeometry::new([32, 32, 16], [0.0; 3], [1e-6; 3], 2);
    let tile = Tile {
        lo: [24, 24, 8],
        hi: [32, 32, 16],
    };
    let dims = geom.dims_with_guard();
    let len = dims[0] * dims[1] * dims[2];

    // What the run sweep charges per same-cell run, for ppc-8 runs.
    c.bench_function("block_gather_charge_qsp_streamed", |b| {
        let mut m = Machine::new(MachineConfig::lx2());
        let field_addrs: [VAddr; 6] = std::array::from_fn(|_| m.mem().alloc_f64(len));
        let blocks: Vec<TensorBlock> = tile
            .cells()
            .map(|(_, cell)| stencil_block(&geom, ShapeOrder::Qsp, cell))
            .collect();
        b.iter(|| {
            m.in_phase(Phase::Gather, |k| {
                let mut carry = LineCarry::new();
                for block in &blocks {
                    charge_gather_run(
                        k,
                        GatherCost::default(),
                        8,
                        &field_addrs,
                        block,
                        &mut carry,
                        (len * 8) as u64,
                    );
                }
            });
            std::hint::black_box(m.counters().total_cycles())
        });
    });

    // The reduction's charge half with every component of every cell
    // live: zero tests, stencils and one fused fold per cell.
    c.bench_function("rhocell_charge_reduce_qsp_streamed", |b| {
        let mut m = Machine::new(MachineConfig::lx2());
        let mut rho = Rhocell::new(ShapeOrder::Qsp, tile.num_cells());
        for comp in 0..3 {
            for cell in 0..tile.num_cells() {
                rho.cell_slice_mut(comp, cell).fill(1.0e-3);
            }
        }
        let rho_addr = m.mem().alloc_f64(rho.len());
        let j_addr = std::array::from_fn(|_| m.mem().alloc_f64(len));
        b.iter(|| {
            rho.charge_reduce(&mut m, Pricing::Stream, &geom, &tile, rho_addr, j_addr);
            std::hint::black_box(m.counters().total_cycles())
        });
    });
}

/// Construction of the `uniform_cic` simulation (32^3, ppc 8, FullOpt):
/// the load of its 262,144 particles, the initial global sort and the
/// machine set-up — what `benchmark/` reports as `setup_s`.
fn bench_load(c: &mut Criterion) {
    c.bench_function("load_uniform_32_ppc8", |b| {
        b.iter(|| {
            let sim = workloads::uniform_plasma_sim(
                [32, 32, 32],
                8,
                ShapeOrder::Cic,
                KernelConfig::FullOpt,
                42,
            );
            std::hint::black_box(sim.num_particles())
        });
    });
}

/// One checkpoint of the `uniform_cic` simulation after a 4-step
/// warm-up, and one restore of it into the same simulation: the layer
/// behind the benchmark's `snapshot_mb` and `peak_rss_mb`. The snapshot's
/// size is printed once.
fn bench_checkpoint(c: &mut Criterion) {
    let mut sim =
        workloads::uniform_plasma_sim([32, 32, 32], 8, ShapeOrder::Cic, KernelConfig::FullOpt, 42);
    sim.cfg.batching = true;
    sim.cfg.simd = true;
    sim.run(4);
    let bytes = sim.snapshot();
    println!("uniform_32_ppc8 snapshot: {} bytes", bytes.len());
    c.bench_function("snapshot_uniform_32_ppc8", |b| {
        b.iter(|| sim.snapshot().len());
    });
    c.bench_function("restore_uniform_32_ppc8", |b| {
        b.iter(|| {
            sim.restore(&bytes).expect("a fresh snapshot restores");
            sim.step_index()
        });
    });
}

fn bench_counting_sort(c: &mut Criterion) {
    c.bench_function("counting_sort_64k", |b| {
        let mut rng = StdRng::seed_from_u64(4);
        let keys: Vec<usize> = (0..65536).map(|_| rng.gen_range(0..512)).collect();
        b.iter(|| {
            let (perm, _) = mpic_particles::counting_sort_keys(&keys, 512);
            std::hint::black_box(perm.len())
        });
    });
}

fn bench_full_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("full_pic_step");
    group.sample_size(10);
    for (name, kernel) in [
        ("baseline", KernelConfig::Baseline),
        ("matrixpic", KernelConfig::FullOpt),
    ] {
        group.bench_function(name, |b| {
            let mut sim = workloads::uniform_plasma_sim([8, 8, 8], 4, ShapeOrder::Cic, kernel, 9);
            b.iter(|| {
                sim.step();
                std::hint::black_box(sim.step_index())
            });
        });
    }
    group.finish();
}

/// The `lwfa_sparse` grid (32x32x128, non-cubic cells, guard 2) with
/// every element of the nine arrays non-zero.
fn lwfa_grid() -> (GridGeometry, FieldArrays) {
    let geom = GridGeometry::new([32, 32, 128], [0.0; 3], [0.5e-6, 0.5e-6, 0.25e-6], 2);
    let mut fields = FieldArrays::new(&geom);
    let mut rng = StdRng::seed_from_u64(14);
    let FieldArrays {
        ex,
        ey,
        ez,
        bx,
        by,
        bz,
        jx,
        jy,
        jz,
        ..
    } = &mut fields;
    for arr in [ex, ey, ez, bx, by, bz, jx, jy, jz] {
        for v in arr.as_mut_slice() {
            *v = rng.gen_range(-1.0..1.0);
        }
    }
    (geom, fields)
}

/// The grid-proportional passes of one step, on the `lwfa_sparse` grid:
/// the CKC leapfrog with its three guard exchanges, one guard exchange
/// alone, and one tile's rhocell -> grid reduction.
fn bench_grid_passes(c: &mut Criterion) {
    c.bench_function("maxwell_step_ckc_32x32x128", |b| {
        let (geom, mut fields) = lwfa_grid();
        let solver = MaxwellSolver::new(SolverKind::Ckc, &geom);
        let dt = 0.5 * solver.max_dt(&geom);
        let mut m = Machine::new(MachineConfig::lx2());
        b.iter(|| {
            solver.step(&mut m, &geom, &mut fields, dt);
            std::hint::black_box(fields.ex.get(2, 2, 2))
        });
    });
    c.bench_function("fill_guards_32x32x128", |b| {
        let (_, mut fields) = lwfa_grid();
        b.iter(|| {
            fields.fill_guards_periodic();
            std::hint::black_box(fields.bz.get(0, 0, 0))
        });
    });
    c.bench_function("rhocell_apply_8x8x64_cic", |b| {
        let (geom, mut fields) = lwfa_grid();
        let tile = Tile {
            lo: [8, 16, 64],
            hi: [16, 24, 128],
        };
        let mut rho = Rhocell::new(ShapeOrder::Cic, tile.num_cells());
        for comp in 0..3 {
            for cell in 0..tile.num_cells() {
                rho.cell_slice_mut(comp, cell).fill(1.0e-3);
            }
        }
        b.iter(|| {
            let FieldArrays { jx, jy, jz, .. } = &mut fields;
            rho.apply_to_grid(&geom, &tile, jx, jy, jz);
            std::hint::black_box(fields.jx.get(10, 18, 66))
        });
    });
}

criterion_group!(
    benches,
    bench_deposition_kernels,
    bench_gpma_maintenance,
    bench_incremental_sort,
    bench_qsp_streamed_layers,
    bench_block_charges,
    bench_load,
    bench_checkpoint,
    bench_counting_sort,
    bench_full_step,
    bench_grid_passes
);
criterion_main!(benches);
