//! The metric tables: every name the benchmark emits, with its unit and
//! direction. `BENCHMARK.json` lists the same names (a test compares
//! them); the definitions are in `README.md`.

/// One metric's declaration.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// End to end: share of the reference median by which the metric may
    /// worsen. Per layer: unused (0).
    pub bound: f64,
    /// Derived from emulated counters or byte counts only: two runs of
    /// the same code with the same seed must agree exactly, whatever the
    /// host does. (The bound still applies across seeds.)
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    exact: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        exact,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        exact: false,
    }
}

/// What a user of the simulator sees, per workload (`--trace 0`). Host
/// times that carry a bound are in cal (see `calib.rs`).
pub const END_TO_END: [MetricDef; 6] = [
    e2e("host_step_cal", "cal", "lower", 0.25, false),
    e2e("emu_ms_per_step", "ms", "lower", 0.03, true),
    e2e("emu_dep_mpps", "Mparticle/s", "higher", 0.03, true),
    e2e("setup_s", "s", "lower", 0.25, false),
    e2e("snapshot_mb", "MB", "lower", 0.06, true),
    e2e("peak_rss_mb", "MB", "lower", 0.12, false),
];

/// Single layers (layers = crates), from the traced run (`--trace 1`).
pub const PER_LAYER: [MetricDef; 51] = [
    layer("core.step_ms", "ms", "lower"),
    layer("core.step_p90_ms", "ms", "lower"),
    layer("core.host_ns_per_emu_cycle", "ns", "lower"),
    layer("core.trace_overhead_pct", "%", "lower"),
    layer("core.unattributed_ms", "ms", "lower"),
    layer("core.warmup_s", "s", "lower"),
    layer("core.snapshot_mb_per_s", "MB/s", "higher"),
    layer("core.restore_mb_per_s", "MB/s", "higher"),
    layer("core.emu_mcycles.preprocess", "Mcycle", "lower"),
    layer("core.emu_mcycles.compute", "Mcycle", "lower"),
    layer("core.emu_mcycles.sort", "Mcycle", "lower"),
    layer("core.emu_mcycles.reduce", "Mcycle", "lower"),
    layer("core.emu_mcycles.gather", "Mcycle", "lower"),
    layer("core.emu_mcycles.push", "Mcycle", "lower"),
    layer("core.emu_mcycles.fieldsolve", "Mcycle", "lower"),
    layer("core.emu_mcycles.other", "Mcycle", "lower"),
    layer("core.emu_peak_frac", "fraction", "higher"),
    layer("core.global_sorts", "count", "lower"),
    layer("core.host_ns_per_emu_cycle.gatherpush", "ns", "lower"),
    layer("core.host_ns_per_emu_cycle.sort", "ns", "lower"),
    layer("core.host_ns_per_emu_cycle.deposit", "ns", "lower"),
    layer("core.host_ns_per_emu_cycle.fieldsolve", "ns", "lower"),
    layer("push.kernels_ms", "ms", "lower"),
    layer("push.kernels_ns_per_particle", "ns", "lower"),
    layer("push.charge_ms", "ms", "lower"),
    layer("deposit.sort_ms", "ms", "lower"),
    layer("deposit.deposit_ms", "ms", "lower"),
    layer("deposit.deposit_ns_per_particle", "ns", "lower"),
    layer("deposit.emu_cycles_per_particle", "cycle", "lower"),
    layer("particles.moves_per_step", "count", "lower"),
    layer("particles.o1_insert_frac", "fraction", "higher"),
    layer("particles.rebuilds_per_step", "count", "lower"),
    layer("particles.sort_ns_per_move", "ns", "lower"),
    layer("particles.empty_ratio", "fraction", "lower"),
    layer("particles.global_sort_ms", "ms", "lower"),
    layer("particles.gpma_build_ms", "ms", "lower"),
    layer("solver.step_ms", "ms", "lower"),
    layer("solver.ns_per_cell", "ns", "lower"),
    layer("grid.fill_guards_ms", "ms", "lower"),
    layer("grid.clear_currents_ms", "ms", "lower"),
    layer("grid.shift_window_ms", "ms", "lower"),
    layer("machine.walk_seq_ns_per_line", "ns", "lower"),
    layer("machine.walk_rand_ns_per_line", "ns", "lower"),
    layer("machine.stream_ns_per_call", "ns", "lower"),
    layer("machine.mopa_ns", "ns", "lower"),
    layer("machine.l1_hit_rate", "fraction", "higher"),
    layer("machine.l2_hit_rate", "fraction", "higher"),
    layer("machine.walked_lines_per_step", "count", "lower"),
    layer("machine.mopa_per_step", "count", "lower"),
    layer("machine.vector_ops_per_step", "count", "lower"),
    layer("machine.exec_dispatch_us", "us", "lower"),
];

/// The declaration of `name` in either table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}
