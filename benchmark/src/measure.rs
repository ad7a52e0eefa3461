//! The untraced run (`--trace 0`): set-up, warm-up, the measured window
//! on both clocks, and the output checks. Tracing is off: the only
//! instrumentation is one `Instant` pair around each
//! `Simulation::step()`, between two calibration passes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mpic_core::{RunReport, Simulation, StepTimings};

use crate::calib::{Calibration, NOMINAL_PASS_SECONDS};
use crate::json::Json;
use crate::stats::{fnv1a64, median};
use crate::workloads::{Workload, WARMUP_STEPS};

/// Measured steps whose emulated totals feed the exact metrics. The
/// timed window keeps stepping until `--seconds` have passed, so its
/// length depends on the host; this prefix does not, which keeps every
/// emulated number a pure function of (code, workload, seed).
pub const EMU_WINDOW_STEPS: usize = 32;

/// A repeated measurement (construction, snapshot, restore) is taken at
/// least `MIN_REPS` times and until `REPS_SECONDS` have been spent on
/// it, so that the median of a fast operation rests on many samples; a
/// quick run stops at `MIN_REPS`.
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 50;
const REPS_SECONDS: f64 = 1.0;

/// Calls `op` — which returns the seconds it measured and a sample —
/// per the rule above and returns the samples.
pub fn repeat_timed<T>(quick: bool, mut op: impl FnMut() -> (f64, T)) -> Vec<T> {
    let mut samples = Vec::new();
    let mut spent = 0.0;
    while samples.len() < MIN_REPS || (!quick && spent < REPS_SECONDS && samples.len() < MAX_REPS) {
        let (seconds, sample) = op();
        spent += seconds;
        samples.push(sample);
    }
    samples
}

/// Inputs of one run.
pub struct RunOpts {
    pub seed: u64,
    /// Length of the timed window in seconds.
    pub seconds: f64,
    /// Tiny grids, 2 warm-up + 3 measured steps (smoke runs and tests).
    pub quick: bool,
}

impl RunOpts {
    pub fn warmup_steps(&self) -> usize {
        if self.quick {
            2
        } else {
            WARMUP_STEPS
        }
    }

    pub fn emu_window_steps(&self) -> usize {
        if self.quick {
            3
        } else {
            EMU_WINDOW_STEPS
        }
    }
}

/// Attempted and failed operations of a run (steps, snapshots, restores
/// and the checks on their outputs).
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Checks {
    /// Counts one operation or check; `what` names it if it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }
}

/// What a run produced: metric values, the check counts, and the facts
/// the orchestrated modes compare across processes. A run that stopped
/// early (a step panicked) has its failed checks and no metrics.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub checks: Checks,
    pub detail: Vec<(&'static str, Json)>,
}

/// The conserved quantities of a periodic workload, fixed before the
/// first checked step.
pub struct Invariants {
    particles: usize,
    charge: f64,
}

impl Invariants {
    pub fn of(w: &Workload, sim: &Simulation) -> Option<Self> {
        w.periodic.then(|| Self {
            particles: sim.num_particles(),
            charge: sim.total_charge(),
        })
    }
}

/// One `Simulation::step()` under `catch_unwind`, timed. Returns the
/// step's emulated timings and its host nanoseconds, or `None` if the
/// step panicked — the simulation is then unusable and the run stops.
pub fn timed_step(sim: &mut Simulation, checks: &mut Checks) -> Option<(StepTimings, f64)> {
    let index = sim.step_index() + 1;
    let start = Instant::now();
    let stepped = catch_unwind(AssertUnwindSafe(|| sim.step()));
    let host_ns = start.elapsed().as_nanos() as f64;
    checks.check(stepped.is_ok(), || format!("step {index} panicked"));
    Some((stepped.ok()?, host_ns))
}

/// The per-step output checks: finite energies, and on a periodic
/// workload constant particle count and total charge.
pub fn check_outputs(sim: &Simulation, inv: &Option<Invariants>, checks: &mut Checks) {
    let index = sim.step_index();
    checks.check(
        sim.kinetic_energy().is_finite() && sim.field_energy().is_finite(),
        || format!("step {index}: non-finite energy"),
    );
    if let Some(inv) = inv {
        checks.check(sim.num_particles() == inv.particles, || {
            format!("step {index}: particle count changed on a periodic workload")
        });
        let drift = ((sim.total_charge() - inv.charge) / inv.charge).abs();
        checks.check(drift <= 1e-12, || {
            format!("step {index}: total charge drifted by {drift:e}")
        });
    }
}

/// [`timed_step`] followed by [`check_outputs`] (outside the timed
/// interval).
pub fn checked_step(
    sim: &mut Simulation,
    inv: &Option<Invariants>,
    checks: &mut Checks,
) -> Option<(StepTimings, f64)> {
    let stepped = timed_step(sim, checks)?;
    check_outputs(sim, inv, checks);
    Some(stepped)
}

/// Steps `n` times with the per-step checks; `None` if a step panicked.
pub fn warm_up(
    sim: &mut Simulation,
    n: usize,
    inv: &Option<Invariants>,
    checks: &mut Checks,
) -> Option<()> {
    for _ in 0..n {
        checked_step(sim, inv, checks)?;
    }
    Some(())
}

/// Checks that `snapshot -> restore -> snapshot` of the current state is
/// byte-identical.
pub fn check_checkpoint_round_trip(sim: &mut Simulation, checks: &mut Checks) {
    let bytes = sim.snapshot();
    checks.check(!bytes.is_empty(), || "empty snapshot".into());
    let restored = sim.restore(&bytes);
    checks.check(restored.is_ok(), || format!("restore failed: {restored:?}"));
    checks.check(sim.snapshot() == bytes, || {
        "snapshot -> restore -> snapshot is not byte-identical".into()
    });
}

/// Peak resident set (`VmHWM`) of this process in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Emulated milliseconds per step and deposition-kernel throughput
/// (`RunReport::particles_per_second`, the paper's metric) over `steps`.
fn emulated_window(sim: &Simulation, steps: &[StepTimings]) -> (f64, f64) {
    let report = RunReport {
        steps: steps.to_vec(),
        useful_flops: 0.0,
    };
    let clock = &sim.cfg.machine;
    (
        report.wall_seconds_per_step(clock) * 1e3,
        report.particles_per_second(clock) / 1e6,
    )
}

/// The untraced run of one workload.
pub fn run_untraced(w: &Workload, opts: &RunOpts) -> Outcome {
    let mut out = Outcome::default();
    // `None` means a step panicked: the failed check is already counted.
    let _ = measure_untraced(w, opts, &mut out);
    out
}

fn measure_untraced(w: &Workload, opts: &RunOpts, out: &mut Outcome) -> Option<()> {
    let checks = &mut out.checks;
    let mut cal = Calibration::new();

    // Set-up: repeated constructions, each dropped before the next.
    let mut sim = None;
    let (setup_wall_s, setup_cal): (Vec<f64>, Vec<f64>) = repeat_timed(opts.quick, || {
        drop(sim.take());
        let (built, seconds, in_cal) = cal.bracket(|| w.build(opts.seed, opts.quick));
        sim = Some(built);
        (seconds, (seconds, in_cal))
    })
    .into_iter()
    .unzip();
    let mut sim = sim.expect("at least MIN_REPS constructions");
    let inv = Invariants::of(w, &sim);
    warm_up(&mut sim, opts.warmup_steps(), &inv, checks)?;

    // The measured window: at least the emulated prefix, then until the
    // clock runs out.
    let emu_steps = opts.emu_window_steps();
    let mut timings = Vec::new();
    let mut host_ns = Vec::new();
    let mut host_cal = Vec::new();
    let mut prefix_state = None;
    let window = Instant::now();
    while timings.len() < emu_steps || window.elapsed().as_secs_f64() < opts.seconds {
        let (stepped, _, in_cal) = cal.bracket(|| timed_step(&mut sim, checks));
        let (t, ns) = stepped?;
        check_outputs(&sim, &inv, checks);
        timings.push(t);
        host_ns.push(ns);
        host_cal.push(in_cal);
        if timings.len() == emu_steps {
            // State at a host-independent step: its size and checksum
            // are exact, unlike the end-of-window state.
            let snap = sim.snapshot();
            prefix_state = Some((snap.len(), fnv1a64(&snap)));
        }
    }
    let (prefix_bytes, prefix_fnv) = prefix_state.expect("the window covers the prefix");
    // The calibration arrays are resident and not the simulator's.
    let rss = peak_rss_mb().map(|mb| mb - cal.resident_bytes() as f64 / (1024.0 * 1024.0));
    checks.check(rss.is_some(), || {
        "VmHWM not readable from /proc/self/status".into()
    });
    check_checkpoint_round_trip(&mut sim, checks);

    let (emu_ms, emu_mpps) = emulated_window(&sim, &timings[..emu_steps]);
    out.metrics.extend([
        ("host_step_cal", median(&host_cal)),
        ("emu_ms_per_step", emu_ms),
        ("emu_dep_mpps", emu_mpps),
        ("setup_s", median(&setup_cal) * NOMINAL_PASS_SECONDS),
        ("snapshot_mb", prefix_bytes as f64 / 1e6),
        ("peak_rss_mb", rss.unwrap_or(f64::NAN)),
    ]);

    // Raw wall-clock readings behind the calibrated metrics: informative
    // on a quiet host, not comparable across the host's speed phases.
    let per_cycle: Vec<f64> = host_ns
        .iter()
        .zip(&timings)
        .map(|(ns, t)| ns / t.total())
        .collect();
    let host_ms: Vec<f64> = host_ns.iter().map(|ns| ns * 1e-6).collect();
    let raw = [
        ("host_step_p50_ms", median(&host_ms)),
        ("host_ns_per_emu_cycle", median(&per_cycle)),
        ("setup_wall_s", median(&setup_wall_s)),
        ("cal_pass_ms", cal.median_pass_seconds() * 1e3),
    ];
    let prefix_cycles: f64 = timings[..emu_steps].iter().map(StepTimings::total).sum();
    out.detail.extend([
        ("steps_measured", Json::Num(timings.len() as f64)),
        (
            "first_measured_step",
            Json::Num((opts.warmup_steps() + 1) as f64),
        ),
        ("emu_window_steps", Json::Num(emu_steps as f64)),
        // Bit patterns as hex strings: a JSON number would round them.
        (
            "emu_window_cycles_bits",
            Json::Str(format!("{:016x}", prefix_cycles.to_bits())),
        ),
        ("state_fnv", Json::Str(format!("{prefix_fnv:016x}"))),
        (
            "raw",
            Json::Obj(
                raw.into_iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(v)))
                    .collect(),
            ),
        ),
    ]);
    Some(())
}
