//! Matrix-PIC benchmark: steady-state, two-clock (emulated cycles and
//! host wall time), layer-traced, over four workloads. See `README.md`
//! for the protocol and the metric definitions.
//!
//! Single run (what `BENCHMARK.json`'s `command` invokes; one process,
//! one workload, the last stdout line is the result object):
//!
//! ```text
//! mpic-benchmark --workload <name> --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! Orchestrated modes, each run a fresh child process of this binary:
//!
//! ```text
//! mpic-benchmark run   [--seed N] [--seconds S]   3 interleaved untraced rounds, all workloads
//! mpic-benchmark trace [--seed N] [--seconds S]   the traced run of every workload
//! mpic-benchmark aa    [--seed N] [--seconds S]   `run` twice; fails unless both sets agree
//! mpic-benchmark quick [--seed N]                 tiny grids, 2+3 steps, both run kinds
//! mpic-benchmark manifest                         prints BENCHMARK.json from the tables
//! ```

mod calib;
mod json;
mod measure;
mod metrics;
mod stats;
mod trace;
mod workloads;

use std::process::{Command, ExitCode};

use json::Json;
use measure::{Outcome, RunOpts};
use metrics::MetricDef;
use workloads::Workload;

/// Default seed. `1337` is the held-out seed: a later change that claims
/// a gain must also show it there, and must not tune against it.
const DEFAULT_SEED: u64 = 42;

/// Default length of the timed window; equals `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

/// Interleaved rounds of the `run` and `aa` modes.
const ROUNDS: usize = 3;

struct Args {
    mode: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        mode: None,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "--workload" => args.workload = Some(value(a)?),
            "--seed" => {
                args.seed = value(a)?
                    .parse()
                    .map_err(|_| "--seed takes a u64".to_string())?
            }
            "--seconds" => {
                args.seconds = value(a)?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?
            }
            "--trace" => {
                args.trace = match value(a)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => args.quick = true,
            "run" | "trace" | "aa" | "quick" | "manifest" if args.mode.is_none() => {
                args.mode = Some(a.clone());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// `BENCHMARK.json`, generated from the workload and metric tables so
/// that the file and the emitted names cannot drift apart (a test
/// compares the committed file with this).
fn manifest() -> String {
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::Str(s.to_string())).collect());
    let metric = |d: &MetricDef, bounded: bool| {
        let mut m = vec![
            ("name".to_string(), Json::Str(d.name.into())),
            ("unit".to_string(), Json::Str(d.unit.into())),
            ("better".to_string(), Json::Str(d.better.into())),
        ];
        if bounded {
            m.push(("bound".to_string(), Json::Num(d.bound)));
        }
        Json::Obj(m)
    };
    let sections = [
        (
            "command",
            strs(&[
                "cargo",
                "run",
                "--release",
                "--quiet",
                "--offline",
                "--manifest-path",
                "benchmark/Cargo.toml",
                "--",
            ]),
        ),
        ("paths", strs(&["benchmark"])),
        ("run_seconds", Json::Num(DEFAULT_SECONDS)),
        (
            "workloads",
            Json::Arr(
                workloads::ALL
                    .iter()
                    .map(|w| {
                        Json::Obj(vec![
                            ("name".into(), Json::Str(w.name.into())),
                            ("why".into(), Json::Str(w.why.into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                metrics::END_TO_END
                    .iter()
                    .map(|d| metric(d, true))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                metrics::PER_LAYER
                    .iter()
                    .map(|d| metric(d, false))
                    .collect(),
            ),
        ),
    ];
    // One top-level key per block, one array element per line.
    let mut out = String::from("{\n");
    for (i, (key, value)) in sections.iter().enumerate() {
        let sep = if i + 1 < sections.len() { "," } else { "" };
        match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {}{comma}\n", item.to_line()));
                }
                out.push_str(&format!("  ]{sep}\n"));
            }
            other => out.push_str(&format!("  \"{key}\": {}{sep}\n", other.to_line())),
        }
    }
    out.push_str("}\n");
    out
}

/// The result object of one run: exactly `correct`, `attempted`,
/// `failed` and `metrics`. A run is correct when no operation or check
/// failed and every declared metric was measured as a finite number.
fn result_object(outcome: &Outcome, table: &[MetricDef]) -> Json {
    let mut complete = true;
    let mut members = Vec::new();
    for def in table {
        let value = outcome
            .metrics
            .iter()
            .find(|(name, _)| *name == def.name)
            .map(|(_, v)| *v)
            .filter(|v| v.is_finite());
        complete &= value.is_some();
        if let Some(v) = value {
            members.push((
                def.name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(v)),
                    ("unit".into(), Json::Str(def.unit.into())),
                ]),
            ));
        }
    }
    Json::Obj(vec![
        (
            "correct".into(),
            Json::Bool(complete && outcome.checks.failed == 0),
        ),
        (
            "attempted".into(),
            Json::Num(outcome.checks.attempted.max(1) as f64),
        ),
        ("failed".into(), Json::Num(outcome.checks.failed as f64)),
        ("metrics".into(), Json::Obj(members)),
    ])
}

fn print_metric(name: &str, value: f64) {
    let unit = metrics::def(name).map_or("", |d| d.unit);
    println!("  {name:<40} {value:>16.6} {unit}");
}

/// One run in this process. Prints every metric by name and unit, the
/// check counts, a `detail` line for the orchestrated modes, and the
/// result object as the last line.
fn single_run(w: &Workload, opts: &RunOpts, trace: bool) -> ExitCode {
    let (outcome, table): (_, &[MetricDef]) = if trace {
        (trace::run_traced(w, opts), &metrics::PER_LAYER)
    } else {
        (measure::run_untraced(w, opts), &metrics::END_TO_END)
    };
    println!(
        "workload {} seed {} trace {}: {}",
        w.name,
        opts.seed,
        u8::from(trace),
        w.why
    );
    for (name, value) in &outcome.metrics {
        print_metric(name, *value);
    }
    println!(
        "  checks: attempted {} failed {}",
        outcome.checks.attempted, outcome.checks.failed
    );
    for note in &outcome.checks.notes {
        println!("  FAILED: {note}");
    }
    let detail = Json::Obj(
        outcome
            .detail
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    );
    println!("detail {}", detail.to_line());
    println!("{}", result_object(&outcome, table).to_line());
    ExitCode::SUCCESS
}

/// What a child run reported.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
    detail: Json,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Runs one workload in a fresh process of this binary and parses its
/// result line.
fn child_run(w: &Workload, opts: &RunOpts, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if opts.quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{} exited with {}: {stdout}", w.name, out.status));
    }
    let mut lines = stdout.lines().rev();
    let result = Json::parse(lines.next().ok_or("no output")?)?;
    let detail = lines
        .find_map(|l| l.strip_prefix("detail "))
        .map_or(Ok(Json::Null), Json::parse)?;
    for note in stdout.lines().filter(|l| l.contains("FAILED:")) {
        eprintln!("{}: {}", w.name, note.trim());
    }
    let num = |key: &str| {
        result
            .get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("result line lacks {key}"))
    };
    let metrics = match result.get("metrics") {
        Some(Json::Obj(members)) => members
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err("result line lacks metrics".into()),
    };
    Ok(ChildRun {
        correct: result.get("correct") == Some(&Json::Bool(true)),
        attempted: num("attempted")? as u64,
        failed: num("failed")? as u64,
        metrics,
        detail,
    })
}

/// Median over rounds and round spread of every end-to-end metric of
/// one workload, plus whether the rounds agreed where they must.
struct WorkloadSet {
    name: &'static str,
    /// `(median, spread)` in `END_TO_END` order.
    values: Vec<(f64, f64)>,
    /// Median over rounds of the raw wall-clock readings (`detail.raw`).
    raw: Vec<(String, f64)>,
    attempted: u64,
    failed: u64,
    ok: bool,
}

/// The untraced protocol: `ROUNDS` rounds interleaved across workloads
/// (w1, w2, w3, w4, w1, ...), each run a fresh process doing
/// bit-identical work, so exact metrics and the state checksum must
/// match across rounds exactly.
fn untraced_set(opts: &RunOpts) -> Result<Vec<WorkloadSet>, String> {
    let mut runs: Vec<Vec<ChildRun>> = workloads::ALL.iter().map(|_| Vec::new()).collect();
    for round in 0..ROUNDS {
        for (i, w) in workloads::ALL.iter().enumerate() {
            eprintln!("round {} of {ROUNDS}: {}", round + 1, w.name);
            runs[i].push(child_run(w, opts, false)?);
        }
    }
    let mut sets = Vec::new();
    for (w, rounds) in workloads::ALL.iter().zip(&runs) {
        let mut ok = rounds.iter().all(|r| r.correct);
        let mut values = Vec::new();
        for def in &metrics::END_TO_END {
            let per_round: Vec<f64> = rounds.iter().filter_map(|r| r.metric(def.name)).collect();
            if per_round.len() != rounds.len() {
                return Err(format!("{}: {} missing from a round", w.name, def.name));
            }
            if def.exact
                && per_round
                    .iter()
                    .any(|v| v.to_bits() != per_round[0].to_bits())
            {
                eprintln!(
                    "{}: exact metric {} differs across rounds",
                    w.name, def.name
                );
                ok = false;
            }
            values.push((stats::median(&per_round), stats::spread(&per_round)));
        }
        for key in ["state_fnv", "emu_window_cycles_bits"] {
            let first = rounds[0].detail.get(key);
            if first.is_none() || rounds.iter().any(|r| r.detail.get(key) != first) {
                eprintln!("{}: {key} differs across rounds", w.name);
                ok = false;
            }
        }
        let raw = match rounds[0].detail.get("raw") {
            Some(Json::Obj(members)) => members
                .iter()
                .map(|(key, _)| {
                    let per_round: Vec<f64> = rounds
                        .iter()
                        .filter_map(|r| r.detail.get("raw")?.get(key)?.as_f64())
                        .collect();
                    (key.clone(), stats::median(&per_round))
                })
                .collect(),
            _ => Vec::new(),
        };
        sets.push(WorkloadSet {
            name: w.name,
            values,
            raw,
            attempted: rounds.iter().map(|r| r.attempted).sum(),
            failed: rounds.iter().map(|r| r.failed).sum(),
            ok,
        });
    }
    Ok(sets)
}

fn print_set(sets: &[WorkloadSet]) {
    for set in sets {
        println!(
            "{}  (attempted {} failed {}{})",
            set.name,
            set.attempted,
            set.failed,
            if set.ok { "" } else { ", CHECKS FAILED" }
        );
        for (def, (value, spread)) in metrics::END_TO_END.iter().zip(&set.values) {
            let unresolved = if *spread > def.bound {
                "  unresolved: round spread exceeds the bound"
            } else {
                ""
            };
            println!(
                "  {:<24} {:>14.6} {:<12} spread {:>6.2}% bound {:>5.1}%{}",
                def.name,
                value,
                def.unit,
                spread * 100.0,
                def.bound * 100.0,
                unresolved
            );
        }
        for (name, value) in &set.raw {
            println!("  raw {name:<20} {value:>14.6}  (wall clock, no bound)");
        }
    }
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's
/// own direction (negative when `b` is better).
fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs();
    if def.better == "higher" {
        -change
    } else {
        change
    }
}

fn mode_run(opts: &RunOpts) -> Result<bool, String> {
    let sets = untraced_set(opts)?;
    print_set(&sets);
    Ok(sets.iter().all(|s| s.ok))
}

fn mode_aa(opts: &RunOpts) -> Result<bool, String> {
    let a = untraced_set(opts)?;
    let b = untraced_set(opts)?;
    let mut agree = a.iter().chain(&b).all(|s| s.ok);
    for (sa, sb) in a.iter().zip(&b) {
        println!("{}", sa.name);
        for (i, def) in metrics::END_TO_END.iter().enumerate() {
            let (va, vb) = (sa.values[i].0, sb.values[i].0);
            // Either set may be the one that reads worse.
            let worse = worsening(def, va, vb).max(worsening(def, vb, va)).max(0.0);
            let ok = if def.exact {
                va.to_bits() == vb.to_bits()
            } else {
                worse <= def.bound
            };
            agree &= ok;
            println!(
                "  {:<24} A {:>14.6}  B {:>14.6} {:<12} apart {:>6.2}% bound {}{}",
                def.name,
                va,
                vb,
                def.unit,
                worse * 100.0,
                if def.exact {
                    "exact".to_string()
                } else {
                    format!("{:.1}%", def.bound * 100.0)
                },
                if ok { "" } else { "  DISAGREE" }
            );
        }
    }
    Ok(agree)
}

fn print_child(w: &Workload, run: &ChildRun) {
    println!(
        "{}  (attempted {} failed {}{})",
        w.name,
        run.attempted,
        run.failed,
        if run.correct { "" } else { ", NOT CORRECT" }
    );
    for (name, value) in &run.metrics {
        print_metric(name, *value);
    }
}

fn mode_trace(opts: &RunOpts) -> Result<bool, String> {
    let mut ok = true;
    for w in &workloads::ALL {
        eprintln!("traced run: {}", w.name);
        let run = child_run(w, opts, true)?;
        print_child(w, &run);
        if let Some(file) = run.detail.get("span_file").and_then(Json::as_str) {
            println!("  spans: {file}");
        }
        ok &= run.correct;
    }
    Ok(ok)
}

fn mode_quick(opts: &RunOpts) -> Result<bool, String> {
    let mut ok = true;
    for w in &workloads::ALL {
        for trace in [false, true] {
            let run = child_run(w, opts, trace)?;
            print_child(w, &run);
            ok &= run.correct;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <name> --seed <u64> --seconds <s> --trace <0|1> | run | trace | aa | quick | manifest"
            );
            return ExitCode::from(2);
        }
    };
    // Quick runs have no timed window: fixed 2 + 3 steps.
    let quick = args.quick || args.mode.as_deref() == Some("quick");
    let opts = RunOpts {
        seed: args.seed,
        seconds: if quick { 0.0 } else { args.seconds },
        quick,
    };
    let outcome = match args.mode.as_deref() {
        None => {
            let Some(w) = args.workload.as_deref().and_then(workloads::by_name) else {
                let names: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
                eprintln!("error: --workload must be one of {names:?}");
                return ExitCode::from(2);
            };
            return single_run(w, &opts, args.trace);
        }
        Some("manifest") => {
            print!("{}", manifest());
            return ExitCode::SUCCESS;
        }
        Some("run") => mode_run(&opts),
        Some("trace") => mode_trace(&opts),
        Some("aa") => mode_aa(&opts),
        Some(_) => mode_quick(&opts),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: a run was not correct or two runs disagreed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_counts_are_within_the_contract() {
        let mut names: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
        assert!((2..=8).contains(&workloads::ALL.len()));
        assert!((1..=16).contains(&metrics::END_TO_END.len()));
        assert!((1..=128).contains(&metrics::PER_LAYER.len()));
        for w in &workloads::ALL {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for d in metrics::END_TO_END.iter().chain(&metrics::PER_LAYER) {
            names.push(d.name);
            assert!(valid_unit(d.unit), "unit of {}", d.name);
            assert!(matches!(d.better, "lower" | "higher"), "{}", d.name);
        }
        for d in &metrics::END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "bound of {}", d.name);
        }
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        let setup = metrics::def("setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let widest = metrics::END_TO_END
            .iter()
            .map(|d| d.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s has the largest bound");
    }

    #[test]
    fn committed_benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `mpic-benchmark manifest > BENCHMARK.json`"
        );
        let Json::Obj(members) = Json::parse(&committed).expect("valid JSON") else {
            panic!("BENCHMARK.json is an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert!(committed.len() <= 64 * 1024);
    }

    /// Runs both kinds of run on tiny grids and checks that the names
    /// emitted are exactly the names declared, for every workload.
    #[test]
    fn emitted_names_equal_declared_names_and_quick_runs_are_correct() {
        let opts = RunOpts {
            seed: DEFAULT_SEED,
            seconds: 0.0,
            quick: true,
        };
        for w in &workloads::ALL {
            for (outcome, table) in [
                (measure::run_untraced(w, &opts), &metrics::END_TO_END[..]),
                (trace::run_traced(w, &opts), &metrics::PER_LAYER[..]),
            ] {
                assert_eq!(outcome.checks.failed, 0, "{:?}", outcome.checks.notes);
                let mut emitted: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
                let mut declared: Vec<&str> = table.iter().map(|d| d.name).collect();
                emitted.sort_unstable();
                declared.sort_unstable();
                assert_eq!(emitted, declared, "{}", w.name);
                let result = result_object(&outcome, table);
                assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{}", w.name);
                let Json::Obj(members) = &result else {
                    panic!("result is an object");
                };
                let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            }
        }
    }

    #[test]
    fn a_missing_or_non_finite_metric_makes_the_run_incorrect() {
        let mut outcome = Outcome {
            metrics: metrics::END_TO_END.iter().map(|d| (d.name, 1.0)).collect(),
            checks: measure::Checks::default(),
            detail: Vec::new(),
        };
        let correct = |o: &Outcome| {
            result_object(o, &metrics::END_TO_END).get("correct") == Some(&Json::Bool(true))
        };
        assert!(correct(&outcome));
        outcome.metrics[0].1 = f64::NAN;
        assert!(!correct(&outcome));
        outcome.metrics.remove(0);
        assert!(!correct(&outcome));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = parse("--workload uniform_ref --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("uniform_ref"));
        assert_eq!((a.seed, a.seconds, a.trace, a.quick), (7, 2.5, true, false));
        assert!(a.mode.is_none());
        let a = parse("aa --seed 1337").unwrap();
        assert_eq!((a.mode.as_deref(), a.seed), (Some("aa"), 1337));
        assert_eq!(parse("").unwrap().seed, DEFAULT_SEED);
        for bad in [
            "--seed",
            "--seed -1",
            "--trace 2",
            "--seconds nan",
            "run run",
            "--bogus",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = metrics::def("host_step_cal").unwrap();
        let higher = metrics::def("emu_dep_mpps").unwrap();
        assert!((worsening(lower, 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 110.0) + 0.1).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
    }
}
