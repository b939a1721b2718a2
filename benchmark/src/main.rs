//! The repo benchmark: four serving workloads driven through
//! `hermes-serve`'s virtual-time `Server`, six end-to-end metrics, and a
//! traced mode that attributes them to layers. See `README.md` for the
//! definitions and `../BENCHMARK.json` for the machine-readable contract.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <u64> [--seconds <n>] [--trace <0|1>] [--smoke]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --check-repeat [N]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --self-check
//! ```
//!
//! Every metric is printed as `name value unit`; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod probes;
mod repeat;
mod run;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use run::{RunArgs, RunResult};
use workloads::WORKLOADS;

/// `run_seconds` of `BENCHMARK.json`: how long a run's passes measure
/// when `--seconds` is not given.
pub const DEFAULT_SECONDS: f64 = 18.0;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Reading {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured, with all its digits.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Reading {
    /// A reading; non-finite values (a ratio over nothing) read as 0.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Reading {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

/// The revision of the checkout, when it is a git checkout.
fn revision() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let rev = match head.trim().strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference)).unwrap_or_default(),
        None => head,
    };
    match rev.trim() {
        "" => "unknown".to_string(),
        rev => rev.chars().take(12).collect(),
    }
}

/// The machine the numbers were taken on, as `key value` pairs.
pub fn environment() -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    vec![
        ("rev".into(), revision()),
        (
            "simd".into(),
            hermes_math::simd_level().as_str().to_string(),
        ),
        ("nproc".into(), nproc.to_string()),
        (
            "pool_width".into(),
            hermes_pool::Pool::global().threads().to_string(),
        ),
    ]
}

/// The final JSON line.
fn json_line(result: &RunResult) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        result.correct, result.attempted, result.failed
    );
    for (i, m) in result.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn print_run(args: &RunArgs, result: &RunResult) {
    println!(
        "# workload {} seed {} seconds {} traced {} smoke {}",
        args.spec.name, args.seed, args.seconds, args.traced, args.smoke
    );
    for (key, value) in environment().iter().chain(&result.info) {
        println!("# {key} {value}");
    }
    for problem in &result.problems {
        println!("# PROBLEM {problem}");
    }
    for m in &result.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", json_line(result));
}

fn usage() -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    eprintln!(
        "usage: hermes-benchmark --workload <{}> --seed <u64> [--seconds <n>] [--trace <0|1>] [--smoke]\n       hermes-benchmark --check-repeat [N]\n       hermes-benchmark --self-check",
        names.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // Pool width 1, pinned before anything can touch the global pool:
    // on a small shared box a second worker has no stable floor.
    std::env::set_var("HERMES_THREADS", "1");

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = RunArgs {
        spec: WORKLOADS[0],
        seed: 0,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
    };
    let mut workload = None;
    let mut i = 0;
    while i < argv.len() {
        let value = argv.get(i + 1).map(String::as_str);
        let mut took_value = true;
        match (argv[i].as_str(), value) {
            ("--workload", Some(name)) => workload = WORKLOADS.iter().find(|w| w.name == name),
            ("--seed", Some(v)) => match v.parse() {
                Ok(seed) => args.seed = seed,
                Err(_) => return usage(),
            },
            ("--seconds", Some(v)) => match v.parse::<f64>() {
                Ok(s) if s > 0.0 => args.seconds = s,
                _ => return usage(),
            },
            ("--trace", Some("0")) => args.traced = false,
            ("--trace", Some("1")) => args.traced = true,
            ("--trace", _) => (args.traced, took_value) = (true, false),
            ("--smoke", _) => (args.smoke, took_value) = (true, false),
            ("--self-check", _) => return repeat::self_check(),
            ("--check-repeat", v) => {
                return repeat::check_repeat(v.and_then(|v| v.parse().ok()).unwrap_or(5))
            }
            _ => return usage(),
        }
        i += 1 + usize::from(took_value);
    }
    let Some(spec) = workload else { return usage() };
    args.spec = *spec;
    match run::run(&args) {
        Ok(result) => {
            print_run(&args, &result);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark aborted: {e}");
            ExitCode::FAILURE
        }
    }
}
