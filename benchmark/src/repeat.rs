//! The benchmark's checks on itself, both run as child processes of
//! this binary so every run gets its own peak-RSS and its own pool:
//!
//! * `--check-repeat N` — the repeatability criterion: each workload in
//!   two interleaved sets (A B A B …) of `N` runs, every run on its own
//!   seed; per metric the set medians, quartiles, spread and the gap
//!   between the sets against the metric's bound.
//! * `--self-check` — the contract: all four workloads in `--smoke`,
//!   plain and traced, with the final JSON line and the trace file
//!   re-parsed and every `BENCHMARK.json` name accounted for.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};

use hermes_trace::json::{parse, Json};

use crate::stats::{median, quartiles};
use crate::workloads::WORKLOADS;

/// A metric as `BENCHMARK.json` declares it.
struct Declared {
    name: String,
    unit: String,
    bound: f64,
}

fn declared(spec: &Json, section: &str) -> Vec<Declared> {
    let text = |m: &Json, key: &str| {
        m.get(key)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    spec.get(section)
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|m| Declared {
            name: text(m, "name"),
            unit: text(m, "unit"),
            bound: m
                .get("bound")
                .and_then(Json::as_f64)
                .unwrap_or(f64::INFINITY),
        })
        .collect()
}

fn benchmark_json() -> Result<Json, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text)
}

/// Runs this binary with `args`; returns its standard output.
fn child(args: &[&str]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("{args:?} exited with {}", out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| e.to_string())
}

/// One full-size run as a child process; its final line's metrics.
fn run_child(
    workload: &str,
    seed: &str,
    seconds: &str,
    trace: &str,
) -> Result<Vec<(String, f64, String)>, String> {
    let args = [
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        seconds,
        "--trace",
        trace,
    ];
    child(&args).and_then(|out| final_line(&out))
}

/// The `metrics` of a run's final JSON line as `(name, value, unit)`,
/// after checking the line's shape.
fn final_line(stdout: &str) -> Result<Vec<(String, f64, String)>, String> {
    let line = stdout.lines().last().ok_or("no output")?;
    let Json::Obj(fields) = parse(line)? else {
        return Err("final line is not an object".into());
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("final line has keys {keys:?}"));
    }
    let doc = Json::Obj(fields);
    if doc.get("correct") != Some(&Json::Bool(true))
        || doc.get("failed").and_then(Json::as_f64) != Some(0.0)
    {
        return Err(format!("run not correct: {line}"));
    }
    if doc
        .get("attempted")
        .and_then(Json::as_f64)
        .is_none_or(|a| a < 1.0)
    {
        return Err("attempted < 1".into());
    }
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("metrics is not an object".into());
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or(format!("{name}: no value"))?;
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .ok_or(format!("{name}: no unit"))?;
            Ok((name.clone(), value, unit.to_string()))
        })
        .collect()
}

/// `--check-repeat N`.
pub fn check_repeat(n: usize) -> ExitCode {
    let spec = match benchmark_json() {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("BENCHMARK.json: {e}");
            return ExitCode::FAILURE;
        }
    };
    let end_to_end = declared(&spec, "end_to_end");
    let seconds = spec
        .get("run_seconds")
        .and_then(Json::as_f64)
        .unwrap_or(crate::DEFAULT_SECONDS)
        .to_string();
    let env: Vec<String> = crate::environment()
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{v}\""))
        .collect();
    let mut repeat = format!(
        "{{{}, \"runs_per_set\": {n}, \"workloads\": {{",
        env.join(", ")
    );
    let mut baseline = format!("{{{}, \"runs\": {n}, \"workloads\": {{", env.join(", "));
    let mut failures = 0;
    for (w, workload) in WORKLOADS.iter().enumerate() {
        // sets[s][metric] = that metric's values over set s's runs.
        let mut sets = [
            vec![Vec::new(); end_to_end.len()],
            vec![Vec::new(); end_to_end.len()],
        ];
        for i in 0..2 * n {
            let seed = (1000 * (w + 1) + i).to_string();
            let run = run_child(workload.name, &seed, &seconds, "0");
            match run {
                Ok(metrics) => {
                    for (m, d) in end_to_end.iter().enumerate() {
                        if let Some((_, value, _)) =
                            metrics.iter().find(|(name, ..)| *name == d.name)
                        {
                            sets[i % 2][m].push(*value);
                        }
                    }
                }
                Err(e) => {
                    eprintln!("{} seed {seed}: {e}", workload.name);
                    failures += 1;
                }
            }
        }
        let sep = if w == 0 { "" } else { ", " };
        let _ = write!(repeat, "{sep}\n\"{}\": {{", workload.name);
        let _ = write!(
            baseline,
            "{sep}\n\"{}\": {{\"end_to_end\": {{",
            workload.name
        );
        println!("{}", workload.name);
        for (m, d) in end_to_end.iter().enumerate() {
            let (a, b) = (&sets[0][m], &sets[1][m]);
            let (med_a, med_b) = (median(a), median(b));
            let spread = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                (q3 - q1) / median(v)
            };
            // Two-sided: the same code drifting either way is not
            // repeating.
            let gap = ((med_b - med_a) / med_a).abs();
            // The spread of setup_s is not held to its bound (only its
            // median gap is); everything else is.
            let spread_ok = d.name == "setup_s" || spread(a).max(spread(b)) <= d.bound;
            let ok = gap <= d.bound && spread_ok;
            failures += usize::from(!ok);
            println!(
                "  {:<16} A {:>12.4} (iqr {:>5.2}%)  B {:>12.4} (iqr {:>5.2}%)  gap {:>5.2}%  bound {:>4.1}%  {}",
                d.name, med_a, 100.0 * spread(a), med_b, 100.0 * spread(b), 100.0 * gap, 100.0 * d.bound,
                if ok { "ok" } else { "OVER" }
            );
            let sep = if m == 0 { "" } else { ", " };
            let (q1, q3) = quartiles(a);
            let stats = format!("\"median\": {med_a}, \"q1\": {q1}, \"q3\": {q3}");
            let _ = write!(
                repeat,
                "{sep}\n  \"{}\": {{\"a\": {a:?}, \"b\": {b:?}, \"median_a\": {med_a}, \"median_b\": {med_b}, \"spread_a\": {}, \"spread_b\": {}, \"gap\": {gap}, \"bound\": {}, \"ok\": {ok}}}",
                d.name, spread(a), spread(b), d.bound
            );
            let _ = write!(
                baseline,
                "{sep}\n  \"{}\": {{\"unit\": \"{}\", {stats}}}",
                d.name, d.unit
            );
        }
        // One traced run per workload seeds the per-layer trajectory.
        let seed = (1000 * (w + 1) + 2 * n).to_string();
        let traced = run_child(workload.name, &seed, &seconds, "1");
        let layers: Vec<String> = match traced {
            Ok(metrics) => metrics
                .iter()
                .map(|(name, value, unit)| {
                    format!("\n  \"{name}\": {{\"unit\": \"{unit}\", \"value\": {value}}}")
                })
                .collect(),
            Err(e) => {
                eprintln!("{} traced: {e}", workload.name);
                failures += 1;
                Vec::new()
            }
        };
        repeat.push('}');
        let _ = write!(baseline, "}}, \"per_layer\": {{{}}}}}", layers.join(","));
    }
    repeat.push_str("}}\n");
    baseline.push_str("}}\n");
    let out = crate::run::out_dir();
    for (file, text) in [("repeat.json", repeat), ("baseline.json", baseline)] {
        if let Err(e) = std::fs::write(out.join(file), text) {
            eprintln!("cannot write {file}: {e}");
            failures += 1;
        }
    }
    println!(
        "{failures} failures; wrote {}/repeat.json and baseline.json",
        out.display()
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--self-check`.
pub fn self_check() -> ExitCode {
    let mut problems: Vec<String> = Vec::new();
    match benchmark_json() {
        Ok(spec) => {
            let listed: Vec<&str> = spec
                .get("workloads")
                .and_then(Json::as_array)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str))
                .collect();
            let defined: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            if listed != defined {
                problems.push(format!(
                    "BENCHMARK.json lists workloads {listed:?}, the harness defines {defined:?}"
                ));
            }
            for workload in &WORKLOADS {
                for (flag, section) in [("0", "end_to_end"), ("1", "per_layer")] {
                    let what = format!("{} --trace {flag}", workload.name);
                    match child(&[
                        "--workload",
                        workload.name,
                        "--seed",
                        "7",
                        "--smoke",
                        "--trace",
                        flag,
                    ]) {
                        Ok(out) => {
                            check_output(&what, &out, &declared(&spec, section), &mut problems)
                        }
                        Err(e) => problems.push(format!("{what}: {e}")),
                    }
                }
                if let Err(e) = check_trace_file(workload.name) {
                    problems.push(format!("{} trace file: {e}", workload.name));
                }
            }
        }
        Err(e) => problems.push(format!("BENCHMARK.json: {e}")),
    }
    for p in &problems {
        println!("FAIL {p}");
    }
    println!("self-check: {} problems", problems.len());
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every declared name is well-formed, printed as `name value unit` and
/// present in the final line with its unit — and nothing else is.
fn check_output(what: &str, stdout: &str, want: &[Declared], problems: &mut Vec<String>) {
    let got = match final_line(stdout) {
        Ok(got) => got,
        Err(e) => return problems.push(format!("{what}: {e}")),
    };
    for d in want {
        let well_formed = !d.name.is_empty()
            && d.name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
        if !well_formed {
            problems.push(format!("{what}: name {:?} is not [A-Za-z0-9_.-]+", d.name));
        }
        match got.iter().find(|(name, ..)| *name == d.name) {
            Some((_, _, unit)) if *unit == d.unit => {}
            Some((_, _, unit)) => problems.push(format!(
                "{what}: {} has unit {unit}, declared {}",
                d.name, d.unit
            )),
            None => problems.push(format!("{what}: {} missing from the final line", d.name)),
        }
        let printed = stdout.lines().any(|l| {
            let mut parts = l.split(' ');
            parts.next() == Some(d.name.as_str())
                && parts.next().is_some_and(|v| v.parse::<f64>().is_ok())
                && parts.next() == Some(d.unit.as_str())
        });
        if !printed {
            problems.push(format!("{what}: no `{} <value> {}` line", d.name, d.unit));
        }
    }
    for (name, ..) in &got {
        if !want.iter().any(|d| d.name == *name) {
            problems.push(format!("{what}: {name} is not declared in BENCHMARK.json"));
        }
    }
}

/// The trace file parses, and every span names an earlier span (or
/// none) as its parent and ends no earlier than it starts.
fn check_trace_file(workload: &str) -> Result<(), String> {
    let path = crate::run::out_dir().join(format!("{workload}.trace.json"));
    let doc =
        parse(&std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?)?;
    let spans = doc
        .get("spans")
        .and_then(Json::as_array)
        .ok_or("no spans array")?;
    if spans.len() < 4 {
        return Err(format!("only {} spans", spans.len()));
    }
    for (i, s) in spans.iter().enumerate() {
        let num = |key: &str| {
            s.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("span {i}: no {key}"))
        };
        s.get("name")
            .and_then(Json::as_str)
            .ok_or(format!("span {i}: no name"))?;
        num("request_id")?;
        if num("end_ns")? < num("start_ns")? {
            return Err(format!("span {i} ends before it starts"));
        }
        match s.get("parent") {
            Some(Json::Null) => {}
            Some(Json::Num(p)) if (*p as usize) < i => {}
            other => return Err(format!("span {i}: bad parent {other:?}")),
        }
    }
    Ok(())
}
