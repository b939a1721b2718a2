//! Shared plumbing for the figure/table reproduction binaries.
//!
//! Every binary follows the same contract:
//!
//! 1. Build its workload: synthetic data through
//!    [`Scenario`](hermes::scenario::Scenario), real indices at laptop
//!    scale, device models for at-scale projections.
//! 2. Print an ASCII table whose rows carry both the **paper** value and
//!    the **measured** value, so EXPERIMENTS.md can be regenerated
//!    mechanically.
//! 3. Write the same tables (markdown) into `bench_results/` ([`emit`]).
//!
//! Run everything with `cargo run -p hermes-bench --release --bin
//! all_figures`.

use std::path::PathBuf;

use hermes::core::{HermesConfig, ProbeAllocation, Routing};
use hermes::metrics::Table;

/// The base RNG seed every binary derives its streams from; printed with
/// each report for replayability.
pub const BENCH_SEED: u64 = 0x4E52_4D45; // "HERM"

/// Standard Hermes configuration for the paper-figure benches: 10
/// clusters, the paper's knobs elsewhere — its routing (document
/// sampling, [`Routing::DocumentSampling`]) and its deep stage, every
/// routed shard probed at the full `deep_nprobe`
/// ([`ProbeAllocation::PerShard`]) — so the reproduced figures measure the
/// paper's design and not this repo's defaults.
pub fn standard_config() -> HermesConfig {
    HermesConfig::new(10)
        .with_seed(BENCH_SEED + 2)
        .with_routing(Routing::DocumentSampling)
        .with_probe_allocation(ProbeAllocation::PerShard)
}

/// Directory all reports are written to (`bench_results/` under the
/// workspace root, created on demand).
pub fn out_dir() -> PathBuf {
    let dir = std::env::var("HERMES_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench_results"));
    std::fs::create_dir_all(&dir).expect("create bench_results dir");
    dir
}

/// Prints a report's tables and writes their markdown twins, in order,
/// to `bench_results/<name>.md`.
pub fn emit(name: &str, tables: &[&Table]) {
    for table in tables {
        println!("{}", table.render());
    }
    let markdown: Vec<String> = tables.iter().map(|t| t.render_markdown()).collect();
    let path = out_dir().join(format!("{name}.md"));
    std::fs::write(&path, markdown.join("\n")).expect("write report");
    println!("(written to {})\n", path.display());
}

/// Wall-clock seconds of `f`, returning `(result, seconds)`.
pub fn time_it<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = std::time::Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Formats a ratio as `N.NNx`.
pub fn ratio(a: f64, b: f64) -> String {
    format!("{:.2}x", a / b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_it_returns_result_and_duration() {
        let (v, secs) = time_it(|| 2 + 2);
        assert_eq!(v, 4);
        assert!(secs >= 0.0);
    }

    #[test]
    fn ratio_formats_two_decimals() {
        assert_eq!(ratio(9.0, 3.0), "3.00x");
    }
}
