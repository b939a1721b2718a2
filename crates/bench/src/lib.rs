//! Shared plumbing for the figure/table reproduction binaries.
//!
//! Every binary follows the same contract:
//!
//! 1. Build its workload (real indices at laptop scale, device models for
//!    at-scale projections).
//! 2. Print an ASCII table whose rows carry both the **paper** value and
//!    the **measured** value, so EXPERIMENTS.md can be regenerated
//!    mechanically.
//! 3. Write the same table (markdown) into `bench_results/`.
//!
//! Run everything with `cargo run -p hermes-bench --release --bin
//! all_figures`.

use std::path::PathBuf;

use hermes_core::{HermesConfig, ProbeAllocation};
use hermes_datagen::{Corpus, CorpusSpec, QuerySet, QuerySpec};
use hermes_index::FlatIndex;
use hermes_math::Metric;
use hermes_metrics::Table;

/// The base RNG seed every binary derives its streams from; printed with
/// each report for replayability.
pub const BENCH_SEED: u64 = 0x4E52_4D45; // "HERM"

/// An evaluation workload: corpus, queries, and per-query brute-force
/// ground truth (the paper's NDCG oracle).
#[derive(Debug)]
pub struct EvalSetup {
    /// The synthetic corpus.
    pub corpus: Corpus,
    /// The query workload.
    pub queries: QuerySet,
    /// Brute-force top-k ids per query.
    pub truth: Vec<Vec<u64>>,
}

impl EvalSetup {
    /// Builds a workload and computes the exact ground truth for `k`.
    pub fn new(docs: usize, dim: usize, topics: usize, num_queries: usize, k: usize) -> Self {
        let corpus = Corpus::generate(CorpusSpec::new(docs, dim, topics).with_seed(BENCH_SEED));
        let queries = QuerySet::generate(
            &corpus,
            QuerySpec::new(num_queries).with_seed(BENCH_SEED + 1),
        );
        let oracle = FlatIndex::new(corpus.embeddings().clone(), Metric::InnerProduct);
        // The exhaustive oracle scan is the slowest part of every
        // accuracy bench; it fans out per query on the shared pool.
        let truth = hermes_metrics::ground_truth(&oracle, &queries.to_vecs(), k)
            .expect("oracle search");
        EvalSetup {
            corpus,
            queries,
            truth,
        }
    }

    /// The standard evaluation corpus for accuracy figures (Fig 11/12):
    /// 30k docs, 48 dims, 10 topics, 60 queries, k = 5.
    pub fn standard() -> Self {
        EvalSetup::new(30_000, 48, 10, 60, 5)
    }

    /// A smaller workload for sweeps that rebuild stores repeatedly.
    pub fn small() -> Self {
        EvalSetup::new(8_000, 32, 10, 40, 5)
    }
}

/// Standard Hermes configuration for the paper-figure benches: 10
/// clusters, the paper's knobs elsewhere — its deep stage included, every
/// routed shard probed at the full `deep_nprobe`
/// ([`ProbeAllocation::PerShard`]), so the reproduced figures measure the
/// paper's design and not this repo's default.
pub fn standard_config() -> HermesConfig {
    HermesConfig::new(10)
        .with_seed(BENCH_SEED + 2)
        .with_probe_allocation(ProbeAllocation::PerShard)
}

/// Directory all reports are written to (`bench_results/` under the
/// workspace root, created on demand).
pub fn out_dir() -> PathBuf {
    let dir = std::env::var("HERMES_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench_results")
        });
    std::fs::create_dir_all(&dir).expect("create bench_results dir");
    dir
}

/// Prints a report table and writes its markdown twin to
/// `bench_results/<name>.md`.
pub fn emit(name: &str, table: &Table) {
    println!("{}", table.render());
    let path = out_dir().join(format!("{name}.md"));
    std::fs::write(&path, table.render_markdown()).expect("write report");
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
    fn eval_setup_has_truth_per_query() {
        let s = EvalSetup::new(500, 8, 4, 7, 3);
        assert_eq!(s.truth.len(), 7);
        assert!(s.truth.iter().all(|t| t.len() == 3));
    }

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
