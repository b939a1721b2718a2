//! Figure 12: design-space exploration of the sampling and deep-search
//! `nProbe` values — NDCG (measured on real indices) and latency (sample
//! phase measured, plus the at-scale model projection).

use hermes::datagen::{CorpusSpec, QuerySpec};
use hermes::math::Metric;
use hermes::metrics::{ndcg_at_k, ranking::ids, Row, Table};
use hermes::perfmodel::RetrievalModel;
use hermes::rag::{Retriever, RetrieverKind};
use hermes::scenario::Scenario;
use hermes_bench::{emit, standard_config, time_it, BENCH_SEED};

fn sweep(
    scenario: &Scenario,
    truth: &[Vec<u64>],
    sample_nprobe: usize,
    deep_nprobe: usize,
    clusters: usize,
) -> (f64, f64) {
    let cfg = standard_config()
        .with_sample_nprobe(sample_nprobe)
        .with_deep_nprobe(deep_nprobe)
        .with_clusters_to_search(clusters);
    let retriever =
        Retriever::build(RetrieverKind::Hermes, scenario.corpus.embeddings(), &cfg).expect("build");
    let mut sum = 0.0;
    let (_, secs) = time_it(|| {
        for (q, truth) in scenario.queries.iter().zip(truth) {
            let hits = retriever.retrieve(q).expect("retrieve");
            sum += ndcg_at_k(truth, &ids(&hits.hits), cfg.k);
        }
    });
    let n = scenario.queries.len() as f64;
    (sum / n, secs / n)
}

fn main() {
    let scenario = Scenario::new(CorpusSpec::new(8_000, 32, 10).with_seed(BENCH_SEED))
        .with_queries(QuerySpec::new(40));
    let truth = scenario.truth(Metric::InnerProduct, 5);

    // Left panels: vary the sampling nProbe at fixed deep nProbe 128.
    let mut small = Table::new(
        "Figure 12 (left) — sampling nProbe sweep (deep nProbe fixed at 128)",
        &[
            "clusters searched",
            "nProbe 1",
            "nProbe 2",
            "nProbe 4",
            "nProbe 8",
        ],
    );
    for clusters in [1usize, 2, 3, 4, 6, 8, 10] {
        let cells: Vec<String> = [1usize, 2, 4, 8]
            .iter()
            .map(|&np| format!("{:.3}", sweep(&scenario, &truth, np, 128, clusters).0))
            .collect();
        small.push(Row::new(clusters.to_string(), cells));
    }
    emit("fig12_small_nprobe", &[&small]);

    // Right panels: vary the deep nProbe at fixed sampling nProbe 8.
    let mut large = Table::new(
        "Figure 12 (right) — deep nProbe sweep (sampling nProbe fixed at 8)",
        &[
            "clusters searched",
            "nProbe 16",
            "nProbe 32",
            "nProbe 64",
            "nProbe 128",
        ],
    );
    for clusters in [1usize, 2, 3, 4, 6, 8, 10] {
        let cells: Vec<String> = [16usize, 32, 64, 128]
            .iter()
            .map(|&np| format!("{:.3}", sweep(&scenario, &truth, 8, np, clusters).0))
            .collect();
        large.push(Row::new(clusters.to_string(), cells));
    }
    emit("fig12_large_nprobe", &[&large]);

    // Latency panel via the calibrated model (per-cluster 10B tokens,
    // batch 128) — sample vs deep cost.
    let model = RetrievalModel::default();
    let mut latency = Table::new(
        "Figure 12 — modeled per-phase latency at 10B-token clusters (batch 128)",
        &["nProbe", "phase latency (s)"],
    );
    for np in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        latency.push(Row::new(
            np.to_string(),
            vec![format!(
                "{:.3}",
                model.batch_latency(10_000_000_000, 128, np)
            )],
        ));
    }
    emit("fig12_latency", &[&latency]);

    let (n8_128, _) = sweep(&scenario, &truth, 8, 128, 3);
    let (n1_16, _) = sweep(&scenario, &truth, 1, 16, 3);
    println!(
        "shape check: NDCG rises with both nProbes; the paper's optimum\n\
         (sample 8 / deep 128) gives {n8_128:.3} at 3 clusters vs {n1_16:.3}\n\
         for the cheapest corner, while deep latency dominates the budget."
    );
}
