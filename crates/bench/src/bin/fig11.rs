//! Figure 11: NDCG vs clusters searched for Monolithic, Split (naive),
//! Centroid-Based and Hermes — measured on real indices.

use hermes::core::HermesConfig;
use hermes::datagen::{CorpusSpec, QuerySpec};
use hermes::math::Metric;
use hermes::metrics::{ndcg_at_k, ranking::ids, Row, Table};
use hermes::rag::{Retriever, RetrieverKind};
use hermes::scenario::Scenario;
use hermes_bench::{emit, standard_config, BENCH_SEED};

fn mean_ndcg(queries: &[Vec<f32>], truth: &[Vec<u64>], retriever: &Retriever, k: usize) -> f64 {
    let mut sum = 0.0;
    for (q, truth) in queries.iter().zip(truth) {
        let hits = retriever.retrieve(q).expect("retrieve");
        sum += ndcg_at_k(truth, &ids(&hits.hits), k);
    }
    sum / queries.len() as f64
}

fn main() {
    let scenario = Scenario::new(CorpusSpec::new(30_000, 48, 10).with_seed(BENCH_SEED))
        .with_queries(QuerySpec::new(60));
    let (queries, truth) = (&scenario.queries, scenario.truth(Metric::InnerProduct, 5));
    let data = scenario.corpus.embeddings();
    let base = standard_config();

    // Monolithic reference (independent of clusters searched).
    let mono = Retriever::build(RetrieverKind::Monolithic, data, &base).expect("mono");
    let mono_ndcg = mean_ndcg(queries, &truth, &mono, base.k);

    let mut table = Table::new(
        "Figure 11 — NDCG@5 vs clusters searched in depth (10 clusters)",
        &[
            "clusters searched",
            "Monolithic",
            "Split",
            "Centroid-Based",
            "Hermes",
        ],
    );

    let mut hermes_at_3 = 0.0;
    let mut split_at_3 = 0.0;
    for m in 1..=10usize {
        let cfg = |kind_cfg: HermesConfig| kind_cfg.with_clusters_to_search(m);
        let split = Retriever::build(RetrieverKind::NaiveSplit, data, &cfg(base)).expect("split");
        let centroid =
            Retriever::build(RetrieverKind::CentroidRouted, data, &cfg(base)).expect("centroid");
        let hermes = Retriever::build(RetrieverKind::Hermes, data, &cfg(base)).expect("hermes");

        let s = mean_ndcg(queries, &truth, &split, base.k);
        let c = mean_ndcg(queries, &truth, &centroid, base.k);
        let h = mean_ndcg(queries, &truth, &hermes, base.k);
        if m == 3 {
            hermes_at_3 = h;
            split_at_3 = s;
        }
        table.push(Row::new(
            m.to_string(),
            vec![
                format!("{mono_ndcg:.3}"),
                format!("{s:.3}"),
                format!("{c:.3}"),
                format!("{h:.3}"),
            ],
        ));
    }
    emit("fig11", &[&table]);

    println!(
        "shape check: Hermes at 3 clusters ({hermes_at_3:.3}) reaches ~monolithic\n\
         accuracy ({mono_ndcg:.3}) while naive Split is still at {split_at_3:.3};\n\
         Split needs nearly all 10 clusters to catch up (paper Figure 11)."
    );
}
