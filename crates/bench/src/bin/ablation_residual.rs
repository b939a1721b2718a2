//! Ablation: residual vs raw encoding inside the IVF index, across
//! codecs — a design choice DESIGN.md calls out. FAISS encodes residuals
//! by default; the paper's Table 1 recalls are for raw encodings, so this
//! bench quantifies what the choice is worth on clustered data.

use hermes::datagen::{CorpusSpec, QuerySpec};
use hermes::index::{IvfIndex, SearchParams, VectorIndex};
use hermes::math::Metric;
use hermes::metrics::{recall_at_k, Row, Table};
use hermes::quant::CodecSpec;
use hermes::scenario::Scenario;
use hermes_bench::{emit, BENCH_SEED};

fn mean_recall(queries: &[Vec<f32>], truth: &[Vec<u64>], index: &IvfIndex, nprobe: usize) -> f64 {
    let params = SearchParams::new().with_nprobe(nprobe);
    let mut sum = 0.0;
    for (q, truth) in queries.iter().zip(truth) {
        let ids: Vec<u64> = index
            .search(q, 10, &params)
            .expect("search")
            .iter()
            .map(|n| n.id)
            .collect();
        sum += recall_at_k(truth, &ids, 10);
    }
    sum / queries.len() as f64
}

fn main() {
    const DIM: usize = 48;
    let scenario = Scenario::new(CorpusSpec::new(20_000, DIM, 10).with_seed(BENCH_SEED))
        .with_queries(QuerySpec::new(50));
    let (queries, truth) = (&scenario.queries, scenario.truth(Metric::InnerProduct, 10));
    let data = scenario.corpus.embeddings();

    let mut table = Table::new(
        "Ablation — residual vs raw encoding (IVF, nProbe 32, recall@10)",
        &["codec", "raw", "residual", "delta"],
    );
    for spec in [
        CodecSpec::Sq8,
        CodecSpec::Sq4,
        CodecSpec::Pq { m: DIM / 3 },
        CodecSpec::Pq { m: DIM / 2 },
    ] {
        let build = |residual: bool| {
            IvfIndex::builder()
                .nlist(64)
                .codec(spec)
                .metric(Metric::InnerProduct)
                .seed(BENCH_SEED)
                .residual(residual)
                .build(data)
                .expect("build")
        };
        let raw = mean_recall(queries, &truth, &build(false), 32);
        let res = mean_recall(queries, &truth, &build(true), 32);
        table.push(Row::new(
            spec.label(),
            vec![
                format!("{raw:.3}"),
                format!("{res:.3}"),
                format!("{:+.3}", res - raw),
            ],
        ));
    }
    emit("ablation_residual", &[&table]);

    println!(
        "shape check: residual encoding helps most where the codec is\n\
         coarsest (SQ4/PQ); SQ8 is already near-lossless on this corpus,\n\
         which is why the paper's raw-encoded SQ8 deployment loses little."
    );
}
