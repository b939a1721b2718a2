//! Table 1: recall and bytes/vector for the IVF quantization schemes
//! (Flat, SQ8, SQ4, PQ, OPQ).
//!
//! The paper measures recall of each codec inside an IVF index against a
//! brute-force ground truth at d = 768. We measure the same quantity on
//! the synthetic corpus (at a bench-friendly dimension that PQ's `m`
//! divides) and report bytes/vector at both the bench dimension and the
//! paper's 768.

use hermes::datagen::{CorpusSpec, QuerySpec};
use hermes::index::{IvfIndex, SearchParams, VectorIndex};
use hermes::math::Metric;
use hermes::metrics::{recall_at_k, Row, Table};
use hermes::quant::CodecSpec;
use hermes::scenario::Scenario;
use hermes_bench::{emit, BENCH_SEED};

fn main() {
    const DIM: usize = 48;
    let scenario = Scenario::new(CorpusSpec::new(20_000, DIM, 10).with_seed(BENCH_SEED))
        .with_queries(QuerySpec::new(50));
    let truth = scenario.truth(Metric::InnerProduct, 10);
    let data = scenario.corpus.embeddings();

    // The paper's schemes, translated to the bench dimension: PQ256/OPQ256
    // quarter the SQ8 footprint (m = dim/3 ≈ 256/768 of a byte per dim is
    // not expressible, so we keep the paper's *ratios*: PQ uses dim/3
    // subspaces, "PQ384"-style uses dim/2).
    let schemes: Vec<(CodecSpec, f64)> = vec![
        (CodecSpec::Flat, 0.958),
        (CodecSpec::Sq8, 0.942),
        (CodecSpec::Sq4, 0.748),
        (CodecSpec::Pq { m: DIM / 3 }, 0.585),
        (CodecSpec::Opq { m: DIM / 3 }, 0.596),
        (CodecSpec::Pq { m: DIM / 2 }, 0.748),
        (CodecSpec::Opq { m: DIM / 2 }, 0.742),
    ];
    let paper_m: Vec<usize> = vec![768 * 4, 768, 384, 256, 256, 384, 384];

    let mut table = Table::new(
        format!("Table 1 — IVF quantization schemes (seed {BENCH_SEED:#x})"),
        &[
            "scheme",
            "recall@10 (paper)",
            "recall@10 (measured)",
            "bytes/vec @768 (paper)",
            "bytes/vec (bench d=48)",
        ],
    );

    let params = SearchParams::new().with_nprobe(32);
    for ((spec, paper_recall), paper_bytes) in schemes.iter().zip(&paper_m) {
        let index = IvfIndex::builder()
            .nlist(64)
            .codec(*spec)
            .metric(Metric::InnerProduct)
            .seed(BENCH_SEED)
            .build(data)
            .expect("build IVF");
        let mut recall_sum = 0.0;
        for (q, truth) in scenario.queries.iter().zip(&truth) {
            let hits = index.search(q, 10, &params).expect("search");
            let ids: Vec<u64> = hits.iter().map(|n| n.id).collect();
            recall_sum += recall_at_k(truth, &ids, 10);
        }
        let measured = recall_sum / scenario.queries.len() as f64;
        table.push(Row::new(
            spec.label(),
            vec![
                format!("{paper_recall:.3}"),
                format!("{measured:.3}"),
                paper_bytes.to_string(),
                spec.code_size(DIM).to_string(),
            ],
        ));
    }
    emit("table1", &[&table]);

    println!(
        "shape check: Flat ≥ SQ8 > SQ4 ≥ PQ variants in recall; SQ8 is the\n\
         memory/recall sweet spot the paper deploys."
    );
}
