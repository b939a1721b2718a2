//! Figure 4: HNSW vs IVF — latency, throughput (batch 32 and 128) and
//! memory footprint, compared **at matched recall** as the paper does
//! ("significantly higher throughput with a similar recall").
//!
//! Measured on real in-process indices over the synthetic corpus, plus
//! the memory model's projection to the paper's 10B-token scale. The
//! operating points, their recall and the indices' memory are the same
//! on every run (`fig04_operating_points.md`); the wall-clock latency and
//! QPS are not (`fig04_measured.md`).

use hermes::datagen::{CorpusSpec, DatastoreScale, QuerySpec};
use hermes::index::{HnswIndex, IvfIndex, SearchParams, VectorIndex, VectorStorage};
use hermes::math::Metric;
use hermes::metrics::{recall_at_k, Row, Table};
use hermes::quant::CodecSpec;
use hermes::scenario::Scenario;
use hermes_bench::{emit, time_it, BENCH_SEED};

const RECALL_TARGET: f64 = 0.94; // the paper's IVF-SQ8 operating point

fn mean_recall(
    queries: &[Vec<f32>],
    truth: &[Vec<u64>],
    index: &dyn VectorIndex,
    params: &SearchParams,
) -> f64 {
    let mut sum = 0.0;
    for (q, truth) in queries.iter().zip(truth) {
        let ids: Vec<u64> = index
            .search(q, 10, params)
            .expect("search")
            .iter()
            .map(|n| n.id)
            .collect();
        sum += recall_at_k(truth, &ids, 10);
    }
    sum / queries.len() as f64
}

fn main() {
    let scenario = Scenario::new(CorpusSpec::new(80_000, 48, 10).with_seed(BENCH_SEED))
        .with_queries(QuerySpec::new(128));
    let (queries, truth) = (&scenario.queries, scenario.truth(Metric::InnerProduct, 10));
    let data = scenario.corpus.embeddings();

    let ivf = IvfIndex::builder()
        .codec(CodecSpec::Sq8)
        .metric(Metric::InnerProduct)
        .seed(BENCH_SEED)
        .build(data)
        .expect("build IVF");
    let hnsw = HnswIndex::builder()
        .m(16)
        .ef_construction(80)
        .storage(VectorStorage::F16)
        .metric(Metric::InnerProduct)
        .seed(BENCH_SEED)
        .build(data)
        .expect("build HNSW");

    // Find the cheapest operating point of each index reaching the target
    // recall.
    let ivf_params = [4usize, 8, 16, 32, 64, 128, 256]
        .iter()
        .map(|&np| SearchParams::new().with_nprobe(np))
        .find(|p| mean_recall(queries, &truth, &ivf, p) >= RECALL_TARGET)
        .unwrap_or_else(|| SearchParams::new().with_nprobe(256));
    let hnsw_params = [16usize, 24, 32, 48, 64, 128]
        .iter()
        .map(|&ef| SearchParams::new().with_ef_search(ef))
        .find(|p| mean_recall(queries, &truth, &hnsw, p) >= RECALL_TARGET)
        .unwrap_or_else(|| SearchParams::new().with_ef_search(128));
    let ivf_recall = mean_recall(queries, &truth, &ivf, &ivf_params);
    let hnsw_recall = mean_recall(queries, &truth, &hnsw, &hnsw_params);

    let mut points = Table::new(
        format!(
            "Figure 4 — operating points: the cheapest setting reaching \
             recall@10 >= {RECALL_TARGET}, else the largest tried"
        ),
        &["index", "setting", "recall@10", "memory (MB)"],
    );
    for (name, setting, recall, mem) in [
        (
            "IVF-SQ8",
            format!("nProbe {}", ivf_params.nprobe),
            ivf_recall,
            ivf.memory_bytes(),
        ),
        (
            "HNSW-fp16",
            format!("ef {}", hnsw_params.ef_search),
            hnsw_recall,
            hnsw.memory_bytes(),
        ),
    ] {
        points.push(Row::new(
            name,
            vec![
                setting,
                format!("{recall:.3}"),
                format!("{:.1}", mem as f64 / 1e6),
            ],
        ));
    }
    emit("fig04_operating_points", &[&points]);

    let mut table = Table::new(
        format!(
            "Figure 4 — HNSW vs IVF latency and throughput at the operating \
             points (IVF nProbe {}, HNSW ef {})",
            ivf_params.nprobe, hnsw_params.ef_search
        ),
        &["index", "batch", "latency (s)", "QPS"],
    );
    let mut lat = std::collections::HashMap::new();
    for batch in [32usize, 128] {
        let qs = &queries[..batch];
        // Repeat to stabilize timing on small batches.
        let reps = 5;
        let (_, ivf_s) = time_it(|| {
            for _ in 0..reps {
                ivf.batch_search(qs, 10, &ivf_params, 1).expect("ivf");
            }
        });
        let (_, hnsw_s) = time_it(|| {
            for _ in 0..reps {
                hnsw.batch_search(qs, 10, &hnsw_params, 1).expect("hnsw");
            }
        });
        let (ivf_s, hnsw_s) = (ivf_s / reps as f64, hnsw_s / reps as f64);
        lat.insert(("ivf", batch), ivf_s);
        lat.insert(("hnsw", batch), hnsw_s);
        for (name, secs) in [("IVF-SQ8", ivf_s), ("HNSW-fp16", hnsw_s)] {
            table.push(Row::new(
                name,
                vec![
                    batch.to_string(),
                    format!("{secs:.4}"),
                    format!("{:.0}", batch as f64 / secs),
                ],
            ));
        }
    }
    emit("fig04_measured", &[&table]);

    // At-scale projection (paper's 10B-token index).
    let ds = DatastoreScale::paper(10_000_000_000);
    let mut proj = Table::new(
        "Figure 4 — memory at 10B tokens (paper: IVF 71 GB, HNSW 166 GB)",
        &["index", "paper (GB)", "model (GB)"],
    );
    proj.push(Row::new(
        "IVF-SQ8",
        vec![
            "71".into(),
            format!("{:.0}", ds.index_bytes_sq8() as f64 / 1e9),
        ],
    ));
    proj.push(Row::new(
        "HNSW-fp16",
        vec![
            "166".into(),
            format!("{:.0}", ds.index_bytes_hnsw() as f64 / 1e9),
        ],
    ));
    emit("fig04_memory", &[&proj]);

    let speedup = lat[&("ivf", 128)] / lat[&("hnsw", 128)];
    let mem_ratio = hnsw.memory_bytes() as f64 / ivf.memory_bytes() as f64;
    println!(
        "shape check: at batch 128 HNSW answers {speedup:.2}x as fast as IVF\n\
         (paper ~2.4x at 100M vectors and matched recall; here recall@10\n\
         is {hnsw_recall:.3} vs {ivf_recall:.3}) while using {mem_ratio:.2}x\n\
         the memory (paper ~2.3x)."
    );
}
