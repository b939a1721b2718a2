//! Extension experiment (beyond the paper's figures): intra-query shard
//! parallelism. A single interactive query deep-searches m clusters; the
//! execution engine can run those m shard searches sequentially (a batch
//! of one at width 1, `execute_coalesced(&[q], 1)`, the pre-engine
//! behaviour) or scatter them across the shared pool (width 0, what
//! `execute` runs). This bench measures the single-query latency both ways at
//! m ∈ {3, 8} and checks the scattered results stay bit-identical.

use hermes::core::Engine;
use hermes::datagen::{CorpusSpec, QuerySpec};
use hermes::metrics::{Row, Table};
use hermes::scenario::Scenario;
use hermes_bench::{emit, standard_config, time_it, BENCH_SEED};

const DOCS: usize = 60_000;
const DIM: usize = 32;
const CLUSTERS: usize = 10;
const QUERIES: usize = 40;
const REPS: usize = 3;

/// Mean latency of one query at shard fan-out width `threads` (`1` =
/// sequential, `0` = full pool).
fn mean_latency_s(engine: &Engine, queries: &[Vec<f32>], threads: usize) -> f64 {
    // Warm the pool and caches once, then keep the fastest of REPS
    // passes (least scheduler noise).
    for q in queries.iter().take(4) {
        engine.execute_coalesced(&[q], threads).expect("warmup");
    }
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let (_, secs) = time_it(|| {
            for q in queries {
                engine.execute_coalesced(&[q], threads).expect("search");
            }
        });
        best = best.min(secs);
    }
    best / queries.len() as f64
}

fn main() {
    let scenario = Scenario::new(CorpusSpec::new(DOCS, DIM, CLUSTERS).with_seed(BENCH_SEED))
        .with_queries(QuerySpec::new(QUERIES));
    let qs = &scenario.queries;
    let cfg = standard_config();
    let store = scenario.store(&cfg).expect("store");

    let mut table = Table::new(
        format!(
            "Extension — single-query latency: sequential shards vs scattered \
             ({DOCS} docs, {CLUSTERS} clusters, pool width {})",
            hermes::pool::Pool::global().threads()
        ),
        &[
            "clusters searched (m)",
            "sequential (ms)",
            "scattered (ms)",
            "speedup",
        ],
    );
    let mut speedups = Vec::new();
    for m in [3usize, 8] {
        let cfg_m = cfg.with_clusters_to_search(m);
        let engine = Engine::new(&store, &cfg_m);
        for q in qs.iter().take(8) {
            assert_eq!(
                engine.execute_coalesced(&[q], 1).expect("sequential"),
                engine.execute_coalesced(&[q], 0).expect("scattered"),
                "scatter changed results at m={m}"
            );
        }
        let seq_s = mean_latency_s(&engine, qs, 1);
        let sc_s = mean_latency_s(&engine, qs, 0);
        let speedup = seq_s / sc_s;
        speedups.push((m, speedup));
        table.push(Row::new(
            m.to_string(),
            vec![
                format!("{:.3}", seq_s * 1e3),
                format!("{:.3}", sc_s * 1e3),
                format!("{speedup:.2}x"),
            ],
        ));
    }
    emit("ext_intra_query", &[&table]);

    println!(
        "shape check: scattering one query's m deep searches across the\n\
         pool gives {:.2}x at m=3 and {:.2}x at m=8, with bit-identical\n\
         hits and costs. The speedup tracks min(m, physical cores): on a\n\
         single-core host both paths collapse to the sequential loop\n\
         (expect ~1.0x with a few percent of pool overhead), while each\n\
         additional core raises the ceiling toward m×.",
        speedups[0].1, speedups[1].1
    );
}
