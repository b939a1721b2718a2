//! Pins the serving layer's core contract: **scheduling never changes
//! results**. However requests are admitted, reordered by priority,
//! coalesced into dynamic batches, or fanned out across threads, every
//! completed request must carry *exactly* — bit for bit — the
//! [`SearchOutcome`] the standalone [`Engine::execute`] returns for its
//! query.
//!
//! The matrix: {open loop, closed loop} × backend threads {1, 4, 16} ×
//! max_batch {1, 4, 8} × priority mixes.
//! (`scripts/verify.sh` additionally re-runs this whole file under
//! `HERMES_THREADS=1` and `16`, covering the pool-width axis.)

use hermes::core::exec::Engine;
use hermes::core::search::SearchOutcome;
use hermes::prelude::*;
use hermes::serve::{run_closed_loop, run_open_loop};

const THREADS: &[usize] = &[1, 4, 16];

struct Fixture {
    store: ClusteredStore,
    queries: Vec<Vec<f32>>,
}

fn fixture() -> Fixture {
    let corpus = Corpus::generate(CorpusSpec::new(2_400, 24, 6).with_seed(11));
    let config = HermesConfig::new(6)
        .with_clusters_to_search(3)
        .with_seed(12);
    let store = ClusteredStore::build(corpus.embeddings(), &config).unwrap();
    let queries = QuerySet::generate(&corpus, QuerySpec::new(20).with_seed(13)).to_vecs();
    Fixture { store, queries }
}

/// What the standalone engine says each distinct query should return.
fn reference_outcomes(engine: &Engine, queries: &[Vec<f32>]) -> Vec<SearchOutcome> {
    queries.iter().map(|q| engine.execute(q).unwrap()).collect()
}

/// Every completion must match the standalone outcome for its query
/// (request `id` uses `queries[id % len]`, the loadgen convention).
fn assert_bit_identical(
    completions: &[hermes::serve::Completion],
    reference: &[SearchOutcome],
    context: &str,
) {
    assert!(!completions.is_empty(), "{context}: no completions");
    for c in completions {
        let want = &reference[c.request.id as usize % reference.len()];
        let got = c
            .outcome
            .as_ref()
            .unwrap_or_else(|| panic!("{context}: completion without outcome"));
        assert_eq!(
            got, want,
            "{context}: request {} diverged from standalone execution",
            c.request.id
        );
    }
}

fn mixes() -> Vec<Vec<Priority>> {
    vec![
        vec![Priority::Standard],
        vec![Priority::Interactive, Priority::Standard, Priority::Batch],
        vec![
            Priority::Batch,
            Priority::Batch,
            Priority::Interactive,
            Priority::Standard,
        ],
    ]
}

#[test]
fn open_loop_serving_is_bit_identical_across_threads_and_batching() {
    let f = fixture();
    let engine = Engine::for_store(&f.store);
    let reference = reference_outcomes(&engine, &f.queries);
    for &threads in THREADS {
        for max_batch in [1usize, 4, 8] {
            for (mi, mix) in mixes().into_iter().enumerate() {
                let mut server = Server::new(
                    EngineBackend::new(Engine::for_store(&f.store), threads),
                    ServerConfig {
                        queue_capacity: 128,
                        max_batch,
                    },
                );
                // High offered rate relative to real service time forces
                // multi-request batches and priority reordering.
                let spec = OpenLoopSpec::new(60, 200_000.0)
                    .with_seed(17 + mi as u64)
                    .with_priority_cycle(mix);
                let report = run_open_loop(&mut server, &f.queries, &spec).unwrap();
                let ctx = format!("open loop threads={threads} max_batch={max_batch} mix={mi}");
                assert_eq!(
                    report.completions.len() + report.shed.len(),
                    60,
                    "{ctx}: lost requests"
                );
                assert!(report.shed.is_empty(), "{ctx}: capacity 128 must not shed");
                assert_bit_identical(&report.completions, &reference, &ctx);
            }
        }
    }
}

#[test]
fn closed_loop_serving_is_bit_identical_across_threads() {
    let f = fixture();
    let engine = Engine::for_store(&f.store);
    let reference = reference_outcomes(&engine, &f.queries);
    for &threads in THREADS {
        let mut server = Server::new(
            EngineBackend::new(Engine::for_store(&f.store), threads),
            ServerConfig {
                queue_capacity: 64,
                max_batch: 8,
            },
        );
        let spec = ClosedLoopSpec::new(48, 6)
            .with_think_ns(1_000)
            .with_priority_cycle(vec![
                Priority::Interactive,
                Priority::Standard,
                Priority::Batch,
            ]);
        let report = run_closed_loop(&mut server, &f.queries, &spec).unwrap();
        let ctx = format!("closed loop threads={threads}");
        assert_eq!(report.completions.len(), 48, "{ctx}: lost requests");
        assert_bit_identical(&report.completions, &reference, &ctx);
    }
}

#[test]
fn priority_mix_changes_order_but_never_results() {
    let f = fixture();
    let engine = Engine::for_store(&f.store);
    let reference = reference_outcomes(&engine, &f.queries);
    // Same trace under different priority assignments: each request id
    // must produce the same outcome regardless of scheduling class.
    let mut by_mix: Vec<Vec<(u64, SearchOutcome)>> = Vec::new();
    for mix in mixes() {
        let mut server = Server::new(
            EngineBackend::new(Engine::for_store(&f.store), 4),
            ServerConfig {
                queue_capacity: 64,
                max_batch: 4,
            },
        );
        let spec = OpenLoopSpec::new(36, 250_000.0)
            .with_seed(5)
            .with_priority_cycle(mix);
        let report = run_open_loop(&mut server, &f.queries, &spec).unwrap();
        assert_bit_identical(&report.completions, &reference, "priority mix");
        let mut pairs: Vec<(u64, SearchOutcome)> = report
            .completions
            .into_iter()
            .map(|c| (c.request.id, c.outcome.unwrap()))
            .collect();
        pairs.sort_by_key(|(id, _)| *id);
        by_mix.push(pairs);
    }
    for other in &by_mix[1..] {
        assert_eq!(&by_mix[0], other, "priority mix changed some result");
    }
}
